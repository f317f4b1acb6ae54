(** Simulated physical memory: a frame allocator plus byte storage.

    Frames are 4 KiB and lazily backed by [Bytes]; a multi-gigabyte
    "physical" memory only costs host RAM for frames actually written. *)

val page_size : int
val page_shift : int

type frame = int

type t

(** [create ~frames] makes a physical memory of [frames] 4 KiB frames. *)
val create : frames:int -> t

val total_frames : t -> int
val frames_in_use : t -> int

(** [alloc_frame t] grabs a zeroed frame with reference count 1. Raises
    [Out_of_memory]. *)
val alloc_frame : t -> frame

(** [ref_frame t f] — one more mapping shares the frame (shared memory
    across page tables). *)
val ref_frame : t -> frame -> unit

(** [free_frame t f] — drop one reference; the frame returns to the free
    list when the last reference dies. *)
val free_frame : t -> frame -> unit

val refcount : t -> frame -> int

val frame_to_int : frame -> int
val frame_of_int : t -> int -> frame

(** Byte access within a frame; [off] in [\[0, page_size)]. *)
val read_byte : t -> frame -> int -> char
val write_byte : t -> frame -> int -> char -> unit
val read_bytes : t -> frame -> int -> int -> bytes

(** [read_into t f off dst dst_off len] copies [len] bytes of the frame
    into [dst] without an intermediate buffer. *)
val read_into : t -> frame -> int -> bytes -> int -> int -> unit

val write_bytes : t -> frame -> int -> bytes -> int -> int -> unit

(** 64-bit little-endian access (must not cross the frame boundary). *)
val read_int64 : t -> frame -> int -> int64
val write_int64 : t -> frame -> int -> int64 -> unit
