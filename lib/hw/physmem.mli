(** Simulated physical memory: a frame allocator plus byte storage.

    Frames are 4 KiB, stored as 128-byte lines that each take host RAM
    on their first write; a multi-gigabyte "physical" memory only costs
    host RAM for the lines actually written, and a line never written
    reads as zeroes. Per-frame state (reference counts, the slots of a
    written frame's lines) lives in frame-indexed arrays that grow by
    doubling with the highest frame handed out, so allocation, reference
    counting and access to a written line allocate nothing once the
    arrays have grown. *)

val page_size : int
val page_shift : int

type frame = int

type t

(** [create ~frames] makes a physical memory of [frames] 4 KiB frames. *)
val create : frames:int -> t

val frames_in_use : t -> int

(** [alloc_frame t] grabs a zeroed frame with reference count 1: the
    most recently freed frame if any, else the lowest never-used one.
    Raises [Out_of_memory]. *)
val alloc_frame : t -> frame

(** [ref_frame t f] — one more mapping shares the frame (shared memory
    across page tables). *)
val ref_frame : t -> frame -> unit

(** [free_frame t f] — drop one reference; the frame returns to the free
    list when the last reference dies. *)
val free_frame : t -> frame -> unit

(** A frame's reference count. Kept for the tests, which check frame
    sharing and freeing against a model. *)
val refcount : t -> frame -> int

(** Byte access within a frame; [off] in [\[0, page_size)]. Every
    accessor raises [Invalid_argument] for a frame outside
    [\[0, frames)] or a range outside the page; an in-range frame never
    written reads as zeroes. *)
val read_byte : t -> frame -> int -> char
val write_byte : t -> frame -> int -> char -> unit
val read_bytes : t -> frame -> int -> int -> bytes

(** [read_into t f off dst dst_off len] copies [len] bytes of the frame
    into [dst] without an intermediate buffer. *)
val read_into : t -> frame -> int -> bytes -> int -> int -> unit

val write_bytes : t -> frame -> int -> bytes -> int -> int -> unit

(** 64-bit little-endian access to an OCaml [int] (must not cross the
    frame boundary): [write_word] stores the int sign-extended to 64
    bits, [read_word] drops the word's top bit. Neither allocates. *)
val read_word : t -> frame -> int -> int
val write_word : t -> frame -> int -> int -> unit
