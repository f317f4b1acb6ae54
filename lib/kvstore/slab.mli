(** A Memcached-style slab allocator over a region of simulated memory
    (paper §5.3: the slabs holding actual values are what libmpk
    protects).

    The region is carved into 1 MiB slabs, each dedicated to a power-of-
    two size class (64 B .. 64 KiB). Chunk bookkeeping lives library-side
    — the protected payload is the item data in simulated memory: a
    stack of free chunk addresses per class, the class of each slab, and
    a bitmap of allocated chunks. Once a class's slab is assigned,
    [alloc] and [free] allocate nothing. *)

type t

val slab_bytes : int
val max_chunk : int

(** [create ~base ~len] — manage [len] bytes starting at [base]. *)
val create : base:int -> len:int -> t

(** What [alloc] returns when the region is exhausted for a class: -1,
    never a chunk address. *)
val exhausted : int

(** [alloc t ~size] — address of a chunk whose class fits [size], or
    [exhausted]. A class hands out its most recently freed chunk first;
    a fresh slab's chunks go out in address order. Raises
    [Invalid_argument] unless [0 < size <= max_chunk]. *)
val alloc : t -> size:int -> int

(** [free t ~addr] — return a chunk; raises [Invalid_argument] on a bad
    or double free. *)
val free : t -> addr:int -> unit

(** Chunks never overlap and lie inside the region. *)
val invariant : t -> bool
