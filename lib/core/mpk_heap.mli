(** A simple heap over one page group (backs [mpk_malloc]/[mpk_free]).

    First-fit free list with coalescing; 16-byte alignment. Allocator
    metadata lives library-side — conceptually in libmpk's protected
    metadata region, never in the unprotected application heap. *)

type t

val create : base:int -> len:int -> t

(** [alloc t ~size] — address of a fresh block, or [None] when no block
    fits. [size] is rounded up to the 16-byte granule. *)
val alloc : t -> size:int -> int option

(** [free t ~addr] releases a block previously returned by [alloc].
    Raises [Invalid_argument] on a bad or double free. *)
val free : t -> addr:int -> unit

(** Allocator soundness: free list sorted/ disjoint/coalesced, blocks
    disjoint, free + allocated = total. Exported, though only tests call
    it: the allocator's tests check it after every step. *)
val invariant : t -> bool
