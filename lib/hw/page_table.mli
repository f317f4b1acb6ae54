(** A 4-level radix page table (x86-64 shape: 9 bits per level, 4 KiB
    pages, 48-bit virtual addresses). *)

type t

val create : unit -> t

(** Virtual page number of an address. *)
val vpn_of_addr : int -> int

val addr_of_vpn : int -> int

(** [set t ~vpn pte] installs (or clears, with [Pte.absent]) a leaf entry. *)
val set : t -> vpn:int -> Pte.t -> unit

(** [get t ~vpn] is the leaf entry, [Pte.absent] when unmapped. *)
val get : t -> vpn:int -> Pte.t

(** [update_range t ~vpn ~pages rw] applies [rw] to every *present* entry
    in the range, visiting only the subtrees that overlap it and skipping
    absent ones wholesale (this is what keeps GB-scale [mprotect]
    simulation fast). Returns the number of present entries rewritten.

    A 512-entry leaf that the range covers whole takes the rewrite in
    O(1): [rw] is composed into the leaf's pending rewrite, which [get]
    and [fold] apply to what they return, and the count comes from the
    leaf's present count. A leaf covered in part is rewritten entry by
    entry, after its pending rewrite is applied. Neither allocates. *)
val update_range : t -> vpn:int -> pages:int -> Pte.rewrite -> int

(** [fold t f init] over all present (vpn, pte) pairs, ascending vpn. *)
val fold : t -> (int -> Pte.t -> 'a -> 'a) -> 'a -> 'a

(** [count_with_pkey t pkey] counts present PTEs tagged with [pkey]. *)
val count_with_pkey : t -> Pkey.t -> int
