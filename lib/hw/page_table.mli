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

(** [update t ~vpn f] rewrites the entry at [vpn] by [f]; no-op when the
    entry is absent. Returns [true] when an entry was present. *)
val update : t -> vpn:int -> (Pte.t -> Pte.t) -> bool

(** [update_range t ~vpn ~pages f] applies [f] to every *present* entry
    in the range, skipping absent subtrees wholesale (this is what keeps
    GB-scale [mprotect] simulation fast). Returns the number of present
    entries rewritten. *)
val update_range : t -> vpn:int -> pages:int -> (Pte.t -> Pte.t) -> int

(** [fold t f init] over all present (vpn, pte) pairs, ascending vpn. *)
val fold : t -> (int -> Pte.t -> 'a -> 'a) -> 'a -> 'a

(** [count_with_pkey t pkey] counts present PTEs tagged with [pkey]. *)
val count_with_pkey : t -> Pkey.t -> int

(** Present-leaf count. *)
val mapped_pages : t -> int
