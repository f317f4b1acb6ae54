(** A set-associative TLB whose entries carry the page's protection key, as
    on MPK hardware (permission and pkey checks are served from the TLB on
    a hit; [mprotect]/[pkey_mprotect] must therefore invalidate). *)

type t

(** [create ~sets ~ways] — capacity is [sets * ways], LRU within a set.
    [sets] must be a power of two. Raises [Invalid_argument]. *)
val create : ?sets:int -> ?ways:int -> unit -> t

(** [lookup t ~vpn] is the cached translation, bumping LRU on hit, or
    [Pte.absent] on a miss. Allocates nothing. *)
val lookup : t -> vpn:int -> Pte.t

(** [insert t ~vpn pte] caches a present [pte]; raises [Invalid_argument]
    on [Pte.absent], which [lookup] reserves for a miss. *)
val insert : t -> vpn:int -> Pte.t -> unit

val flush_all : t -> unit
val flush_page : t -> vpn:int -> unit

(** [fold t f init] over every live (vpn, pte) entry, set by set and way
    by way. Purely observational: no LRU bump, no stats — safe for
    auditors that must not perturb the state they inspect. *)
val fold : t -> (int -> Pte.t -> 'a -> 'a) -> 'a -> 'a

val hits : t -> int
val misses : t -> int
val flushes : t -> int
