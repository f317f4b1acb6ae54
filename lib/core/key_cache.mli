(** The virtual-key → hardware-key cache (paper Fig 6).

    Hardware keys are treated like cache slots for virtual keys: a lookup
    hit returns the mapped key cheaply; a miss either takes a free key,
    evicts the least-recently-used unpinned mapping, or reports the cache
    full (every key pinned by an active [mpk_begin]). *)

open Mpk_hw

type t

(** Victim-selection policy. The paper uses LRU; FIFO and random are
    provided for the eviction-policy ablation. *)
type policy = Lru | Fifo | Random

(** [create ~keys] with the hardware keys handed over by [mpk_init].
    [seed] only matters for [Random]. *)
val create : ?policy:policy -> ?seed:int64 -> keys:Pkey.t list -> unit -> t


(** Withdraw one key from circulation (the execute-only reserve). Prefers
    a free key; evicts an unpinned LRU mapping if needed; [None] when
    everything is pinned. Returns the key plus the evicted vkey, if any.
    The key is tracked as *reserved* — still owned by the cache for
    accounting ([capacity] is conserved) — until [add_key] returns it. *)
val reserve : t -> (Pkey.t * Vkey.t option) option

(** Each hardware key's results are built once and returned by every
    [acquire] that yields them, so the key's next eviction overwrites an
    [Evicted]'s [victim]: read it before acquiring again. *)
type acquire_result = private
  | Hit of Pkey.t  (** vkey already mapped *)
  | Fresh of Pkey.t  (** mapped to a previously free key *)
  | Evicted of { pkey : Pkey.t; mutable victim : Vkey.t }
      (** mapped to [pkey] after evicting [victim]'s mapping *)
  | Full  (** no free key and eviction unavailable *)

(** [acquire t vkey ~may_evict] maps (or finds) a hardware key for [vkey],
    updating LRU order and hit/miss/eviction statistics. With
    [may_evict:false] a miss with no free key reports [Full] instead of
    evicting (the eviction-rate fallback of [mpk_mprotect]). On [Evicted]
    the caller must do the memory-side work of the eviction. A hit and
    a fresh miss allocate nothing, and under LRU and FIFO nor does an
    evicting miss. *)
val acquire : t -> ?may_evict:bool -> Vkey.t -> acquire_result

(** Return a previously reserved key to the free pool. *)
val add_key : t -> Pkey.t -> unit

(** Pin/unpin a mapping against eviction (nested: counted). Neither
    allocates. *)
val pin : t -> Vkey.t -> unit

val unpin : t -> Vkey.t -> unit

(** [release t vkey] drops the mapping, returning the key to the free
    list. No-op when unmapped. Raises [Invalid_argument] when the entry
    is pinned: a pinned key backs a live [mpk_begin] domain, and handing
    it to another group would leak the holder's rights. *)
val release : t -> Vkey.t -> unit

(** Total keys owned: free + mapped + reserved. Conserved across
    [acquire]/[release]/[reserve]/[add_key]. *)
val capacity : t -> int

val in_use : t -> int

(** Keys currently on the free list. *)
val free_keys : t -> Pkey.t list

(** Keys withdrawn by [reserve] and not yet returned. *)
val reserved_keys : t -> Pkey.t list

val reserved_count : t -> int

(** [pins t vkey] — the entry's pin count, 0 when unmapped. *)
val pins : t -> Vkey.t -> int

(** Mappings as (vkey, pkey, pin-count) triples, ascending vkey. Purely
    observational (no LRU bump, no stats). *)
val mappings : t -> (Vkey.t * Pkey.t * int) list
val hits : t -> int
val misses : t -> int
val evictions : t -> int

(** Mappings removed by [release] — the invalidation an [mpk_free] /
    [mpk_munmap] triggers, as opposed to a capacity eviction. *)
val invalidations : t -> int

(** Misses that returned [Full] (no mapping was created). Together with
    the other counters this closes the conservation identity
    [misses = in_use + evictions + invalidations + full_misses]: every
    miss either inserted a mapping (still present, later evicted, or
    later invalidated) or returned [Full]. *)
val full_misses : t -> int

(** hits / (hits + misses); 0 before any lookup. *)
val hit_rate : t -> float

(** Mappings as (vkey, pkey, pinned) triples, LRU first. *)
val dump : t -> (Vkey.t * Pkey.t * bool) list
