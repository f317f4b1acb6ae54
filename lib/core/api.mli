(** The libmpk API (paper Table 2).

    Eight entry points over the simulated kernel:

    - [init] — grab all hardware keys, set up protected metadata.
    - [mpk_mmap] / [mpk_munmap] — create/destroy a page group for a
      virtual key.
    - [mpk_begin] / [mpk_end] — thread-local domain isolation: unlock a
      group for the calling thread only.
    - [mpk_mprotect] — process-global permission change, a fast
      [mprotect] substitute with the same synchronization semantics.
    - [mpk_malloc] / [mpk_free] — heap allocation inside a group.

    Virtual keys are meant to be hardcoded constants; passing
    [~vkeys:[...]] to [init] enables the load-time check that rejects any
    other key (defence against protection-key corruption, §4.3). *)

open Mpk_hw
open Mpk_kernel

type t

(** Raised by [mpk_begin] when every hardware key is pinned by an active
    domain (the paper: "mpk_begin raises an exception and lets the
    calling thread handle it"). *)
exception Key_exhausted

(** Raised when the hardcoded-vkey check rejects a key. *)
exception Unregistered_vkey of Vkey.t

(** [init proc task ~evict_rate ()] — pre-allocate all 15 hardware keys
    and initialize metadata. [evict_rate] is the probability that an
    [mpk_mprotect] cache miss evicts a key rather than falling back to
    [mprotect]; a negative value means 1.0 (the paper's default), a
    value above 1 is clamped to 1, and NaN raises [Invalid_argument]. *)
val init :
  ?vkeys:Vkey.t list ->
  ?default_heap_bytes:int ->
  ?seed:int64 ->
  ?policy:Key_cache.policy ->
  ?hw_keys:int ->
  evict_rate:float ->
  Proc.t ->
  Task.t ->
  t
(** [hw_keys] (default 15, the x86 maximum) restricts how many hardware
    keys libmpk manages — the "what if the ISA had fewer/more keys"
    ablation of §3.2. Values above 15 are clamped. *)

val proc : t -> Proc.t

(** [mpk_mmap t task ~vkey ~len ~prot] — allocate a page group. The group
    starts inaccessible to every thread (a free hardware key is attached
    when available; otherwise pages are held at PROT_NONE until first
    use). Returns the base address. Exception-safe: a mid-call failure
    (e.g. frame exhaustion while writing metadata) unwinds the mapping
    and the key before re-raising — no half-created group survives. *)
val mpk_mmap : t -> Task.t -> vkey:Vkey.t -> len:int -> prot:Perm.t -> int

(** [mpk_munmap t task ~vkey] — unmap all pages of a group, free its
    virtual key, hardware key and metadata. *)
val mpk_munmap : t -> Task.t -> vkey:Vkey.t -> unit

(** [mpk_begin t task ~vkey ~prot] — obtain [prot] access to the group for
    the calling thread only. Guaranteed to hold a hardware key on return
    (evicting if necessary); raises [Key_exhausted] when every key is
    pinned by an active domain. *)
val mpk_begin : t -> Task.t -> vkey:Vkey.t -> prot:Perm.t -> unit

(** [mpk_end t task ~vkey] — drop the calling thread's access. *)
val mpk_end : t -> Task.t -> vkey:Vkey.t -> unit

(** [mpk_mprotect t task ~vkey ~prot] — change the group's permission for
    *all* threads, with [mprotect]'s semantics but (on a key-cache hit)
    only a PKRU write plus lazy inter-thread synchronization.
    Execute-only requests are served by the reserved execute-only key. *)
val mpk_mprotect : t -> Task.t -> vkey:Vkey.t -> prot:Perm.t -> unit

(** [mpk_mprotect_many t task ~updates] — apply every [(vkey, prot)]
    change, deferring the inter-thread PKRU synchronization of the
    mapped-group fast path into one batched [do_pkey_sync] at the end:
    one kernel entry and one IPI per target core for the whole batch.
    Updates that cannot defer (unmapped groups, execute-only transitions,
    exec-bit flips, unknown vkeys) fall back to [mpk_mprotect]
    individually, after syncing the updates deferred so far. Every
    thread ends as after the same sequence of [mpk_mprotect] calls; when
    an update raises, the updates before it are applied and synced, and
    the exception propagates. *)
val mpk_mprotect_many : t -> Task.t -> updates:(Vkey.t * Perm.t) list -> unit

(** [mpk_malloc t task ~vkey ~size] — allocate from the group's heap,
    creating a default-sized group on first use of [vkey]. *)
val mpk_malloc : t -> Task.t -> vkey:Vkey.t -> size:int -> int

(** [mpk_free t task ~vkey ~addr] — release a block from [mpk_malloc]. *)
val mpk_free : t -> Task.t -> vkey:Vkey.t -> addr:int -> unit

(* Introspection (tests, experiments). *)

val group_count : t -> int
val find_group : t -> Vkey.t -> Group.t option
val cache : t -> Key_cache.t
val metadata : t -> Metadata.t
val xonly_key : t -> Pkey.t option

(** Hardware keys handed to the key cache at [init] — the conserved
    total that free + mapped + reserved must always sum to. *)
val hw_keys : t -> int

(** Number of live execute-only groups (they share the reserved key). *)
val xonly_group_count : t -> int

(** All live page groups as (vkey, group, metadata slot) triples,
    ascending vkey. Read-only view for auditing. *)
val groups : t -> (Vkey.t * Group.t * int) list

(** The virtual key whose group currently holds hardware key [pkey], if
    any — how the core-dump classifier labels a protected page with the
    owning domain. *)
val vkey_of_pkey : t -> Pkey.t -> Vkey.t option

(** The live group containing [addr], if any. Group membership is the
    authoritative "is this protected memory" test: an evicted isolated
    group's pages carry pkey 0 and PROT_NONE, yet still belong to a
    protection domain and must never appear in a dump in the clear. *)
val group_of_addr : t -> int -> (Vkey.t * Group.t) option

(** Cumulative API-call counters (observability / experiments). *)
type stats = {
  mmap_calls : int;
  munmap_calls : int;
  begin_calls : int;
  end_calls : int;
  mprotect_calls : int;
  malloc_calls : int;
  free_calls : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  cache_invalidations : int;  (** evictions triggered by mpk_free/munmap *)
  cache_full : int;  (** misses that found no usable key *)
  cache_hit_rate : float;  (** hits / (hits + misses), 0 before any lookup *)
  cache_reserved : int;  (** keys withdrawn for the execute-only reserve *)
}

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit
