(** The Memcached stand-in (paper §5.3 / Fig 14): a multi-threaded
    key-value store whose slabs and hash table live in simulated memory,
    protected by one of four schemes:

    - [Baseline] — no protection (original Memcached).
    - [Domain] — thread-local isolation: every legitimate access is
      wrapped in [mpk_begin]/[mpk_end] on the two hardcoded virtual keys
      (one for slabs, one for the hash table, as the paper does).
    - [Sync] — process-global locking via [mpk_mprotect]: the regions are
      opened rw before and sealed after each request, with mprotect
      semantics but PKRU speed.
    - [Mprotect_sys] — the same locking discipline done with real
      [mprotect], whose cost scales with the *populated* size of the
      1 GiB slab region. *)

open Mpk_kernel

type mode = Baseline | Domain | Sync | Mprotect_sys

val mode_name : mode -> string

(** The two hardcoded virtual keys (slab arena, hash index). Exposed so
    the static-analysis model lints the same keys the server uses. *)
val slab_vkey : Libmpk.Vkey.t

val hash_vkey : Libmpk.Vkey.t

type t

(** [create ~mode ~workers ~shards ~sync_batch ~slab_mib ~buckets ()] —
    builds a machine, process, [workers] tasks, the regions and (for the
    libmpk modes) the libmpk instance.

    [shards] (default 1) partitions the slab arena and the bucket region
    into per-shard slices; keys route to shards by the table's own hash,
    so with [shards = workers] each worker can serve its shard with no
    cross-core data sharing. The protection keys still cover the whole
    regions — libmpk keys protect address ranges, not shards.

    [sync_batch] (default true) makes [Sync] mode open and seal the two
    regions with one batched [mpk_mprotect_many] pair per request (one
    [do_pkey_sync] — and so one IPI per remote core — per pair) instead
    of four individually synchronized [mpk_mprotect] calls. It also sets
    the process's IPI batching ([Proc.create ~ipi_batching]); off, the
    server is the per-update reference `mpkctl scale` measures against. *)
val create :
  mode:mode ->
  ?workers:int ->
  ?shards:int ->
  ?sync_batch:bool ->
  ?slab_mib:int ->
  ?buckets:int ->
  unit ->
  t

val mode : t -> mode
val workers : t -> Task.t array
val proc : t -> Proc.t

val shard_count : t -> int

(** The shard a key routes to (same hash as the table's buckets). *)
val shard_of_key : t -> string -> int

(** Every shard's slab allocator passes its internal invariant check. *)
val slab_invariants : t -> bool

(** The libmpk instance behind the [Domain]/[Sync] modes ([None] for the
    others) — exposed so the cross-layer auditor can run against a live
    server. *)
val mpk : t -> Libmpk.t option

(** [set t ~worker ~key ~value] / [get t ~worker ~key] — one client
    request handled by the given worker thread, with the mode's
    protection discipline around the store access. [Error EINVAL] when
    the entry exceeds the largest slab class, [Error ENOSPC] when the
    slab region is exhausted for its class.

    In every mode, a request allocates nothing beyond what it returns (a
    hit's value and its [Some]) once the entry's slab class has grown
    and its pages are resident. A request that raises (a signal
    escaping the store access) still seals the store; a seal that
    itself raises escapes as [Fun.Finally_raised], as under
    [Fun.protect]. *)
val set : t -> worker:int -> key:string -> value:bytes -> (unit, Errno.t) result

val get : t -> worker:int -> key:string -> bytes option

val delete : t -> worker:int -> key:string -> bool

(** [key_name i] is ["key-" ^ string_of_int i] for [i >= 0]: the key
    [prefill] stores as its [i]th item, and the key a load generator
    asks for when it draws [i]. *)
val key_name : int -> string

(** [prefill t ~items ~value_size] — load [items] entries, named
    [key_name 0] to [key_name (items - 1)] (and fault in their pages),
    then [populate_slab t ~mib] forces residency of that many MiB of the
    slab region — the "Memcached holding a gigabyte" state of Fig 14. *)
val prefill : t -> items:int -> value_size:int -> unit

val populate_slab : t -> mib:int -> unit

(** Items evicted to make room: always 0, since no request evicts (a
    set into a full slab class answers [Error ENOSPC]). Kept for
    perfbench's [kvstore.items_evicted] metric. *)
val items_evicted : t -> int

(** [buggy_peek t ~worker ~addr] — a request path with a planted bug: it
    reads [addr] without opening the store. In the protected modes the
    per-request signal guard catches the resulting fault (a pkey fault,
    or an access fault under [Mprotect_sys]) and answers [Error] with
    its [siginfo], and the worker keeps serving; in [Baseline] the read
    succeeds and leaks the byte. Kept as the planted Heartbleed-style
    path the isolation tests probe; no workload calls it. *)
val buggy_peek : t -> worker:int -> addr:int -> (char, Signal.siginfo) result

(** Direct (attacker) access to the slab region from a non-worker task:
    used by security tests. *)
val attacker_task : t -> Task.t

val slab_base : t -> int
