(** Virtual memory areas: a sorted, non-overlapping array of areas
    searched by virtual page number, with the split/merge behaviour of
    Linux's VMA tree — plus the per-VMA locking and recycling protocol
    that makes lookups safe against concurrent unmap/remap (DESIGN.md
    §13).

    {b Locking model.} Writers change the array in place, but a walk
    ([find] and the other queries) has no preemption point inside it, so
    it reads one consistent array: the simulator's stand-in for the
    RCU-protected tree a Linux reader walks. Each vma carries a
    reader/writer lock whose shared side is [vm_refcnt]; structural
    changes write-lock the vmas they touch (draining readers), and every
    [t] has an mm-wide lock that writers hold exclusively and readers
    fall back to when the lock-free path fails. Freed vmas go to a
    process-global typesafe free-list and may be handed out again — to
    any address space — while stale readers still hold references, so a
    reader that wins the refcount race must re-validate identity
    ([vm_mm]), liveness ([detached]) and range before trusting the
    record.

    Walk-only queries ([find]/[overlaps]/[overlapping]/[covered]/[to_list]) take no
    locks themselves: call them under the mm lock (writers, slow-path
    readers, quiescent audits) or as step one of the
    [start_read]/[validate_read]/[end_read] protocol. *)

open Mpk_hw

type attrs = { prot : Perm.t; pkey : Pkey.t }

type vma = {
  mutable start : int;  (** vpn; the area covers [start, start + pages) *)
  mutable pages : int;
  mutable attrs : attrs;
  mutable vm_mm : int;  (** owning address-space id; stale after free *)
  mutable detached : bool;  (** unlinked from the area array *)
  vlock : Lock.t;  (** per-VMA lock; shared holds = [vm_refcnt] *)
}

type t

val create : unit -> t

val mm_lock : t -> Lock.t

val to_list : t -> vma list
val vend : vma -> int

(** [add t ~start ~pages attrs] inserts a fresh area. Raises
    [Invalid_argument] if it overlaps an existing one. *)
val add : ?actor:int -> t -> start:int -> pages:int -> attrs -> unit

(** [find t vpn] is the area containing [vpn], if any (walk-only). *)
val find : t -> int -> vma option

(** [overlaps t ~start ~pages] — some area intersects the range. *)
val overlaps : t -> start:int -> pages:int -> bool

(** [overlapping t ~start ~pages] — areas intersecting the range,
    ascending. *)
val overlapping : t -> start:int -> pages:int -> vma list

(** [covered t ~start ~pages] — true when every page of the range belongs
    to some area. *)
val covered : t -> start:int -> pages:int -> bool

(** [remove_range t ~start ~pages] unmaps a range, splitting areas that
    straddle its edges. Returns the removed (sub)areas {e detached but
    not yet freed}: their fields stay valid until the caller hands them
    to {!free_detached}. *)
val remove_range : ?actor:int -> t -> start:int -> pages:int -> vma list

(** Push detached vmas onto the typesafe free-list, after which their
    storage may be recycled by any later allocation. *)
val free_detached : vma list -> unit

(** A protection change over a fully covered range ({!covered}) is
    {!split_edges}, then {!rewrite_range}, then {!merge_range}: the
    attributes over the range are rewritten as the [Pte.rewrite]
    rewrites the PTEs made from them, boundary areas split as needed and
    equal neighbours merge afterwards. None of the three allocates
    unless an area splits or merges. *)

(** Split the areas straddling either edge of a fully covered range;
    returns the number of splits. *)
val split_edges : actor:int -> t -> start:int -> pages:int -> int

(** Rewrite the attributes of every area inside the range, which must
    start and end on area boundaries; returns the number of areas. *)
val rewrite_range : actor:int -> t -> start:int -> pages:int -> Pte.rewrite -> int

(** Merge equal neighbours across the range and its two edges; returns
    the number of merges. *)
val merge_range : actor:int -> t -> start:int -> pages:int -> int

(** {2 Recycling-safe lookup protocol}

    The fast path of a lookup is: [find] (RCU walk) → {!start_read}
    (refcount bump) → {!validate_read} (recycle check) → use the vma →
    {!end_read}. Any failure means "fall back to the mm read lock and
    walk again". *)

(** Try to take the vma's read lock ([vma_start_read]); false when a
    writer holds it. *)
val start_read : vma -> actor:int -> bool

(** After a successful {!start_read}: true iff the vma still belongs to
    [t], is still attached, and still covers [vpn]. In an address space
    that skips the recycle check ({!skip_recycle_check}) this is always
    true — which is the planted bug. *)
val validate_read : t -> vma -> int -> bool

(** The underlying predicate of {!validate_read}, unaffected by
    {!skip_recycle_check} — the torture oracle uses it to detect what the
    planted protocol misses. *)
val read_valid : t -> vma -> int -> bool

(** Drop the read reference. If the vma has been recycled into another
    address space, the drop pins that owner (mmgrab/mmdrop) around the
    refcount put, never dereferencing a recycled owner unpinned. *)
val end_read : t -> vma -> actor:int -> unit

(** Plant the use-after-recycle bug in this address space: from now on
    its lookups skip the recycle re-validation (torture's
    [--plant recycle]). *)
val skip_recycle_check : t -> unit

(** {2 Slab and identity diagnostics} *)

val slab_recycled : unit -> int
(** Allocations served by reuse since process start (monotonic). *)

val slab_reset : unit -> unit
(** Empty the free-list. Harness drivers (stress, torture) call this
    before a run so its behaviour depends only on its own inputs, not
    on records earlier runs freed — which is what makes a failure
    replayable from [(seed, schedule)] in a fresh process. *)

val grabs_outstanding : unit -> int
(** Unbalanced mmgrab counts across all address spaces; 0 at
    quiescence. *)

(** Internal-consistency check: sorted, non-overlapping, positive length,
    no two mergeable neighbours, every node owned by [t] and attached. *)
val invariant : t -> bool
