(** Cross-layer invariant auditor.

    libmpk's promise is that virtualizing 15 hardware keys never leaks
    residual PKRU rights or stale PTE tags across evictions (paper §3.1).
    That agreement spans three layers — hardware (PKRU registers, PTE
    tags, TLBs), kernel (VMA tree, pkey bitmap) and libmpk (key cache,
    page groups, protected metadata) — and this module checks all of it
    against a single [Libmpk.t]:

    - I1 {e scrubbed free keys}: every hardware key on the cache free
      list (or in the execute-only reserve) carries [No_access] in every
      task's PKRU and tags zero PTEs and zero VMAs. A task that is off
      CPU with pending task_work is exempt — the paper's lazy
      [do_pkey_sync] updates it before it can touch memory.
    - I2 {e tag agreement}: for every [Group.Mapped pkey] group, the
      group's pages are tagged [pkey] in both the VMA tree and every
      present PTE, no page outside the group carries it, and the key
      cache maps exactly the non-execute-only mapped groups.
    - I3 {e pin accounting}: per group, [begin_depth] is non-negative,
      equals the sum over [Group.begin_holders] (none of them at depth
      0 or below) and equals the cache pin count.
    - I4 {e TLB coherence}: every cached TLB entry on every core matches
      the page table's current PTE for that page.
    - I5 {e key conservation}: free + mapped + reserved keys always sum
      to the [hw_keys] handed over at init; every owned key is allocated
      in the kernel bitmap; no key is owned twice; the execute-only
      reserve agrees with the live execute-only group count; and the
      cache's counters balance: misses = mapped + evictions +
      invalidations + full misses.
    - I6 {e metadata agreement}: every group's protected-metadata slot
      deserializes to the group's current (vkey, base, pages, prot,
      pkey), slots are distinct, and occupancy equals the group count.

    The audit is purely observational: it reads through kernel-privileged
    paths and the new read-only iterators, charges no cycles and never
    perturbs LRU/pin/statistics state. It assumes the machine hosts a
    single process (TLBs are checked against that process's page table)
    and is meant to run at quiescent points — between API calls, as the
    stress driver does. *)

type violation = { invariant : int; message : string }

val pp_violation : Format.formatter -> violation -> unit

(** [run mpk] — all detected violations, empty when the state is
    consistent. *)
val run : Libmpk.t -> violation list
