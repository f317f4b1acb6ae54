(** The user-facing syscall layer. Every call charges a kernel entry/exit
    domain switch to the calling task's core, then performs the kernel
    work. Mirrors Linux 4.14 + the paper's [do_pkey_sync] extension.

    All calls are made *by* a task: permission updates touch that task's
    PKRU, and multi-core costs (TLB shootdowns, reschedule kicks) are
    charged relative to it. *)

open Mpk_hw

(** [mmap proc task ?at ~len ~prot ()] — anonymous private mapping. *)
val mmap : Proc.t -> Task.t -> ?at:int -> len:int -> prot:Perm.t -> unit -> int

val munmap : Proc.t -> Task.t -> addr:int -> len:int -> unit

(** [mprotect proc task ~addr ~len ~prot] — with the Linux 4.9+ twist: a
    [PROT_EXEC]-only request is implemented with MPK (allocate the
    process's execute-only key, tag the pages, deny access in the
    *caller's* PKRU only — the unsynchronized semantic gap of §3.3). *)
val mprotect : Proc.t -> Task.t -> addr:int -> len:int -> prot:Perm.t -> unit

(** [pkey_alloc proc task ~init_rights] — lowest free key; sets the
    caller's PKRU rights for it. Raises [Errno.Error ENOSPC] when all 15
    keys are taken. *)
val pkey_alloc : Proc.t -> Task.t -> init_rights:Pkru.rights -> Pkey.t

(** [pkey_free proc task key] — clears the bitmap bit only. PTEs tagged
    with [key] are deliberately left alone (the use-after-free hazard). *)
val pkey_free : Proc.t -> Task.t -> Pkey.t -> unit

(** [pkey_mprotect proc task ~addr ~len ~prot ~pkey] — change protection
    and tag the range with [pkey]. Key 0 and unallocated keys are
    rejected. *)
val pkey_mprotect : Proc.t -> Task.t -> addr:int -> len:int -> prot:Perm.t -> pkey:Pkey.t -> unit

(** [pkey_sync proc task ~pkey ~rights] — the paper's [do_pkey_sync]
    kernel extension (Fig 7): queues a task_work PKRU update on every
    other thread that sets its rights for [pkey], kicks running
    threads with reschedule IPIs, and returns. Descheduled threads update
    lazily at their next schedule-in; by the time they can touch memory
    the new rights are in force. The caller's own PKRU must be updated in
    userspace (WRPKRU) by the caller.

    With the process's IPI batching on (the default, see [Proc.create]),
    the lazy path sends one IPI per distinct core holding a running
    target instead of one per target per update. Each handshake is
    charged exactly once: lazily the kick pays [ipi_send] (sender) +
    [ipi_receive] (target core); off-CPU targets cost nothing until their
    next schedule-in.

    [eager:true] models the strawman the paper rejects: a synchronous
    handshake where the caller spin-waits for each running thread to
    acknowledge before returning (used by the lazy-vs-eager ablation).
    Per on-CPU target the sender pays [ipi_send] plus an
    [ipi_receive]-latency spin and the target core pays [ipi_receive];
    per off-CPU target the sender pays the wakeup IPI + spin and the
    target pays its own context switch inside [schedule_in]. *)
val pkey_sync : Proc.t -> Task.t -> ?eager:bool -> pkey:Pkey.t -> Pkru.rights -> unit

(** [pkey_sync_many proc task ~updates] — batched [do_pkey_sync]: queue
    every (pkey, rights) update in [updates], in order, on every other
    thread, then kick each target core once (with batching on). One
    kernel entry, one IPI per core, regardless of the number of updates.
    [updates] is only read, so a caller may reuse it across calls; with
    tracing and profiling off, the call allocates the same whatever its
    length. *)
val pkey_sync_many : Proc.t -> Task.t -> updates:Task.Updates.t -> unit

(** [pkey_unmap_group proc task ~addr ~len ~prot ~old_pkey] — libmpk's
    kernel-side eviction primitive: retag the range with the default key,
    set its page protection to [prot] (PROT_NONE for domain groups, the
    group's logical protection for mprotect-style groups), reset every
    thread's PKRU rights for [old_pkey] to no-access (so the recycled key
    carries no stale rights — the fix for protection-key-use-after-free),
    and shoot down stale TLB entries. One kernel entry. *)
val pkey_unmap_group :
  Proc.t -> Task.t -> addr:int -> len:int -> prot:Perm.t -> old_pkey:Pkey.t -> unit

(** Number of simulated syscalls performed so far (all kinds). *)
val count : unit -> int
