(** Task scheduling: context switches (saving/restoring PKRU), the
    return-to-userspace path that drains [task_work], and reschedule IPIs.

    The simulator is sequential; "concurrency" means multiple tasks holding
    per-task register state on distinct cores, with IPIs modelled as
    synchronous cost charges plus a forced trip through the kernel-exit
    path on the target core. *)

open Mpk_hw

type t

val create : Machine.t -> t


(** [spawn t ~core_id] creates a task pinned to a core and schedules it in
    (restoring its PKRU into the core register). *)
val spawn : t -> core_id:int -> Task.t

val tasks : t -> Task.t list

(** The task currently scheduled on the given core, if any. *)
val task_on : t -> core_id:int -> Task.t option

(** Forced preemption (used by fault injection): schedule the on-CPU task
    on [core_id] out and immediately back in — PKRU is saved and restored
    and pending task_work drains, exactly as a real involuntary context
    switch would. No-op if the core is idle or a preemption is already in
    progress (context switches charge cycles, which are themselves
    preemption points). *)
val preempt : t -> core_id:int -> unit

(** [schedule_out t task] saves PKRU into the task struct and marks the
    task off-CPU; charges a context switch. *)
val schedule_out : t -> Task.t -> unit

(** [schedule_in t task] loads the saved PKRU into the core register, runs
    pending task_work (return-to-userspace), marks the task on-CPU. *)
val schedule_in : t -> Task.t -> unit

(** [kick t ~from target] sends a reschedule IPI to an on-CPU target: the
    sender pays [ipi_send]; the target core pays [ipi_receive] and
    immediately passes through return-to-userspace, draining its
    task_work. Off-CPU targets see no IPI at all — nothing is charged and
    no [Ipi] event is emitted; their work runs at the next
    [schedule_in]. *)
val kick : t -> from:Task.t -> Task.t -> unit

(** [kick_batch t ~from ()] coalesces reschedule IPIs to every task but
    [from]: one IPI per distinct core holding at least one on-CPU target
    (sender pays [ipi_send] per core, each target core pays
    [ipi_receive] once), and every on-CPU target on that core drains its
    task_work under that single interrupt. Cores are kicked in ascending
    id order, in one pass over the tasks sorted by core; a core's targets
    drain in task order ({!tasks}). Off-CPU targets are skipped as in
    [kick]. Allocates nothing.

    [flush_tlb] additionally flushes each kicked core's TLB (emitting
    [Tlb_flush]) and marks off-CPU targets for a deferred flush at their
    next [schedule_in]. [sync] models the initiator spin-waiting for the
    acknowledgements: the sends overlap, so it costs a single
    [ipi_receive]-latency wait regardless of fan-out. *)
val kick_batch : t -> from:Task.t -> ?kind:string -> ?flush_tlb:bool -> ?sync:bool -> unit -> unit

(** [shootdown t ~from target] sends a synchronous TLB-shootdown IPI: the
    sender pays send + wait, the target core pays [ipi_receive] and
    flushes its TLB. Off-CPU targets get no IPI; they are marked so their
    next [schedule_in] charges [tlb_flush_all] and flushes (and an idle
    core's stale entries are dropped immediately, for free, so the
    visible TLB state always matches the eager path). *)
val shootdown : t -> from:Task.t -> Task.t -> unit

(** Total IPIs sent since the scheduler was created (reschedule kicks,
    batched sync kicks, and TLB shootdowns). *)
val ipis_sent : t -> int

(** Per-core IPI counters as [(core_id, sent, received)], sorted by core.
    Cores that never saw an IPI are absent. *)
val ipis_per_core : t -> (int * int * int) list
