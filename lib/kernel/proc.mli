(** A process: one address space, a protection-key bitmap, and its tasks.
    The simulated machine can host several processes (used by the SDCG
    comparison), each with private page tables. *)

open Mpk_hw

type t

(** [ipi_batching] (default on) selects how the lazy sync paths
    ([Syscall.pkey_sync], [pkey_sync_many], [pkey_unmap_group]) notify
    other threads: one IPI per target core, or off, the per-update
    broadcast (one kick per target per update, plus a separate shootdown
    IPI on eviction) kept as the reference point for scaling
    comparisons. The process installs its fault sink on its MMU and its
    scheduler's preemption ({!Sched.preempt}) on the machine's cores, so
    an injected ["sched.preempt"] preempts its own machine's tasks. On a
    core where it has no task, the hook it replaced runs instead, so
    every process on one machine preempts its own tasks. *)
val create : ?ipi_batching:bool -> Machine.t -> t

val machine : t -> Machine.t
val mm : t -> Mm.t
val mmu : t -> Mmu.t
val sched : t -> Sched.t
val pkey_bitmap : t -> Pkey_bitmap.t
val ipi_batching : t -> bool

(** Tasks of this process, in spawn order. *)
val tasks : t -> Task.t list

(** [spawn t ~core_id] creates a thread scheduled on the given core. The
    new thread inherits the PKRU value of [inherit_from] if given
    (Linux semantics: fork/clone copies PKRU). *)
val spawn : t -> ?inherit_from:Task.t -> core_id:int -> unit -> Task.t

(** The execute-only protection key, allocated lazily by the first
    [mprotect(PROT_EXEC)] (mirrors Linux's [execute_only_pkey]). *)
val xonly_key : t -> Pkey.t option

val set_xonly_key : t -> Pkey.t -> unit
