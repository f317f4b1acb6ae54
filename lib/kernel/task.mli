(** A kernel task (thread). Each task has its own PKRU state — saved in the
    task struct while descheduled, live in its core's register while on
    CPU — and a [task_work] list of PKRU updates applied on the next
    return to userspace (the hook [do_pkey_sync] relies on, paper Fig 7).
    PKRU updates are the only work the kernel ever queues, so the list is
    typed data rather than callbacks. *)

open Mpk_hw

(** A FIFO of [(pkey, rights)] PKRU updates. Once it has grown to its
    deepest backlog, adding, reading and clearing allocate nothing: a
    task's task_work is one, and a caller of [Syscall.pkey_sync_many]
    can reuse one across calls. *)
module Updates : sig
  type t

  val create : unit -> t
  val length : t -> int

  (** Append an update at the tail. *)
  val add : t -> Pkey.t -> Pkru.rights -> unit

  (** The key of the [i]-th pending update, [0] being the oldest. Raises
      [Invalid_argument] outside [\[0, length)]. *)
  val pkey : t -> int -> Pkey.t

  val clear : t -> unit
end

type state =
  | On_cpu  (** currently scheduled on [core] *)
  | Off_cpu  (** descheduled; PKRU lives in the task struct *)

type t

(** [create ~id ~core ()] — the task starts [Off_cpu] with Linux's initial
    PKRU. *)
val create : id:int -> core:Cpu.t -> unit -> t

val id : t -> int
val core : t -> Cpu.t
val state : t -> state
val set_state : t -> state -> unit

(** The task's PKRU as the kernel sees it: the core register when on CPU,
    the saved copy otherwise. *)
val pkru : t -> Pkru.t

(** Update the task's PKRU wherever it currently lives (no cycle charge —
    kernel-side state manipulation). *)
val set_pkru : t -> Pkru.t -> unit

val saved_pkru : t -> Pkru.t
val set_saved_pkru : t -> Pkru.t -> unit

(** Lazy TLB shootdown: a shootdown aimed at an off-CPU task marks it
    instead of sending an IPI; the flush is charged and performed at the
    task's next [schedule_in]. *)
val mark_tlb_flush : t -> unit

val clear_tlb_flush : t -> unit
val tlb_flush_pending : t -> bool

(** [with_signal_handler t h f] runs [f] with [h] installed as the
    task's handler for memory-fault signals, restoring the previous
    handler (if any) on exit — including exceptional exit. A handler
    that wants to survive the fault must escape by raising (the
    [siglongjmp] idiom); returning normally still kills the task — the
    faulting access would just refault. *)
val with_signal_handler : t -> Signal.handler -> (unit -> 'a) -> 'a

(** The signal that killed this task, with the black box snapshotted at
    kill time ({!Signal.crash}); [None] while it has not been killed. *)
val last_kill : t -> Signal.crash option

(** Deliver a signal: run the handler if installed; if none is installed
    or the handler returns normally, records {!last_kill} and raises
    [Signal.Killed]. Called by the kernel's fault sink — never returns
    normally. *)
val deliver_signal : t -> Signal.siginfo -> 'a

(** [work_add t pkey rights] queues a PKRU update on the task's
    [task_work] list: at its next return to userspace the task's rights
    for [pkey] become [rights]. *)
val work_add : t -> Pkey.t -> Pkru.rights -> unit

(** [work_add_nth t updates i] queues the [i]-th update of [updates] as
    [work_add] would, copying it in its packed form. Raises
    [Invalid_argument] outside [\[0, Updates.length updates)]. *)
val work_add_nth : t -> Updates.t -> int -> unit

(** Number of queued updates. *)
val work_pending : t -> int

(** Apply and clear all queued updates in FIFO order, charging
    [task_work_run] per update to the task's core and emitting
    [Pkey_sync_executed] when tracing. Called on return to userspace. *)
val work_run : t -> unit
