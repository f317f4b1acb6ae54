(** POSIX-shaped signal delivery for memory faults.

    The real kernel turns an unresolved page fault into a [SIGSEGV] (or
    [SIGBUS]) with a [siginfo_t] describing the faulting address and
    cause; MPK violations are distinguished by [si_code = SEGV_PKUERR]
    and carry the offending protection key (Linux since 4.6). This
    module is the simulated analogue: [Proc] installs an [Mmu] fault
    sink that converts hardware faults to a {!siginfo} and delivers it
    to the current task via [Task.deliver_signal].

    Handler semantics follow POSIX as closely as a simulation can:
    a task with no handler installed is killed ({!Killed} escapes to
    the top — the simulation's analogue of the default disposition
    terminating the process). A handler may escape by raising its own
    exception (the [siglongjmp] idiom real MPK programs use to survive
    pkey faults); if it returns normally the access would simply
    refault, so the task is killed anyway. *)

(** [si_code] values for [SIGSEGV]/[SIGBUS], mirroring Linux. *)
type code =
  | Segv_maperr  (** address not mapped to object *)
  | Segv_accerr  (** invalid permissions for mapped object *)
  | Segv_pkuerr  (** access denied by protection keys (PKRU) *)
  | Bus_adrerr  (** nonexistent physical address — frame exhaustion *)

type siginfo = {
  signo : int;  (** 11 = SIGSEGV; 7 = SIGBUS *)
  code : code;
  addr : int;  (** faulting address ([si_addr]) *)
  access : Mpk_hw.Mmu.access;  (** what the instruction attempted *)
  pkey : int;  (** offending pkey for [Segv_pkuerr] ([si_pkey]); 0 otherwise *)
}

(** Default disposition: the task was killed by the signal. *)
exception Killed of siginfo

val code_to_string : code -> string
val to_string : siginfo -> string

(** Classify a hardware fault the way the kernel's fault handler does.
    [pkey] is the key tagged on the faulting page (only meaningful for
    [Pkey_denied]; pass 0 when unknown). *)
val of_fault : Mpk_hw.Mmu.fault -> pkey:int -> siginfo

(** A per-task handler, as installed with [Task.with_signal_handler]. *)
type handler = siginfo -> unit

(** {2 Default-kill crash record}

    A real kernel snapshots crash context (registers, maps) the moment
    the default disposition fires, because the dying thread's state is
    gone afterwards. The simulated analogue: just before {!Killed} is
    raised, [Task.deliver_signal] records on the dying task the siginfo
    together with the tail of the open {!Mpk_trace.Tracer} recording
    ({!blackbox}) — the stress harness's flight recorder — so any
    default-kill carries it ([Task.last_kill]). The core-dump capturer
    ([Mpk_coredump.Capture]) reuses this record rather than re-reading a
    ring the unwinding may have disturbed. *)

val blackbox : unit -> string list
(** The open trace recording's newest {!blackbox_depth} events, one line
    each; [[]] when no recording is open. *)

type crash = {
  si : siginfo;
  blackbox : string list;  (** rendered trace events, oldest first *)
}
