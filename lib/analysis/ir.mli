(** A small CFG-based IR for libmpk {i client protocols}.

    A client program is the shape of an application's use of the libmpk
    API — which vkeys it maps, where it opens and closes domains, which
    regions it reads/writes/executes, what code its JIT emits, which
    threads it spawns — with the data computation abstracted away. The
    static analyzer ({!Lint}) proves protocol properties over this IR
    before a single simulated cycle runs. The dynamic tools speak it too:
    a trace is a list of {!step}s, the stress driver generates its random
    traffic as steps, and [Mpk_check.Stress.exec_step] runs both those
    steps and the analyzer's finding witnesses on the simulator, so
    static and dynamic checking share one vocabulary.

    Control flow is explicit: branch/merge, loop back edges, and
    signal-escape edges (an op that can fault may transfer control to a
    handler block {i before} completing — the siglongjmp idiom of the
    signal layer, which is how an mpk_end gets skipped in real code). *)

(** {1 Simulated instruction stream}

    The JIT case study emits instruction streams into its code cache.
    For the WRPKRU gadget scan only which instructions occur matters,
    not their encodings: a WRPKRU occurrence is {i safe} (ERIM §3.1)
    only when it is immediately followed by a check that the loaded
    PKRU value is the intended one, with a branch to a trusted error
    path otherwise. *)

type insn =
  | I_op of string  (** ordinary computation, opaque to the scan *)
  | I_wrpkru  (** writes PKRU from a register *)
  | I_cmp_pkru  (** compares PKRU against the expected constant *)
  | I_br_trusted  (** branches to the trusted mediation path on mismatch *)
  | I_ret

(** {1 Locks and shared kernel locations} *)

(** Lock identity is class + instance, mirroring [Mpk_kernel.Lock]: the
    classes are the kernel's (["mm_lock"], ["vma_lock"]), and the
    instance distinguishes e.g. the per-VMA locks of different slots.
    The lockset pass works over full lockrefs; the lock-order pass
    projects onto classes, exactly like lockdep. *)
type lockref = { lcls : string; linst : int }

val lockref_to_string : lockref -> string

type lmode = Lk_shared | Lk_excl

(** Shared kernel state the concurrency passes track accesses to. These
    are {i kernel-internal} locations (protected by locks), as opposed
    to [Read]/[Write]'s client data accesses (protected by MPK
    domains). *)
type loc = L_vma of int | L_pkey_bitmap

val loc_to_string : loc -> string

(** {1 Operations and steps} *)

type op =
  | Mmap of { vkey : int; pages : int; prot : Mpk_hw.Perm.t }  (** mpk_mmap *)
  | Free of { vkey : int }  (** mpk_munmap: the vkey leaves circulation *)
  | Begin of { vkey : int; prot : Mpk_hw.Perm.t }  (** mpk_begin *)
  | End of { vkey : int }  (** mpk_end *)
  | Mprotect of { vkey : int; prot : Mpk_hw.Perm.t }
      (** mpk_mprotect: global, synchronized *)
  | Read of { vkey : int }  (** data read of the region *)
  | Write of { vkey : int }  (** data write into the region *)
  | Exec of { vkey : int }  (** instruction fetch from the region *)
  | Emit of { vkey : int; code : insn list }
      (** JIT: write an instruction stream *)
  | Spawn of { tid : int }  (** start thread [tid] (its CFG is in the program) *)
  | Join of { tid : int }  (** wait for thread [tid] *)
  | Lock of { lk : lockref; lmode : lmode }  (** kernel lock acquire *)
  | Unlock of { lk : lockref; lmode : lmode }  (** kernel lock release *)
  | Load of { loc : loc }  (** read of shared kernel state *)
  | Store of { loc : loc }  (** write of shared kernel state *)
  | Malloc of { vkey : int; size : int }  (** mpk_malloc from the group's heap *)
  | Mfree of { vkey : int; nth : int }
      (** mpk_free of the [nth] (mod live count) block the trace allocated *)
  | Label of string  (** structural no-op: branch points, loop heads, comments *)

val op_to_string : op -> string

(** One step of a trace: thread [stid] runs [sop]. The one op-step type
    of the static witnesses ({!Lint.finding}) and of the dynamic
    checkers' traffic. *)
type step = { stid : int; sop : op }

(** ["<op> @t<stid>"]. *)
val step_to_string : step -> string

(** {1 Control-flow graph} *)

type edge =
  | Seq  (** fall-through *)
  | Branch  (** one arm of a conditional, or a loop head decision *)
  | Back  (** loop back edge *)
  | Escape  (** signal escape: taken {i during} the source op, before it completes *)

type node = {
  id : int;
  tid : int;
  op : op;
  mutable succs : (edge * int) list;  (** empty = thread exit *)
}

type thread = { tid : int; entry : int }

type program = {
  pname : string;
  nodes : node array;  (** indexed by node id *)
  threads : thread list;  (** head = main (tid 0) *)
}

val node : program -> int -> node

(** The nodes of thread [tid], in id order. *)
val thread_nodes : program -> int -> node list

(** @raise Invalid_argument on a program with no thread. *)
val main_thread : program -> thread

(** {1 Structured builder}

    App models are written as structured statements; lowering produces
    the CFG. [Guard] models a per-request signal guard: every memory
    access in its body gets an escape edge into the handler (control
    leaves the op before it completes — the balance pass sees the
    pre-op state on that edge). API calls report failure by exception,
    not signal, so they get no escape edge. *)
type stmt =
  | Op of op
  | If of string * stmt list * stmt list
  | Loop of string * stmt list
  | Guard of stmt list * stmt list  (** body, signal handler *)

val op : op -> stmt
val label : string -> stmt

(** [build ~name ~main ~threads ()] lowers thread 0 ([main]) and each
    [(tid, body)] of [threads]; every thread ends in an ["exit"] label
    node with no successors. *)
val build :
  name:string -> main:stmt list -> ?threads:(int * stmt list) list -> unit -> program

(** A straight-line program from a flat trace: each thread's ops in
    order, the main thread spawning every other thread up front and
    joining them at the end. This is how minimized stress traces are
    re-emitted as IR programs. *)
val of_trace : name:string -> step list -> program

val pp_program : Format.formatter -> program -> unit
