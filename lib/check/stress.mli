(** Randomized stress driver for the invariant auditor, and the one
    executor of libmpk traffic.

    Traffic is a list of analyzer IR steps ({!Mpk_analysis.Lint.step}: a
    thread id plus an {!Mpk_analysis.Ir.op}). {!exec_step} runs one step
    on a machine built by {!make_env}; the stress driver, the witness
    replay in {!Witness} and the model-based fuzzer all go through it.

    The driver generates a weighted, seeded sequence of libmpk API calls —
    mmap/munmap/begin/end/mprotect (including execute-only transitions)
    /malloc/free plus benign reads — interleaved across several tasks,
    and runs {!Audit.run} after every step. Everything is derived from
    [config.seed] via [Mpk_util.Prng], so a failure is replayable from
    the seed alone, and the pre-generated trace can be shrunk to a
    minimal failing one.

    Expected API errors (key exhaustion, EINVAL on an unmatched end,
    EACCES on an over-privileged begin, …) are caught and counted; any
    other exception, or a non-empty audit, stops the run and is reported
    as a failure at that step index. *)

type config = {
  hw_keys : int;  (** keys in circulation, 1..15 *)
  tasks : int;  (** tasks spawned before [Libmpk.init], one per core *)
  evict_rate : float;  (** mpk_mprotect eviction probability *)
  seed : int64;
  faults : (string * Mpk_faultinj.plan) list;
      (** failure points armed for the run (after setup, seeded from
          [seed]); injected failures count as benign errors, but the
          auditor still runs after every op, so a fault that corrupts
          library state is caught. Empty = no injection. *)
}

(** 15 keys, 2 tasks, evict_rate 1.0, seed 1, no fault injection. *)
val default_config : config

(** A simulated process with libmpk initialized. *)
type env = {
  mpk : Libmpk.t;
  proc : Mpk_kernel.Proc.t;
  tasks : (int, Mpk_kernel.Task.t) Hashtbl.t;  (** IR thread id -> task *)
  allocs : (int, int list) Hashtbl.t;
      (** vkey -> live [mpk_malloc] blocks, newest first *)
}

(** [make_env cfg ~cores] — a fresh [cores]-core machine whose process
    spawns [cfg.tasks] tasks (thread [i] on core [i]) and then runs
    [Libmpk.init] from task 0 with [cfg]'s keys, eviction rate and seed,
    and a 16-page default heap. *)
val make_env : config -> cores:int -> env

(** [task env tid] — the task running IR thread [tid].
    @raise Invalid_argument when [tid] was never spawned. *)
val task : env -> int -> Mpk_kernel.Task.t

(** [exec_step env step] — run one step through the libmpk API or the
    MMU, raising whatever they raise. [Free] is [mpk_munmap] and drops
    the vkey's recorded allocations; [Malloc] records the block it gets;
    [Mfree] frees the [nth] (mod live count) recorded block of its vkey,
    or does nothing when none is recorded. Memory accesses target the
    group's base address; [Spawn] starts a task that inherits the
    spawner's PKRU. Labels, joins and kernel-internal lock/load/store
    steps are no-ops.
    @raise Invalid_argument for an unspawned thread, or an access to a
    vkey with no group. *)
val exec_step : env -> Mpk_analysis.Lint.step -> unit

(** [gen_ops cfg n] — the deterministic [n]-step trace for [cfg.seed]:
    vkeys 1..8, groups of 1..4 pages, threads [0 .. cfg.tasks - 1]. *)
val gen_ops : config -> int -> Mpk_analysis.Lint.step list

(** [ir_of_trace ~name steps] — the straight-line IR program of a
    (usually minimized) trace, via [Mpk_analysis.Ir.of_trace]:
    per-thread chains, main spawning/joining the others. *)
val ir_of_trace : name:string -> Mpk_analysis.Lint.step list -> Mpk_analysis.Ir.program

type kind =
  | Violations of Audit.violation list  (** the auditor flagged the state *)
  | Crash of string  (** an unexpected exception escaped the API *)

type failure = {
  index : int;
  step : Mpk_analysis.Lint.step;
  kind : kind;
  blackbox : string list;
      (** the last trace events before the failing step — every [run]
          records a trace (a flight recorder), and a failure dumps its
          tail ({!Mpk_kernel.Signal.blackbox}) while it is still open *)
}

type passed = {
  applied : int;
  benign_errors : int;
  fired : Mpk_faultinj.stats list;
      (** hit and fired counts of every armed fault point, taken before
          the run resets the injection registry *)
}

type outcome = Passed of passed | Failed of failure

(** [run cfg steps] applies the trace, auditing the initial state and
    then after every step. A read of a vkey with no group is skipped,
    and a denied read is a legal outcome, not a benign error. It runs
    inside [Mpk_trace.Tracer.record] and {!Lockdep.record}, so inside a
    caller's recording it records there. *)
val run : config -> Mpk_analysis.Lint.step list -> outcome

(** [check cfg ~ops] — generate [ops] steps, run them, and on failure
    ddmin-minimize the trace and render the {!report}. *)
val check : config -> ops:int -> (passed, string) result

(** [report cfg ~ops_total failure minimized] — human-readable failure
    report: the violated invariants, the replay seed/config, and the
    minimized trace. *)
val report : config -> ops_total:int -> failure -> Mpk_analysis.Lint.step list -> string
