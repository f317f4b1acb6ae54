(** Deterministic interleaving torture harness (DESIGN.md §13).

    Runs N fibers of mmap/munmap/lookup/protect traffic against one
    shared address space, interleaved at preemption points by an
    explicit schedule. The harness reuses the simulator's single
    preemption mechanism — the ["sched.preempt"] fault-injection point
    fired by [Cpu.charge] — arming it with [Every 1] for the run
    ([Mpk_faultinj.inject]) and installing a fiber-switching action on
    the cores of the machine it builds ([Cpu.set_preempt]); fibers
    blocked on contended kernel locks park through
    [Lock.with_wait_hook]. The recycle plant is a property of the
    address space the run builds ([Vma.skip_recycle_check]), so nothing
    of a run outlives it. A run is a pure function of
    [(seed, schedule)], which is what makes failing schedules
    ddmin-shrinkable and byte-identically replayable.

    Oracles: every lookup asserts [Vma.read_valid] on the vma the
    protocol hands out (catches use-after-recycle when
    [--plant recycle] disables the protocol's own check); lockdep
    findings at quiescence; a stall detector for deadlocked
    schedules. *)

(** What bug to plant, to prove the harness finds it. [Plant_recycle]
    disables the lookup protocol's recycle re-validation;
    [Plant_lock_order] injects a vma→mm acquisition against the
    established mm→vma order; [Plant_release_held] releases a lock that
    is not held. *)
type plant = No_plant | Plant_recycle | Plant_lock_order | Plant_release_held

val plant_of_string : string -> plant option
val plant_to_string : plant -> string

type config = {
  tasks : int;  (** concurrent fibers (one core each) *)
  ops : int;  (** ops per fiber *)
  slots : int;  (** shared mapping slots the fibers collide on *)
  seed : int64;
  plant : plant;
}

val default_config : config

(** [(at, target)]: at the [at]-th preemption point, switch to fiber
    [target]. *)
type schedule = (int * int) list

val schedule_to_string : schedule -> string
val schedule_of_string : string -> (schedule, string) result

(** One fiber operation over the shared slot table. Normally generated
    from the seed; witness replay ({!Mpk_check.Witness}) passes explicit
    per-fiber op lists instead. *)
type op =
  | Op_mmap of { slot : int; pages : int; ro : bool }
      (** map (remapping an occupied slot first unmaps it — the churn
          that feeds the typesafe free-list with recycles) *)
  | Op_munmap of { slot : int }
  | Op_lookup of { slot : int; off : int }
  | Op_protect of { slot : int; ro : bool }
  | Op_plant_lock_order  (** acquire vma→mm against the established order *)
  | Op_plant_release_held  (** release the mm lock without holding it *)

type outcome = {
  ok : bool;
  reason : string option;  (** first failure, when not [ok] *)
  findings : string list;  (** lockdep/quiescence findings *)
  ops_applied : int;
  benign : int;  (** ops that lost benign races (errno) *)
  points : int;  (** preemption points fired *)
  cycles : float;  (** cycles charged by this run *)
  log : string list;  (** deterministic op log (replay witness) *)
  order_edges : (string * string) list;  (** lockdep's observed lock order *)
}

(** One deterministic run, recorded by lockdep (inside a caller's
    lockdep recording, the run records there and reports that
    recording's findings). [fiber_ops] overrides
    the seed-generated traffic with one explicit op list per fiber
    (fiber count then comes from the array, not [cfg.tasks], and no
    plant op is inserted — though [Plant_recycle] still disables the
    lookup re-validation); this is how compiled witnesses replay. *)
val run_once : ?fiber_ops:op list array -> config -> schedule:schedule -> unit -> outcome

type report = {
  cfg : config;
  schedule : schedule;  (** the original failing schedule *)
  shrunk : schedule;  (** ddmin-minimized reproducer *)
  reason : string;
  replay_identical : bool;
      (** the shrunk reproducer replayed twice with identical verdict,
          op log and cycle total *)
  log_tail : string list;
}

type stats = {
  runs : int;
  failures : int;
  ops_applied : int;
  benign : int;
  max_points : int;
  recycled : int;  (** vma slab recycles observed during the sweep *)
}

type sweep_result = { stats : stats; failure : report option }

(** [sweep ~seeds cfg] explores [seeds] seeds × [rounds] random
    schedules of [entries] switch decisions each, stopping at the first
    failure, which it ddmin-shrinks and replays. [failure = None] means
    the whole sweep ran clean. *)
val sweep : ?entries:int -> ?rounds:int -> seeds:int -> config -> sweep_result

val render_report : report -> string
