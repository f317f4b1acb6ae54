(** The one confirm module for static findings: replay a finding's
    witness ({!Mpk_analysis.Lint}) on the live simulator and classify it.

    [Confirmed] means the simulator exhibits the violation; [Unreproduced]
    means the witness ran but the simulator stayed healthy — static noise
    rather than a bug.

    Sequential findings (typestate, balance, W^X, gadget, TOCTOU) run
    once, straight-line: the witness's steps go through
    {!Stress.exec_step} on a fresh {!Stress.make_env} machine, and an
    oracle matching the violation class judges — the API rejects the
    call, the MMU faults, the invariant auditor ({!Audit}) flags
    corrupted state, or a direct kernel probe shows the damage (pinned
    key, stale PKRU with queued task_work, leaked group).

    Concurrency findings (race, atomicity, deadlock, unheld unlock)
    compile into a torture-harness run ({!Torture.run_once} with explicit
    [fiber_ops]) and search for the adversarial schedule the finding
    claims exists. The witness's per-thread Load/Store steps become
    per-fiber harness ops (victim: lookup/protect; adversaries: remap
    churn), the run is planted with [Plant_recycle] so the lookup
    protocol has the same discipline hole the finding describes, and the
    harness's own oracles (the lookup's [Vma.read_valid] check, dynamic
    lockdep, the stall detector) judge each schedule. A dry run is tried
    first, then every single-switch schedule up to the dry run's
    preemption-point horizon. *)

type verdict = Confirmed | Unreproduced

val verdict_to_string : verdict -> string

type outcome = {
  verdict : verdict;
  schedule : Torture.schedule option;
      (** the confirming schedule, when [Confirmed]. It replays against
          the witness's compiled fibers, which is what [mpkctl lint
          --confirm] runs; [mpkctl torture --schedule] regenerates seed
          traffic instead and does not reproduce it. *)
  runs : int;  (** harness runs spent searching *)
  note : string;
}

val pp_outcome : Format.formatter -> outcome -> unit

val confirm : Mpk_analysis.Lint.finding -> outcome
