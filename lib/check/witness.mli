(** The one confirm entry point for static findings.

    Concurrency-witness replay: compile a static race/deadlock/atomicity
    finding ({!Mpk_analysis.Lint}) into a torture-harness run
    ({!Torture.run_once} with explicit [fiber_ops]) and search for the
    adversarial schedule the finding claims exists.

    The witness's per-thread Load/Store steps become per-fiber harness
    ops (victim: lookup/protect; adversaries: remap churn), the run is
    planted with [Plant_recycle] so the lookup protocol has the same
    discipline hole the finding describes, and the harness's own
    oracles (the lookup's [Vma.read_valid] check, dynamic lockdep, the
    stall detector) judge each schedule. A dry run is tried first, then
    every single-switch schedule up to the dry run's preemption-point
    horizon.

    Sequential findings (typestate, balance, W^X, gadget, TOCTOU) are
    delegated to {!Replay.confirm}, as one run with no schedule. *)

type outcome = {
  verdict : Replay.verdict;
  schedule : Torture.schedule option;
      (** the confirming schedule, when [Confirmed] — replayable with
          [mpkctl torture --schedule] *)
  runs : int;  (** harness runs spent searching *)
  note : string;
}

val pp_outcome : Format.formatter -> outcome -> unit

val confirm : Mpk_analysis.Lint.finding -> outcome
