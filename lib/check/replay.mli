(** Sequential witness replay: execute a static-analysis finding's path
    witness on the live simulator and classify it. {!Witness.confirm} is
    the one confirm entry point; it hands sequential findings here.

    [Confirmed] means the simulator exhibits the violation — the API
    rejects the call, the MMU faults, the invariant auditor ({!Audit}) flags
    corrupted state, or a direct kernel probe shows the damage (pinned
    key, stale PKRU with queued task_work, leaked group). [Unreproduced]
    means the witness ran but the simulator stayed healthy: static noise
    rather than a bug. *)

type verdict = Confirmed | Unreproduced

val verdict_to_string : verdict -> string

(** [confirm finding] — build a fresh machine, drive the libmpk API along
    the finding's witness, and judge with the oracle matching the
    finding's violation class. Returns the verdict and a note saying
    why. Concurrency findings (race, deadlock, atomicity, unheld unlock)
    need a schedule search and must not be passed here. *)
val confirm : Mpk_analysis.Lint.finding -> verdict * string
