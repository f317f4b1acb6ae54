(** Multi-trial benchmark runner: re-run a gated experiment's metrics
    ({!Mpk_experiments.Report.gated}) across varied seeds under the
    cycle-attribution profiler, keep every metric's per-trial samples,
    and keep the trial-0 attribution tree, so the whole observability
    surface lands in one artifact. *)

type metric_samples = {
  ms_name : string;
  ms_direction : Mpk_experiments.Env.direction;
  ms_samples : float list;  (** one per trial, in trial order *)
}

type report = {
  r_id : string;
  r_trials : int;
  r_seed : int;  (** base seed; trial [t] ran at [r_seed + t] *)
  r_smoke : bool;
  r_metrics : metric_samples list;  (** the experiment's metric order *)
  r_attribution_exact : bool;
      (** every trial's attributed total matched the machine's cycle
          counter bit-for-bit *)
  r_profile : Mpk_trace.Prof.snapshot;  (** trial 0 *)
}

val observe : (unit -> 'a) -> 'a * Mpk_trace.Prof.capture * bool
(** [observe f] resets {!Mpk_hw.Cpu.total_charged}, then runs [f] in a
    fresh profile ({!Mpk_trace.Prof.record}) — the outermost one, as the
    cycle accumulator starts with it. Returns [f]'s result, the profile, and
    whether its attribution equals the charged cycles bit for bit. *)

val run :
  id:string -> trials:int -> seed:int -> smoke:bool -> (report, string) result
(** Trial [t] runs [id]'s metrics at seed [seed + t] under {!observe}.
    Errors on an id outside {!Mpk_experiments.Report.gated}, [trials < 1],
    a failing experiment, a non-finite metric, or trials disagreeing on
    the metric set. *)

val to_json : report -> Mpk_trace.Json.t
(** The [bench/2] schema ({!Io.Bench}). *)

val of_json : Mpk_trace.Json.t -> (report, string) result
(** Decode a [bench/2] report, checking every member's shape. Errors
    when a metric's sample count differs from [trials]: the gate pairs
    sample [t] with the fresh trial at seed [seed + t]. *)
