(** The exact per-seed diff behind `mpkctl bench diff`.

    The simulator is deterministic for a fixed seed and `bench diff`
    replays the baseline's seed schedule, so fresh trial [t] has an
    exact partner: baseline sample [t], run at the same seed. Each pair
    is judged on its own against a fixed relative floor of 1% of its
    baseline sample, which absorbs sub-percent arithmetic drift; a metric is
    {ul
    {- [Regressed] if any pair moved the harmful way by more than the
       floor;}
    {- [Improved] if no pair regressed and some pair moved the helpful
       way by more than the floor;}
    {- [Unchanged] otherwise.}}

    The attribution trees are diffed too ({!Tree.diff}), so a regressed
    metric comes with the frames whose self cycles grew. *)

type verdict = Improved | Unchanged | Regressed

val verdict_to_string : verdict -> string

type pair = { seed : int; base : float; fresh : float }

val classify : Mpk_experiments.Env.direction -> pair list -> verdict * pair
(** The verdict and the worst pair: the one that moved furthest the
    harmful way past its floor. A zero baseline sample has a zero floor,
    so any harmful move from it regresses and nothing divides by it.
    Raises [Invalid_argument] on an empty list. *)

type metric_verdict = {
  v_name : string;
  v_direction : Mpk_experiments.Env.direction;
  v_verdict : verdict;
  v_worst : pair;
}

type diff = {
  d_id : string;
  d_verdicts : metric_verdict list;
  d_missing : string list;
      (** metric-set drift, each entry prefixed with [baseline-only:] or
          [fresh-only:] — drift regresses the gate rather than slipping
          a metric out of coverage *)
  d_tree : Tree.delta list;  (** baseline profile vs fresh profile *)
  d_regressed : bool;
}

val diff : baseline:Runner.report -> fresh:Runner.report -> diff
(** Raises [Invalid_argument] unless [fresh] ran the baseline's seed and
    trial count. *)

val hot_frames : diff -> Tree.delta list
(** The frames blamed for a regression: self-cycle increases above a
    small dust floor, largest first. *)

val render : diff -> string
(** Human output: verdict table ({!Mpk_util.Table}) showing each
    metric's worst pair plus, when anything regressed, the top
    self-cycle increases from the attribution diff. *)

val report_json : planted:(string * float) option -> diff list -> Mpk_trace.Json.t
(** The [bench-diff/2] report ({!Io.Bench_diff}): per metric its verdict
    and worst seed pair, per experiment the blamed frames. *)
