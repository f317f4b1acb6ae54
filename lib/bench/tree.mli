(** Differential cycle attribution: align two {!Mpk_trace.Prof} trees by
    label path and report per-node deltas, so a regression names the
    exact frame (e.g. [mpk_mprotect/sys_pkey_sync/ipi_receive]) rather
    than a topline number.

    Alignment rules:
    {ul
    {- children of aligned parents pair by label ([Matched]);}
    {- an unpaired baseline/current pair under the same parent whose
       self cycles, total cycles and call counts all agree is treated as
       a rename ([Renamed]) — label churn, not a perf change — and its
       subtrees keep diffing;}
    {- anything else unpaired is [Added] (current only) or [Removed]
       (baseline only), reported as one row whose totals cover the whole
       subtree — never silently dropped.}} *)

type status =
  | Matched
  | Added  (** present only in the current tree *)
  | Removed  (** present only in the baseline tree *)
  | Renamed of string  (** the baseline label this current node replaced *)

type delta = {
  path : string list;
      (** path from the root, current-side labels (baseline-side for
          [Removed] nodes) *)
  status : status;
  base_self : float;
  cur_self : float;
  base_total : float;
  cur_total : float;
  base_calls : int;
  cur_calls : int;
}

val diff :
  base:Mpk_trace.Prof.snapshot -> cur:Mpk_trace.Prof.snapshot -> delta list
(** Pre-order over the aligned trees (root row excluded). *)

val pct_change : base:float -> cur:float -> float option
(** Percent change, [None] when [base = 0] — zero-cycle baselines must
    not divide-by-zero into the report. *)

val path_string : delta -> string

val self_regressions : min_cycles:float -> delta list -> delta list
(** The (at most eight) nodes whose self cycles grew by more than
    [min_cycles] ([Added] nodes count from zero), largest increase first
    — the attribution the gate prints for a regressed metric. *)

val render : delta list -> string
(** Human table ({!Mpk_util.Table}): per node status, baseline/current
    self and total cycles, call counts, and percent change (["-"] on a
    zero baseline). *)
