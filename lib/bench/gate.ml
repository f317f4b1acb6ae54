module J = Mpk_trace.Json
module Env = Mpk_experiments.Env

type verdict = Improved | Unchanged | Regressed

let verdict_to_string = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "regressed"

let rel_floor = 0.01

type pair = { seed : int; base : float; fresh : float }

(* The pair's move in the harmful direction, so one comparison serves
   both metric polarities. *)
let harmful direction p =
  match direction with
  | Env.Lower_better -> p.fresh -. p.base
  | Env.Higher_better -> p.base -. p.fresh

(* A multiplication, not a division: a zero baseline gets a zero floor. *)
let floor p = rel_floor *. Float.abs p.base

let classify direction pairs =
  match pairs with
  | [] -> invalid_arg "Gate.classify: no seed pairs"
  | first :: _ ->
      let excess p = harmful direction p -. floor p in
      let worst =
        List.fold_left (fun w p -> if excess p > excess w then p else w) first pairs
      in
      let verdict =
        if excess worst > 0.0 then Regressed
        else if List.exists (fun p -> harmful direction p < -.floor p) pairs then
          Improved
        else Unchanged
      in
      verdict, worst

type metric_verdict = {
  v_name : string;
  v_direction : Env.direction;
  v_verdict : verdict;
  v_worst : pair;
}

type diff = {
  d_id : string;
  d_verdicts : metric_verdict list;
  d_missing : string list;
  d_tree : Tree.delta list;
  d_regressed : bool;
}

let diff ~(baseline : Runner.report) ~(fresh : Runner.report) =
  if
    baseline.Runner.r_seed <> fresh.Runner.r_seed
    || baseline.Runner.r_trials <> fresh.Runner.r_trials
  then invalid_arg "Gate.diff: the fresh run must replay the baseline's seeds";
  let find name (r : Runner.report) =
    List.find_opt (fun m -> m.Runner.ms_name = name) r.Runner.r_metrics
  in
  let verdicts, baseline_only =
    List.fold_left
      (fun (vs, missing) (bm : Runner.metric_samples) ->
        match find bm.Runner.ms_name fresh with
        | None -> vs, ("baseline-only:" ^ bm.Runner.ms_name) :: missing
        | Some fm ->
            let pairs =
              List.mapi
                (fun t (base, fresh) -> { seed = baseline.Runner.r_seed + t; base; fresh })
                (List.combine bm.Runner.ms_samples fm.Runner.ms_samples)
            in
            let verdict, worst = classify bm.Runner.ms_direction pairs in
            ( {
                v_name = bm.Runner.ms_name;
                v_direction = bm.Runner.ms_direction;
                v_verdict = verdict;
                v_worst = worst;
              }
              :: vs,
              missing ))
      ([], []) baseline.Runner.r_metrics
  in
  let fresh_only =
    List.filter_map
      (fun (fm : Runner.metric_samples) ->
        match find fm.Runner.ms_name baseline with
        | Some _ -> None
        | None -> Some ("fresh-only:" ^ fm.Runner.ms_name))
      fresh.Runner.r_metrics
  in
  let missing = List.rev baseline_only @ fresh_only in
  let verdicts = List.rev verdicts in
  let tree = Tree.diff ~base:baseline.Runner.r_profile ~cur:fresh.Runner.r_profile in
  {
    d_id = baseline.Runner.r_id;
    d_verdicts = verdicts;
    d_missing = missing;
    d_tree = tree;
    d_regressed =
      missing <> []
      || (not fresh.Runner.r_attribution_exact)
      || List.exists (fun v -> v.v_verdict = Regressed) verdicts;
  }

(* The frames blamed for a regression: those whose self cycles grew by
   more than rounding-sized dust, largest first. *)
let hot_frames d = Tree.self_regressions ~min_cycles:0.5 d.d_tree

let render d =
  let cy = Mpk_util.Table.float_cell in
  let rows =
    List.map
      (fun v ->
        let p = v.v_worst in
        let delta = p.fresh -. p.base in
        [
          v.v_name;
          (match v.v_direction with
          | Env.Lower_better -> "lower"
          | Env.Higher_better -> "higher");
          string_of_int p.seed;
          cy p.base;
          cy p.fresh;
          (let s = cy delta in
           if delta >= 0.0 then "+" ^ s else s);
          (match Tree.pct_change ~base:p.base ~cur:p.fresh with
          | None -> "-"
          | Some pct -> Printf.sprintf "%+.2f%%" pct);
          verdict_to_string v.v_verdict;
        ])
      d.d_verdicts
  in
  let table =
    Mpk_util.Table.render
      ~aligns:
        Mpk_util.Table.[ Left; Left; Right; Right; Right; Right; Right; Left ]
      ~header:[ "metric"; "dir"; "seed"; "baseline"; "fresh"; "delta"; "d%"; "verdict" ]
      rows
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "bench diff %s: each trial against the baseline sample of its seed, %g%% \
        floor; worst seed shown\n"
       d.d_id (100.0 *. rel_floor));
  Buffer.add_string buf table;
  Buffer.add_char buf '\n';
  List.iter
    (fun m -> Buffer.add_string buf (Printf.sprintf "metric-set drift: %s\n" m))
    d.d_missing;
  if d.d_regressed then begin
    Buffer.add_string buf "attribution (self-cycle increases, largest first):\n";
    match hot_frames d with
    | [] -> Buffer.add_string buf "  (no frame grew its self cycles)\n"
    | frames ->
        List.iter
          (fun (fr : Tree.delta) ->
            Buffer.add_string buf
              (Printf.sprintf "  %-52s +%.1f cycles (calls %+d)\n"
                 (Tree.path_string fr)
                 (fr.Tree.cur_self -. fr.Tree.base_self)
                 (fr.Tree.cur_calls - fr.Tree.base_calls)))
          frames
  end;
  Buffer.add_string buf
    (Printf.sprintf "%s: %s\n" d.d_id
       (if d.d_regressed then "REGRESSED" else "ok"));
  Buffer.contents buf

let attribution_json d =
  J.List
    (List.map
       (fun (fr : Tree.delta) ->
         J.Obj
           [
             "path", J.String (Tree.path_string fr);
             "self_cycle_delta", J.Float (fr.Tree.cur_self -. fr.Tree.base_self);
             "call_delta", J.Int (fr.Tree.cur_calls - fr.Tree.base_calls);
           ])
       (hot_frames d))

let diff_json d =
  J.Obj
    [
      "experiment", J.String d.d_id;
      ( "verdicts",
        J.List
          (List.map
             (fun v ->
               J.Obj
                 [
                   "name", J.String v.v_name;
                   "verdict", J.String (verdict_to_string v.v_verdict);
                   ( "worst",
                     J.Obj
                       [
                         "seed", J.Int v.v_worst.seed;
                         "baseline", J.Float v.v_worst.base;
                         "fresh", J.Float v.v_worst.fresh;
                       ] );
                 ])
             d.d_verdicts) );
      "metric_set_drift", J.List (List.map (fun s -> J.String s) d.d_missing);
      "attribution", attribution_json d;
      "regressed", J.Bool d.d_regressed;
    ]

let report_json ~planted diffs =
  J.Obj
    [
      "schema", J.String "bench-diff/2";
      ( "planted",
        match planted with
        | None -> J.Null
        | Some (label, cycles) ->
            J.Obj [ "label", J.String label; "extra_cycles", J.Float cycles ] );
      "results", J.List (List.map diff_json diffs);
      "attribution", J.List (List.map attribution_json diffs);
      "regressed", J.Bool (List.exists (fun d -> d.d_regressed) diffs);
    ]
