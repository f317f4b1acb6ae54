(* Tests for the perf regression observatory (lib/bench): attribution
   tree diffing, the paired per-seed rule, the benchmark schema
   validator, runner determinism, and the end-to-end gate verdict on a
   planted slowdown. *)

module Env = Mpk_experiments.Env
module Tree = Mpk_bench.Tree
module Io = Mpk_bench.Io
module Runner = Mpk_bench.Runner
module Gate = Mpk_bench.Gate
module Prof = Mpk_trace.Prof
module J = Mpk_trace.Json

let node ?(children = []) label ~self ~calls =
  let total = self +. List.fold_left (fun a c -> a +. c.Prof.total) 0.0 children in
  { Prof.label; self; calls; total; children }

let base_tree () =
  node "root" ~self:0.0 ~calls:0
    ~children:
      [
        node "mpk_begin" ~self:10.0 ~calls:4
          ~children:
            [ node "wrpkru" ~self:23.3 ~calls:1; node "libmpk_user" ~self:60.0 ~calls:1 ];
        node "mpk_end" ~self:5.0 ~calls:2;
      ]

(* --- Tree diff --- *)

let test_tree_identity () =
  let t = base_tree () in
  let deltas = Tree.diff ~base:t ~cur:t in
  Alcotest.(check int) "4 nodes" 4 (List.length deltas);
  List.iter
    (fun d ->
      Alcotest.(check bool) "matched" true (d.Tree.status = Tree.Matched);
      Alcotest.(check (float 0.0)) "self delta zero" 0.0 (d.Tree.cur_self -. d.Tree.base_self);
      Alcotest.(check (float 0.0))
        "total delta zero" 0.0
        (d.Tree.cur_total -. d.Tree.base_total);
      Alcotest.(check int) "call delta zero" 0 (d.Tree.cur_calls - d.Tree.base_calls))
    deltas

let find_path deltas p =
  match List.find_opt (fun d -> d.Tree.path = p) deltas with
  | Some d -> d
  | None -> Alcotest.failf "no delta for path %s" (String.concat "/" p)

let test_tree_added_removed () =
  let base = base_tree () in
  let cur =
    node "root" ~self:0.0 ~calls:0
      ~children:
        [
          node "mpk_begin" ~self:10.0 ~calls:4
            ~children:[ node "wrpkru" ~self:23.3 ~calls:1 ];
          node "mpk_mprotect" ~self:90.0 ~calls:3
            ~children:[ node "tlb_flush" ~self:40.0 ~calls:3 ];
        ]
  in
  let deltas = Tree.diff ~base ~cur in
  let added = find_path deltas [ "mpk_mprotect" ] in
  Alcotest.(check bool) "added" true (added.Tree.status = Tree.Added);
  (* an Added row covers its whole subtree: total includes tlb_flush *)
  Alcotest.(check (float 1e-9)) "added subtree total" 130.0 added.Tree.cur_total;
  Alcotest.(check (float 0.0)) "added base total" 0.0 added.Tree.base_total;
  let removed_user = find_path deltas [ "mpk_begin"; "libmpk_user" ] in
  Alcotest.(check bool) "removed" true (removed_user.Tree.status = Tree.Removed);
  Alcotest.(check (float 0.0)) "removed cur total" 0.0 removed_user.Tree.cur_total;
  let removed_end = find_path deltas [ "mpk_end" ] in
  Alcotest.(check bool) "removed sibling" true (removed_end.Tree.status = Tree.Removed)

let test_tree_renamed () =
  let base =
    node "root" ~self:0.0 ~calls:0
      ~children:[ node "pkey_sync" ~self:42.0 ~calls:7 ]
  in
  let cur =
    node "root" ~self:0.0 ~calls:0
      ~children:[ node "pkey_sync_batched" ~self:42.0 ~calls:7 ]
  in
  match Tree.diff ~base ~cur with
  | [ d ] ->
      Alcotest.(check bool) "renamed" true (d.Tree.status = Tree.Renamed "pkey_sync");
      Alcotest.(check (float 0.0)) "no self delta" 0.0 (d.Tree.cur_self -. d.Tree.base_self)
  | ds -> Alcotest.failf "expected 1 delta, got %d" (List.length ds)

let test_tree_rename_needs_identical_cost () =
  (* same shape but different self cycles: not a rename, an add + remove *)
  let base =
    node "root" ~self:0.0 ~calls:0 ~children:[ node "a" ~self:10.0 ~calls:1 ]
  in
  let cur =
    node "root" ~self:0.0 ~calls:0 ~children:[ node "b" ~self:11.0 ~calls:1 ]
  in
  let deltas = Tree.diff ~base ~cur in
  Alcotest.(check bool) "b added" true ((find_path deltas [ "b" ]).Tree.status = Tree.Added);
  Alcotest.(check bool)
    "a removed" true
    ((find_path deltas [ "a" ]).Tree.status = Tree.Removed)

let test_pct_change_zero_base () =
  Alcotest.(check bool) "zero base is None" true (Tree.pct_change ~base:0.0 ~cur:5.0 = None);
  Alcotest.(check bool)
    "nonzero base is Some" true
    (Tree.pct_change ~base:10.0 ~cur:15.0 = Some 50.0)

(* --- The paired rule: each seed against its own baseline sample, with
   a 1% floor for arithmetic noise --- *)

(* The verdict and worst pair [Gate.diff] gives one metric whose
   baseline trials read [base] and whose fresh trials read [fresh]. *)
let classify direction base fresh =
  let report samples =
    {
      Runner.r_id = "m";
      r_trials = List.length samples;
      r_seed = 0;
      r_smoke = true;
      r_metrics = [ { Runner.ms_name = "m"; ms_direction = direction; ms_samples = samples } ];
      r_attribution_exact = true;
      r_profile = { Prof.label = "root"; self = 0.; calls = 0; total = 0.; children = [] };
      r_registry = J.List [];
    }
  in
  match (Gate.diff ~baseline:(report base) ~fresh:(report fresh)).Gate.d_verdicts with
  | [ v ] -> v.Gate.v_verdict, v.Gate.v_worst
  | _ -> Alcotest.fail "one metric, one verdict"

let show_verdict = function
  | Gate.Improved -> "improved"
  | Gate.Unchanged -> "unchanged"
  | Gate.Regressed -> "regressed"

let check_verdict what want (v, _) =
  Alcotest.(check string) what (show_verdict want) (show_verdict v)

let test_classify_deterministic_floor () =
  (* 0.5% drift on a lower-better metric stays unchanged; 2% is regressed. *)
  let base = [ 100.0; 100.0; 100.0 ] in
  check_verdict "small drift unchanged" Gate.Unchanged
    (classify Env.Lower_better base [ 100.5; 100.5; 100.5 ]);
  check_verdict "2% slower regressed" Gate.Regressed
    (classify Env.Lower_better base [ 102.0; 102.0; 102.0 ]);
  check_verdict "2% faster improved" Gate.Improved
    (classify Env.Lower_better base [ 98.0; 98.0; 98.0 ])

let test_classify_mixed50_plant () =
  (* fig8.mixed50's committed samples, each 30 cycles slower (2.3-2.7%):
     small against the 174-cycle spread between seeds, but past the 1%
     floor on every seed. *)
  let base = [ 1223.0; 1288.1; 1114.5 ] in
  let ((_, worst) as r) =
    classify Env.Lower_better base (List.map (fun b -> b +. 30.0) base)
  in
  check_verdict "+30 cycles regressed" Gate.Regressed r;
  Alcotest.(check int) "worst pair is the smallest sample" 2 worst.Gate.seed

let test_classify_mixed_pairs () =
  let ((_, worst) as r) = classify Env.Lower_better [ 100.0; 100.0 ] [ 98.0; 102.0 ] in
  check_verdict "one seed better, one worse: regressed" Gate.Regressed r;
  Alcotest.(check int) "worst pair is the slower seed" 1 worst.Gate.seed

let test_classify_higher_better () =
  let base = [ 1000.0; 1000.0 ] in
  check_verdict "throughput drop regressed" Gate.Regressed
    (classify Env.Higher_better base [ 900.0; 900.0 ]);
  check_verdict "throughput gain improved" Gate.Improved
    (classify Env.Higher_better base [ 1100.0; 1100.0 ])

let test_classify_zero_baseline () =
  (* a zero baseline sample has a zero floor: any harmful move regresses,
     with no division anywhere *)
  let ((_, worst) as r) = classify Env.Lower_better [ 0.0; 0.0 ] [ 0.0; 1.0 ] in
  check_verdict "any growth regressed" Gate.Regressed r;
  Alcotest.(check (float 0.0)) "worst fresh" 1.0 worst.Gate.fresh;
  check_verdict "exact zero unchanged" Gate.Unchanged
    (classify Env.Lower_better [ 0.0; 0.0 ] [ 0.0; 0.0 ]);
  check_verdict "drop below zero improved" Gate.Improved
    (classify Env.Lower_better [ 0.0 ] [ -1.0 ])

(* --- Prof snapshot JSON round-trip --- *)

let rec snapshot_equal a b =
  a.Prof.label = b.Prof.label
  && Float.equal a.Prof.self b.Prof.self
  && Float.equal a.Prof.total b.Prof.total
  && a.Prof.calls = b.Prof.calls
  && List.length a.Prof.children = List.length b.Prof.children
  && List.for_all2 snapshot_equal a.Prof.children b.Prof.children

let test_snapshot_roundtrip () =
  let t = base_tree () in
  match Prof.snapshot_of_json (Prof.json_of_snapshot t) with
  | Ok t' -> Alcotest.(check bool) "round-trips" true (snapshot_equal t t')
  | Error e -> Alcotest.failf "round-trip failed: %s" e

let test_snapshot_of_json_rejects_garbage () =
  Alcotest.(check bool)
    "missing label" true
    (Result.is_error (Prof.snapshot_of_json (J.Obj [ "self_cycles", J.Float 1.0 ])));
  Alcotest.(check bool) "non-object" true (Result.is_error (Prof.snapshot_of_json (J.Int 3)))

(* --- Io schema validation --- *)

let with_temp_file f =
  let path = Filename.temp_file "bench_io" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* A write validates before it touches the filesystem: an artifact that
   fails its schema is an error, and no file is created. *)
let test_io_validate_rejects () =
  with_temp_file @@ fun path ->
  Sys.remove path;
  let check_err kind j =
    Alcotest.(check bool) "rejected" true (Result.is_error (Io.write ~path kind j));
    Alcotest.(check bool) "nothing written" false (Sys.file_exists path)
  in
  check_err Io.Perfetto (J.Obj [ "traceEvents", J.List [] ]);
  check_err Io.Bench (J.Obj [ "schema", J.String "bench/1" ]);
  check_err Io.Bench_diff (J.Obj [ "schema", J.String "bench-diff/2" ]);
  check_err Io.Profile (J.Obj [ "experiment", J.String "fig8" ]);
  (* a verdict string outside the enum is caught inside results[] *)
  let bad_diff =
    J.Obj
      [
        "schema", J.String "bench-diff/2";
        "regressed", J.Bool false;
        ( "results",
          J.List
            [
              J.Obj
                [
                  "experiment", J.String "fig8";
                  ( "verdicts",
                    J.List
                      [
                        J.Obj
                          [
                            "name", J.String "m";
                            "verdict", J.String "meh";
                            "worst", J.Obj [];
                          ];
                      ] );
                  "regressed", J.Bool false;
                ];
            ] );
        "attribution", J.List [];
      ]
  in
  check_err Io.Bench_diff bad_diff

(* Rejected, with an error that names the file read. *)
let check_rejected_naming path what = function
  | Ok _ -> Alcotest.failf "accepted %s" what
  | Error e ->
      Alcotest.(check bool)
        (what ^ ": " ^ e)
        true
        (String.starts_with ~prefix:(path ^ ": ") e)

let test_io_write_read_roundtrip () =
  match Runner.run ~id:"table1" ~trials:2 ~seed:7 ~smoke:true with
  | Error e -> Alcotest.failf "runner: %s" e
  | Ok r -> (
      with_temp_file @@ fun path ->
      (match Io.write ~path Io.Bench (Runner.to_json r) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "write: %s" e);
      (* a diff must never compare against another experiment's baseline *)
      check_rejected_naming path "table1's baseline as fig8's"
        (Io.read_baseline ~id:"fig8" ~path);
      match Io.read_baseline ~id:"table1" ~path with
      | Error e -> Alcotest.failf "read: %s" e
      | Ok r' ->
          Alcotest.(check string) "id" r.Runner.r_id r'.Runner.r_id;
          Alcotest.(check int) "trials" r.Runner.r_trials r'.Runner.r_trials;
          let samples rep =
            List.map (fun m -> m.Runner.ms_name, m.Runner.ms_samples) rep.Runner.r_metrics
          in
          Alcotest.(check bool) "samples survive" true (samples r = samples r');
          Alcotest.(check bool)
            "profile survives" true
            (snapshot_equal r.Runner.r_profile r'.Runner.r_profile))

let test_of_json_rejects_sample_count () =
  (* pairing depends on the count: sample t is the baseline at seed+t *)
  match Runner.run ~id:"table1" ~trials:2 ~seed:7 ~smoke:true with
  | Error e -> Alcotest.failf "runner: %s" e
  | Ok r -> (
      match Runner.to_json r with
      | J.Obj fields ->
          let with_trials n =
            J.Obj (List.map (fun (k, v) -> if k = "trials" then k, J.Int n else k, v) fields)
          in
          Alcotest.(check bool)
            "2 samples, 2 trials accepted" true
            (Result.is_ok (Runner.of_json (with_trials 2)));
          Alcotest.(check bool)
            "2 samples, 3 trials rejected" true
            (Result.is_error (Runner.of_json (with_trials 3)));
          with_temp_file (fun path ->
              Out_channel.with_open_text path (fun oc ->
                  output_string oc (J.to_string (with_trials 3)));
              check_rejected_naming path "2 samples for 3 trials"
                (Io.read_baseline ~id:"table1" ~path))
      | _ -> Alcotest.fail "bench report is not an object")

(* --- Runner determinism + gate end-to-end --- *)

(* Every metric is named [id ^ "."] and no name repeats. *)
let check_metric_names (r : Runner.report) =
  let names = List.map (fun m -> m.Runner.ms_name) r.Runner.r_metrics in
  Alcotest.(check bool) "names start with the id" true
    (List.for_all (String.starts_with ~prefix:(r.Runner.r_id ^ ".")) names);
  Alcotest.(check (list string))
    "names unique" (List.sort compare names) (List.sort_uniq compare names)

let test_runner_deterministic () =
  let run () =
    match Runner.run ~id:"fig8" ~trials:2 ~seed:3 ~smoke:true with
    | Ok r -> r
    | Error e -> Alcotest.failf "runner: %s" e
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "attribution exact" true a.Runner.r_attribution_exact;
  check_metric_names a;
  Alcotest.(check (result reject string))
    "fig2 has no metrics" (Error "unknown bench id \"fig2\"")
    (Runner.run ~id:"fig2" ~trials:1 ~seed:1 ~smoke:true);
  List.iter2
    (fun (ma : Runner.metric_samples) (mb : Runner.metric_samples) ->
      Alcotest.(check string) "same metric" ma.Runner.ms_name mb.Runner.ms_name;
      Alcotest.(check bool)
        ("identical samples for " ^ ma.Runner.ms_name)
        true
        (List.for_all2 Float.equal ma.Runner.ms_samples mb.Runner.ms_samples))
    a.Runner.r_metrics b.Runner.r_metrics;
  Alcotest.(check bool)
    "identical profile" true
    (snapshot_equal a.Runner.r_profile b.Runner.r_profile)

let test_gate_unchanged_on_identical_runs () =
  match Runner.run ~id:"table1" ~trials:2 ~seed:5 ~smoke:true with
  | Error e -> Alcotest.failf "runner: %s" e
  | Ok r ->
      check_metric_names r;
      let d = Gate.diff ~baseline:r ~fresh:r in
      Alcotest.(check bool) "not regressed" false d.Gate.d_regressed;
      List.iter
        (fun v ->
          Alcotest.(check bool)
            ("unchanged: " ^ v.Gate.v_name)
            true
            (v.Gate.v_verdict = Gate.Unchanged))
        d.Gate.d_verdicts;
      Alcotest.(check (list string)) "no drift" [] d.Gate.d_missing

let test_gate_catches_planted_slowdown () =
  let baseline =
    match Runner.run ~id:"table1" ~trials:2 ~seed:5 ~smoke:true with
    | Ok r -> r
    | Error e -> Alcotest.failf "baseline: %s" e
  in
  let fresh =
    Mpk_hw.Cpu.with_plant_slowdown (Some ("wrpkru", 40.0)) (fun () ->
        match Runner.run ~id:"table1" ~trials:2 ~seed:5 ~smoke:true with
        | Ok r -> r
        | Error e -> Alcotest.failf "planted run: %s" e)
  in
  let d = Gate.diff ~baseline ~fresh in
  Alcotest.(check bool) "regressed" true d.Gate.d_regressed;
  let wrpkru_verdict =
    List.find (fun v -> v.Gate.v_name = "table1.pkey_set_wrpkru_cycles") d.Gate.d_verdicts
  in
  Alcotest.(check bool)
    "wrpkru metric regressed" true
    (wrpkru_verdict.Gate.v_verdict = Gate.Regressed);
  let worst = wrpkru_verdict.Gate.v_worst in
  Alcotest.(check (float 1e-6)) "delta is the plant" 40.0 (worst.Gate.fresh -. worst.Gate.base);
  (* the rendered attribution's top frame has a wrpkru label *)
  let rec attribution = function
    | "attribution (self-cycle increases, largest first):" :: top :: _ -> Some top
    | _ :: rest -> attribution rest
    | [] -> None
  in
  match attribution (String.split_on_char '\n' (Gate.render d)) with
  | None -> Alcotest.fail "no attribution rendered"
  | Some top ->
      let path = List.hd (String.split_on_char ' ' (String.trim top)) in
      Alcotest.(check bool)
        ("top frame is wrpkru: " ^ top)
        true
        (List.mem "wrpkru" (String.split_on_char '/' path))

let test_gate_metric_set_drift_regresses () =
  match Runner.run ~id:"table1" ~trials:1 ~seed:5 ~smoke:true with
  | Error e -> Alcotest.failf "runner: %s" e
  | Ok r ->
      let truncated = { r with Runner.r_metrics = List.tl r.Runner.r_metrics } in
      let d = Gate.diff ~baseline:r ~fresh:truncated in
      Alcotest.(check bool) "drift regresses" true d.Gate.d_regressed;
      Alcotest.(check bool)
        "drift named" true
        (List.exists
           (fun s -> String.length s > 13 && String.sub s 0 13 = "baseline-only")
           d.Gate.d_missing)

let () =
  Alcotest.run "bench"
    [
      ( "tree",
        [
          Alcotest.test_case "identical trees diff to zero" `Quick test_tree_identity;
          Alcotest.test_case "added/removed reported" `Quick test_tree_added_removed;
          Alcotest.test_case "rename detected" `Quick test_tree_renamed;
          Alcotest.test_case "rename needs identical cost" `Quick
            test_tree_rename_needs_identical_cost;
          Alcotest.test_case "pct_change zero base" `Quick test_pct_change_zero_base;
        ] );
      ( "noise",
        [
          Alcotest.test_case "deterministic floor" `Quick test_classify_deterministic_floor;
          Alcotest.test_case "fig8.mixed50 +30 regressed" `Quick
            test_classify_mixed50_plant;
          Alcotest.test_case "one seed worse regressed" `Quick test_classify_mixed_pairs;
          Alcotest.test_case "higher-better direction" `Quick test_classify_higher_better;
          Alcotest.test_case "zero baseline no div" `Quick test_classify_zero_baseline;
        ] );
      ( "schema",
        [
          Alcotest.test_case "snapshot json round-trip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "snapshot rejects garbage" `Quick
            test_snapshot_of_json_rejects_garbage;
          Alcotest.test_case "validate rejects" `Quick test_io_validate_rejects;
          Alcotest.test_case "write/read round-trip" `Quick test_io_write_read_roundtrip;
          Alcotest.test_case "of_json checks sample count" `Quick
            test_of_json_rejects_sample_count;
        ] );
      ( "gate",
        [
          Alcotest.test_case "runner deterministic" `Quick test_runner_deterministic;
          Alcotest.test_case "identical runs unchanged" `Quick
            test_gate_unchanged_on_identical_runs;
          Alcotest.test_case "planted slowdown caught" `Quick
            test_gate_catches_planted_slowdown;
          Alcotest.test_case "metric-set drift regresses" `Quick
            test_gate_metric_set_drift_regresses;
        ] );
    ]
