(* Tests for the deterministic interleaving torture harness
   (Mpk_check.Torture) and the lockdep validator (Mpk_check.Lockdep):
   runs must be pure functions of (seed, schedule), the planted bugs
   must be found within a bounded budget, and the clean protocol must
   survive the sweep with zero findings. *)

open Mpk_kernel
module Torture = Mpk_check.Torture
module Lockdep = Mpk_check.Lockdep

let cfg = Torture.default_config

(* Sweep parameters known to find the planted recycle race at seed 2
   within ~20 runs; the bounded budget of the "harness finds the bug"
   guarantee. *)
let sweep_budget c = Torture.sweep ~entries:48 ~rounds:16 ~seeds:8 c

let contains hay needle =
  let nl = String.length needle in
  let rec at i = i + nl <= String.length hay && (String.sub hay i nl = needle || at (i + 1)) in
  at 0

let outcome_fingerprint (o : Torture.outcome) =
  Printf.sprintf "ok=%b reason=%s ops=%d benign=%d points=%d cycles=%h log=%s"
    o.Torture.ok
    (Option.value o.Torture.reason ~default:"-")
    o.Torture.ops_applied o.Torture.benign o.Torture.points o.Torture.cycles
    (String.concat "|" o.Torture.log)

(* --- determinism: same (seed, schedule) ⇒ byte-identical outcome --- *)

let test_run_once_deterministic () =
  let schedule = [ (10, 1); (25, 3); (40, 0); (90, 2) ] in
  let a = Torture.run_once cfg ~schedule () in
  let b = Torture.run_once cfg ~schedule () in
  Alcotest.(check string)
    "identical outcome" (outcome_fingerprint a) (outcome_fingerprint b);
  Alcotest.(check bool) "clean protocol survives the schedule" true a.Torture.ok

let test_sweep_deterministic () =
  let c = { cfg with Torture.plant = Torture.Plant_recycle } in
  let fingerprint (r : Torture.sweep_result) =
    match r.Torture.failure with
    | None -> "clean"
    | Some f ->
        Printf.sprintf "%s / %s / %s"
          (Torture.schedule_to_string f.Torture.schedule)
          (Torture.schedule_to_string f.Torture.shrunk)
          f.Torture.reason
  in
  let a = sweep_budget c in
  let b = sweep_budget c in
  Alcotest.(check string)
    "same sweep twice: identical schedule, shrunk trace, and verdict"
    (fingerprint a) (fingerprint b);
  Alcotest.(check bool) "the sweep did fail" true (a.Torture.failure <> None)

(* Tracing must observe, not perturb: cycle totals are bit-identical
   with the tracer on and off. *)
let test_trace_does_not_perturb_cycles () =
  let schedule = [ (15, 2); (60, 1) ] in
  let quiet = Torture.run_once cfg ~schedule () in
  let traced, _ = Mpk_trace.Tracer.record (Torture.run_once cfg ~schedule) in
  Alcotest.(check bool)
    "bit-identical cycle totals under tracing" true
    (quiet.Torture.cycles = traced.Torture.cycles);
  Alcotest.(check string)
    "identical op logs under tracing"
    (String.concat "|" quiet.Torture.log)
    (String.concat "|" traced.Torture.log)

(* --- the schedule codec round-trips (replay command lines) --- *)

let test_schedule_roundtrip () =
  let s = [ (132, 3); (145, 2); (160, 1) ] in
  (match Torture.schedule_of_string (Torture.schedule_to_string s) with
  | Ok s' -> Alcotest.(check bool) "roundtrip" true (s = s')
  | Error e -> Alcotest.fail e);
  (match Torture.schedule_of_string "" with
  | Ok [] -> ()
  | Ok _ | Error _ -> Alcotest.fail "empty string is the empty schedule");
  match Torture.schedule_of_string "nonsense" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage must not parse"

(* --- planted bugs are found within the bounded budget --- *)

let test_planted_recycle_found () =
  let c = { cfg with Torture.plant = Torture.Plant_recycle } in
  let r = sweep_budget c in
  match r.Torture.failure with
  | None -> Alcotest.fail "planted use-after-recycle not found within budget"
  | Some f ->
      Alcotest.(check bool)
        "reason names the recycle race" true
        (String.length f.Torture.reason >= 17
        && String.sub f.Torture.reason 0 17 = "use-after-recycle");
      Alcotest.(check bool)
        "ddmin produced a reproducer no longer than the original" true
        (List.length f.Torture.shrunk <= List.length f.Torture.schedule);
      Alcotest.(check bool)
        "shrunk reproducer replays byte-identically" true f.Torture.replay_identical;
      (* The reproducer is self-contained: a fresh run from just
         (seed, shrunk schedule) fails for the reported reason —
         f.cfg carries the seed that actually failed, not the sweep's
         base seed. *)
      let o = Torture.run_once f.Torture.cfg ~schedule:f.Torture.shrunk () in
      Alcotest.(check bool) "shrunk schedule still fails" false o.Torture.ok;
      Alcotest.(check (option string))
        "with the reported reason" (Some f.Torture.reason) o.Torture.reason

let test_planted_lock_order_found () =
  let c = { cfg with Torture.plant = Torture.Plant_lock_order } in
  let r = sweep_budget c in
  match r.Torture.failure with
  | None -> Alcotest.fail "planted AB/BA inversion not found"
  | Some f ->
      Alcotest.(check bool) "lockdep reports an ordering inversion" true
        (List.exists
           (fun line -> contains line "inversion")
           (f.Torture.reason :: f.Torture.log_tail))

(* The replay line must carry every config field the run depends on, or
   it replays a different run: a failure found at 2 slots prints
   --slots 2. *)
let test_reproducer_names_slots () =
  let c = { cfg with Torture.slots = 2; plant = Torture.Plant_recycle } in
  match (sweep_budget c).Torture.failure with
  | None -> Alcotest.fail "planted use-after-recycle not found at 2 slots"
  | Some f ->
      Alcotest.(check bool) "replay line names --slots 2" true
        (contains (Torture.render_report f) "--slots 2 ")

let test_planted_release_held_found () =
  let c = { cfg with Torture.plant = Torture.Plant_release_held } in
  let r = sweep_budget c in
  match r.Torture.failure with
  | None -> Alcotest.fail "planted release-not-held not found"
  | Some f ->
      Alcotest.(check bool)
        "lockdep reports the unheld release" true
        (String.length f.Torture.reason >= 7
        && String.sub f.Torture.reason 0 7 = "release")

(* --- the clean protocol survives the full sweep --- *)

let test_clean_sweep_zero_findings () =
  let r = sweep_budget cfg in
  (match r.Torture.failure with
  | None -> ()
  | Some f -> Alcotest.fail (Torture.render_report f));
  Alcotest.(check int) "no failing runs" 0 r.Torture.stats.Torture.failures;
  Alcotest.(check bool)
    "the sweep actually exercised slab recycling" true
    (r.Torture.stats.Torture.recycled > 0)

(* --- lockdep unit checks, driven directly through Lock --- *)

let findings f = Lockdep.findings (snd (Lockdep.record f))

let test_lockdep_inversion_direct () =
  let a = Lock.make ~cls:"cls_a" and b = Lock.make ~cls:"cls_b" in
  let fs =
    findings (fun () ->
        Lock.acquire a Lock.Exclusive ~actor:0;
        Lock.acquire b Lock.Exclusive ~actor:0;
        Lock.release b Lock.Exclusive ~actor:0;
        Lock.release a Lock.Exclusive ~actor:0;
        Alcotest.(check (list string)) "a→b alone is clean" []
          (List.map Lockdep.to_string (Lockdep.findings_so_far ()));
        (* The reverse order on the same classes is the AB/BA inversion.
           try_acquire suffices: lockdep judges the Attempt. *)
        Lock.acquire b Lock.Exclusive ~actor:1;
        ignore (Lock.try_acquire a Lock.Exclusive ~actor:1);
        Lock.release a Lock.Exclusive ~actor:1;
        Lock.release b Lock.Exclusive ~actor:1)
  in
  let inversions = List.filter (function Lockdep.Inversion _ -> true | _ -> false) fs in
  Alcotest.(check int) "exactly one inversion" 1 (List.length inversions)

let release_unheld () = Lock.release (Lock.make ~cls:"cls_solo") Lock.Exclusive ~actor:3

let is_release_unheld = function
  | [ Lockdep.Release_not_held { cls = "cls_solo"; actor = 3 } ] -> true
  | _ -> false

let test_lockdep_release_not_held_direct () =
  match findings release_unheld with
  | fs when is_release_unheld fs -> ()
  | fs ->
      Alcotest.fail
        (Printf.sprintf "expected one release-not-held, got [%s]"
           (String.concat "; " (List.map Lockdep.to_string fs)))

let test_lockdep_leak_at_quiescence () =
  let l = Lock.make ~cls:"cls_leaky" in
  let fs =
    findings (fun () ->
        Lock.acquire l Lock.Shared ~actor:2;
        Lockdep.check_quiescent ();
        Lock.release l Lock.Shared ~actor:2)
  in
  let leaks = List.filter (function Lockdep.Leak _ -> true | _ -> false) fs in
  Alcotest.(check bool) "held lock at quiescence is a leak" true (leaks <> [])

(* A torture run inside an enclosing recording records there, and the
   enclosing finding stays. *)
let test_run_once_keeps_enclosing_findings () =
  let (_ : Torture.outcome), locks =
    Lockdep.record (fun () ->
        release_unheld ();
        Torture.run_once cfg ~schedule:[] ())
  in
  Alcotest.(check bool) "the enclosing finding stays" true
    (is_release_unheld (Lockdep.findings locks))

let test_lockdep_raise_closes () =
  (match
     Lockdep.record (fun () ->
         release_unheld ();
         failwith "boom")
   with
  | _ -> Alcotest.fail "no raise"
  | exception Failure _ -> ());
  Alcotest.(check int) "closed by the raise" 0 (List.length (Lockdep.findings_so_far ()));
  let fs =
    findings (fun () ->
        (try ignore (Lockdep.record (fun () -> failwith "boom")) with Failure _ -> ());
        release_unheld ())
  in
  Alcotest.(check bool) "the enclosing recording stays open" true (is_release_unheld fs)

(* --- explicit fiber ops (witness replay's entry point) --- *)

let test_fiber_ops_deterministic () =
  let fiber_ops =
    [|
      [ Torture.Op_mmap { slot = 0; pages = 1; ro = false } ];
      [ Torture.Op_lookup { slot = 0; off = 0 }; Torture.Op_lookup { slot = 0; off = 0 } ];
      [ Torture.Op_mmap { slot = 0; pages = 1; ro = false } ];
    |]
  in
  let schedule = [ (7, 2) ] in
  let a = Torture.run_once ~fiber_ops cfg ~schedule () in
  let b = Torture.run_once ~fiber_ops cfg ~schedule () in
  Alcotest.(check string)
    "identical outcome" (outcome_fingerprint a) (outcome_fingerprint b);
  Alcotest.(check int) "fiber count from the array, not cfg.tasks" 4
    a.Torture.ops_applied

let test_order_edges_observed () =
  let c = { cfg with Torture.tasks = 2; ops = 16; slots = 2 } in
  let edges = (Torture.run_once c ~schedule:[] ()).Torture.order_edges in
  Alcotest.(check bool) "mm_lock -> vma_lock observed" true
    (List.mem ("mm_lock", "vma_lock") edges);
  Alcotest.(check bool) "no inversion on the clean protocol" false
    (List.mem ("vma_lock", "mm_lock") edges)

(* --- static findings replay to dynamic confirmation --- *)

module Lint = Mpk_analysis.Lint
module Mm_model = Mpk_check.Mm_model
module Witness = Mpk_check.Witness

let error_findings plant =
  Lint.analyze (Mm_model.program ~plant ())
  |> List.filter (fun f -> f.Lint.severity = Lint.Error)

let expect_confirmed plant =
  match error_findings plant with
  | [] -> Alcotest.fail (Mm_model.plant_to_string plant ^ ": no error finding")
  | f :: _ ->
      let o = Witness.confirm f in
      Alcotest.(check bool)
        (Mm_model.plant_to_string plant ^ " witness confirms")
        true
        (o.Witness.verdict = Witness.Confirmed);
      Alcotest.(check bool) "a confirming schedule is returned" true
        (o.Witness.schedule <> None)

let test_witness_confirms_recycle () = expect_confirmed `Recycle
let test_witness_confirms_lock_order () = expect_confirmed `Lock_order
let test_witness_confirms_window () = expect_confirmed `Window

let test_static_covers_dynamic_inversions () =
  (* ISSUE 9 acceptance: on the planted lock-order program, the static
     cycle set must cover every inversion dynamic lockdep observes. *)
  let x =
    Witness.crosscheck ~plant:`Lock_order (Mm_model.program ~plant:`Lock_order ())
  in
  Alcotest.(check bool) "the plant produced a dynamic inversion" true
    (x.Witness.inversions <> []);
  Alcotest.(check (list (pair string string)))
    "every inversion covered" [] x.Witness.uncovered;
  Alcotest.(check bool) "cross-check holds" true x.Witness.ok

let test_crosscheck_fails_uncovered_inversion () =
  (* The lock-order plant's dynamic run against the clean static model:
     its inversion lies inside no static cycle, so the check fails. *)
  let x = Witness.crosscheck ~plant:`Lock_order (Mm_model.program ()) in
  Alcotest.(check int) "one dynamic inversion" 1 (List.length x.Witness.inversions);
  Alcotest.(check int) "no static cycle" 0 (List.length x.Witness.cycles);
  Alcotest.(check (list (pair string string)))
    "the inversion is uncovered" x.Witness.inversions x.Witness.uncovered;
  Alcotest.(check bool) "cross-check fails" false x.Witness.ok

let () =
  Alcotest.run "torture"
    [
      ( "determinism",
        [
          Alcotest.test_case "run_once is a pure function of (seed, schedule)"
            `Quick test_run_once_deterministic;
          Alcotest.test_case "sweep verdict and shrunk trace are reproducible"
            `Quick test_sweep_deterministic;
          Alcotest.test_case "tracing does not perturb cycle totals" `Quick
            test_trace_does_not_perturb_cycles;
          Alcotest.test_case "schedule codec round-trips" `Quick
            test_schedule_roundtrip;
        ] );
      ( "plants",
        [
          Alcotest.test_case "use-after-recycle found within budget" `Quick
            test_planted_recycle_found;
          Alcotest.test_case "AB/BA inversion found" `Quick
            test_planted_lock_order_found;
          Alcotest.test_case "release-not-held found" `Quick
            test_planted_release_held_found;
          Alcotest.test_case "reproducer names a non-default slot count" `Quick
            test_reproducer_names_slots;
        ] );
      ( "clean",
        [
          Alcotest.test_case "full sweep: zero findings, recycling exercised"
            `Quick test_clean_sweep_zero_findings;
        ] );
      ( "witness",
        [
          Alcotest.test_case "explicit fiber ops are deterministic" `Quick
            test_fiber_ops_deterministic;
          Alcotest.test_case "lock-order graph observed dynamically" `Quick
            test_order_edges_observed;
          Alcotest.test_case "planted race confirms via schedule search" `Slow
            test_witness_confirms_recycle;
          Alcotest.test_case "planted inversion confirms via lockdep" `Quick
            test_witness_confirms_lock_order;
          Alcotest.test_case "planted window confirms via schedule search" `Slow
            test_witness_confirms_window;
          Alcotest.test_case "static cycles cover dynamic inversions" `Quick
            test_static_covers_dynamic_inversions;
          Alcotest.test_case "uncovered inversion fails the cross-check" `Quick
            test_crosscheck_fails_uncovered_inversion;
        ] );
      ( "lockdep",
        [
          Alcotest.test_case "AB/BA inversion (direct)" `Quick
            test_lockdep_inversion_direct;
          Alcotest.test_case "release-not-held (direct)" `Quick
            test_lockdep_release_not_held_direct;
          Alcotest.test_case "leak at quiescence (direct)" `Quick
            test_lockdep_leak_at_quiescence;
          Alcotest.test_case "run_once keeps enclosing findings" `Quick
            test_run_once_keeps_enclosing_findings;
          Alcotest.test_case "recording closes on a raise" `Quick test_lockdep_raise_closes;
        ] );
    ]
