(* The observability layer: ring buffer, strict JSON, tracer semantics
   (including the zero-perturbation guarantee), cycle attribution, the
   Perfetto exporter and the metrics registry. *)

open Mpk_trace
open Mpk_hw
open Mpk_kernel

let parse_exn s = match Json.parse s with Ok j -> j | Error e -> Alcotest.fail e

(* --- ring buffer --- *)

let test_ring_basic () =
  let r = Ring.create 4 in
  Alcotest.(check (list int)) "empty" [] (Ring.to_list r);
  Ring.push r 1;
  Ring.push r 2;
  Alcotest.(check (list int)) "fifo order" [ 1; 2 ] (Ring.to_list r);
  List.iter (Ring.push r) [ 3; 4; 5 ];
  Alcotest.(check (list int)) "keeps capacity" [ 2; 3; 4; 5 ] (Ring.to_list r)

let test_ring_wraparound_keeps_newest () =
  let r = Ring.create 3 in
  List.iter (Ring.push r) [ 1; 2; 3; 4; 5; 6; 7 ];
  Alcotest.(check (list int)) "newest survive, oldest first" [ 5; 6; 7 ] (Ring.to_list r)

(* --- strict JSON --- *)

let test_json_roundtrip () =
  let j =
    Json.Obj
      [
        "s", Json.String "a\"b\\c\n\t\x01";
        "i", Json.Int (-42);
        "f", Json.Float 1.5;
        "big", Json.Float 1e300;
        "null", Json.Null;
        "t", Json.Bool true;
        "l", Json.List [ Json.Int 1; Json.String "x"; Json.Obj [] ];
      ]
  in
  let s = Json.to_string j in
  Alcotest.(check bool) "compact round-trips" true (Json.parse s = Ok j);
  let s2 = Json.to_string ~indent:2 j in
  Alcotest.(check bool) "indented round-trips" true (Json.parse s2 = Ok j)

let test_json_rejects_malformed () =
  let rejects s =
    match Json.parse s with
    | Ok _ -> Alcotest.fail (Printf.sprintf "parser accepted %S" s)
    | Error _ -> ()
  in
  List.iter rejects
    [
      "";
      "{";
      "[1,]";
      "{\"a\":1,}";
      "{\"a\" 1}";
      "[1] trailing";
      "01";
      "1.";
      "+1";
      "nul";
      "\"unterminated";
      "\"bad \\q escape\"";
      "\"raw \x01 control\"";
      "\"lone \\ud800 surrogate\"";
      "{\"a\":}";
      "[,]";
      "nan";
    ];
  (* things the strict parser must still accept *)
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Printf.sprintf "parser rejected %S: %s" s e))
    [ "0"; "-0.5"; "1e3"; "1.25E-2"; "\"\\ud83d\\ude00\""; "[]"; "{}"; " [ 1 , 2 ] " ]

let test_json_non_finite_rejected () =
  Alcotest.check_raises "nan unprintable"
    (Invalid_argument "Json: non-finite float") (fun () ->
      ignore (Json.to_string (Json.Float Float.nan)))

(* RFC 4648 §10 test vectors. *)
(* Base64 through the bytes<->Json path that dump payloads use. *)
let base64_encode b =
  match Json.bytes_to_json b with
  | Json.String s -> s
  | _ -> Alcotest.fail "bytes_to_json: not a String node"

let base64_decode s = Json.bytes_of_json (Json.String s)

let test_base64_vectors () =
  List.iter
    (fun (plain, enc) ->
      Alcotest.(check string) plain enc (base64_encode (Bytes.of_string plain));
      match base64_decode enc with
      | Ok b -> Alcotest.(check string) enc plain (Bytes.to_string b)
      | Error e -> Alcotest.fail e)
    [
      "", "";
      "f", "Zg==";
      "fo", "Zm8=";
      "foo", "Zm9v";
      "foob", "Zm9vYg==";
      "fooba", "Zm9vYmE=";
      "foobar", "Zm9vYmFy";
    ]

let test_base64_rejects_malformed () =
  List.iter
    (fun s ->
      match base64_decode s with
      | Ok _ -> Alcotest.fail (Printf.sprintf "decoder accepted %S" s)
      | Error _ -> ())
    [
      "Zg";  (* length not a multiple of 4 *)
      "Zg=";
      "Z===";
      "====";
      "Zm=v";  (* '=' before the end *)
      "=m9v";
      "Zm9v=A==";
      "Zm9$";  (* alphabet violation *)
      "Zm 9";
      "Zg==Zg==";  (* data after padding *)
      "Zh==";  (* non-canonical: trailing bits set *)
      "Zm9=";
    ]

let test_base64_fuzz_roundtrip () =
  let p = Mpk_util.Prng.create ~seed:0xB64L in
  for _ = 1 to 500 do
    let len = Mpk_util.Prng.int p 200 in
    let b = Bytes.init len (fun _ -> Char.chr (Mpk_util.Prng.int p 256)) in
    let enc = base64_encode b in
    (match base64_decode enc with
    | Ok b' ->
        if not (Bytes.equal b b') then Alcotest.failf "roundtrip failed for %S" enc
    | Error e -> Alcotest.failf "decode of own encoding failed: %s (%S)" e enc);
    (* the bytes<->Json path used by dump payloads *)
    match Json.bytes_of_json (Json.bytes_to_json b) with
    | Ok b' ->
        if not (Bytes.equal b b') then Alcotest.fail "bytes_to_json roundtrip failed"
    | Error e -> Alcotest.fail e
  done;
  (* corrupting any single character of a valid encoding must never
     silently decode to the original bytes *)
  for _ = 1 to 100 do
    let len = 1 + Mpk_util.Prng.int p 50 in
    let b = Bytes.init len (fun _ -> Char.chr (Mpk_util.Prng.int p 256)) in
    let enc = base64_encode b in
    let i = Mpk_util.Prng.int p (String.length enc) in
    let c = Char.chr (33 + Mpk_util.Prng.int p 90) in
    if c <> enc.[i] then begin
      let enc' = Bytes.of_string enc in
      Bytes.set enc' i c;
      match base64_decode (Bytes.to_string enc') with
      | Ok b' ->
          if Bytes.equal b b' then Alcotest.fail "corrupted encoding decoded identically"
      | Error _ -> ()
    end
  done

let test_bytes_of_json_wrong_node () =
  (match Json.bytes_of_json (Json.Int 3) with
  | Ok _ -> Alcotest.fail "accepted Int node"
  | Error _ -> ());
  match Json.bytes_of_json Json.Null with
  | Ok _ -> Alcotest.fail "accepted Null node"
  | Error _ -> ()

(* --- a small traced workload --- *)

let demo_workload () =
  let machine = Machine.create ~cores:2 ~mem_mib:64 () in
  let proc = Proc.create machine in
  let task = Proc.spawn proc ~core_id:0 () in
  let mpk = Libmpk.init ~evict_rate:1.0 proc task in
  let a = Libmpk.mpk_mmap mpk task ~vkey:1 ~len:8192 ~prot:Perm.rw in
  Libmpk.mpk_begin mpk task ~vkey:1 ~prot:Perm.rw;
  Mmu.write_byte (Proc.mmu proc) (Task.core task) ~addr:a 'x';
  Libmpk.mpk_end mpk task ~vkey:1;
  Libmpk.mpk_mprotect mpk task ~vkey:1 ~prot:Perm.none;
  Cpu.cycles (Task.core task)

let test_tracer_captures_cross_layer_events () =
  let _, trace = Tracer.record demo_workload in
  let kinds =
    List.sort_uniq compare (List.map (fun (e : Event.t) -> Event.kind e.Event.ev) (Tracer.events trace))
  in
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " present") true (List.mem k kinds))
    [
      "wrpkru";
      "syscall_enter";
      "syscall_exit";
      "tlb_miss";
      "tlb_fill";
      "page_fault";
      "context_switch";
      "cache_miss";
      "cache_pin";
      "span_begin";
      "span_end";
      "group_op";
    ]

let test_tracer_disabled_is_cycle_identical () =
  (* The whole point of runtime-off: recording a trace must not move the
     simulated clock by even one bit. *)
  let off = demo_workload () in
  let on_, trace = Tracer.record demo_workload in
  Alcotest.(check bool) "events were recorded" true (Tracer.emitted trace > 0);
  Alcotest.(check bool) "bit-identical cycles" true (Float.equal off on_)

let test_tracer_profiling_is_cycle_identical () =
  let off = demo_workload () in
  let on_, profile = Prof.record demo_workload in
  Alcotest.(check bool) "profile non-empty" true (Prof.total profile > 0.0);
  Alcotest.(check bool) "bit-identical cycles" true (Float.equal off on_)

let test_tracer_ring_bounded () =
  let capacity = 8192 (* each core's ring, as [Tracer] documents *) in
  let (), trace =
    Tracer.record (fun () ->
        for i = 1 to capacity + 100 do
          Tracer.emit ~core:0 ~task:(-1) ~ts:(float_of_int i) (Event.Wrpkru { pkru = i })
        done;
        ignore (demo_workload ()))
  in
  let all = Tracer.events trace in
  Alcotest.(check bool) "more events emitted than a ring keeps" true
    (Tracer.emitted trace > capacity);
  Alcotest.(check bool) "retention bounded by capacity per core" true
    (List.length all <= capacity * List.length (Tracer.cores trace));
  (* the black box keeps the newest events *)
  let last4 = List.filteri (fun i _ -> i >= List.length all - 4) all in
  Alcotest.(check bool) "recent = tail of retained" true (Tracer.recent trace 4 = last4)

let test_tracer_task_stamping () =
  let _, trace = Tracer.record demo_workload in
  let stamped =
    List.exists (fun (e : Event.t) -> e.Event.task >= 0) (Tracer.events trace)
  in
  Alcotest.(check bool) "events carry task ids" true stamped

(* Core ids repeat across machines: an event carries the task resident
   on its own machine's core, not the one a later machine spawned on the
   core with the same id. *)
let test_tracer_task_stamp_per_machine () =
  let a = Proc.create (Machine.create ~cores:2 ~mem_mib:16 ()) in
  ignore (Proc.spawn a ~core_id:0 ());
  let task1 = Proc.spawn a ~core_id:1 () in
  let b = Proc.create (Machine.create ~cores:2 ~mem_mib:16 ()) in
  ignore (Proc.spawn b ~core_id:1 ());
  let (), trace = Tracer.record (fun () -> Cpu.wrpkru (Task.core task1) Pkru.init) in
  match Tracer.events trace with
  | [ { Event.ev = Event.Wrpkru _; task; _ } ] ->
      Alcotest.(check int) "A's task 1 executed the wrpkru" 1 task
  | es -> Alcotest.failf "want one wrpkru event, got %d events" (List.length es)

(* --- cycle attribution --- *)

let test_attribution_exact () =
  Cpu.reset_total_charged ();
  let _, profile = Prof.record demo_workload in
  let attributed = Prof.total profile in
  let charged = Cpu.total_charged () in
  Alcotest.(check bool) "something was charged" true (charged > 0.0);
  Alcotest.(check bool) "attribution is exact (bit-for-bit)" true
    (Float.equal attributed charged);
  (* the tree's leaves sum back to the total (same additions, reordered:
     allow one ulp of slack per node) *)
  let rec leaf_sum (s : Prof.snapshot) =
    List.fold_left (fun acc c -> acc +. leaf_sum c) s.Prof.self s.Prof.children
  in
  let leaf = leaf_sum (Prof.tree profile) in
  Alcotest.(check bool) "leaves cover the total" true
    (Float.abs (leaf -. attributed) <= 1e-6 *. Float.max 1.0 attributed)

let test_attribution_tree_nests_spans () =
  let _, profile = Prof.record demo_workload in
  let folded = Prof.folded profile in
  Alcotest.(check bool) "folded output non-empty" true (String.length folded > 0);
  (* kernel work attributed under the API span that caused it *)
  let has_nested =
    List.exists
      (fun line ->
        match String.index_opt line ' ' with
        | None -> false
        | Some i ->
            let path = String.sub line 0 i in
            String.length path > String.length "mpk_mmap;sys_"
            && String.sub path 0 9 = "mpk_mmap;")
      (String.split_on_char '\n' folded)
  in
  Alcotest.(check bool) "mpk_mmap;sys_... path present" true has_nested

let test_unattributed_label () =
  let machine = Machine.create ~cores:1 ~mem_mib:16 () in
  let core = Machine.core machine 0 in
  let (), profile = Prof.record (fun () -> Cpu.charge core 10.0 (* no label, no span *)) in
  let snap = Prof.tree profile in
  let has_unattributed =
    List.exists (fun (c : Prof.snapshot) -> c.Prof.label = "(unattributed)") snap.Prof.children
  in
  Alcotest.(check bool) "unlabeled charge lands in (unattributed)" true has_unattributed

(* --- Perfetto export --- *)

let test_perfetto_roundtrip_and_monotone () =
  let (), trace =
    Tracer.record (fun () ->
        ignore (demo_workload ());
        ignore (demo_workload ()) (* second machine restarts its clock at 0 *))
  in
  let events = Tracer.events trace in
  let s = Export.perfetto_string events in
  let j = parse_exn s in
  let tes =
    match Option.bind (Json.member "traceEvents" j) Json.to_list with
    | Some l -> l
    | None -> Alcotest.fail "no traceEvents array"
  in
  Alcotest.(check bool) "events present" true (List.length tes > List.length events);
  (* every track's timestamps must be monotone or Perfetto draws garbage *)
  let last_ts : (float * float, float) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun te ->
      let num name = Option.bind (Json.member name te) Json.to_number in
      let str name = Option.bind (Json.member name te) Json.to_string_opt in
      match str "ph" with
      | Some "M" -> ()  (* metadata records carry no ts *)
      | _ -> (
          match num "pid", num "tid", num "ts" with
          | Some pid, Some tid, Some ts ->
              let key = (pid, tid) in
              let prev =
                Option.value ~default:Float.neg_infinity (Hashtbl.find_opt last_ts key)
              in
              if ts < prev then
                Alcotest.fail
                  (Printf.sprintf "track (%g,%g): ts %g after %g" pid tid ts prev);
              Hashtbl.replace last_ts key ts
          | _ -> Alcotest.fail "event missing pid/tid/ts"))
    tes;
  Alcotest.(check bool) "at least one track seen" true (Hashtbl.length last_ts > 0)

let test_perfetto_span_phases_balance () =
  let _, trace = Tracer.record demo_workload in
  let s = Export.perfetto_string (Tracer.events trace) in
  let j = parse_exn s in
  let tes = Option.get (Option.bind (Json.member "traceEvents" j) Json.to_list) in
  let count ph =
    List.length
      (List.filter
         (fun te -> Option.bind (Json.member "ph" te) Json.to_string_opt = Some ph)
         tes)
  in
  Alcotest.(check bool) "has B spans" true (count "B" > 0);
  Alcotest.(check int) "B/E balanced" (count "B") (count "E");
  Alcotest.(check bool) "has instants" true (count "i" > 0)

(* --- metrics registry --- *)

(* The registry's JSON export entry named [name]: strict-parser clean,
   like every artifact that embeds it. *)
let exported_metric name =
  let j = parse_exn (Json.to_string (Metrics.export_json ())) in
  match
    Option.value ~default:[] (Json.to_list j)
    |> List.find_opt (fun m ->
           Option.bind (Json.member "name" m) Json.to_string_opt = Some name)
  with
  | Some m -> m
  | None -> Alcotest.failf "no %s in the JSON export" name

let number_field m field = Option.bind (Json.member field m) Json.to_number

let test_metrics_counter_gauge () =
  Metrics.reset ();
  let c = Metrics.counter ~help:"test counter" "test_total" in
  Metrics.inc c;
  Metrics.inc ~by:4.0 c;
  let g = Metrics.gauge "test_gauge" in
  Metrics.set g 2.5;
  let total = exported_metric "test_total" and gauge = exported_metric "test_gauge" in
  Alcotest.(check (option (float 0.))) "counter value" (Some 5.0) (number_field total "value");
  Alcotest.(check (option (float 0.))) "gauge value" (Some 2.5) (number_field gauge "value");
  Alcotest.(check (option string)) "help text" (Some "test counter")
    (Option.bind (Json.member "help" total) Json.to_string_opt);
  Alcotest.(check (option string)) "type" (Some "counter")
    (Option.bind (Json.member "type" total) Json.to_string_opt)

let test_metrics_event_counters () =
  Metrics.reset ();
  ignore (Tracer.record demo_workload);
  match number_field (exported_metric "trace_events_total{kind=\"wrpkru\"}") "value" with
  | Some n -> Alcotest.(check bool) "wrpkru counter positive" true (n > 0.0)
  | None -> Alcotest.fail "the wrpkru counter has no value"

(* --- the stress harness's black box --- *)

let test_stress_failure_carries_blackbox () =
  (* An invariant violation needs a real bug to trigger, so plant a
     synthetic failure record and check the report renders its black
     box. *)
  let step = { Mpk_analysis.Ir.stid = 0; sop = Mpk_analysis.Ir.Read { vkey = 1 } } in
  let failure =
    {
      Mpk_check.Stress.index = 3;
      step;
      kind = Mpk_check.Stress.Crash "Boom";
      blackbox = [ "#1 fake event"; "#2 fake event" ];
    }
  in
  let report =
    Mpk_check.Stress.report Mpk_check.Stress.default_config ~ops_total:10 failure [ step ]
  in
  let has needle =
    let nl = String.length needle and hl = String.length report in
    let rec go i = i + nl <= hl && (String.sub report i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "report names the black box" true (has "black box (last 2");
  Alcotest.(check bool) "report carries the events" true (has "#2 fake event")

let stress_passes () =
  let cfg = Mpk_check.Stress.default_config in
  match Mpk_check.Stress.run cfg (Mpk_check.Stress.gen_ops cfg 50) with
  | Mpk_check.Stress.Passed _ -> ()
  | Mpk_check.Stress.Failed _ -> Alcotest.fail "stress run unexpectedly failed"

let test_stress_run_leaves_tracer_off () =
  stress_passes ();
  Alcotest.(check bool) "tracer restored to off" false (Tracer.on ())

(* --- recordings: scoped, nested, closed on a raise --- *)

let marker = Event.Wrpkru { pkru = 0x5eed }

(* The enclosing trace opened with [marker] as its first event, and
   kept it. *)
let check_marker_first trace =
  match Tracer.events trace with
  | e :: _ :: _ ->
      Alcotest.(check int) "numbering continues from #0" 0 e.Event.seq;
      Alcotest.(check bool) "the earlier event survives" true (e.Event.ev = marker)
  | _ -> Alcotest.fail "the enclosing trace lost its events"

let test_stress_keeps_enclosing_trace () =
  let (), trace =
    Tracer.record (fun () ->
        Tracer.emit ~core:0 ~task:(-1) ~ts:0.0 marker;
        stress_passes ())
  in
  check_marker_first trace

let test_observe_keeps_enclosing_trace () =
  let still_on, trace =
    Tracer.record (fun () ->
        Tracer.emit ~core:0 ~task:(-1) ~ts:0.0 marker;
        let _, _, exact = Mpk_bench.Runner.observe demo_workload in
        Alcotest.(check bool) "attribution exact" true exact;
        Tracer.on ())
  in
  Alcotest.(check bool) "the enclosing trace stays on" true still_on;
  check_marker_first trace

(* [raises record body] runs [body] inside [record], then raises out of it. *)
let raises record body =
  match
    record (fun () ->
        body ();
        failwith "boom")
  with
  | _ -> Alcotest.fail "no raise"
  | exception Failure _ -> ()

let test_trace_raise_closes () =
  let emit ts () = Tracer.emit ~core:0 ~task:(-1) ~ts marker in
  raises Tracer.record (emit 0.0);
  Alcotest.(check bool) "closed by the raise" false (Tracer.on ());
  let (), trace =
    Tracer.record (fun () ->
        emit 0.0 ();
        raises Tracer.record (emit 1.0);
        Alcotest.(check bool) "the enclosing trace stays open" true (Tracer.on ());
        emit 2.0 ())
  in
  Alcotest.(check int) "before, inside and after the raise" 3 (Tracer.emitted trace)

let test_prof_raise_closes () =
  let charge cycles () = Prof.charge cycles in
  raises Prof.record (charge 1.0);
  Alcotest.(check bool) "closed by the raise" false (Prof.on ());
  let (), profile =
    Prof.record (fun () ->
        charge 1.0 ();
        raises Prof.record (charge 2.0);
        Alcotest.(check bool) "the enclosing profile stays open" true (Prof.on ());
        charge 4.0 ())
  in
  Alcotest.(check (float 0.)) "before, inside and after the raise" 7.0 (Prof.total profile)

(* perfbench's traced phase steers the controls in exactly this order. *)
let test_controls_perfbench_sequence () =
  let seen = ref 0 in
  Tracer.clear ();
  Tracer.add_sink (fun _ -> incr seen);
  Prof.reset ();
  Cpu.reset_total_charged ();
  Prof.enable ();
  Tracer.enable ();
  ignore (demo_workload ());
  Tracer.disable ();
  Prof.disable ();
  Tracer.clear_sinks ();
  Alcotest.(check bool) "both off again" false (Tracer.on () || Prof.on ());
  Alcotest.(check bool) "the sink saw the events" true (!seen > 0);
  Alcotest.(check bool) "attribution exact" true
    (Float.equal (Prof.total_recorded ()) (Cpu.total_charged ()));
  Alcotest.(check bool) "the tree survives disable" true ((Prof.snapshot ()).Prof.children <> [])

let () =
  Alcotest.run "trace"
    [
      ( "ring",
        [
          Alcotest.test_case "basic" `Quick test_ring_basic;
          Alcotest.test_case "wraparound keeps newest" `Quick test_ring_wraparound_keeps_newest;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects malformed" `Quick test_json_rejects_malformed;
          Alcotest.test_case "non-finite rejected" `Quick test_json_non_finite_rejected;
          Alcotest.test_case "base64 rfc4648 vectors" `Quick test_base64_vectors;
          Alcotest.test_case "base64 rejects malformed" `Quick test_base64_rejects_malformed;
          Alcotest.test_case "base64 fuzz roundtrip" `Quick test_base64_fuzz_roundtrip;
          Alcotest.test_case "bytes_of_json wrong node" `Quick test_bytes_of_json_wrong_node;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "cross-layer events" `Quick test_tracer_captures_cross_layer_events;
          Alcotest.test_case "disabled is cycle-identical" `Quick
            test_tracer_disabled_is_cycle_identical;
          Alcotest.test_case "profiling is cycle-identical" `Quick
            test_tracer_profiling_is_cycle_identical;
          Alcotest.test_case "ring bounded" `Quick test_tracer_ring_bounded;
          Alcotest.test_case "task stamping" `Quick test_tracer_task_stamping;
          Alcotest.test_case "task stamps stay on their machine" `Quick
            test_tracer_task_stamp_per_machine;
        ] );
      ( "attribution",
        [
          Alcotest.test_case "exact vs machine counter" `Quick test_attribution_exact;
          Alcotest.test_case "spans nest" `Quick test_attribution_tree_nests_spans;
          Alcotest.test_case "unattributed label" `Quick test_unattributed_label;
        ] );
      ( "perfetto",
        [
          Alcotest.test_case "roundtrip + monotone ts" `Quick
            test_perfetto_roundtrip_and_monotone;
          Alcotest.test_case "span phases balance" `Quick test_perfetto_span_phases_balance;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter + gauge" `Quick test_metrics_counter_gauge;
          Alcotest.test_case "event counters" `Quick test_metrics_event_counters;
        ] );
      ( "blackbox",
        [
          Alcotest.test_case "failure carries blackbox" `Quick
            test_stress_failure_carries_blackbox;
          Alcotest.test_case "stress restores tracer" `Quick test_stress_run_leaves_tracer_off;
        ] );
      ( "record",
        [
          Alcotest.test_case "stress keeps an enclosing trace" `Quick
            test_stress_keeps_enclosing_trace;
          Alcotest.test_case "observe keeps an enclosing trace" `Quick
            test_observe_keeps_enclosing_trace;
          Alcotest.test_case "trace closes on a raise" `Quick test_trace_raise_closes;
          Alcotest.test_case "profile closes on a raise" `Quick test_prof_raise_closes;
          Alcotest.test_case "perfbench control sequence" `Quick
            test_controls_perfbench_sequence;
        ] );
    ]
