(* mpkctl — command-line driver for the libmpk reproduction.

     mpkctl list                 show the available experiments
     mpkctl run [ID ...]         run experiments (default: all)
     mpkctl attack [STRATEGY]    run the JIT race attack under a W^X strategy
     mpkctl audit [OPTIONS]      randomized stress run with the invariant
                                 auditor enabled after every operation
     mpkctl faults [OPTIONS]     the same stress run with deterministic
                                 fault injection armed (--spec), checking
                                 that every injected failure leaves the
                                 stack consistent
     mpkctl lint [OPTIONS]       static domain-safety analysis of the
                                 case-study apps' libmpk protocols, with
                                 optional witness replay (--confirm);
                                 --concurrency switches to the kernel
                                 locking protocol (lockset races,
                                 lock-order cycles vs dynamic lockdep,
                                 atomicity windows) with schedule-search
                                 witness replay
     mpkctl scale [OPTIONS]      kvstore throughput/latency vs core count,
                                 batched do_pkey_sync IPIs vs the
                                 per-update broadcast, auditor-validated
     mpkctl profile run|diff     one experiment under the cycle-attribution
                                 profiler, exactness-checked; `profile diff`
                                 prints the per-frame delta against a
                                 committed BENCH baseline
     mpkctl bench run|diff       multi-trial seed-varied baselines
                                 (BENCH_<id>.json) and the exact per-seed
                                 regression gate with differential cycle
                                 attribution (--plant for gate self-tests)

   Every subcommand returns an explicit exit code through [Cmd.eval']:
   0 success, 1 a check failed (invariant violation, ERROR finding),
   2 usage error (unknown id, bad --spec, bad --plant). *)

open Cmdliner

(* The documented exit contract: [error] reports a reason on stderr as
   "mpkctl: CMD: reason"; [fail] does so and returns the exit code. *)
let error cmd fmt = Printf.ksprintf (Printf.eprintf "mpkctl: %s: %s\n" cmd) fmt

let fail code cmd fmt =
  Printf.ksprintf
    (fun m ->
      error cmd "%s" m;
      code)
    fmt

(* Count flags below their minimum are usage errors; [k] runs otherwise. *)
let check_counts cmd counts k =
  match List.find_opt (fun (_, n, min) -> n < min) counts with
  | Some (flag, _, min) -> fail 2 cmd "--%s must be >= %d" flag min
  | None -> k ()

let list_cmd =
  let doc = "List the paper's tables and figures that can be regenerated." in
  let run () =
    let open Mpk_experiments.Report in
    let width = List.fold_left (fun w e -> max w (String.length e.id)) 0 all in
    List.iter (fun e -> Printf.printf "%-*s %s\n" width e.id e.title) all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let run_cmd =
  let doc = "Run experiments by id (all of them when none is given)." in
  let ids =
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"experiment ids, e.g. fig8 table1")
  in
  let run ids =
    let open Mpk_experiments.Report in
    (* every id is checked before anything runs *)
    match List.filter (fun id -> Option.is_none (find id)) ids with
    | [] ->
        List.iter run_experiment (if ids = [] then all else List.filter_map find ids);
        0
    | unknown ->
        List.iter (error "run" "unknown experiment %S (try `mpkctl list`)") unknown;
        2
  in
  Cmd.v (Cmd.info "run" ~doc) Term.(const run $ ids)

let strategy_conv =
  let parse = function
    | "none" -> Ok Mpk_jit.Wx.No_wx
    | "mprotect" -> Ok Mpk_jit.Wx.Mprotect
    | "key-per-page" | "key/page" -> Ok Mpk_jit.Wx.Key_per_page
    | "key-per-process" | "key/process" -> Ok Mpk_jit.Wx.Key_per_process
    | "sdcg" -> Ok Mpk_jit.Wx.Sdcg
    | s -> Error (`Msg (Printf.sprintf "unknown strategy %S" s))
  in
  Arg.conv (parse, fun fmt s -> Format.pp_print_string fmt (Mpk_jit.Wx.to_string s))

let attack_cmd =
  let doc = "Run the JIT race-condition attack under a W^X strategy." in
  let strategy =
    Arg.(
      value
      & pos 0 strategy_conv Mpk_jit.Wx.Mprotect
      & info [] ~docv:"STRATEGY"
          ~doc:"one of: none, mprotect, key-per-page, key-per-process, sdcg")
  in
  let run strategy =
    (match Mpk_jit.Attack.run ~strategy () with
    | Mpk_jit.Attack.Injected v ->
        Printf.printf "VULNERABLE: attacker shellcode executed (0x%x)\n" v
    | Mpk_jit.Attack.Blocked reason -> Printf.printf "blocked: %s\n" reason);
    0
  in
  Cmd.v (Cmd.info "attack" ~doc) Term.(const run $ strategy)

(* The demo process behind `maps` and `trace demo`: a 16 KiB group written
   inside an mpk_begin domain and a one-page execute-only group. Returns the
   process, its task, the libmpk handle and the written group's base. *)
let demo_workout () =
  let machine = Mpk_hw.Machine.create ~cores:2 ~mem_mib:64 () in
  let proc = Mpk_kernel.Proc.create machine in
  let task = Mpk_kernel.Proc.spawn proc ~core_id:0 () in
  let mpk = Libmpk.init ~evict_rate:1.0 proc task in
  let a = Libmpk.mpk_mmap mpk task ~vkey:1 ~len:16384 ~prot:Mpk_hw.Perm.rw in
  ignore (Libmpk.mpk_mmap mpk task ~vkey:2 ~len:4096 ~prot:Mpk_hw.Perm.rwx);
  Libmpk.mpk_mprotect mpk task ~vkey:2 ~prot:Mpk_hw.Perm.x_only;
  Libmpk.mpk_begin mpk task ~vkey:1 ~prot:Mpk_hw.Perm.rw;
  Mpk_hw.Mmu.write_byte (Mpk_kernel.Proc.mmu proc) (Mpk_kernel.Task.core task) ~addr:a 'x';
  Libmpk.mpk_end mpk task ~vkey:1;
  (proc, task, mpk, a)

let maps_cmd =
  let doc =
    "Show a /proc-style memory map of a demo process with libmpk groups (note the \
     protection-key tags and per-area residency)."
  in
  let run () =
    let proc, _task, mpk, _a = demo_workout () in
    print_string (Mpk_kernel.Mm.show_maps (Mpk_kernel.Proc.mm proc));
    Format.printf "\nlibmpk stats: %a\n" Libmpk.pp_stats (Libmpk.stats mpk);
    0
  in
  Cmd.v (Cmd.info "maps" ~doc) Term.(const run $ const ())

(* --- audit / faults: the randomized stress driver --- *)

(* The flags `audit` and `faults` share; only the --ops default differs. *)
let stress_term ~ops_default =
  let ops =
    Arg.(value & opt int ops_default & info [ "ops" ] ~docv:"N" ~doc:"number of operations")
  in
  let seed =
    Arg.(value & opt int64 1L & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed (replayable)")
  in
  let hw_keys =
    Arg.(
      value & opt int 15
      & info [ "hw-keys" ] ~docv:"K" ~doc:"hardware keys in circulation (1-15)")
  in
  let tasks =
    Arg.(value & opt int 2 & info [ "tasks" ] ~docv:"T" ~doc:"interleaved tasks")
  in
  let evict_rate =
    Arg.(
      value & opt float 1.0
      & info [ "evict-rate" ] ~docv:"P" ~doc:"mpk_mprotect eviction probability")
  in
  Term.(
    const (fun ops seed hw_keys tasks evict_rate ->
        ops, { Mpk_check.Stress.default_config with seed; hw_keys; tasks; evict_rate })
    $ ops $ seed $ hw_keys $ tasks $ evict_rate)

(* The usage checks `audit` and `faults` share: the count flags, and an
   --evict-rate that is a number (Libmpk.init rejects NaN). *)
let check_stress cmd ops (cfg : Mpk_check.Stress.config) k =
  if Float.is_nan cfg.evict_rate then fail 2 cmd "--evict-rate must be a number"
  else check_counts cmd [ "ops", ops, 0; "tasks", cfg.tasks, 1 ] k

let audit_cmd =
  let doc =
    "Run the randomized stress driver with the cross-layer invariant auditor enabled \
     after every operation. Exits 0 when every audit passes; on a violation, prints \
     the replayable seed and a minimized failing op trace and exits nonzero."
  in
  let run (ops, (cfg : Mpk_check.Stress.config)) =
    check_stress "audit" ops cfg @@ fun () ->
    match Mpk_check.Stress.check cfg ~ops with
    | Ok { applied; benign_errors; _ } ->
        Printf.printf
          "audit OK: %d ops (seed %Ld, %d hw keys, %d tasks), %d benign API errors, \
           all invariants held after every operation\n"
          applied cfg.seed cfg.hw_keys cfg.tasks benign_errors;
        0
    | Error report ->
        print_string report;
        fail 1 "audit" "invariant violation"
  in
  Cmd.v (Cmd.info "audit" ~doc) Term.(const run $ stress_term ~ops_default:1000)

let faults_cmd =
  let doc =
    "Run the stress driver with deterministic fault injection armed: frame exhaustion, \
     pkey_alloc ENOSPC, key-cache refusal, forced preemption. The invariant auditor \
     runs after every operation, so a fault that leaves libmpk inconsistent fails the \
     run. With no --spec, every registered failure point is exercised in its own run \
     (fire once, first hit)."
  in
  let spec =
    Arg.(
      value
      & opt (some string) None
      & info [ "spec" ] ~docv:"SPEC" ~doc:("failure schedule: " ^ Mpk_faultinj.spec_grammar))
  in
  let run (ops, (cfg : Mpk_check.Stress.config)) spec =
    check_stress "faults" ops cfg @@ fun () ->
    let schedules =
      match spec with
      | Some s -> Result.map (fun fs -> [ fs ]) (Mpk_faultinj.parse_spec s)
      | None ->
          (* one run per registered point, firing on its first hit *)
          Ok (List.map (fun p -> [ p, Mpk_faultinj.Once 0 ]) (Mpk_faultinj.points ()))
    in
    match schedules with
    | Error e -> fail 2 "faults" "%s" e
    | Ok [] -> fail 2 "faults" "no failure points registered"
    | Ok schedules ->
        let failures = ref 0 in
        List.iter
          (fun faults ->
            let label =
              String.concat ","
                (List.map (fun (n, p) -> n ^ Mpk_faultinj.plan_to_string p) faults)
            in
            match Mpk_check.Stress.check { cfg with Mpk_check.Stress.faults } ~ops with
            | Ok { applied; benign_errors; fired } ->
                let fired =
                  fired
                  |> List.map (fun s ->
                         Printf.sprintf "%s hit:%d fired:%d" s.Mpk_faultinj.name
                           s.Mpk_faultinj.hits s.Mpk_faultinj.fired)
                  |> String.concat "  "
                in
                Printf.printf "faults OK [%s]: %d ops, %d benign errors | %s\n" label
                  applied benign_errors fired
            | Error report ->
                incr failures;
                Printf.printf "faults FAILED [%s]:\n" label;
                print_string report)
          schedules;
        if !failures = 0 then 0
        else fail 1 "faults" "%d fault schedule(s) violated invariants" !failures
  in
  Cmd.v (Cmd.info "faults" ~doc) Term.(const run $ stress_term ~ops_default:500 $ spec)

(* --- trace / profile: the observability layer --- *)

(* The `trace demo` scenario: the [maps] workout plus a heap op and an
   access denial. *)
let trace_demo_scenario () =
  let proc, task, mpk, a = demo_workout () in
  ignore (Libmpk.mpk_malloc mpk task ~vkey:1 ~size:256);
  (* a denied read, so the trace shows fault + signal delivery *)
  (match
     Mpk_hw.Mmu.read_byte (Mpk_kernel.Proc.mmu proc) (Mpk_kernel.Task.core task) ~addr:a
   with
  | (_ : char) -> ()
  | exception Mpk_kernel.Signal.Killed _ -> ())

let trace_stress_scenario () =
  let cfg = Mpk_check.Stress.default_config in
  let ops = Mpk_check.Stress.gen_ops cfg 300 in
  ignore (Mpk_check.Stress.run cfg ops)

(* Every artifact write ends here: "wrote PATH" (plus [note]) on success,
   else the reason reported as a failure of [cmd]. True when written. *)
let wrote ~cmd ?(note = "") path = function
  | Ok () ->
      Printf.printf "wrote %s%s\n" path note;
      true
  | Error e ->
      error cmd "%s" e;
      false

(* Every JSON artifact goes through Bench.Io: serialize, strict re-parse,
   schema-check, and only then write — shared by the profile, scale,
   trace and bench paths. *)
let write_json ~cmd path kind json = wrote ~cmd path (Mpk_bench.Io.write ~path kind json)

let write_validated_perfetto ~cmd path events =
  Mpk_bench.Io.write_string ~path Mpk_bench.Io.Perfetto
    (Mpk_trace.Export.perfetto_string ~indent:1 events)
  |> wrote ~cmd ~note:(Printf.sprintf " (%d trace events)" (List.length events)) path

(* Every plain-text artifact: an unwritable path is reported as
   "mpkctl: CMD: PATH: reason" and fails the command like a failed JSON
   export, instead of escaping as an exception. *)
let write_text ~cmd path ?note content =
  wrote ~cmd ?note path
    (try Ok (Out_channel.with_open_text path (fun oc -> output_string oc content))
     with Sys_error e -> Error e)

let trace_cmd =
  let doc =
    "Record a cross-layer event trace of a scenario (demo: a short libmpk workout; \
     stress: a randomized stress run) and export it as Perfetto/Chrome trace_event \
     JSON. Prints an event summary and the tail of the ring. Exits 1 when the \
     scenario emitted no events or the export fails validation."
  in
  let scenario =
    Arg.(
      value
      & pos 0 (Arg.enum [ "demo", `Demo; "stress", `Stress ]) `Demo
      & info [] ~docv:"SCENARIO" ~doc:"one of: demo, stress")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Perfetto JSON output (default TRACE_$(docv).json)")
  in
  let last =
    Arg.(value & opt int 32 & info [ "last" ] ~docv:"N" ~doc:"tail events to print")
  in
  let run scenario out last =
    check_counts "trace" [ "last", last, 0 ] @@ fun () ->
    let name = match scenario with `Demo -> "demo" | `Stress -> "stress" in
    let path = match out with Some p -> p | None -> Printf.sprintf "TRACE_%s.json" name in
    let (), trace =
      Mpk_trace.Tracer.record
        (match scenario with `Demo -> trace_demo_scenario | `Stress -> trace_stress_scenario)
    in
    let events = Mpk_trace.Tracer.events trace in
    if events = [] then fail 1 "trace" "scenario %s emitted no events" name
    else begin
      Printf.printf "trace %s: %d events emitted, %d retained, cores %s\n" name
        (Mpk_trace.Tracer.emitted trace) (List.length events)
        (String.concat "," (List.map string_of_int (Mpk_trace.Tracer.cores trace)));
      let by_kind = Hashtbl.create 16 in
      List.iter
        (fun (e : Mpk_trace.Event.t) ->
          let k = Mpk_trace.Event.kind e.Mpk_trace.Event.ev in
          Hashtbl.replace by_kind k (1 + Option.value ~default:0 (Hashtbl.find_opt by_kind k)))
        events;
      Hashtbl.fold (fun k n acc -> (k, n) :: acc) by_kind []
      |> List.sort (fun (_, a) (_, b) -> compare (b : int) a)
      |> List.iter (fun (k, n) -> Printf.printf "  %-22s %d\n" k n);
      Printf.printf "last %d events:\n" (min last (List.length events));
      List.iter
        (fun e -> print_endline ("  " ^ Mpk_trace.Event.to_line e))
        (Mpk_trace.Tracer.recent trace last);
      if write_validated_perfetto ~cmd:"trace" path events then 0 else 1
    end
  in
  Cmd.v (Cmd.info "trace" ~doc) Term.(const run $ scenario $ out $ last)

let profile_run_cmd =
  let doc =
    "Run one experiment under the cycle-attribution profiler: every Cpu.charge is \
     attributed to a labeled node under the enclosing spans. Prints the experiment \
     output and the attribution tree, checks that the attributed total equals the \
     machine's cycle counter exactly (bit-for-bit float equality), and writes \
     per-figure metrics JSON. Exits 1 on attribution mismatch, an invalid export or \
     an empty $(b,--perfetto) trace, 2 on an unknown id."
  in
  let id =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ID" ~doc:"experiment id, e.g. fig8 or table1 (see `mpkctl list`)")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"metrics JSON output (default PROFILE_$(docv).json)")
  in
  let perfetto_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "perfetto" ] ~docv:"FILE"
          ~doc:"also record an event trace and write Perfetto JSON to $(docv)")
  in
  let folded_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "folded" ] ~docv:"FILE"
          ~doc:"write folded stacks ($(b,flamegraph.pl) input) to $(docv)")
  in
  let run id json_out perfetto_out folded_out =
    match Mpk_experiments.Report.find id with
    | None -> fail 2 "profile" "unknown experiment %S (try `mpkctl list`)" id
    | Some e ->
        let json_path =
          match json_out with Some p -> p | None -> Printf.sprintf "PROFILE_%s.json" id
        in
        let observe () = Mpk_bench.Runner.observe e.Mpk_experiments.Report.render in
        let (rendered, profile, exact), perfetto =
          match perfetto_out with
          | None -> (observe (), None)
          | Some path ->
              let observed, trace = Mpk_trace.Tracer.record observe in
              (observed, Some (path, trace))
        in
        let attributed = Mpk_trace.Prof.total profile in
        let charged = Mpk_hw.Cpu.total_charged () in
        print_string rendered;
        print_newline ();
        print_string (Mpk_trace.Prof.render profile);
        Printf.printf "attributed %.1f cycles, machine charged %.1f cycles: %s\n"
          attributed charged
          (if exact then "exact match" else "MISMATCH");
        let json =
          Mpk_trace.Json.Obj
            [
              "experiment", Mpk_trace.Json.String id;
              "cycles_charged", Mpk_trace.Json.Float charged;
              "cycles_attributed", Mpk_trace.Json.Float attributed;
              "attribution_exact", Mpk_trace.Json.Bool exact;
              "profile", Mpk_trace.Prof.json_of_snapshot (Mpk_trace.Prof.tree profile);
              "metrics", Mpk_trace.Metrics.export_json ();
            ]
        in
        let json_ok = write_json ~cmd:"profile" json_path Mpk_bench.Io.Profile json in
        let folded_ok =
          match folded_out with
          | None -> true
          | Some p -> write_text ~cmd:"profile" p (Mpk_trace.Prof.folded profile)
        in
        let perfetto_ok =
          match perfetto with
          | None -> true
          | Some (path, trace) -> (
              match Mpk_trace.Tracer.events trace with
              | [] ->
                  error "profile" "experiment %s emitted no events" id;
                  false
              | events -> write_validated_perfetto ~cmd:"profile" path events)
        in
        if exact && json_ok && folded_ok && perfetto_ok then 0 else 1
  in
  Cmd.v (Cmd.info "run" ~doc) Term.(const run $ id $ json_out $ perfetto_out $ folded_out)

(* Shared by `profile diff` and `bench diff`: parse LABEL:CYCLES. *)
let plant_conv =
  let parse s =
    match String.rindex_opt s ':' with
    | None -> Error (`Msg "expected LABEL:CYCLES, e.g. wrpkru:40")
    | Some i -> (
        let label = String.sub s 0 i in
        let rest = String.sub s (i + 1) (String.length s - i - 1) in
        match float_of_string_opt rest with
        | Some extra when Float.is_finite extra && extra >= 0.0 && label <> "" ->
            Ok (label, extra)
        | Some _ | None ->
            Error (`Msg "expected LABEL:CYCLES with finite CYCLES >= 0"))
  in
  Arg.conv (parse, fun fmt (l, c) -> Format.fprintf fmt "%s:%g" l c)

let plant_arg =
  Arg.(
    value
    & opt (some plant_conv) None
    & info [ "plant" ] ~docv:"LABEL:CYCLES"
        ~doc:
          "inject $(i,CYCLES) extra cycles into every charge carrying \
           $(i,LABEL) — a self-test that the diff catches and correctly \
           attributes a real slowdown (e.g. $(b,wrpkru:40))")

(* Re-run a committed baseline's scenario at its seed and smoke mode, for
   [trials] trials, under the --plant slowdown when one is given. *)
let rerun ~plant ~trials (base : Mpk_bench.Runner.report) =
  Mpk_hw.Cpu.with_plant_slowdown plant @@ fun () ->
  Mpk_bench.Runner.run ~id:base.r_id ~trials ~seed:base.r_seed ~smoke:base.r_smoke

let profile_diff_cmd =
  let doc =
    "Differential profiling: re-run one benchmark scenario at the committed \
     baseline's seed and align the fresh attribution tree against the baseline's \
     by label path, reporting per-node self/total-cycle and call-count deltas \
     (added/removed/renamed nodes flagged explicitly). Exits 2 on an unknown id \
     or when the baseline is missing, malformed or another experiment's."
  in
  let id =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ID" ~doc:"bench id: table1, fig8, fig14 or scale")
  in
  let baseline =
    Arg.(
      value
      & opt (some string) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:"baseline bench report (default BENCH_$(i,ID).json)")
  in
  let run id baseline plant =
    let path =
      match baseline with Some p -> p | None -> Printf.sprintf "BENCH_%s.json" id
    in
    match
      if List.mem_assoc id Mpk_experiments.Report.gated then
        Mpk_bench.Io.read_baseline ~id ~path
      else Error (Printf.sprintf "unknown bench id %S" id)
    with
    | Error e -> fail 2 "profile diff" "%s" e
    | Ok base -> (
        match rerun ~plant ~trials:1 base with
        | Error e -> fail 1 "profile diff" "%s" e
        | Ok fresh ->
            let deltas =
              Mpk_bench.Tree.diff ~base:base.Mpk_bench.Runner.r_profile
                ~cur:fresh.Mpk_bench.Runner.r_profile
            in
            Printf.printf "profile diff %s vs %s (trial 0, seed %d)\n" id path
              base.Mpk_bench.Runner.r_seed;
            print_endline (Mpk_bench.Tree.render deltas);
            0)
  in
  Cmd.v (Cmd.info "diff" ~doc) Term.(const run $ id $ baseline $ plant_arg)

let profile_cmd =
  let doc =
    "Cycle attribution: $(b,run) profiles one experiment, $(b,diff) compares a fresh \
     attribution tree with a committed baseline's."
  in
  Cmd.group (Cmd.info "profile" ~doc) [ profile_run_cmd; profile_diff_cmd ]

(* --- scale: multi-core throughput/latency curves --- *)

let scale_cmd =
  let doc =
    "Multi-core scale-out of the kvstore: one point per core count, each a fresh \
     sharded server (one shard per worker core) driven by the zipfian closed-loop \
     load generator. Every point is measured twice from the same seed — batched \
     do_pkey_sync IPIs versus the per-update broadcast — and validated: the \
     cross-layer auditor must be clean after each concurrent run, the batched run \
     must send strictly fewer IPIs, no p99 may fall below its p50, and no open-loop \
     rate may serve more than it offered. Writes throughput, p50/p95/p99 \
     latency, and per-core IPI counters as validated JSON. Exits 1 on any \
     validation failure or invalid export."
  in
  let cores_arg =
    Arg.(
      value
      & opt (list int) [ 1; 2; 4 ]
      & info [ "cores" ] ~docv:"N,N,..." ~doc:"worker core counts to sweep (>= 1 each)")
  in
  let mode_arg =
    let modes =
      [
        "sync", Mpk_kvstore.Server.Sync;
        "domain", Mpk_kvstore.Server.Domain;
        "baseline", Mpk_kvstore.Server.Baseline;
        "mprotect", Mpk_kvstore.Server.Mprotect_sys;
      ]
    in
    Arg.(
      value
      & opt (enum modes) Mpk_kvstore.Server.Sync
      & info [ "mode" ] ~docv:"MODE"
          ~doc:"protection mode: $(b,sync) (mpk_mprotect, the IPI-heavy one), \
                $(b,domain), $(b,baseline), or $(b,mprotect)")
  in
  let smoke_arg =
    Arg.(
      value & flag
      & info [ "smoke" ] ~doc:"CI-sized run: small store, few connections")
  in
  let seed_arg =
    Arg.(value & opt int 0xC0FE & info [ "seed" ] ~docv:"SEED" ~doc:"workload PRNG seed")
  in
  let open_loop_arg =
    Arg.(
      value
      & opt (list int) []
      & info [ "open-loop" ] ~docv:"RATE,RATE,..."
          ~doc:"also sweep these open-loop arrival rates (connections/s) at the \
                largest core count and report the latency knee — the first rate \
                whose p99 doubles the lowest rate's or that drops > 1% of offered \
                connections")
  in
  let json_arg =
    Arg.(
      value
      & opt string "SCALE_report.json"
      & info [ "json" ] ~docv:"FILE" ~doc:"metrics JSON output")
  in
  let run cores mode smoke seed open_rates json_path =
    if cores = [] || List.exists (fun c -> c < 1) cores then
      fail 2 "scale" "--cores needs a non-empty list of counts >= 1"
    else if List.exists (fun r -> r < 1) open_rates then
      fail 2 "scale" "--open-loop rates must be >= 1"
    else begin
      Mpk_trace.Metrics.reset ();
      let report =
        Mpk_kvstore.Scale.run ~mode ~cores ~open_rates ~smoke
          ~seed:(Int64.of_int seed) ()
      in
      print_string (Mpk_kvstore.Scale.render report);
      let problems = Mpk_kvstore.Scale.problems report in
      List.iter (error "scale" "%s") problems;
      let json_ok =
        write_json ~cmd:"scale" json_path Mpk_bench.Io.Scale_report
          (Mpk_kvstore.Scale.to_json report)
      in
      if problems = [] && json_ok then 0 else 1
    end
  in
  Cmd.v (Cmd.info "scale" ~doc)
    Term.(
      const run $ cores_arg $ mode_arg $ smoke_arg $ seed_arg $ open_loop_arg
      $ json_arg)

(* --- bench: multi-trial perf baselines and the per-seed gate --- *)

let bench_ids_arg =
  Arg.(
    value
    & opt (list string) (List.map fst Mpk_experiments.Report.gated)
    & info [ "ids" ] ~docv:"ID,ID,..."
        ~doc:"benchmark ids to run (default: every gated experiment)")

(* An --ids entry outside the gated experiments is a usage error; [k]
   runs otherwise. *)
let check_bench_ids ids k =
  match List.filter (fun id -> not (List.mem_assoc id Mpk_experiments.Report.gated)) ids with
  | [] -> k ()
  | bad -> fail 2 "bench" "unknown ids: %s" (String.concat ", " bad)

let print_bench_report (r : Mpk_bench.Runner.report) =
  let seed = r.Mpk_bench.Runner.r_seed and trials = r.Mpk_bench.Runner.r_trials in
  Printf.printf "bench %s: %d trial%s, base seed %d%s\n" r.Mpk_bench.Runner.r_id trials
    (if trials = 1 then "" else "s")
    seed
    (if r.Mpk_bench.Runner.r_smoke then " (smoke)" else "");
  print_string
    (Mpk_util.Table.render
       ~aligns:Mpk_util.Table.(Left :: Left :: List.init trials (fun _ -> Right))
       ~header:
         ("metric" :: "dir" :: List.init trials (fun t -> Printf.sprintf "seed %d" (seed + t)))
       (List.map
          (fun (ms : Mpk_bench.Runner.metric_samples) ->
            ms.Mpk_bench.Runner.ms_name
            :: (match ms.Mpk_bench.Runner.ms_direction with
               | Mpk_experiments.Env.Lower_better -> "lower"
               | Mpk_experiments.Env.Higher_better -> "higher")
            :: List.map Mpk_util.Table.float_cell ms.Mpk_bench.Runner.ms_samples)
          r.Mpk_bench.Runner.r_metrics));
  Printf.printf "\nattribution: %s\n"
    (if r.Mpk_bench.Runner.r_attribution_exact then "exact" else "MISMATCH")

let bench_run_cmd =
  let doc =
    "Re-run each benchmark scenario across --trials seeds under the \
     cycle-attribution profiler and write BENCH_$(i,ID).json: every metric's \
     per-seed samples, the trial-0 attribution tree, and the metrics-registry \
     export. Exits 1 on a scenario failure, attribution mismatch, or invalid \
     export."
  in
  let trials =
    Arg.(value & opt int 3 & info [ "trials" ] ~docv:"N" ~doc:"trials per id (>= 1)")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"SEED" ~doc:"base seed; trial t runs at SEED+t")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:"CI-sized scenarios (committed baselines use this, except fig14's)")
  in
  let out_dir =
    Arg.(
      value & opt string "."
      & info [ "out-dir" ] ~docv:"DIR" ~doc:"directory for BENCH_*.json")
  in
  let run ids trials seed smoke out_dir =
    check_bench_ids ids @@ fun () ->
    check_counts "bench" [ "trials", trials, 1 ] @@ fun () ->
    let bench id =
      match Mpk_bench.Runner.run ~id ~trials ~seed ~smoke with
      | Error e ->
          error "bench" "%s: %s" id e;
          false
      | Ok r ->
          print_bench_report r;
          let path = Filename.concat out_dir ("BENCH_" ^ id ^ ".json") in
          write_json ~cmd:"bench" path Mpk_bench.Io.Bench (Mpk_bench.Runner.to_json r)
          && r.Mpk_bench.Runner.r_attribution_exact
    in
    (* every id runs, whichever failed before it *)
    if List.fold_left (fun ok id -> bench id && ok) true ids then 0 else 1
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(const run $ bench_ids_arg $ trials $ seed $ smoke $ out_dir)

let bench_diff_cmd =
  let doc =
    "Exact per-seed perf regression gate: re-run each scenario with the trials, seed \
     and smoke mode recorded in its committed baseline, compare every fresh trial \
     with the baseline sample of the same seed (a metric regresses when any seed \
     moves the harmful way by more than 1%), and diff the attribution trees so a \
     regression names the offending frame. Writes a machine-readable verdict \
     report. Exits 0 when nothing regressed, 1 on any $(b,regressed) verdict (or \
     metric-set drift), 2 on a missing or malformed baseline."
  in
  let baseline_dir =
    Arg.(
      value & opt string "."
      & info [ "baseline" ] ~docv:"DIR" ~doc:"directory holding BENCH_*.json baselines")
  in
  let report_arg =
    Arg.(
      value & opt string "BENCH_diff.json"
      & info [ "report" ] ~docv:"FILE" ~doc:"machine-readable diff report output")
  in
  let run ids baseline_dir plant report_path =
    check_bench_ids ids @@ fun () ->
    let usage_error = ref false in
    let failures = ref false in
    let diffs =
      List.filter_map
        (fun id ->
          let path = Filename.concat baseline_dir ("BENCH_" ^ id ^ ".json") in
          match Mpk_bench.Io.read_baseline ~id ~path with
          | Error e ->
              error "bench diff" "%s" e;
              usage_error := true;
              None
          | Ok base -> (
              match rerun ~plant ~trials:base.r_trials base with
              | Error e ->
                  error "bench diff" "%s: %s" id e;
                  failures := true;
                  None
              | Ok fresh ->
                  let d = Mpk_bench.Gate.diff ~baseline:base ~fresh in
                  print_string (Mpk_bench.Gate.render d);
                  print_newline ();
                  Some d))
        ids
    in
    if
      not
        (write_json ~cmd:"bench diff" report_path Mpk_bench.Io.Bench_diff
           (Mpk_bench.Gate.report_json ~planted:plant diffs))
    then failures := true;
    if !usage_error then 2
    else if List.exists (fun d -> d.Mpk_bench.Gate.d_regressed) diffs || !failures then 1
    else 0
  in
  Cmd.v (Cmd.info "diff" ~doc)
    Term.(const run $ bench_ids_arg $ baseline_dir $ plant_arg $ report_arg)

let bench_cmd =
  let doc =
    "Perf regression observatory: multi-trial per-seed baselines \
     ($(b,bench run)) and the exact per-seed diff/gate against them \
     ($(b,bench diff))."
  in
  Cmd.group (Cmd.info "bench" ~doc) [ bench_run_cmd; bench_diff_cmd ]

(* --- torture: deterministic interleaving explorer --- *)

let torture_cmd =
  let doc =
    "Deterministic interleaving torture of the VMA locking protocol: concurrent \
     fibers of mmap/munmap/lookup/protect traffic, interleaved by seeded schedules \
     of preemption decisions at the same $(b,sched.preempt) point fault injection \
     uses, with the lockdep validator recording. A failing schedule is ddmin-shrunk \
     and replayed byte-identically from (seed, schedule); $(b,--plant) disables one \
     safety mechanism to prove the harness finds the resulting bug. Exits 0 on a \
     clean sweep, 1 when a failure is found (expected under --plant)."
  in
  let tasks =
    Arg.(value & opt int 4 & info [ "tasks" ] ~docv:"N" ~doc:"concurrent fibers")
  in
  let ops =
    Arg.(value & opt int 48 & info [ "ops" ] ~docv:"N" ~doc:"operations per fiber")
  in
  let slots =
    Arg.(
      value & opt int 4
      & info [ "slots" ] ~docv:"N" ~doc:"shared mapping slots the fibers collide on")
  in
  let seed =
    Arg.(value & opt int64 1L & info [ "seed" ] ~docv:"SEED" ~doc:"base PRNG seed")
  in
  let seeds =
    Arg.(value & opt int 8 & info [ "seeds" ] ~docv:"N" ~doc:"seeds to sweep")
  in
  let rounds =
    Arg.(
      value & opt int 16
      & info [ "rounds" ] ~docv:"N" ~doc:"random schedules per seed")
  in
  let points =
    Arg.(
      value & opt int 48
      & info [ "points" ] ~docv:"N" ~doc:"switch decisions per schedule")
  in
  let plant =
    Arg.(
      value & opt string "none"
      & info [ "plant" ] ~docv:"BUG"
          ~doc:
            "planted bug: $(b,recycle) (skip the lookup protocol's recycle \
             re-validation), $(b,lock-order) (acquire against the established \
             order), $(b,release-held) (release a lock that is not held), or \
             $(b,none)")
  in
  let schedule_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "schedule" ] ~docv:"AT:TARGET,..."
          ~doc:
            "replay one run with this exact preemption schedule instead of \
             sweeping (use the schedule a failure report prints)")
  in
  let out =
    Arg.(
      value
      & opt string "TORTURE_failure.txt"
      & info [ "out" ] ~docv:"FILE" ~doc:"failure report written here (CI artifact)")
  in
  let run tasks ops slots seed seeds rounds points plant schedule out =
    check_counts "torture"
      [
        "tasks", tasks, 1;
        "ops", ops, 1;
        "slots", slots, 1;
        "seeds", seeds, 1;
        "rounds", rounds, 1;
        "points", points, 0;
      ]
    @@ fun () ->
    match Mpk_check.Torture.plant_of_string plant with
    | None ->
        fail 2 "torture" "unknown plant %S (recycle, lock-order, release-held, none)" plant
    | Some plant -> (
        let cfg = { Mpk_check.Torture.tasks; ops; slots; seed; plant } in
        match schedule with
        | Some sched_str -> (
            match Mpk_check.Torture.schedule_of_string sched_str with
            | Error e -> fail 2 "torture" "%s" e
            | Ok sched ->
                let o = Mpk_check.Torture.run_once cfg ~schedule:sched () in
                Printf.printf
                  "replay (seed %Ld, %d switches): %s — %d ops, %d benign races, \
                   %d preemption points, %.0f cycles\n"
                  seed (List.length sched)
                  (if o.Mpk_check.Torture.ok then "CLEAN" else "FAILED")
                  o.Mpk_check.Torture.ops_applied o.Mpk_check.Torture.benign
                  o.Mpk_check.Torture.points o.Mpk_check.Torture.cycles;
                (match o.Mpk_check.Torture.reason with
                | Some r -> Printf.printf "  reason: %s\n" r
                | None -> ());
                List.iter
                  (fun f -> Printf.printf "  finding: %s\n" f)
                  o.Mpk_check.Torture.findings;
                if o.Mpk_check.Torture.ok then 0 else 1)
        | None -> (
            let result =
              Mpk_check.Torture.sweep ~entries:points ~rounds ~seeds cfg
            in
            let st = result.Mpk_check.Torture.stats in
            Printf.printf
              "torture sweep: %d runs (%d seeds x %d rounds, plant %s), %d ops, \
               %d benign races, %d vma recycles, up to %d preemption points/run\n"
              st.Mpk_check.Torture.runs seeds rounds
              (Mpk_check.Torture.plant_to_string plant)
              st.Mpk_check.Torture.ops_applied st.Mpk_check.Torture.benign
              st.Mpk_check.Torture.recycled st.Mpk_check.Torture.max_points;
            match result.Mpk_check.Torture.failure with
            | None ->
                Printf.printf
                  "torture OK: no lockdep findings, no oracle violations, no \
                   deadlocks\n";
                0
            | Some rep ->
                let report = Mpk_check.Torture.render_report rep in
                print_string report;
                ignore (write_text ~cmd:"torture" out report : bool);
                fail 1 "torture" "failure found"))
  in
  Cmd.v (Cmd.info "torture" ~doc)
    Term.(
      const run $ tasks $ ops $ slots $ seed $ seeds $ rounds $ points $ plant
      $ schedule_arg $ out)

(* --- lint: the static domain-safety analyzer --- *)

type app = Jit | Secstore | Kvstore

let app_name = function Jit -> "jit" | Secstore -> "secstore" | Kvstore -> "kvstore"

(* Each app accepts its own planted-violation kinds; anything else is a
   usage error naming the valid plants. *)
let program_for app plant =
  match app, plant with
  | Jit, None -> Ok (Mpk_jit.Jit_model.program ())
  | Jit, Some "wx" -> Ok (Mpk_jit.Jit_model.program ~plant:`Wx ())
  | Jit, Some "gadget" -> Ok (Mpk_jit.Jit_model.program ~plant:`Gadget ())
  | Secstore, None -> Ok (Mpk_secstore.Secstore_model.program ())
  | Secstore, Some "uaf" ->
      Ok (Mpk_secstore.Secstore_model.program ~plant:`Use_after_free ())
  | Secstore, Some "double-free" ->
      Ok (Mpk_secstore.Secstore_model.program ~plant:`Double_free ())
  | Secstore, Some "leak" -> Ok (Mpk_secstore.Secstore_model.program ~plant:`Leak ())
  | Kvstore, None -> Ok (Mpk_kvstore.Kvstore_model.program ())
  | Kvstore, Some "unbalanced" ->
      Ok (Mpk_kvstore.Kvstore_model.program ~plant:`Unbalanced ())
  | Kvstore, Some "toctou" -> Ok (Mpk_kvstore.Kvstore_model.program ~plant:`Toctou ())
  | app, Some k ->
      Error
        (Printf.sprintf
           "plant %S does not apply to app %s (jit: wx, gadget; secstore: uaf, \
            double-free, leak; kvstore: unbalanced, toctou)"
           k (app_name app))

(* Print one program's findings (optionally replaying each witness) and
   return whether any was an Error. *)
let lint_report ~tag ~confirm (p : Mpk_analysis.Ir.program) findings =
  Printf.printf "== lint %s: %d node(s), %d finding(s) ==\n" tag
    (Array.length p.Mpk_analysis.Ir.nodes)
    (List.length findings);
  List.iter
    (fun f ->
      Format.printf "%a@." Mpk_analysis.Lint.pp_finding f;
      Format.printf "  witness:@.%a" Mpk_analysis.Lint.pp_witness f;
      if confirm then
        Format.printf "  replay: %a@." Mpk_check.Witness.pp_outcome
          (Mpk_check.Witness.confirm f))
    findings;
  Mpk_analysis.Lint.has_errors findings

(* Print the lockdep cross-check of --concurrency; true when it holds. *)
let print_crosscheck (x : Mpk_check.Witness.crosscheck) =
  Printf.printf "cross-check: dynamic order edges: %s\n"
    (match x.edges with
    | [] -> "(none)"
    | es -> String.concat ", " (List.map (fun (a, b) -> a ^ " -> " ^ b) es));
  Printf.printf "cross-check: dynamic inversions: %d, static cycles: %d\n"
    (List.length x.inversions) (List.length x.cycles);
  List.iter
    (Printf.printf "cross-check: model lock class %S unknown to the kernel lock layer\n")
    x.unknown_classes;
  List.iter
    (fun (a, b) ->
      Printf.printf
        "cross-check: FAIL: dynamic inversion {%s, %s} not covered by any \
         static lock-order cycle\n"
        a b)
    x.uncovered;
  if x.ok then Printf.printf "cross-check: static cycle set covers dynamic inversions: ok\n";
  x.ok

let lint_cmd =
  let doc =
    "Statically analyze the case-study apps' libmpk protocols: key-lifecycle \
     typestate, begin/end balance on all paths, W^X, ERIM-style WRPKRU gadget scan, \
     and the lazy do_pkey_sync TOCTOU hazard. With --concurrency, analyze the \
     kernel's per-VMA locking protocol instead: Eraser-style lockset races, \
     all-paths lock-order cycles (cross-checked against dynamic lockdep), and \
     read-check-act atomicity windows; --confirm then compiles each witness to a \
     torture-harness schedule and searches for a confirming interleaving. Exits \
     nonzero on any ERROR finding."
  in
  let app_conv =
    Arg.enum [ "jit", Jit; "secstore", Secstore; "kvstore", Kvstore ]
  in
  let app_arg =
    Arg.(
      value
      & opt (some app_conv) None
      & info [ "app" ] ~docv:"APP" ~doc:"analyze one app: jit, secstore, kvstore (default: all)")
  in
  let plant =
    Arg.(
      value
      & opt (some string) None
      & info [ "plant" ] ~docv:"KIND"
          ~doc:
            "plant a known violation in the model (requires --app or --concurrency): \
             jit: wx, gadget; secstore: uaf, double-free, leak; kvstore: unbalanced, \
             toctou; concurrency: recycle, lock-order, window")
  in
  let confirm =
    Arg.(
      value & flag
      & info [ "confirm" ]
          ~doc:"replay each finding's witness on the simulator and classify it")
  in
  let concurrency =
    Arg.(
      value & flag
      & info [ "concurrency" ]
          ~doc:
            "analyze the kernel per-VMA locking protocol (lockset, lock-order, \
             atomicity passes) instead of the case-study apps")
  in
  let pass_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "pass" ] ~docv:"NAME"
          ~doc:"run only the named pass (see $(b,--pass help) for the list)")
  in
  let run app plant confirm concurrency pass =
    let analyze ~default_passes p =
      let passes = match pass with Some name -> [ name ] | None -> default_passes in
      Mpk_analysis.Lint.analyze ~passes p
    in
    match pass with
    | Some ("help" | "list") ->
        Printf.printf "passes: %s\n" (String.concat ", " Mpk_analysis.Lint.pass_names);
        0
    | Some name when not (List.mem name Mpk_analysis.Lint.pass_names) ->
        fail 2 "lint" "unknown pass %S (valid: %s)" name
          (String.concat ", " Mpk_analysis.Lint.pass_names)
    | _ when concurrency && app <> None -> fail 2 "lint" "--concurrency does not take --app"
    | _ when concurrency -> (
        match Option.map Mpk_check.Mm_model.plant_of_string plant with
        | Some None ->
            fail 2 "lint" "unknown concurrency plant %S (valid: recycle, lock-order, window)"
              (Option.get plant)
        | (None | Some (Some _)) as outer ->
            let mplant = Option.join outer in
            let p = Mpk_check.Mm_model.program ?plant:mplant () in
            let findings = analyze ~default_passes:Mpk_analysis.Lint.pass_names p in
            let tag =
              "concurrency"
              ^ match mplant with
                | None -> ""
                | Some pl -> "+" ^ Mpk_check.Mm_model.plant_to_string pl
            in
            let any_error = lint_report ~tag ~confirm p findings in
            let covered = print_crosscheck (Mpk_check.Witness.crosscheck ?plant:mplant p) in
            if any_error then fail 1 "lint" "ERROR finding(s) present"
            else if not covered then fail 1 "lint" "lockdep cross-check failed"
            else 0)
    | _ when plant <> None && app = None ->
        fail 2 "lint" "--plant requires --app or --concurrency"
    | _ -> (
        let apps = match app with Some a -> [ a ] | None -> [ Jit; Secstore; Kvstore ] in
        let programs =
          List.map (fun a -> Result.map (fun p -> (a, p)) (program_for a plant)) apps
        in
        match List.find_map (function Error e -> Some e | Ok _ -> None) programs with
        | Some e -> fail 2 "lint" "%s" e
        | None ->
            let any_error =
              List.fold_left
                (fun any (a, p) ->
                  let findings =
                    analyze ~default_passes:Mpk_analysis.Lint.classic_pass_names p
                  in
                  lint_report ~tag:(app_name a) ~confirm p findings || any)
                false
                (List.map Result.get_ok programs)
            in
            if any_error then fail 1 "lint" "ERROR finding(s) present" else 0)
  in
  Cmd.v (Cmd.info "lint" ~doc)
    Term.(const run $ app_arg $ plant $ confirm $ concurrency $ pass_arg)

(* -------- coredump: crash forensics for protected memory -------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let key_arg =
  Cmdliner.Arg.(
    value
    & opt (some string) None
    & info [ "key" ] ~docv:"HEX" ~doc:"dump key (64 hex chars; default: derived from the seed)")

let decode_key = function
  | None -> Ok None
  | Some h -> (
      match Mpk_util.Hex.decode h with
      | Error e -> Error (Printf.sprintf "--key: %s" e)
      | Ok k when Bytes.length k <> Mpk_crypto.Aead.key_bytes ->
          Error
            (Printf.sprintf "--key: expected %d bytes, got %d" Mpk_crypto.Aead.key_bytes
               (Bytes.length k))
      | Ok k -> Ok (Some k))

let coredump_capture_cmd =
  let doc =
    "Run the demo crash scenario (a protected keystore holding a sentinel secret), \
     optionally kill the task with an injected fault, and capture a sealed core dump."
  in
  let policy_arg =
    Arg.(
      value
      & opt string "redact"
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:
            "what happens to protected pages: redact (drop, leave a marker), encrypt \
             (AEAD under the dump key), or none (leak in the clear — only for proving \
             the scanner notices)")
  in
  let seed_arg =
    Arg.(value & opt int64 1L & info [ "seed" ] ~docv:"SEED" ~doc:"run seed (in the dump id)")
  in
  let crash_arg =
    Arg.(
      value
      & opt
          (enum
             Mpk_coredump.Capture.[ "pkey", Crash_pkey; "oom", Crash_oom; "none", Crash_none ])
          Mpk_coredump.Capture.Crash_pkey
      & info [ "crash" ] ~docv:"KIND"
          ~doc:"how the task dies: pkey (PKRU-denied read), oom (frame exhaustion), none")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"output path (default CORE_<task>_<seed>.json)")
  in
  let sentinel_arg =
    Arg.(
      value
      & opt string Mpk_coredump.Capture.default_sentinel
      & info [ "sentinel" ] ~docv:"STR" ~doc:"the secret planted in the protected page")
  in
  let run policy_s seed crash key_hex out sentinel =
    match Mpk_coredump.Dump.policy_of_string policy_s, decode_key key_hex with
    | Error e, _ | _, Error e -> fail 2 "coredump" "%s" e
    | Ok policy, Ok key_opt -> (
        let key =
          match key_opt with
          | Some k -> k
          | None -> Mpk_coredump.Capture.default_key ~seed
        in
        let capture (proc, task, mpk, _, _) =
          Mpk_coredump.Capture.capture ~proc ~task ~mpk ~key ~seed ~policy ()
        in
        match Mpk_coredump.Capture.scenario ~crash ~sentinel capture with
        | Error e -> fail 1 "coredump" "%s" e
        | Ok dump ->
            let path = match out with Some p -> p | None -> Mpk_coredump.Dump.filename dump in
            let note =
              Printf.sprintf " (%d sections, policy %s)"
                (List.length dump.Mpk_coredump.Dump.sections)
                (Mpk_coredump.Dump.policy_to_string policy)
            in
            let dumped = Mpk_coredump.Dump.to_string dump in
            if write_text ~cmd:"coredump" path ~note dumped then begin
              if key_opt = None then
                Printf.printf "key: %s (derived from seed %Ld)\n" (Mpk_util.Hex.encode key) seed;
              0
            end
            else 1)
  in
  Cmd.v (Cmd.info "capture" ~doc)
    Term.(const run $ policy_arg $ seed_arg $ crash_arg $ key_arg $ out_arg $ sentinel_arg)

let coredump_inspect_cmd =
  let doc =
    "Parse a dump, verify every HMAC, and print the fault report without exposing \
     protected plaintext. With --key, also decrypt encrypted sections and check the \
     plaintext digests. Exits 1 on any integrity/decrypt failure, 2 if the file does \
     not parse."
  in
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"the dump file")
  in
  let run file key_hex =
    match decode_key key_hex with
    | Error e -> fail 2 "coredump" "%s" e
    | Ok key -> (
        match read_file file with
        | exception Sys_error e -> fail 2 "coredump" "%s" e
        | raw -> (
            match Mpk_coredump.Inspect.run ?key raw with
            | Error e -> fail 2 "coredump" "%s: %s" file e
            | Ok o ->
                print_string o.Mpk_coredump.Inspect.report;
                List.iter (error "coredump" "%s") o.Mpk_coredump.Inspect.failures;
                if o.Mpk_coredump.Inspect.failures = [] then 0 else 1))
  in
  Cmd.v (Cmd.info "inspect" ~doc) Term.(const run $ file_arg $ key_arg)

let coredump_scan_cmd =
  let doc =
    "Search a dump for secret bytes: the raw document text plus every base64 payload \
     decoded. Exits 1 when the sentinel is found (the dump leaks), 0 when clean."
  in
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"the dump file")
  in
  let sentinel_arg =
    Arg.(
      value
      & opt string Mpk_coredump.Capture.default_sentinel
      & info [ "sentinel" ] ~docv:"STR" ~doc:"the secret to look for")
  in
  let run file sentinel =
    match read_file file with
    | exception Sys_error e -> fail 2 "coredump" "%s" e
    | raw -> (
        match Mpk_coredump.Dump.scan ~sentinel raw with
        | [] ->
            Printf.printf "%s: clean (sentinel not present, encoded or raw)\n" file;
            0
        | hits ->
            List.iter (fun h -> Printf.printf "%s: LEAK: %s\n" file h) hits;
            1)
  in
  Cmd.v (Cmd.info "scan" ~doc) Term.(const run $ file_arg $ sentinel_arg)

let coredump_cmd =
  let doc =
    "Crash forensics for protected memory: capture redacted/encrypted core dumps of \
     the demo crash scenario and inspect them offline."
  in
  Cmd.group (Cmd.info "coredump" ~doc)
    [ coredump_capture_cmd; coredump_inspect_cmd; coredump_scan_cmd ]

let () =
  let doc = "libmpk (USENIX ATC'19) reproduction on a simulated MPK machine" in
  let info = Cmd.info "mpkctl" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            list_cmd;
            run_cmd;
            attack_cmd;
            maps_cmd;
            audit_cmd;
            faults_cmd;
            lint_cmd;
            trace_cmd;
            profile_cmd;
            scale_cmd;
            bench_cmd;
            torture_cmd;
            coredump_cmd;
          ]))
