open Mpk_kernel
module Json = Mpk_trace.Json
module Metrics = Mpk_trace.Metrics

(* One core count, measured twice on the identical workload (same seed,
   same zipfian key stream): once with batched do_pkey_sync IPIs (and
   the server's batched mprotect pairs), once with the per-update
   broadcast reference. [ipi_events_*] count actual [Ipi] trace events
   observed during the measured run — the quantity the batching is
   supposed to shrink. *)
type point = {
  cores : int;
  batched : Loadgen.result;
  per_update : Loadgen.result;
  ipi_events_batched : int;
  ipi_events_per_update : int;
  per_core_ipis : (int * int * int) list;  (* core, sent, received (batched run) *)
  audit_violations : string list;
  slabs_ok : bool;
}

(* One arrival rate of the open-loop sweep (fixed core count). Unlike
   the closed loop, offered load is decoupled from service capacity, so
   past saturation the drop counter climbs and tail latency leaves the
   flat region — the knee the sweep exists to locate. *)
type open_point = {
  op_rate : int;  (* offered connections per second *)
  op_result : Loadgen.result;
  op_audit_violations : string list;
  op_slabs_ok : bool;
}

type open_sweep = {
  os_cores : int;
  os_duration_s : float;
  os_points : open_point list;  (* ascending rate *)
  os_knee : int option;
      (* first rate whose p99 exceeds 2x the lowest rate's, or that
         drops > 1% of offered connections; None = knee beyond range *)
}

type report = {
  mode : Server.mode;
  closed_conns : int;
  seed : int64;
  smoke : bool;
  points : point list;
  open_loop : open_sweep option;  (* --open-loop sweep at max core count *)
}

type config = {
  c_slab_mib : int;
  c_buckets : int;
  c_items : int;
  c_value_size : int;
  c_working_set : int;
  c_conns : int;
}

let config ~smoke =
  if smoke then
    {
      c_slab_mib = 16;
      c_buckets = 1 lsl 12;
      c_items = 300;
      c_value_size = 128;
      c_working_set = 500;
      c_conns = 120;
    }
  else
    {
      c_slab_mib = 64;
      c_buckets = 1 lsl 14;
      c_items = 2_000;
      c_value_size = 512;
      c_working_set = 5_000;
      c_conns = 1_500;
    }

(* One measured run: fresh server, prefill, then the zipfian closed-loop
   workload with the tracer counting [Ipi] events. The tracer is left
   disabled with no sinks afterwards, and the global batching toggle is
   restored to its default (on). *)
let run_one ~mode ~workers ~batch ~seed cfg =
  Syscall.set_ipi_batching batch;
  Fun.protect
    ~finally:(fun () -> Syscall.set_ipi_batching true)
    (fun () ->
      let server =
        Server.create ~mode ~workers ~shards:workers ~sync_batch:batch
          ~slab_mib:cfg.c_slab_mib ~buckets:cfg.c_buckets ()
      in
      Server.prefill server ~items:cfg.c_items ~value_size:cfg.c_value_size;
      let ipi_events = ref 0 in
      Mpk_trace.Tracer.add_sink (fun e ->
          match e.Mpk_trace.Event.ev with
          | Mpk_trace.Event.Ipi _ -> incr ipi_events
          | _ -> ());
      Mpk_trace.Tracer.enable ();
      let result =
        Fun.protect
          ~finally:(fun () ->
            Mpk_trace.Tracer.disable ();
            Mpk_trace.Tracer.clear_sinks ();
            Mpk_trace.Tracer.clear ())
          (fun () ->
            Loadgen.run server ~loop:(Loadgen.Closed_loop cfg.c_conns)
              ~value_size:cfg.c_value_size ~working_set:cfg.c_working_set ~seed ())
      in
      (* The concurrent run must leave a consistent cross-layer state:
         the full six-invariant audit for the libmpk modes, plus every
         shard's slab allocator invariant. *)
      let audit =
        match Server.mpk server with
        | None -> []
        | Some mpk ->
            Mpk_check.Audit.run mpk
            |> List.map (fun v -> Format.asprintf "%a" Mpk_check.Audit.pp_violation v)
      in
      let per_core_ipis = Sched.ipis_per_core (Proc.sched (Server.proc server)) in
      (result, !ipi_events, per_core_ipis, audit, Server.slab_invariants server))

(* One open-loop rate point: fresh server, prefill, timed arrival
   process. Connections that would wait longer than the accept deadline
   are dropped, which is what makes the post-knee region visible instead
   of just stretching the makespan as the closed loop does. *)
let run_open_one ~mode ~workers ~rate ~duration_s ~seed cfg =
  let server =
    Server.create ~mode ~workers ~shards:workers ~slab_mib:cfg.c_slab_mib
      ~buckets:cfg.c_buckets ()
  in
  Server.prefill server ~items:cfg.c_items ~value_size:cfg.c_value_size;
  (* Accept deadline scaled to the window: a saturated server must be
     able to shed load within the run, or drops never register. *)
  let result =
    Loadgen.run server ~loop:(Loadgen.Open_loop rate) ~duration_s
      ~max_delay_s:(duration_s /. 10.0) ~value_size:cfg.c_value_size
      ~working_set:cfg.c_working_set ~seed ()
  in
  let audit =
    match Server.mpk server with
    | None -> []
    | Some mpk ->
        Mpk_check.Audit.run mpk
        |> List.map (fun v -> Format.asprintf "%a" Mpk_check.Audit.pp_violation v)
  in
  {
    op_rate = rate;
    op_result = result;
    op_audit_violations = audit;
    op_slabs_ok = Server.slab_invariants server;
  }

let find_knee points =
  match points with
  | [] -> None
  | first :: _ ->
      let baseline = Float.max first.op_result.Loadgen.p99_cycles 1.0 in
      let saturated p =
        let r = p.op_result in
        r.Loadgen.p99_cycles > 2.0 *. baseline
        || float_of_int r.Loadgen.dropped_conns
           > 0.01 *. float_of_int (max 1 r.Loadgen.offered_conns)
      in
      List.find_opt saturated points |> Option.map (fun p -> p.op_rate)

let run_open ~mode ~workers ~rates ?(smoke = false) ?(seed = 0xC0FEL) () =
  if workers < 1 then invalid_arg "Scale.run_open: workers must be >= 1";
  if rates = [] || List.exists (fun r -> r < 1) rates then
    invalid_arg "Scale.run_open: rates must be a non-empty list of rates >= 1";
  let cfg = config ~smoke in
  (* A short measured window keeps the sweep cheap: offered load is
     [rate * duration], and the knee is a property of the rate, not of
     how long we hold it. *)
  let duration_s = if smoke then 0.02 else 0.1 in
  let points =
    List.sort_uniq compare rates
    |> List.map (fun rate -> run_open_one ~mode ~workers ~rate ~duration_s ~seed cfg)
  in
  { os_cores = workers; os_duration_s = duration_s; os_points = points;
    os_knee = find_knee points }

let publish_metrics ~cores (r : Loadgen.result) per_core_ipis =
  Array.iteri
    (fun i busy ->
      Metrics.set
        (Metrics.gauge
           (Printf.sprintf "scale_core_busy_seconds{cores=\"%d\",core=\"%d\"}" cores i))
        busy)
    r.Loadgen.per_core_busy_s;
  List.iter
    (fun (core, sent, received) ->
      Metrics.set
        (Metrics.gauge (Printf.sprintf "scale_ipis_sent{cores=\"%d\",core=\"%d\"}" cores core))
        (float_of_int sent);
      Metrics.set
        (Metrics.gauge
           (Printf.sprintf "scale_ipis_received{cores=\"%d\",core=\"%d\"}" cores core))
        (float_of_int received))
    per_core_ipis

let run ~mode ~cores ?(open_rates = []) ?(smoke = false) ?(seed = 0xC0FEL) () =
  let cfg = config ~smoke in
  let points =
    List.map
      (fun workers ->
        if workers < 1 then invalid_arg "Scale.run: core counts must be >= 1";
        let batched, eb, per_core_ipis, audit_b, slabs_b =
          run_one ~mode ~workers ~batch:true ~seed cfg
        in
        let per_update, eu, _, audit_u, slabs_u =
          run_one ~mode ~workers ~batch:false ~seed cfg
        in
        publish_metrics ~cores:workers batched per_core_ipis;
        {
          cores = workers;
          batched;
          per_update;
          ipi_events_batched = eb;
          ipi_events_per_update = eu;
          per_core_ipis;
          audit_violations = audit_b @ audit_u;
          slabs_ok = slabs_b && slabs_u;
        })
      cores
  in
  let open_loop =
    match open_rates with
    | [] -> None
    | rates ->
        (* Sweep arrival rates at the widest machine of the closed-loop
           run: the knee of interest is the one batching is supposed to
           push right at max parallelism. *)
        let workers = List.fold_left max 1 cores in
        Some (run_open ~mode ~workers ~rates ~smoke ~seed ())
  in
  { mode; closed_conns = cfg.c_conns; seed; smoke; points; open_loop }

let result_json (r : Loadgen.result) =
  Json.Obj
    [
      ("offered_conns", Json.Int r.Loadgen.offered_conns);
      ("handled_conns", Json.Int r.Loadgen.handled_conns);
      ("dropped_conns", Json.Int r.Loadgen.dropped_conns);
      ("requests", Json.Int r.Loadgen.requests);
      ("gets", Json.Int r.Loadgen.gets);
      ("sets", Json.Int r.Loadgen.sets);
      ("data_bytes", Json.Int r.Loadgen.data_bytes);
      ("duration_s", Json.Float r.Loadgen.duration_s);
      ("throughput_rps", Json.Float r.Loadgen.throughput_rps);
      ("p50_cycles", Json.Float r.Loadgen.p50_cycles);
      ("p95_cycles", Json.Float r.Loadgen.p95_cycles);
      ("p99_cycles", Json.Float r.Loadgen.p99_cycles);
      ("ipis", Json.Int r.Loadgen.ipis);
      ( "per_core_busy_s",
        Json.List
          (Array.to_list (Array.map (fun s -> Json.Float s) r.Loadgen.per_core_busy_s)) );
    ]

let point_json p =
  Json.Obj
    [
      ("cores", Json.Int p.cores);
      ("batched", result_json p.batched);
      ("per_update", result_json p.per_update);
      ("ipi_events_batched", Json.Int p.ipi_events_batched);
      ("ipi_events_per_update", Json.Int p.ipi_events_per_update);
      ( "per_core_ipis",
        Json.List
          (List.map
             (fun (core, sent, received) ->
               Json.Obj
                 [
                   ("core", Json.Int core);
                   ("sent", Json.Int sent);
                   ("received", Json.Int received);
                 ])
             p.per_core_ipis) );
      ( "audit_violations",
        Json.List (List.map (fun m -> Json.String m) p.audit_violations) );
      ("slabs_ok", Json.Bool p.slabs_ok);
    ]

let open_point_json p =
  Json.Obj
    [
      ("rate", Json.Int p.op_rate);
      ("result", result_json p.op_result);
      ( "audit_violations",
        Json.List (List.map (fun m -> Json.String m) p.op_audit_violations) );
      ("slabs_ok", Json.Bool p.op_slabs_ok);
    ]

let open_sweep_json s =
  Json.Obj
    [
      ("cores", Json.Int s.os_cores);
      ("duration_s", Json.Float s.os_duration_s);
      ("points", Json.List (List.map open_point_json s.os_points));
      ("knee_rate", match s.os_knee with Some r -> Json.Int r | None -> Json.Null);
    ]

let to_json r =
  Json.Obj
    ([
       ("bench", Json.String "scale");
       ("mode", Json.String (Server.mode_name r.mode));
       ("closed_conns", Json.Int r.closed_conns);
       ("seed", Json.String (Printf.sprintf "0x%Lx" r.seed));
       ("smoke", Json.Bool r.smoke);
       ("points", Json.List (List.map point_json r.points));
     ]
    @ match r.open_loop with
      | None -> []
      | Some s -> [ ("open_loop", open_sweep_json s) ])

(* Validation shared by `mpkctl scale` and CI: the measured curve must
   have every audited invariant hold, every slab consistent, and the
   batched runs must emit strictly fewer Ipi trace events than the
   per-update reference wherever the reference emitted any. *)
let problems r =
  List.concat_map
    (fun p ->
      let issues = ref [] in
      let add fmt = Printf.ksprintf (fun m -> issues := m :: !issues) fmt in
      if p.audit_violations <> [] then
        add "cores=%d: %d auditor invariant violation(s): %s" p.cores
          (List.length p.audit_violations)
          (String.concat "; " p.audit_violations);
      if not p.slabs_ok then add "cores=%d: shard slab invariant failed" p.cores;
      if p.ipi_events_per_update > 0 && p.ipi_events_batched >= p.ipi_events_per_update
      then
        add "cores=%d: batched sync emitted %d Ipi events, per-update %d (expected fewer)"
          p.cores p.ipi_events_batched p.ipi_events_per_update;
      if p.batched.Loadgen.requests = 0 then add "cores=%d: no requests completed" p.cores;
      List.rev !issues)
    r.points
  @
  match r.open_loop with
  | None -> []
  | Some s ->
      List.concat_map
        (fun p ->
          let issues = ref [] in
          let add fmt = Printf.ksprintf (fun m -> issues := m :: !issues) fmt in
          if p.op_audit_violations <> [] then
            add "open-loop rate=%d: %d auditor invariant violation(s): %s" p.op_rate
              (List.length p.op_audit_violations)
              (String.concat "; " p.op_audit_violations);
          if not p.op_slabs_ok then
            add "open-loop rate=%d: shard slab invariant failed" p.op_rate;
          if p.op_result.Loadgen.requests = 0 then
            add "open-loop rate=%d: no requests completed" p.op_rate;
          List.rev !issues)
        s.os_points
