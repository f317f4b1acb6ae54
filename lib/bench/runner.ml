module J = Mpk_trace.Json

type metric_samples = {
  ms_name : string;
  ms_direction : Scenario.direction;
  ms_samples : float list;
}

type report = {
  r_id : string;
  r_trials : int;
  r_seed : int;
  r_smoke : bool;
  r_metrics : metric_samples list;
  r_attribution_exact : bool;
  r_profile : Mpk_trace.Prof.snapshot;
  r_registry : J.t;
}

(* One trial under a clean observability slate: metrics registry, tracer,
   profiler and the global cycle accumulator all reset together, so the
   attribution exactness contract (Prof.total_recorded = Cpu.total_charged,
   bit-for-bit) holds per trial. *)
let trial ~id ~seed ~smoke ~keep_snapshot =
  Mpk_trace.Metrics.reset ();
  Mpk_trace.Tracer.disable ();
  Mpk_trace.Tracer.clear ();
  Mpk_trace.Prof.reset ();
  Mpk_trace.Prof.enable ();
  Mpk_hw.Cpu.reset_total_charged ();
  let metrics = Scenario.run ~id ~seed ~smoke in
  Mpk_trace.Prof.disable ();
  let exact =
    Float.equal (Mpk_trace.Prof.total_recorded ()) (Mpk_hw.Cpu.total_charged ())
  in
  let extras =
    if keep_snapshot then
      Some (Mpk_trace.Prof.snapshot (), Mpk_trace.Metrics.export_json ())
    else None
  in
  metrics, exact, extras

let run ~id ~trials ~seed ~smoke =
  if not (Scenario.known id) then Error (Printf.sprintf "unknown bench id %S" id)
  else if trials < 1 then Error "trials must be >= 1"
  else
    match
      let names = ref [] in
      let directions = ref [] in
      let samples : (string, float list ref) Hashtbl.t = Hashtbl.create 16 in
      let exact = ref true in
      let snapshot = ref None in
      for t = 0 to trials - 1 do
        let metrics, trial_exact, extras =
          trial ~id ~seed:(seed + t) ~smoke ~keep_snapshot:(t = 0)
        in
        if not trial_exact then exact := false;
        (match extras with Some e -> snapshot := Some e | None -> ());
        let trial_names = List.map (fun m -> m.Scenario.name) metrics in
        if t = 0 then begin
          names := trial_names;
          directions :=
            List.map (fun m -> m.Scenario.name, m.Scenario.direction) metrics
        end
        else if trial_names <> !names then
          failwith
            (Printf.sprintf "trial %d changed the metric set for %s" t id);
        List.iter
          (fun (m : Scenario.metric) ->
            if not (Float.is_finite m.Scenario.value) then
              failwith (Printf.sprintf "metric %s is not finite" m.Scenario.name);
            match Hashtbl.find_opt samples m.Scenario.name with
            | Some l -> l := m.Scenario.value :: !l
            | None -> Hashtbl.replace samples m.Scenario.name (ref [ m.Scenario.value ]))
          metrics
      done;
      let profile, registry =
        match !snapshot with
        | Some (p, r) -> p, r
        | None -> assert false (* trials >= 1 always keeps trial 0 *)
      in
      let metrics =
        List.map
          (fun name ->
            {
              ms_name = name;
              ms_direction = List.assoc name !directions;
              ms_samples = List.rev !(Hashtbl.find samples name);
            })
          !names
      in
      {
        r_id = id;
        r_trials = trials;
        r_seed = seed;
        r_smoke = smoke;
        r_metrics = metrics;
        r_attribution_exact = !exact;
        r_profile = profile;
        r_registry = registry;
      }
    with
    | exception Failure msg -> Error msg
    | exception Invalid_argument msg -> Error msg
    | report -> Ok report

let to_json r =
  J.Obj
    [
      "schema", J.String "bench/2";
      "experiment", J.String r.r_id;
      "trials", J.Int r.r_trials;
      "seed", J.Int r.r_seed;
      "smoke", J.Bool r.r_smoke;
      ( "metrics",
        J.List
          (List.map
             (fun ms ->
               J.Obj
                 [
                   "name", J.String ms.ms_name;
                   "direction", J.String (Scenario.direction_to_string ms.ms_direction);
                   "samples", J.List (List.map (fun v -> J.Float v) ms.ms_samples);
                 ])
             r.r_metrics) );
      "attribution_exact", J.Bool r.r_attribution_exact;
      "profile", Mpk_trace.Prof.json_of_snapshot r.r_profile;
      "registry", r.r_registry;
    ]

let ( let* ) = Result.bind

let member_err name j =
  match J.member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing member %S" name)

let number_err name j =
  match Option.bind (J.member name j) J.to_number with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing number %S" name)

let string_err name j =
  match Option.bind (J.member name j) J.to_string_opt with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing string %S" name)

let bool_err name j =
  match J.member name j with
  | Some (J.Bool b) -> Ok b
  | Some _ | None -> Error (Printf.sprintf "missing bool %S" name)

let of_json j =
  let* id = string_err "experiment" j in
  let* trials = number_err "trials" j in
  let trials = int_of_float trials in
  let* () = if trials < 1 then Error "trials must be >= 1" else Ok () in
  let* seed = number_err "seed" j in
  let* smoke = bool_err "smoke" j in
  let* exact = bool_err "attribution_exact" j in
  let* metrics_json =
    match Option.bind (J.member "metrics" j) J.to_list with
    | Some l -> Ok l
    | None -> Error "missing list \"metrics\""
  in
  let* metrics =
    List.fold_left
      (fun acc mj ->
        let* acc = acc in
        let* name = string_err "name" mj in
        let* dir_s = string_err "direction" mj in
        let* dir = Scenario.direction_of_string dir_s in
        let* samples =
          match Option.bind (J.member "samples" mj) J.to_list with
          | Some l ->
              List.fold_left
                (fun acc v ->
                  let* acc = acc in
                  match J.to_number v with
                  | Some f -> Ok (f :: acc)
                  | None -> Error (Printf.sprintf "metric %s: bad sample" name))
                (Ok []) l
              |> Result.map List.rev
          | None -> Error (Printf.sprintf "metric %s: missing samples" name)
        in
        (* sample [t] pairs with fresh trial [t], so a short or long
           sample list would pair the wrong seeds *)
        let* () =
          if List.length samples = trials then Ok ()
          else
            Error
              (Printf.sprintf "metric %s: %d samples for %d trials" name
                 (List.length samples) trials)
        in
        Ok ({ ms_name = name; ms_direction = dir; ms_samples = samples } :: acc))
      (Ok []) metrics_json
    |> Result.map List.rev
  in
  let* profile_json = member_err "profile" j in
  let* profile = Mpk_trace.Prof.snapshot_of_json profile_json in
  let* registry = member_err "registry" j in
  Ok
    {
      r_id = id;
      r_trials = trials;
      r_seed = int_of_float seed;
      r_smoke = smoke;
      r_metrics = metrics;
      r_attribution_exact = exact;
      r_profile = profile;
      r_registry = registry;
    }
