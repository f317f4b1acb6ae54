module J = Mpk_trace.Json
module Env = Mpk_experiments.Env

type metric_samples = {
  ms_name : string;
  ms_direction : Env.direction;
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
}

(* A clean slate for the attribution exactness contract
   (Prof.total = Cpu.total_charged, bit-for-bit): the global cycle
   accumulator resets together with a fresh profile, so the contract
   holds for [f] alone. [charge] feeds both totals with
   the same additions from the same starting point, so any difference
   at all means a charge escaped attribution. *)
let observe f =
  Mpk_hw.Cpu.reset_total_charged ();
  let result, profile = Mpk_trace.Prof.record f in
  (result, profile, Float.equal (Mpk_trace.Prof.total profile) (Mpk_hw.Cpu.total_charged ()))

let run ~id ~trials ~seed ~smoke =
  match List.assoc_opt id Mpk_experiments.Report.gated with
  | None -> Error (Printf.sprintf "unknown bench id %S" id)
  | Some _ when trials < 1 -> Error "trials must be >= 1"
  | Some metrics -> (
      match
        List.init trials (fun t ->
            let ms, profile, exact = observe (fun () -> metrics ~seed:(seed + t) ~smoke) in
            List.iter
              (fun (m : Env.metric) ->
                if not (Float.is_finite m.value) then
                  failwith (Printf.sprintf "metric %s is not finite" m.name))
              ms;
            (* trial 0 keeps its attribution tree *)
            let kept = if t = 0 then Some (Mpk_trace.Prof.tree profile) else None in
            ms, exact, kept)
      with
      | exception (Failure msg | Invalid_argument msg) -> Error msg
      | per_trial -> (
          let first, _, kept = List.hd per_trial in
          let names ms = List.map (fun (m : Env.metric) -> m.name) ms in
          match List.find_index (fun (ms, _, _) -> names ms <> names first) per_trial with
          | Some t -> Error (Printf.sprintf "trial %d changed the metric set for %s" t id)
          | None ->
              let profile = Option.get kept in
              (* transpose: metric [i]'s samples are every trial's [i]th value *)
              let samples i =
                List.map (fun (ms, _, _) -> (List.nth ms i).Env.value) per_trial
              in
              Ok
                {
                  r_id = id;
                  r_trials = trials;
                  r_seed = seed;
                  r_smoke = smoke;
                  r_metrics =
                    List.mapi
                      (fun i (m : Env.metric) ->
                        {
                          ms_name = m.name;
                          ms_direction = m.direction;
                          ms_samples = samples i;
                        })
                      first;
                  r_attribution_exact =
                    List.for_all (fun (_, exact, _) -> exact) per_trial;
                  r_profile = profile;
                }))

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
                   "direction", J.String (Env.direction_to_string ms.ms_direction);
                   "samples", J.List (List.map (fun v -> J.Float v) ms.ms_samples);
                 ])
             r.r_metrics) );
      "attribution_exact", J.Bool r.r_attribution_exact;
      "profile", Mpk_trace.Prof.json_of_snapshot r.r_profile;
    ]

let ( let* ) = Result.bind

(* A member decoded by [conv], or an error naming what was expected. *)
let field name what conv j =
  match Option.bind (J.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing %s %S" what name)

let string_field name = field name "string" J.to_string_opt
let number_field name = field name "number" J.to_number
let bool_field name = field name "bool" (function J.Bool b -> Some b | _ -> None)

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)

let of_json j =
  let* schema = string_field "schema" j in
  let* () =
    if schema = "bench/2" then Ok ()
    else Error (Printf.sprintf "schema %S is not \"bench/2\"" schema)
  in
  let* id = string_field "experiment" j in
  let* trials = Result.map int_of_float (number_field "trials" j) in
  let* () = if trials < 1 then Error "trials must be >= 1" else Ok () in
  let* seed = number_field "seed" j in
  let* smoke = bool_field "smoke" j in
  let* exact = bool_field "attribution_exact" j in
  let* metrics_json = field "metrics" "list" J.to_list j in
  let* metrics =
    map_result
      (fun mj ->
        let* name = string_field "name" mj in
        let* direction =
          Result.bind (string_field "direction" mj) Env.direction_of_string
        in
        let bad = Printf.sprintf "metric %s: missing or bad samples" name in
        let* samples_json =
          Option.to_result ~none:bad (Option.bind (J.member "samples" mj) J.to_list)
        in
        let* samples =
          map_result (fun v -> Option.to_result ~none:bad (J.to_number v)) samples_json
        in
        (* sample [t] pairs with fresh trial [t], so a short or long
           sample list would pair the wrong seeds *)
        if List.length samples = trials then
          Ok { ms_name = name; ms_direction = direction; ms_samples = samples }
        else
          Error
            (Printf.sprintf "metric %s: %d samples for %d trials" name
               (List.length samples) trials))
      metrics_json
  in
  let* profile =
    Result.bind (field "profile" "member" Option.some j) Mpk_trace.Prof.snapshot_of_json
  in
  Ok
    {
      r_id = id;
      r_trials = trials;
      r_seed = int_of_float seed;
      r_smoke = smoke;
      r_metrics = metrics;
      r_attribution_exact = exact;
      r_profile = profile;
    }
