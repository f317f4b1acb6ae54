open Mpk_kvstore

let render () =
  let report = Scale.run ~mode:Server.Sync ~cores:[ 1; 2; 4 ] ~seed:0xC0FEL () in
  Scale.render report
  ^ String.concat "" (List.map (Printf.sprintf "problem: %s\n") (Scale.problems report))

let metrics ~seed ~smoke =
  let cores = if smoke then [ 1; 2 ] else [ 1; 2; 4 ] in
  let report =
    Scale.run ~mode:Server.Sync ~cores ~smoke ~seed:(Env.mix seed 389 0xC0FE) ()
  in
  (match Scale.problems report with
  | [] -> ()
  | problems -> failwith ("scale: " ^ String.concat "; " problems));
  let per_point =
    List.concat_map
      (fun (p : Scale.point) ->
        let b = p.Scale.batched in
        [
          Env.metric (Printf.sprintf "scale.rps_c%d" p.Scale.cores) Higher_better
            b.Loadgen.throughput_rps;
          Env.metric (Printf.sprintf "scale.p99_c%d" p.Scale.cores) Lower_better
            b.Loadgen.p99_cycles;
        ])
      report.Scale.points
  in
  let ipis =
    List.fold_left (fun acc (p : Scale.point) -> acc + p.Scale.ipi_events_batched) 0
      report.Scale.points
  in
  per_point @ [ Env.metric "scale.ipi_events_batched" Lower_better (float_of_int ipis) ]
