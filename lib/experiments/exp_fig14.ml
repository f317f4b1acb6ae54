open Mpk_kvstore

type point = {
  mode : Server.mode;
  conn_rate : int;
  data_mb_s : float;
  unhandled : int;
}

let conn_rates = [ 250; 500; 750; 1000 ]
let modes = [ Server.Baseline; Server.Domain; Server.Sync; Server.Mprotect_sys ]
let duration_s = 0.05
let working_set = 300

(* One server per mode, reused across the rates. *)
let points ~slab_mib ~seed ~conn_rates =
  List.concat_map
    (fun mode ->
      let srv = Server.create ~mode ~workers:4 ~slab_mib ~buckets:4096 () in
      Server.prefill srv ~items:working_set ~value_size:1024;
      Server.populate_slab srv ~mib:slab_mib;
      List.map
        (fun conn_rate ->
          (* twemperf: connections at a fixed rate, uniform keys, no churn cost *)
          let r =
            Loadgen.run srv ~loop:(Loadgen.Open_loop conn_rate) ~duration_s ~working_set
              ~theta:0.0 ~conn_setup_cycles:0.0 ~seed ()
          in
          {
            mode;
            conn_rate;
            data_mb_s = float r.Loadgen.data_bytes /. (r.Loadgen.duration_s *. 1e6);
            unhandled = r.Loadgen.dropped_conns;
          })
        conn_rates)
    modes

let metrics ~seed ~smoke =
  let slab_mib = if smoke then 64 else 1024 in
  let pts = points ~slab_mib ~seed:(Env.mix seed 6151 0xFEED) ~conn_rates:[ 1000 ] in
  let mb mode = (List.find (fun p -> p.mode = mode) pts).data_mb_s in
  let sync = mb Server.Sync in
  let mprotect = mb Server.Mprotect_sys in
  [
    Env.metric "fig14.baseline_mb_s" Higher_better (mb Server.Baseline);
    Env.metric "fig14.domain_mb_s" Higher_better (mb Server.Domain);
    Env.metric "fig14.sync_mb_s" Higher_better sync;
    Env.metric "fig14.mprotect_mb_s" Higher_better mprotect;
    Env.metric "fig14.sync_vs_mprotect" Higher_better (sync /. Float.max 0.001 mprotect);
  ]

let render () =
  let pts = points ~slab_mib:1024 ~seed:0xFEEDL ~conn_rates in
  let cell mode rate proj =
    match List.find_opt (fun p -> p.mode = mode && p.conn_rate = rate) pts with
    | Some p -> proj p
    | None -> "-"
  in
  let table proj =
    Mpk_util.Table.render
      ~header:("conns/s" :: List.map Server.mode_name modes)
      (List.map
         (fun rate ->
           string_of_int rate :: List.map (fun m -> cell m rate proj) modes)
         conn_rates)
  in
  let ratio =
    let find m = List.find (fun p -> p.mode = m && p.conn_rate = 1000) pts in
    (find Server.Sync).data_mb_s /. Float.max 0.001 (find Server.Mprotect_sys).data_mb_s
  in
  Printf.sprintf
    "Figure 14: Memcached (4 threads, ~1 GiB resident slab)\n\
     Data throughput (MB/s):\n%s\n\
     Unhandled connections:\n%s\n\
     mpk_mprotect vs mprotect at 1000 conns/s: %.1fx (paper: 8.1x)\n"
    (table (fun p -> Mpk_util.Table.float_cell p.data_mb_s))
    (table (fun p -> string_of_int p.unhandled))
    ratio
