open Mpk_secstore

type point = {
  size_kb : int;
  original_rps : float;
  libmpk_rps : float;
  overhead_pct : float;
}

let sizes_kb = [ 1; 4; 16; 64; 128; 256; 512 ]

(* The paper sends 1000 requests; 400 keeps the host-side RSA cost of
   this experiment short without changing the simulated means. *)
let requests = 400

let throughput mode ~size =
  let env = Env.make ~threads:4 ~mem_mib:256 () in
  let main = Env.main env in
  let proc = env.Env.proc in
  let mpk =
    match mode with
    | Keystore.Protected -> Some (Libmpk.init ~evict_rate:1.0 proc main)
    | Keystore.Insecure -> None
  in
  let server = Tls_server.create ~mode proc main ?mpk ~seed:0x11L () in
  (Loadgen.run server (Array.to_list env.Env.tasks) ~requests ~size).Loadgen.throughput_rps

let points () =
  List.map
    (fun size_kb ->
      let size = size_kb * 1024 in
      let original_rps = throughput Keystore.Insecure ~size in
      let libmpk_rps = throughput Keystore.Protected ~size in
      {
        size_kb;
        original_rps;
        libmpk_rps;
        overhead_pct = (original_rps -. libmpk_rps) /. original_rps *. 100.0;
      })
    sizes_kb

let render () =
  Mpk_util.Table.series
    ~title:
      "Figure 11: httpd+OpenSSL throughput, original vs libmpk-hardened\n\
       (4 concurrent clients, 1000 requests; paper: <=0.58% overhead)"
    ~x_label:"resp KB"
    ~y_labels:[ "original req/s"; "libmpk req/s"; "overhead %" ]
    (List.map
       (fun p ->
         string_of_int p.size_kb, [ p.original_rps; p.libmpk_rps; p.overhead_pct ])
       (points ()))
