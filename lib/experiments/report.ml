type experiment = {
  id : string;
  title : string;
  render : unit -> string;
  metrics : (seed:int -> smoke:bool -> Env.metric list) option;
}

let experiment ?metrics id title render = { id; title; render; metrics }

let all =
  [
    experiment "table1" "Table 1: MPK primitive latencies" Exp_table1.render
      ~metrics:Exp_table1.metrics;
    experiment "fig2" "Figure 2: WRPKRU serialization" Exp_fig2.render;
    experiment "fig3" "Figure 3: mprotect contiguous vs sparse" Exp_fig3.render;
    experiment "fig8" "Figure 8: key cache latency" Exp_fig8.render
      ~metrics:Exp_fig8.metrics;
    experiment "fig9" "Figure 9: ChakraCore permission-update time" Exp_fig9.render;
    experiment "fig10" "Figure 10: inter-thread synchronization latency" Exp_fig10.render;
    experiment "fig11" "Figure 11: httpd/OpenSSL throughput" Exp_fig11.render;
    experiment "fig12" "Figure 12: Octane, SpiderMonkey & ChakraCore" Exp_fig12.render;
    experiment "fig13" "Figure 13: Octane, v8 vs SDCG vs libmpk" Exp_fig13.render;
    experiment "fig14" "Figure 14: Memcached throughput" Exp_fig14.render
      ~metrics:Exp_fig14.metrics;
    experiment "table3" "Table 3: application summary" Exp_table3.render;
    experiment "memover" "Memory overhead of libmpk metadata (paper §6.2)"
      Exp_memover.render;
    experiment "ablations" "Ablations: sync mode, eviction policy, key count, PTE cost"
      Ablations.render;
    experiment "scale" "Scale-out: kvstore throughput vs cores, batched vs per-update IPIs"
      Exp_scale.render ~metrics:Exp_scale.metrics;
  ]

let find id = List.find_opt (fun e -> e.id = id) all
let gated = List.filter_map (fun e -> Option.map (fun m -> e.id, m) e.metrics) all

let banner title =
  let bar = String.make 78 '=' in
  Printf.sprintf "%s\n%s\n%s\n" bar title bar

let run_experiment e =
  print_string (banner e.title);
  let t0 = Unix.gettimeofday () in
  let out = e.render () in
  print_string out;
  (* Some renders end without a newline; the timing line starts its own. *)
  if not (String.ends_with ~suffix:"\n" out) then print_newline ();
  Printf.printf "[%s completed in %.1fs]\n\n" e.id (Unix.gettimeofday () -. t0);
  flush stdout
