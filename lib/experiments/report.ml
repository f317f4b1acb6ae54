type experiment = { id : string; title : string; run : unit -> string }

let all =
  [
    { id = "table1"; title = "Table 1: MPK primitive latencies"; run = Exp_table1.render };
    { id = "fig2"; title = "Figure 2: WRPKRU serialization"; run = Exp_fig2.render };
    { id = "fig3"; title = "Figure 3: mprotect contiguous vs sparse"; run = Exp_fig3.render };
    { id = "fig8"; title = "Figure 8: key cache latency"; run = Exp_fig8.render };
    { id = "fig9"; title = "Figure 9: ChakraCore permission-update time"; run = Exp_fig9.render };
    { id = "fig10"; title = "Figure 10: inter-thread synchronization latency"; run = Exp_fig10.render };
    { id = "fig11"; title = "Figure 11: httpd/OpenSSL throughput"; run = Exp_fig11.render };
    { id = "fig12"; title = "Figure 12: Octane, SpiderMonkey & ChakraCore"; run = Exp_fig12.render };
    { id = "fig13"; title = "Figure 13: Octane, v8 vs SDCG vs libmpk"; run = Exp_fig13.render };
    { id = "fig14"; title = "Figure 14: Memcached throughput"; run = (fun () -> Exp_fig14.render ()) };
    { id = "table3"; title = "Table 3: application summary"; run = Exp_table3.render };
    { id = "memover"; title = "Memory overhead of libmpk metadata (paper §6.2)"; run = Exp_memover.render };
    { id = "ablations"; title = "Ablations: sync mode, eviction policy, key count, PTE cost"; run = Ablations.render };
  ]

let find id = List.find_opt (fun e -> e.id = id) all

let banner title =
  let bar = String.make 78 '=' in
  Printf.sprintf "%s\n%s\n%s\n" bar title bar

let run_experiment e =
  print_string (banner e.title);
  let t0 = Unix.gettimeofday () in
  print_string (e.run ());
  Printf.printf "[%s completed in %.1fs]\n\n" e.id (Unix.gettimeofday () -. t0);
  flush stdout

let run_all () = List.iter run_experiment all

let run_one id =
  match find id with
  | Some e ->
      run_experiment e;
      true
  | None -> false
