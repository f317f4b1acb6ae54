(* Smoke tests over the experiment modules: each must produce data of the
   right shape and satisfy the paper's qualitative claims. Only the fast
   experiments run here — the heavyweight ones (fig11/12/13/14) are
   exercised by the bench harness itself. *)

open Mpk_experiments

let test_table1_matches_paper () =
  List.iter
    (fun r ->
      let tolerance = Float.max 0.5 (r.Exp_table1.paper *. 0.02) in
      if Float.abs (r.Exp_table1.cycles -. r.Exp_table1.paper) > tolerance then
        Alcotest.failf "%s: %.1f vs paper %.1f" r.Exp_table1.name r.Exp_table1.cycles
          r.Exp_table1.paper)
    (Exp_table1.rows ())

let test_fig2_w2_dominates () =
  let pts = Exp_fig2.points () in
  Alcotest.(check int) "10 points" 10 (List.length pts);
  List.iter
    (fun p ->
      if p.Exp_fig2.adds > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "W2 > W1 at %d" p.Exp_fig2.adds)
          true
          (p.Exp_fig2.w2 > p.Exp_fig2.w1))
    pts;
  (* the gap saturates *)
  let gap p = p.Exp_fig2.w2 -. p.Exp_fig2.w1 in
  let last_two = List.filteri (fun i _ -> i >= List.length pts - 2) pts in
  match last_two with
  | [ a; b ] -> Alcotest.(check (float 1e-9)) "saturated" (gap a) (gap b)
  | _ -> Alcotest.fail "unexpected"

let test_fig3_sparse_linear () =
  let pts = Exp_fig3.points () in
  List.iter
    (fun p ->
      Alcotest.(check bool) "sparse >= contiguous" true
        (p.Exp_fig3.sparse >= p.Exp_fig3.contiguous -. 1e-6);
      (* sparse is n independent syscalls *)
      let per_page = p.Exp_fig3.sparse /. float_of_int p.Exp_fig3.pages in
      Alcotest.(check bool) "sparse linear" true (Float.abs (per_page -. 1080.0) < 50.0))
    pts

let test_fig8_hit_row_flat_and_fast () =
  let cells = Exp_fig8.grid () in
  let hit100 =
    List.filter (fun c -> c.Exp_fig8.hit_rate = 100 && c.Exp_fig8.threads = 1) cells
  in
  Alcotest.(check int) "three eviction rates" 3 (List.length hit100);
  List.iter
    (fun c ->
      Alcotest.(check bool) "hit path < 150 cycles" true (c.Exp_fig8.cycles < 150.0))
    hit100;
  (* and the reference beats mpk only at hit=0, evict=100 *)
  let ref1 =
    (List.find
       (fun m -> m.Env.name = "fig8.mprotect_ref_cycles")
       (Exp_fig8.metrics ~seed:1 ~smoke:true))
      .Env.value
  in
  let worst =
    List.find
      (fun c -> c.Exp_fig8.hit_rate = 0 && c.Exp_fig8.evict_rate = 100 && c.Exp_fig8.threads = 1)
      cells
  in
  Alcotest.(check bool) "mprotect wins at 0% hit + eviction" true
    (worst.Exp_fig8.cycles > ref1)

let test_fig9_knee_at_15 () =
  let pts = Exp_fig9.points () in
  let per_fn p = p.Exp_fig9.libmpk_cycles /. float_of_int p.Exp_fig9.hot_functions in
  let before = List.find (fun p -> p.Exp_fig9.hot_functions = 15) pts in
  let after = List.find (fun p -> p.Exp_fig9.hot_functions = 18) pts in
  Alcotest.(check bool) "slope jumps past 15 keys" true (per_fn after > 2.0 *. per_fn before);
  (* mprotect is roughly linear: per-function cost within 5% (VMA
     split/merge churn adds mild superlinearity) *)
  let mp_per_fn p = p.Exp_fig9.mprotect_cycles /. float_of_int p.Exp_fig9.hot_functions in
  let a = List.find (fun p -> p.Exp_fig9.hot_functions = 5) pts in
  let b = List.find (fun p -> p.Exp_fig9.hot_functions = 30) pts in
  Alcotest.(check bool) "mprotect ~linear" true
    (Float.abs (mp_per_fn a -. mp_per_fn b) < 0.05 *. mp_per_fn a);
  (* libmpk still wins after the knee *)
  Alcotest.(check bool) "libmpk wins past knee" true
    (after.Exp_fig9.mprotect_cycles > 2.0 *. after.Exp_fig9.libmpk_cycles)

let test_fig10_mpk_flat () =
  let pts = Exp_fig10.points () in
  let at threads pages =
    List.find (fun p -> p.Exp_fig10.threads = threads && p.Exp_fig10.pages = pages) pts
  in
  Alcotest.(check (float 1e-6)) "page-count independent" (at 2 1).Exp_fig10.mpk
    (at 2 1000).Exp_fig10.mpk;
  Alcotest.(check bool) "mpk grows with threads" true
    ((at 8 1).Exp_fig10.mpk > (at 2 1).Exp_fig10.mpk);
  List.iter
    (fun p ->
      Alcotest.(check bool) "mpk always wins here" true (p.Exp_fig10.mprotect > p.Exp_fig10.mpk))
    pts

let test_table3_shape () =
  let rows = Exp_table3.rows () in
  Alcotest.(check int) "four applications" 4 (List.length rows);
  let by_name name = List.find (fun r -> r.Exp_table3.application = name) rows in
  Alcotest.(check string) "openssl 1 vkey" "1" (by_name "OpenSSL").Exp_table3.vkeys;
  Alcotest.(check string) "memcached 2 pkeys" "2" (by_name "Memcached").Exp_table3.pkeys;
  Alcotest.(check string) "key/process 1 vkey" "1" (by_name "JIT (key/process)").Exp_table3.vkeys

let test_memover_32_bytes_per_group () =
  let rows = Exp_memover.rows () in
  let at n = List.find (fun r -> r.Exp_memover.groups = n) rows in
  Alcotest.(check int) "pre-allocated 32 KiB" 32768 (at 1).Exp_memover.metadata_bytes;
  Alcotest.(check int) "fits 1024 groups without growing" 32768
    (at 1024).Exp_memover.metadata_bytes;
  Alcotest.(check bool) "doubles past capacity" true
    ((at 2000).Exp_memover.metadata_bytes = 65536);
  Alcotest.(check (float 0.01)) "asymptotically 32 B/group" 32.768
    (at 4000).Exp_memover.bytes_per_group

let test_report_catalogue () =
  Alcotest.(check int) "14 experiments" 14 (List.length Report.all);
  Alcotest.(check (list string))
    "gated ids" [ "table1"; "fig8"; "fig14"; "scale" ]
    (List.map fst Report.gated);
  Alcotest.(check bool) "fig8 findable" true (Report.find "fig8" <> None);
  Alcotest.(check bool) "unknown rejected" true (Report.find "fig99" = None);
  (* ids are unique *)
  let ids = List.map (fun e -> e.Report.id) Report.all in
  Alcotest.(check int) "unique ids" (List.length ids)
    (List.length (List.sort_uniq compare ids))

let test_env_deterministic () =
  let run () =
    let rows = Exp_table1.rows () in
    List.map (fun r -> r.Exp_table1.cycles) rows
  in
  Alcotest.(check (list (float 1e-12))) "bit-identical reruns" (run ()) (run ())

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "experiments"
    [
      ( "shapes",
        [
          tc "table1 vs paper" `Quick test_table1_matches_paper;
          tc "fig2 W2 dominates" `Quick test_fig2_w2_dominates;
          tc "fig3 sparse linear" `Quick test_fig3_sparse_linear;
          tc "fig8 hit row" `Quick test_fig8_hit_row_flat_and_fast;
          tc "fig9 knee at 15" `Quick test_fig9_knee_at_15;
          tc "fig10 mpk flat" `Quick test_fig10_mpk_flat;
          tc "table3 shape" `Quick test_table3_shape;
          tc "memover 32B/group" `Quick test_memover_32_bytes_per_group;
        ] );
      ( "plumbing",
        [
          tc "report catalogue" `Quick test_report_catalogue;
          tc "deterministic" `Quick test_env_deterministic;
        ] );
    ]
