(* Tests for the JIT case study: bytecode compile/execute, code cache
   under every W⊕X strategy, the race-condition attack matrix (paper
   §6.1), and Octane plumbing. *)

open Mpk_hw
open Mpk_kernel
open Mpk_jit

let qtest = QCheck_alcotest.to_alcotest

let make_env () =
  let machine = Machine.create ~cores:2 ~mem_mib:128 () in
  let proc = Proc.create machine in
  let task = Proc.spawn proc ~core_id:0 () in
  proc, task

(* --- Bytecode --- *)

let test_bytecode_simple () =
  let proc, task = make_env () in
  let f = { Bytecode.name = "add"; body = [ Bytecode.Push 2; Bytecode.Push 3; Bytecode.Add; Bytecode.Ret ] } in
  let code = Bytecode.compile f in
  let addr = Syscall.mmap proc task ~len:4096 ~prot:Perm.rwx () in
  Mmu.write_bytes (Proc.mmu proc) (Task.core task) ~addr code;
  Alcotest.(check int) "2+3" 5
    (Bytecode.execute (Proc.mmu proc) (Task.core task) ~addr ~len:(Bytes.length code))

let test_bytecode_ops () =
  let proc, task = make_env () in
  let run body =
    let code = Bytecode.compile { Bytecode.name = "t"; body } in
    let addr = Syscall.mmap proc task ~len:4096 ~prot:Perm.rwx () in
    Mmu.write_bytes (Proc.mmu proc) (Task.core task) ~addr code;
    Bytecode.execute (Proc.mmu proc) (Task.core task) ~addr ~len:(Bytes.length code)
  in
  Alcotest.(check int) "sub" 4 (run [ Bytecode.Push 7; Bytecode.Push 3; Bytecode.Sub; Bytecode.Ret ]);
  Alcotest.(check int) "mul" 21 (run [ Bytecode.Push 7; Bytecode.Push 3; Bytecode.Mul; Bytecode.Ret ]);
  Alcotest.(check int) "dup" 49 (run [ Bytecode.Push 7; Bytecode.Dup; Bytecode.Mul; Bytecode.Ret ]);
  (* after the swap the stack (top first) is [3; 7]; Sub computes 7-3 *)
  Alcotest.(check int) "swap" 4 (run [ Bytecode.Push 3; Bytecode.Push 7; Bytecode.Swap; Bytecode.Sub; Bytecode.Ret ])

let test_bytecode_locals () =
  let proc, task = make_env () in
  let run body =
    let code = Bytecode.compile { Bytecode.name = "t"; body } in
    let addr = Syscall.mmap proc task ~len:4096 ~prot:Perm.rwx () in
    Mmu.write_bytes (Proc.mmu proc) (Task.core task) ~addr code;
    Bytecode.execute (Proc.mmu proc) (Task.core task) ~addr ~len:(Bytes.length code)
  in
  Alcotest.(check int) "store/load" 11
    (run [ Bytecode.Push 11; Bytecode.Store 3; Bytecode.Load 3; Bytecode.Ret ]);
  Alcotest.(check int) "locals start zero" 0 (run [ Bytecode.Load 9; Bytecode.Ret ])

(* A function whose hot loop runs [iters] times over [body_ops]
   arithmetic instructions, so execution cost scales with [iters] while
   the code stays small:
     Push iters; Store 0; Push 0; Store 1;
   loop:  [arithmetic on an accumulator in local 1]
          Load 0; Push 1; Sub; Dup; Store 0; Jz done; Jmp loop;
   done:  Load 1; Ret
   Jump targets are byte offsets: the compiled length of what precedes. *)
let synth_loop ~seed ~iters ~body_ops =
  let open Bytecode in
  let prng = Mpk_util.Prng.create ~seed:(Int64.of_int ((seed * 40503) + 7)) in
  let body_arith =
    List.concat
      (List.init (max 1 (body_ops / 3)) (fun _ ->
           let v = 1 + Mpk_util.Prng.int prng 7 in
           let op = if Mpk_util.Prng.bool prng ~p:0.5 then Add else Mul in
           [ Load 1; Push v; op; Store 1 ]))
  in
  let prelude = [ Push iters; Store 0; Push 0; Store 1 ] in
  let latch = [ Load 0; Push 1; Sub; Dup; Store 0 ] in
  let size body = Bytes.length (compile { name = ""; body }) in
  let loop_off = size prelude in
  let done_off = size (prelude @ body_arith @ latch @ [ Jz 0; Jmp 0 ]) in
  {
    name = Printf.sprintf "loop%d" seed;
    body = prelude @ body_arith @ latch @ [ Jz done_off; Jmp loop_off; Load 1; Ret ];
  }

let test_bytecode_loop () =
  let proc, task = make_env () in
  (* sum = 5 iterations adding 2 each -> accumulate with Add only *)
  let f = synth_loop ~seed:1 ~iters:5 ~body_ops:3 in
  let code = Bytecode.compile f in
  let addr = Syscall.mmap proc task ~len:4096 ~prot:Perm.rwx () in
  Mmu.write_bytes (Proc.mmu proc) (Task.core task) ~addr code;
  let simulated =
    Bytecode.execute (Proc.mmu proc) (Task.core task) ~addr ~len:(Bytes.length code)
  in
  Alcotest.(check int) "matches host interpreter" (Bytecode.eval_host code) simulated

let test_bytecode_loop_cost_scales () =
  let proc, task = make_env () in
  let cost iters =
    let f = synth_loop ~seed:2 ~iters ~body_ops:6 in
    let code = Bytecode.compile f in
    let addr = Syscall.mmap proc task ~len:4096 ~prot:Perm.rwx () in
    Mmu.write_bytes (Proc.mmu proc) (Task.core task) ~addr code;
    let core = Task.core task in
    snd
      (Cpu.measure core (fun () ->
           ignore (Bytecode.execute (Proc.mmu proc) core ~addr ~len:(Bytes.length code))))
  in
  Alcotest.(check bool) "100 iters ~10x cost of 10" true (cost 100 > 5.0 *. cost 10)

let test_bytecode_fuel () =
  let proc, task = make_env () in
  (* Jmp 0 with a Push: infinite loop *)
  let code = Bytecode.compile { Bytecode.name = "spin"; body = [ Bytecode.Push 1; Bytecode.Jmp 0 ] } in
  let addr = Syscall.mmap proc task ~len:4096 ~prot:Perm.rwx () in
  Mmu.write_bytes (Proc.mmu proc) (Task.core task) ~addr code;
  match Bytecode.execute ~fuel:1000 (Proc.mmu proc) (Task.core task) ~addr ~len:(Bytes.length code) with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "runaway loop terminated?!"

let loop_matches_host =
  QCheck.Test.make ~name:"synth_loop simulated = host" ~count:50
    QCheck.(pair (int_bound 100) (pair (int_range 1 30) (int_range 1 12)))
    (fun (seed, (iters, body_ops)) ->
      let proc, task = make_env () in
      let code = Bytecode.compile (synth_loop ~seed ~iters ~body_ops) in
      let addr = Syscall.mmap proc task ~len:4096 ~prot:Perm.rwx () in
      Mmu.write_bytes (Proc.mmu proc) (Task.core task) ~addr code;
      Bytecode.execute (Proc.mmu proc) (Task.core task) ~addr ~len:(Bytes.length code)
      = Bytecode.eval_host code)

let test_bytecode_needs_exec () =
  let proc, task = make_env () in
  let code = Bytecode.compile { Bytecode.name = "f"; body = [ Bytecode.Push 1; Bytecode.Ret ] } in
  let addr = Syscall.mmap proc task ~len:4096 ~prot:Perm.rw () in
  Mmu.write_bytes (Proc.mmu proc) (Task.core task) ~addr code;
  match Bytecode.execute (Proc.mmu proc) (Task.core task) ~addr ~len:(Bytes.length code) with
  | exception Signal.Killed { Signal.code = Signal.Segv_accerr; _ } -> ()
  | _ -> Alcotest.fail "executed non-executable memory"

let bytecode_matches_host =
  QCheck.Test.make ~name:"jit result matches host interpreter" ~count:100
    QCheck.(pair (int_bound 1000) (int_range 3 60))
    (fun (seed, ops) ->
      let proc, task = make_env () in
      let strategy = Wx.No_wx in
      let engine = Engine.create Engine.V8 strategy proc task () in
      let name = Engine.compile engine task ~ops ~seed () in
      Engine.run engine task name = Engine.expected engine name)

(* --- Codecache strategies --- *)

let strategies = [ Wx.No_wx; Wx.Mprotect; Wx.Key_per_page; Wx.Key_per_process; Wx.Sdcg ]

let cache_env strategy =
  let proc, task = make_env () in
  let mpk =
    match strategy with
    | Wx.Key_per_page | Wx.Key_per_process -> Some (Libmpk.init ~evict_rate:1.0 proc task)
    | _ -> None
  in
  proc, task, Codecache.create strategy proc task ?mpk ()

let test_emit_and_execute_all_strategies () =
  List.iter
    (fun strategy ->
      let proc, task, cache = cache_env strategy in
      let f = { Bytecode.name = "f"; body = [ Bytecode.Push 6; Bytecode.Push 7; Bytecode.Mul; Bytecode.Ret ] } in
      let entry = Codecache.emit cache task ~name:"f" (Bytecode.compile f) in
      let v =
        Bytecode.execute (Proc.mmu proc) (Task.core task) ~addr:entry.Codecache.addr
          ~len:entry.Codecache.len
      in
      Alcotest.(check int) (Wx.to_string strategy) 42 v)
    strategies

let test_update_all_strategies () =
  List.iter
    (fun strategy ->
      let proc, task, cache = cache_env strategy in
      let mk v = Bytecode.compile { Bytecode.name = "f"; body = [ Bytecode.Push v; Bytecode.Ret ] } in
      let entry = Codecache.emit cache task ~name:"f" (mk 1) in
      Codecache.update cache task entry (mk 2) ();
      let v =
        Bytecode.execute (Proc.mmu proc) (Task.core task) ~addr:entry.Codecache.addr
          ~len:entry.Codecache.len
      in
      Alcotest.(check int) (Wx.to_string strategy) 2 v)
    strategies

let test_cache_not_writable_outside_window () =
  (* For every protecting strategy, a stray write outside the window must
     fault. *)
  List.iter
    (fun strategy ->
      let proc, task, cache = cache_env strategy in
      let entry =
        Codecache.emit cache task ~name:"f"
          (Bytecode.compile { Bytecode.name = "f"; body = [ Bytecode.Push 1; Bytecode.Ret ] })
      in
      match
        Mmu.write_byte (Proc.mmu proc) (Task.core task) ~addr:entry.Codecache.addr 'X'
      with
      | exception Signal.Killed _ -> ()
      | _ -> Alcotest.failf "%s: code writable outside update window" (Wx.to_string strategy))
    [ Wx.Mprotect; Wx.Key_per_page; Wx.Key_per_process; Wx.Sdcg ]

let test_switch_cycles_accumulate () =
  let _, task, cache = cache_env Wx.Mprotect in
  let mk = Bytecode.compile { Bytecode.name = "f"; body = [ Bytecode.Push 1; Bytecode.Ret ] } in
  let entry = Codecache.emit cache task ~name:"f" mk in
  let before = Codecache.perm_switch_cycles cache in
  Codecache.update cache task entry mk ();
  let after = Codecache.perm_switch_cycles cache in
  (* an mprotect pair is ~2 x 1094 cycles *)
  Alcotest.(check bool) "pair cost visible" true (after -. before > 2000.0);
  Codecache.reset_perm_switch_cycles cache;
  Alcotest.(check (float 1e-9)) "reset" 0.0 (Codecache.perm_switch_cycles cache)

let test_libmpk_switch_much_cheaper () =
  let cost strategy =
    let _, task, cache = cache_env strategy in
    let mk = Bytecode.compile { Bytecode.name = "f"; body = [ Bytecode.Push 1; Bytecode.Ret ] } in
    let entry = Codecache.emit cache task ~name:"f" mk in
    Codecache.reset_perm_switch_cycles cache;
    Codecache.update cache task entry mk ();
    Codecache.perm_switch_cycles cache
  in
  let mprotect = cost Wx.Mprotect in
  let libmpk = cost Wx.Key_per_process in
  Alcotest.(check bool)
    (Printf.sprintf "mpk %.0f << mprotect %.0f" libmpk mprotect)
    true
    (libmpk *. 5.0 < mprotect)

let test_key_per_page_distinct_vkeys () =
  let _, task, cache = cache_env Wx.Key_per_page in
  let big = Bytes.make 3000 '\x02' in
  let e1 = Codecache.emit cache task ~name:"f1" big in
  let e2 = Codecache.emit cache task ~name:"f2" big in
  Alcotest.(check bool) "two pages" true (e1.Codecache.addr / 4096 <> e2.Codecache.addr / 4096);
  match e1.Codecache.page_vkey, e2.Codecache.page_vkey with
  | Some v1, Some v2 -> Alcotest.(check bool) "distinct vkeys" true (v1 <> v2)
  | _ -> Alcotest.fail "expected vkeys"

let test_key_per_process_single_vkey () =
  let _, task, cache = cache_env Wx.Key_per_process in
  let big = Bytes.make 3000 '\x02' in
  let e1 = Codecache.emit cache task ~name:"f1" big in
  let e2 = Codecache.emit cache task ~name:"f2" big in
  match e1.Codecache.page_vkey, e2.Codecache.page_vkey with
  | Some v1, Some v2 -> Alcotest.(check int) "same vkey" v1 v2
  | _ -> Alcotest.fail "expected vkeys"

(* --- The race attack (paper §6.1 / SDCG) --- *)

let test_attack_matrix () =
  let expect_injected strategy =
    match Attack.run ~strategy () with
    | Attack.Injected v ->
        Alcotest.(check int) (Wx.to_string strategy ^ " shellcode's marker") 0x5EED v
    | Attack.Blocked reason ->
        Alcotest.failf "%s should be vulnerable, got: %s" (Wx.to_string strategy) reason
  in
  let expect_blocked strategy =
    match Attack.run ~strategy () with
    | Attack.Blocked _ -> ()
    | Attack.Injected _ -> Alcotest.failf "%s: shellcode landed" (Wx.to_string strategy)
  in
  (* v8's unprotected cache and the mprotect window are exploitable... *)
  expect_injected Wx.No_wx;
  expect_injected Wx.Mprotect;
  (* ...libmpk's thread-local window and SDCG's process isolation are not. *)
  expect_blocked Wx.Key_per_page;
  expect_blocked Wx.Key_per_process;
  expect_blocked Wx.Sdcg

(* --- Engine / Octane --- *)

let test_engine_patch_preserves_semantics () =
  let proc, task = make_env () in
  let mpk = Libmpk.init ~evict_rate:1.0 proc task in
  let engine = Engine.create Engine.Chakracore Wx.Key_per_process proc task ~mpk () in
  let name = Engine.compile engine task ~ops:20 ~seed:5 () in
  let before = Engine.run engine task name in
  Engine.patch engine task name;
  Alcotest.(check int) "same result after patch" before (Engine.run engine task name)

let test_engine_profiles_switch_ratio () =
  (* permission-switch cycles of [n] patches of one function *)
  let switch_cycles profile n =
    let proc, task = make_env () in
    let mpk = Libmpk.init ~evict_rate:1.0 proc task in
    let engine = Engine.create profile Wx.Key_per_process proc task ~mpk () in
    let name = Engine.compile engine task ~ops:20 ~seed:5 () in
    let cache = Engine.cache engine in
    Codecache.reset_perm_switch_cycles cache;
    for _ = 1 to n do
      Engine.patch engine task name
    done;
    Codecache.perm_switch_cycles cache
  in
  let one = switch_cycles Engine.Chakracore 1 in
  Alcotest.(check bool) "a patch switches" true (one > 0.0);
  Alcotest.(check (float 1e-6)) "CC every time" (100.0 *. one)
    (switch_cycles Engine.Chakracore 100);
  Alcotest.(check bool) "SM batches" true
    (switch_cycles Engine.Spidermonkey 100 < 100.0 *. one)

let find_program name = List.find (fun p -> p.Octane.name = name) Octane.programs

let test_octane_program_table () =
  Alcotest.(check int) "17 programs" 17 (List.length Octane.programs);
  let box2d = find_program "Box2D" in
  let splay = find_program "SplayLatency" in
  Alcotest.(check bool) "Box2D patch-heavy" true (box2d.Octane.patches_per_function > 20);
  Alcotest.(check bool) "SplayLatency page-heavy" true
    (splay.Octane.hot_functions > 15 && splay.Octane.patches_per_function <= 1)

let test_octane_baseline_scores_10000 () =
  let prog = find_program "Richards" in
  let run = Octane.run_program Engine.V8 Wx.No_wx prog in
  Alcotest.(check (float 1.0)) "baseline = 10000" 10_000.0 run.Octane.score

let test_octane_protection_costs_something () =
  let prog = find_program "Box2D" in
  let reference = Octane.measure Engine.Chakracore Wx.No_wx prog in
  let mprotect = Octane.run_program Engine.Chakracore Wx.Mprotect ~reference prog in
  let libmpk = Octane.run_program Engine.Chakracore Wx.Key_per_process ~reference prog in
  Alcotest.(check bool) "mprotect < baseline" true (mprotect.Octane.score < 10_000.0);
  Alcotest.(check bool)
    (Printf.sprintf "libmpk (%.0f) beats mprotect (%.0f) on Box2D" libmpk.Octane.score
       mprotect.Octane.score)
    true
    (libmpk.Octane.score > mprotect.Octane.score)

(* --- XOM (execute-only modules) --- *)

let xom_env () =
  let machine = Machine.create ~cores:2 ~mem_mib:128 () in
  let proc = Proc.create machine in
  let task = Proc.spawn proc ~core_id:0 () in
  let other = Proc.spawn proc ~core_id:1 () in
  let mpk = Libmpk.init ~evict_rate:1.0 proc task in
  proc, task, other, Xom.create mpk

let sample_code v =
  Bytecode.compile { Bytecode.name = "m"; body = [ Bytecode.Push v; Bytecode.Ret ] }

let test_xom_load_and_execute () =
  let _, task, _, xom = xom_env () in
  let m = Xom.load xom task ~name:"mod1" (sample_code 77) in
  Xom.seal xom task m;
  Alcotest.(check int) "runs sealed" 77 (Xom.execute xom task m)

let test_xom_sealed_unreadable_all_threads () =
  let proc, task, other, xom = xom_env () in
  let m = Xom.load xom task ~name:"mod1" (sample_code 1) in
  Xom.seal xom task m;
  (* execute-only: fetch works for both threads; reads fault for both *)
  Alcotest.(check int) "other thread executes" 1 (Xom.execute xom other m);
  List.iter
    (fun t ->
      match Mmu.read_byte (Proc.mmu proc) (Task.core t) ~addr:m.Xom.base with
      | exception Signal.Killed _ -> ()
      | _ -> Alcotest.fail "sealed module readable (code disclosure!)")
    [ task; other ]

let test_xom_many_modules_one_key () =
  (* any number of sealed modules share the single reserved key *)
  let _, task, _, xom = xom_env () in
  let mods =
    List.init 20 (fun i -> Xom.load xom task ~name:(Printf.sprintf "m%d" i) (sample_code i))
  in
  List.iter (fun m -> Xom.seal xom task m) mods;
  List.iteri (fun i m -> Alcotest.(check int) m.Xom.name i (Xom.execute xom task m)) mods

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "mpk_jit"
    [
      ( "bytecode",
        [
          tc "simple" `Quick test_bytecode_simple;
          tc "ops" `Quick test_bytecode_ops;
          tc "locals" `Quick test_bytecode_locals;
          tc "loop" `Quick test_bytecode_loop;
          tc "loop cost scales" `Quick test_bytecode_loop_cost_scales;
          tc "fuel bounds runaway loops" `Quick test_bytecode_fuel;
          tc "needs exec" `Quick test_bytecode_needs_exec;
          qtest bytecode_matches_host;
          qtest loop_matches_host;
        ] );
      ( "codecache",
        [
          tc "emit+execute (all strategies)" `Quick test_emit_and_execute_all_strategies;
          tc "update (all strategies)" `Quick test_update_all_strategies;
          tc "sealed outside window" `Quick test_cache_not_writable_outside_window;
          tc "switch cycles accumulate" `Quick test_switch_cycles_accumulate;
          tc "libmpk switch cheaper" `Quick test_libmpk_switch_much_cheaper;
          tc "key/page distinct vkeys" `Quick test_key_per_page_distinct_vkeys;
          tc "key/process single vkey" `Quick test_key_per_process_single_vkey;
        ] );
      ("attack", [ tc "race matrix" `Quick test_attack_matrix ]);
      ( "engine_octane",
        [
          tc "patch preserves semantics" `Quick test_engine_patch_preserves_semantics;
          tc "profiles" `Quick test_engine_profiles_switch_ratio;
          tc "program table" `Quick test_octane_program_table;
          tc "baseline scores 10000" `Quick test_octane_baseline_scores_10000;
          tc "protection costs" `Quick test_octane_protection_costs_something;
        ] );
      ( "xom",
        [
          tc "load+execute" `Quick test_xom_load_and_execute;
          tc "sealed unreadable" `Quick test_xom_sealed_unreadable_all_threads;
          tc "many modules one key" `Quick test_xom_many_modules_one_key;
        ] );
    ]
