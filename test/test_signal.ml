(* Pkey-fault signal delivery and fault-injection exception safety.

   Part 1 mirrors the kernel contract: an unresolved user fault becomes a
   SIGSEGV (SEGV_MAPERR / SEGV_ACCERR / SEGV_PKUERR, the latter carrying
   si_pkey) or a SIGBUS on frame exhaustion, delivered to the faulting
   task's handler; with no handler — or a handler that returns normally —
   the task is killed ([Signal.Killed]).

   Part 2 arms each registered failure point individually and checks that
   the library degrades gracefully: typed errors out, invariants intact
   (the PR-2 auditor is the oracle), and the same call succeeds once the
   fault is disarmed; then that an injection is scoped to its run and a
   preemption to its machine. *)

open Mpk_hw
open Mpk_kernel

let page = Physmem.page_size

let make_env ?(cores = 2) ?hw_keys () =
  let machine = Machine.create ~cores ~mem_mib:64 () in
  let proc = Proc.create machine in
  let main = Proc.spawn proc ~core_id:0 () in
  let mpk = Libmpk.init ?hw_keys ~evict_rate:1.0 proc main in
  (mpk, proc, main)

(* The signal's name, as [Signal.to_string] prints it first. *)
let signal_name si = List.hd (String.split_on_char ' ' (Signal.to_string si))

let read proc task ~addr = Mmu.read_byte (Proc.mmu proc) (Task.core task) ~addr
let write proc task ~addr c = Mmu.write_byte (Proc.mmu proc) (Task.core task) ~addr c

(* [f ()] with one failure point armed. *)
let armed point plan f = fst (Mpk_faultinj.inject ~seed:0L [ (point, plan) ] f)

(* The siglongjmp idiom: the handler escapes by raising, the caller
   resumes at the "sigsetjmp point" with the siginfo in hand. *)
exception Recovered of Signal.siginfo

let catch_signal task f =
  match Task.with_signal_handler task (fun si -> raise (Recovered si)) f with
  | _ -> None
  | exception Recovered si -> Some si

let audit_clean what mpk =
  match Mpk_check.Audit.run mpk with
  | [] -> ()
  | vs ->
      Alcotest.failf "%s: auditor flagged %d violation(s): %s" what (List.length vs)
        (String.concat "; "
           (List.map (fun v -> Format.asprintf "%a" Mpk_check.Audit.pp_violation v) vs))

(* --- part 1: classification and delivery ------------------------------- *)

let test_pkuerr_classification () =
  let mpk, proc, main = make_env () in
  let addr = Libmpk.mpk_mmap mpk main ~vkey:1 ~len:page ~prot:Perm.rw in
  (* No mpk_begin: the group's key is No_access in PKRU. *)
  match catch_signal main (fun () -> ignore (read proc main ~addr)) with
  | None -> Alcotest.fail "read outside the domain should fault"
  | Some si ->
      Alcotest.(check string) "signo" "SIGSEGV" (signal_name si);
      (match si.Signal.code with
      | Signal.Segv_pkuerr -> ()
      | c -> Alcotest.failf "expected SEGV_PKUERR, got %s" (Signal.code_to_string c));
      Alcotest.(check int) "si_addr" addr si.Signal.addr;
      let pkey =
        match Libmpk.find_group mpk 1 with
        | Some { Libmpk.Group.state = Libmpk.Group.Mapped k; _ } -> Pkey.to_int k
        | _ -> Alcotest.fail "group should be Mapped"
      in
      Alcotest.(check int) "si_pkey is the group's key" pkey si.Signal.pkey

let test_accerr_classification () =
  let _mpk, proc, main = make_env () in
  let addr = Syscall.mmap proc main ~len:page ~prot:Perm.rw () in
  write proc main ~addr 'x';
  Syscall.mprotect proc main ~addr ~len:page ~prot:Perm.r;
  match catch_signal main (fun () -> write proc main ~addr 'y') with
  | None -> Alcotest.fail "write to a read-only page should fault"
  | Some si ->
      Alcotest.(check string) "signo" "SIGSEGV" (signal_name si);
      (match si.Signal.code with
      | Signal.Segv_accerr -> ()
      | c -> Alcotest.failf "expected SEGV_ACCERR, got %s" (Signal.code_to_string c));
      (match si.Signal.access with
      | Mmu.Write -> ()
      | _ -> Alcotest.fail "si should record a write access");
      Alcotest.(check int) "no pkey on ACCERR" 0 si.Signal.pkey

let test_maperr_classification () =
  let _mpk, proc, main = make_env () in
  match catch_signal main (fun () -> ignore (read proc main ~addr:0x7fff_0000)) with
  | None -> Alcotest.fail "read of an unmapped address should fault"
  | Some si -> (
      match si.Signal.code with
      | Signal.Segv_maperr -> ()
      | c -> Alcotest.failf "expected SEGV_MAPERR, got %s" (Signal.code_to_string c))

let test_sigbus_on_frame_exhaustion () =
  let _mpk, proc, main = make_env () in
  let addr = Syscall.mmap proc main ~len:page ~prot:Perm.rw () in
  (match
     armed "physmem.alloc_frame" (Mpk_faultinj.Once 0) (fun () ->
         catch_signal main (fun () -> ignore (read proc main ~addr)))
   with
  | None -> Alcotest.fail "demand paging under frame exhaustion should fault"
  | Some si ->
      Alcotest.(check string) "signo is SIGBUS" "SIGBUS" (signal_name si);
      (match si.Signal.code with
      | Signal.Bus_adrerr -> ()
      | c -> Alcotest.failf "expected BUS_ADRERR, got %s" (Signal.code_to_string c)));
  (* the fault left nothing behind: the same touch now succeeds *)
  ignore (read proc main ~addr)

let test_default_disposition_kills () =
  let _mpk, proc, main = make_env () in
  (match read proc main ~addr:0x7fff_0000 with
  | _ -> Alcotest.fail "expected a fatal fault"
  | exception Signal.Killed si ->
      Alcotest.(check string) "signo" "SIGSEGV" (signal_name si));
  Alcotest.(check bool) "the kill is recorded on the task" true
    (match Task.last_kill main with
    | Some c -> signal_name c.Signal.si = "SIGSEGV"
    | None -> false)

let test_handler_returning_still_kills () =
  let _mpk, proc, main = make_env () in
  let seen = ref 0 in
  Task.with_signal_handler main
    (fun _si -> incr seen)
    (fun () ->
      match read proc main ~addr:0x7fff_0000 with
      | _ -> Alcotest.fail "a handler that returns cannot resolve the fault"
      | exception Signal.Killed _ -> ());
  Alcotest.(check int) "handler ran before the kill" 1 !seen

let test_handler_scoping () =
  let _mpk, proc, main = make_env () in
  let outer = ref 0 in
  Task.with_signal_handler main
    (fun si -> incr outer; raise (Recovered si))
    (fun () ->
      (* the inner handler shadows, then the outer is restored *)
      (match catch_signal main (fun () -> ignore (read proc main ~addr:0x7fff_0000)) with
      | Some _ -> ()
      | None -> Alcotest.fail "inner handler should have caught");
      Alcotest.(check int) "outer handler not called while shadowed" 0 !outer;
      match read proc main ~addr:0x7fff_0000 with
      | _ -> Alcotest.fail "unreachable"
      | exception Recovered _ -> ());
  Alcotest.(check int) "outer handler restored" 1 !outer;
  (* scope over: back to the default disposition *)
  match read proc main ~addr:0x7fff_0000 with
  | _ -> Alcotest.fail "expected a fatal fault"
  | exception Signal.Killed _ -> ()

let test_fault_inside_domain () =
  let mpk, proc, main = make_env () in
  let addr = Libmpk.mpk_mmap mpk main ~vkey:1 ~len:page ~prot:Perm.rw in
  Libmpk.mpk_begin mpk main ~vkey:1 ~prot:Perm.r;
  Alcotest.(check char) "read allowed inside r domain" '\000' (read proc main ~addr);
  (match catch_signal main (fun () -> write proc main ~addr 'x') with
  | None -> Alcotest.fail "write inside an r-only domain should fault"
  | Some si -> (
      match si.Signal.code with
      | Signal.Segv_pkuerr -> ()
      | c -> Alcotest.failf "expected SEGV_PKUERR, got %s" (Signal.code_to_string c)));
  (* the domain survives the handled fault: still readable, end cleanly *)
  Alcotest.(check char) "domain intact after handled fault" '\000' (read proc main ~addr);
  Libmpk.mpk_end mpk main ~vkey:1;
  audit_clean "after handled in-domain fault" mpk

(* --- part 2: per-point exception safety -------------------------------- *)

let test_oom_during_mpk_mmap_rolls_back () =
  let mpk, _proc, main = make_env () in
  armed "physmem.alloc_frame" (Mpk_faultinj.Once 0) (fun () ->
      match Libmpk.mpk_mmap mpk main ~vkey:1 ~len:page ~prot:Perm.rw with
      | _ -> Alcotest.fail "mpk_mmap should fail under frame exhaustion"
      | exception Errno.Error (Errno.ENOMEM, _) -> ());
  Alcotest.(check bool) "no half-created group" true (Libmpk.find_group mpk 1 = None);
  Alcotest.(check int) "group count unchanged" 0 (Libmpk.group_count mpk);
  audit_clean "after injected OOM in mpk_mmap" mpk;
  let addr = Libmpk.mpk_mmap mpk main ~vkey:1 ~len:page ~prot:Perm.rw in
  Alcotest.(check bool) "retry succeeds" true (addr > 0);
  audit_clean "after retry" mpk

let test_pkey_alloc_enospc () =
  let machine = Machine.create ~cores:1 ~mem_mib:16 () in
  let proc = Proc.create machine in
  let main = Proc.spawn proc ~core_id:0 () in
  armed "syscall.pkey_alloc" (Mpk_faultinj.Once 0) (fun () ->
      match Syscall.pkey_alloc proc main ~init_rights:Pkru.Read_write with
      | _ -> Alcotest.fail "pkey_alloc should report ENOSPC"
      | exception Errno.Error (Errno.ENOSPC, _) -> ());
  let k = Syscall.pkey_alloc proc main ~init_rights:Pkru.Read_write in
  Syscall.pkey_free proc main k

let test_key_cache_full_fails_fast () =
  let mpk, _proc, main = make_env () in
  (* injected Full at mmap: the group starts Unmapped (PROT_NONE) *)
  armed "key_cache.full" (Mpk_faultinj.Once 0) (fun () ->
      ignore (Libmpk.mpk_mmap mpk main ~vkey:1 ~len:page ~prot:Perm.rw));
  (match Libmpk.find_group mpk 1 with
  | Some { Libmpk.Group.state = Libmpk.Group.Unmapped; _ } -> ()
  | _ -> Alcotest.fail "group should start keyless under injected Full");
  audit_clean "after keyless mmap" mpk;
  (* an injected Full at begin raises immediately *)
  armed "key_cache.full" (Mpk_faultinj.Every 1) (fun () ->
      match Libmpk.mpk_begin mpk main ~vkey:1 ~prot:Perm.rw with
      | () -> Alcotest.fail "mpk_begin should raise on exhaustion"
      | exception Libmpk.Key_exhausted -> ());
  audit_clean "after exhaustion" mpk

let test_pinned_key_exhaustion () =
  let mpk, proc, main = make_env ~hw_keys:1 () in
  let a1 = Libmpk.mpk_mmap mpk main ~vkey:1 ~len:page ~prot:Perm.rw in
  ignore (Libmpk.mpk_mmap mpk main ~vkey:2 ~len:page ~prot:Perm.rw);
  Libmpk.mpk_begin mpk main ~vkey:1 ~prot:Perm.rw;  (* pins the only key *)
  (match Libmpk.mpk_begin mpk main ~vkey:2 ~prot:Perm.rw with
  | () -> Alcotest.fail "the only key is pinned: begin must raise"
  | exception Libmpk.Key_exhausted -> ());
  audit_clean "after exhaustion" mpk;
  write proc main ~addr:a1 'x';  (* the held domain still works *)
  Libmpk.mpk_end mpk main ~vkey:1;
  (* key released: the same begin now succeeds (evicting group 1) *)
  Libmpk.mpk_begin mpk main ~vkey:2 ~prot:Perm.rw;
  Libmpk.mpk_end mpk main ~vkey:2;
  audit_clean "after post-release begin" mpk

let test_xonly_reserve_refusal () =
  let mpk, _proc, main = make_env () in
  ignore (Libmpk.mpk_mmap mpk main ~vkey:3 ~len:page ~prot:Perm.rw);
  armed "key_cache.reserve" (Mpk_faultinj.Once 0) (fun () ->
      match Libmpk.mpk_mprotect mpk main ~vkey:3 ~prot:Perm.x_only with
      | () -> Alcotest.fail "reserve refusal should surface"
      | exception Libmpk.Key_exhausted -> ());
  audit_clean "after refused execute-only reserve" mpk;
  Alcotest.(check int) "no reserve leaked" 0 (Libmpk.xonly_group_count mpk);
  Libmpk.mpk_mprotect mpk main ~vkey:3 ~prot:Perm.x_only;
  Alcotest.(check int) "retry reserves" 1 (Libmpk.xonly_group_count mpk);
  audit_clean "after successful execute-only transition" mpk

let test_forced_preemption_consistency () =
  let mpk, proc, main = make_env () in
  let addr = Libmpk.mpk_mmap mpk main ~vkey:1 ~len:page ~prot:Perm.rw in
  let (), stats =
    Mpk_faultinj.inject ~seed:0L [ ("sched.preempt", Mpk_faultinj.Every 5) ] @@ fun () ->
    for i = 0 to 19 do
      Libmpk.mpk_begin mpk main ~vkey:1 ~prot:Perm.rw;
      write proc main ~addr (Char.chr (Char.code 'a' + (i mod 26)));
      Libmpk.mpk_end mpk main ~vkey:1;
      Libmpk.mpk_mprotect mpk main ~vkey:1 ~prot:(if i mod 2 = 0 then Perm.r else Perm.rw);
      audit_clean (Printf.sprintf "forced preemption, iteration %d" i) mpk
    done
  in
  match stats with
  | [ s ] -> Alcotest.(check bool) "preemptions actually fired" true (s.Mpk_faultinj.fired > 0)
  | l -> Alcotest.failf "expected the stats of one point, got %d" (List.length l)

(* --- part 3: scoped injection, per-machine preemption ------------------ *)

exception Boom

let test_inject_disarms_on_raise () =
  let plan = [ ("key_cache.full", Mpk_faultinj.Every 1) ] in
  (match Mpk_faultinj.inject ~seed:0L plan (fun () -> raise Boom) with
  | _ -> Alcotest.fail "inject swallowed the raise"
  | exception Boom -> ());
  Alcotest.(check bool) "the plan no longer fires" false (Mpk_faultinj.fire "key_cache.full");
  let mpk, _proc, main = make_env () in
  ignore (Libmpk.mpk_mmap mpk main ~vkey:1 ~len:page ~prot:Perm.rw);
  match Libmpk.find_group mpk 1 with
  | Some { Libmpk.Group.state = Libmpk.Group.Mapped _; _ } -> ()
  | _ -> Alcotest.fail "an mmap after the raise still got a refused key"

(* A nested injection arms only its own plans, on its own counters and
   PRNG; the enclosing one resumes where it was. *)
let test_nested_inject () =
  let fire () = Mpk_faultinj.fire "physmem.alloc_frame" in
  let draws nested =
    Mpk_faultinj.inject ~seed:9L [ ("physmem.alloc_frame", Mpk_faultinj.Prob 0.5) ]
    @@ fun () ->
    let before = List.init 8 (fun _ -> fire ()) in
    let inner =
      if nested then
        snd
        @@ Mpk_faultinj.inject ~seed:1L [ ("syscall.pkey_alloc", Mpk_faultinj.Prob 0.5) ]
        @@ fun () ->
        for _ = 1 to 3 do
          Alcotest.(check bool) "the enclosing plan is not armed inside" false (fire ());
          ignore (Mpk_faultinj.fire "syscall.pkey_alloc")
        done
      else []
    in
    (before @ List.init 8 (fun _ -> fire ()), inner)
  in
  let (alone, _), alone_stats = draws false in
  let (resumed, inner), outer_stats = draws true in
  Alcotest.(check (list bool)) "the enclosing draws resume unchanged" alone resumed;
  let show = List.map (fun s -> Mpk_faultinj.(s.name, s.hits, s.fired)) in
  Alcotest.(check (list (triple string int int)))
    "the enclosing counters resume unchanged" (show alone_stats) (show outer_stats);
  Alcotest.(check (list (pair string int)))
    "the nested counters are its own" [ ("syscall.pkey_alloc", 3) ]
    (List.map (fun (name, hits, _) -> (name, hits)) (show inner))

(* Every machine's kernel installs its scheduler on its own cores, so an
   injected preemption on machine A bounces A's task, however many
   machines (a second process, a torture run) were built after it. *)
let test_preemption_stays_on_its_machine () =
  let _mpk, _proc, main = make_env () in
  let core_a = Task.core main in
  let b = Machine.create ~cores:1 ~mem_mib:16 () in
  ignore (Proc.spawn (Proc.create b) ~core_id:0 ());
  let core_b = Machine.core b 0 in
  let switch = (Cpu.costs core_a).Costs.context_switch in
  let preempted_charge what =
    let a0 = Cpu.cycles core_a and b0 = Cpu.cycles core_b in
    armed "sched.preempt" (Mpk_faultinj.Every 1) (fun () -> Cpu.charge core_a 1.0);
    Alcotest.(check (float 0.))
      (what ^ ": A pays a switch out and back in") (1.0 +. (2.0 *. switch))
      (Cpu.cycles core_a -. a0);
    Alcotest.(check (float 0.)) (what ^ ": B's core is charged nothing") b0 (Cpu.cycles core_b)
  in
  preempted_charge "after B is created";
  let cfg = { Mpk_check.Torture.default_config with ops = 4 } in
  Alcotest.(check bool) "the torture run passes" true
    (Mpk_check.Torture.run_once cfg ~schedule:[] ()).Mpk_check.Torture.ok;
  preempted_charge "after a torture run"

(* Two processes share one machine, as SDCG's emitter shares the JIT's:
   the second one's hook hands a core where it has no task to the
   first's, so A's task on core 0 is still preempted. *)
let test_preemption_reaches_every_process () =
  let machine = Machine.create ~cores:2 ~mem_mib:16 () in
  let a = Proc.create machine in
  let core0 = Task.core (Proc.spawn a ~core_id:0 ()) in
  let b = Proc.create machine in
  ignore (Proc.spawn b ~core_id:1 ());
  let before = Cpu.cycles core0 in
  armed "sched.preempt" (Mpk_faultinj.Every 1) (fun () -> Cpu.charge core0 1.0);
  Alcotest.(check (float 0.)) "A's task pays a switch out and back in" 2001.0
    (Cpu.cycles core0 -. before)

let () =
  Alcotest.run "signal"
    [
      ( "delivery",
        [
          Alcotest.test_case "SEGV_PKUERR classification" `Quick test_pkuerr_classification;
          Alcotest.test_case "SEGV_ACCERR classification" `Quick test_accerr_classification;
          Alcotest.test_case "SEGV_MAPERR classification" `Quick test_maperr_classification;
          Alcotest.test_case "SIGBUS on frame exhaustion" `Quick test_sigbus_on_frame_exhaustion;
          Alcotest.test_case "default disposition kills" `Quick test_default_disposition_kills;
          Alcotest.test_case "returning handler still kills" `Quick
            test_handler_returning_still_kills;
          Alcotest.test_case "handler install/restore scoping" `Quick test_handler_scoping;
          Alcotest.test_case "fault inside an mpk_begin domain" `Quick test_fault_inside_domain;
        ] );
      ( "exception_safety",
        [
          Alcotest.test_case "OOM during mpk_mmap rolls back" `Quick
            test_oom_during_mpk_mmap_rolls_back;
          Alcotest.test_case "pkey_alloc ENOSPC is typed" `Quick test_pkey_alloc_enospc;
          Alcotest.test_case "key-cache Full fails fast" `Quick
            test_key_cache_full_fails_fast;
          Alcotest.test_case "pinned key: begin raises" `Quick test_pinned_key_exhaustion;
          Alcotest.test_case "execute-only reserve refusal" `Quick test_xonly_reserve_refusal;
          Alcotest.test_case "forced preemption keeps invariants" `Quick
            test_forced_preemption_consistency;
          Alcotest.test_case "inject disarms on a raise" `Quick test_inject_disarms_on_raise;
          Alcotest.test_case "nested inject resumes the outer" `Quick test_nested_inject;
          Alcotest.test_case "preemption stays on its machine" `Quick
            test_preemption_stays_on_its_machine;
          Alcotest.test_case "preemption reaches every process" `Quick
            test_preemption_reaches_every_process;
        ] );
    ]
