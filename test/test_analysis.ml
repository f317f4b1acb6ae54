(* Tests for the static domain-safety analyzer (Mpk_analysis): the IR
   builder and dataflow engine, the five lint passes on hand-built
   micro-programs, the three app models (clean = zero findings, every
   planted violation found), and witness replay on the simulator
   (Mpk_check.Witness) — every non-[Maybe] finding on a planted app must
   come back [Confirmed]. *)

open Mpk_hw
open Mpk_analysis

let errors fs = List.filter (fun f -> f.Lint.severity = Lint.Error) fs

let has_detail pred fs = List.exists (fun f -> pred f.Lint.detail) fs

let show_findings fs =
  String.concat "; " (List.map (fun f -> Format.asprintf "%a" Lint.pp_finding f) fs)

let expect_detail what pred fs =
  if not (has_detail pred fs) then
    Alcotest.fail
      (Printf.sprintf "expected a %s finding, got [%s]" what (show_findings fs))

let expect_clean what fs =
  if fs <> [] then
    Alcotest.fail (Printf.sprintf "expected no findings for %s, got [%s]" what
                     (show_findings fs))

(* --- engine: interval domain and fixpoint termination --- *)

let test_interval () =
  let open Dataflow.Interval in
  Alcotest.(check bool) "zero" true (equal zero (0, 0));
  let rec bump iv n = if n = 0 then iv else bump (incr iv) (n - 1) in
  Alcotest.(check bool) "saturates at cap" true
    (equal (bump zero (cap + 5)) (cap, cap));
  Alcotest.(check bool) "decr floors at 0" true (equal (decr zero) zero);
  Alcotest.(check bool) "join widens" true
    (equal (join (1, 1) (0, 3)) (0, 3));
  Alcotest.(check string) "to_string range" "[0,2]" (to_string (0, 2))

let test_fixpoint_on_loop () =
  (* A begin/end balanced loop must reach a fixpoint (finite-height
     domain, saturating counters) and stay clean. *)
  let open Ir in
  let p =
    build ~name:"loop"
      ~main:
        [
          op (Mmap { vkey = 1; pages = 1; prot = Perm.rw });
          Loop
            ( "spin",
              [
                op (Begin { vkey = 1; prot = Perm.rw });
                op (Write { vkey = 1 });
                op (End { vkey = 1 });
              ] );
          op (Free { vkey = 1 });
        ]
      ()
  in
  expect_clean "balanced loop" (Lint.analyze p)

let test_of_trace_shape () =
  let open Ir in
  let p =
    of_trace ~name:"trace"
      [
        { stid = 0; sop = Mmap { vkey = 1; pages = 1; prot = Perm.rw } };
        { stid = 1; sop = Begin { vkey = 1; prot = Perm.r } };
        { stid = 0; sop = Read { vkey = 1 } };
        { stid = 1; sop = End { vkey = 1 } };
      ]
  in
  Alcotest.(check int) "two threads" 2 (List.length p.threads);
  let main_ops = List.map (fun n -> n.op) (thread_nodes p 0) in
  let spawns = List.filter (function Spawn _ -> true | _ -> false) main_ops in
  let joins = List.filter (function Join _ -> true | _ -> false) main_ops in
  Alcotest.(check int) "main spawns t1" 1 (List.length spawns);
  Alcotest.(check int) "main joins t1" 1 (List.length joins)

(* --- micro-programs, one per pass --- *)

let micro ?threads name main = Ir.build ~name ~main ?threads ()

let test_typestate_micro () =
  let open Ir in
  let fs =
    Lint.analyze
      (micro "uaf"
         [
           op (Mmap { vkey = 1; pages = 1; prot = Perm.rw });
           op (Free { vkey = 1 });
           op (Read { vkey = 1 });
           op (Free { vkey = 1 });
           op (Write { vkey = 2 });
         ])
  in
  expect_detail "use-after-free"
    (function Lint.Use_after_free { vkey = 1 } -> true | _ -> false)
    fs;
  expect_detail "double-free"
    (function Lint.Double_free { vkey = 1 } -> true | _ -> false)
    fs;
  expect_detail "use-unmapped"
    (function Lint.Use_unmapped { vkey = 2 } -> true | _ -> false)
    fs;
  let fs =
    Lint.analyze
      (micro "mmap-live"
         [
           op (Mmap { vkey = 3; pages = 1; prot = Perm.rw });
           op (Mmap { vkey = 3; pages = 1; prot = Perm.rw });
           op (Free { vkey = 3 });
         ])
  in
  expect_detail "mmap of live vkey"
    (function Lint.Mmap_live { vkey = 3 } -> true | _ -> false)
    fs

let test_balance_micro () =
  let open Ir in
  let fs =
    Lint.analyze
      (micro "underflow"
         [
           op (Mmap { vkey = 1; pages = 1; prot = Perm.rw });
           op (End { vkey = 1 });
           op (Free { vkey = 1 });
         ])
  in
  expect_detail "end underflow"
    (function Lint.End_underflow { vkey = 1 } -> true | _ -> false)
    fs;
  (* early return on one arm skips the end: unmatched on *some* path *)
  let fs =
    Lint.analyze
      (micro "early-return"
         [
           op (Mmap { vkey = 1; pages = 1; prot = Perm.rw });
           op (Begin { vkey = 1; prot = Perm.rw });
           If ("fast path?", [ label "reply early" ], [ op (End { vkey = 1 }) ]);
         ])
  in
  expect_detail "unbalanced on some path"
    (function Lint.Unbalanced { vkey = 1; definite = false } -> true | _ -> false)
    fs;
  let fs =
    Lint.analyze
      (micro "free-inside"
         [
           op (Mmap { vkey = 1; pages = 1; prot = Perm.rw });
           op (Begin { vkey = 1; prot = Perm.rw });
           op (Free { vkey = 1 });
         ])
  in
  expect_detail "free inside begin"
    (function Lint.Free_inside_begin { vkey = 1 } -> true | _ -> false)
    fs

let test_balance_signal_escape () =
  (* The handler forgets mpk_end: the escape edge (taken mid-read, before
     the body's own end) leaks the begin on the handler path. *)
  let open Ir in
  let fs =
    Lint.analyze
      (micro "escape-leak"
         [
           op (Mmap { vkey = 1; pages = 1; prot = Perm.rw });
           op (Begin { vkey = 1; prot = Perm.r });
           Guard
             ( [ op (Read { vkey = 1 }); op (End { vkey = 1 }) ],
               [ label "handler forgets end" ] );
           op (Free { vkey = 1 });
         ])
  in
  expect_detail "leak via signal escape"
    (function Lint.Unbalanced { vkey = 1; definite = false } -> true | _ -> false)
    fs;
  (* ... and a handler that does close the domain is clean. *)
  let fs =
    Lint.analyze
      (micro "escape-closed"
         [
           op (Mmap { vkey = 1; pages = 1; prot = Perm.rw });
           op (Begin { vkey = 1; prot = Perm.r });
           Guard
             ( [ op (Read { vkey = 1 }); op (End { vkey = 1 }) ],
               [ op (End { vkey = 1 }); label "drop request" ] );
           op (Free { vkey = 1 });
         ])
  in
  expect_clean "guard with balanced handler" fs

let test_wx_micro () =
  let open Ir in
  let fs =
    Lint.analyze
      (micro "wx-global"
         [
           op (Mmap { vkey = 1; pages = 1; prot = Perm.rwx });
           op (Mprotect { vkey = 1; prot = Perm.rwx });
           op (Exec { vkey = 1 });
           op (Free { vkey = 1 });
         ])
  in
  expect_detail "W^X mapping"
    (function Lint.Wx_mapping { vkey = 1 } -> true | _ -> false)
    fs;
  expect_detail "exec while globally writable"
    (function Lint.Wx_exec_writable { vkey = 1; window = false } -> true | _ -> false)
    fs;
  let fs =
    Lint.analyze
      (micro "wx-window"
         [
           op (Mmap { vkey = 1; pages = 1; prot = Perm.rwx });
           op (Begin { vkey = 1; prot = Perm.rw });
           op (Emit { vkey = 1; code = [ I_ret ] });
           op (Exec { vkey = 1 });
           op (End { vkey = 1 });
           op (Free { vkey = 1 });
         ])
  in
  expect_detail "exec inside own write window"
    (function Lint.Wx_exec_writable { vkey = 1; window = true } -> true | _ -> false)
    fs

let test_gadget_scan () =
  let open Ir in
  (* the offsets the gadget pass reports for one emitted stream *)
  let unsafe_offsets code =
    Lint.analyze ~passes:[ "gadget" ]
      (micro "gadget"
         [
           op (Mmap { vkey = 1; pages = 1; prot = Perm.rwx });
           op (Begin { vkey = 1; prot = Perm.rw });
           op (Emit { vkey = 1; code });
           op (End { vkey = 1 });
           op (Free { vkey = 1 });
         ])
    |> List.filter_map (fun f ->
           match f.Lint.detail with
           | Lint.Unsafe_wrpkru { offset; _ } -> Some offset
           | _ -> None)
  in
  let checked = [ I_op "mov"; I_wrpkru; I_cmp_pkru; I_br_trusted; I_ret ] in
  Alcotest.(check (list int)) "checked WRPKRU is safe" [] (unsafe_offsets checked);
  Alcotest.(check (list int)) "bare WRPKRU flagged" [ 1 ]
    (unsafe_offsets [ I_op "mov"; I_wrpkru; I_op "jmp"; I_ret ]);
  Alcotest.(check (list int)) "cmp without branch is not a full check" [ 0 ]
    (unsafe_offsets [ I_wrpkru; I_cmp_pkru; I_ret ]);
  Alcotest.(check (list int)) "WRPKRU at stream end flagged" [ 2 ]
    (unsafe_offsets [ I_op "a"; I_op "b"; I_wrpkru ])

let test_toctou_micro () =
  let open Ir in
  let fs =
    Lint.analyze
      (micro "toctou"
         ~threads:[ (1, [ Loop ("scan", [ op (Read { vkey = 1 }) ]) ]) ]
         [
           op (Mmap { vkey = 1; pages = 1; prot = Perm.rw });
           op (Mprotect { vkey = 1; prot = Perm.rw });
           op (Spawn { tid = 1 });
           op (Mprotect { vkey = 1; prot = Perm.none });
           op (Join { tid = 1 });
           op (Free { vkey = 1 });
         ])
  in
  expect_detail "revocation races bare reader"
    (function
      | Lint.Toctou { vkey = 1; victim = 1; access = Lint.A_read } -> true
      | _ -> false)
    fs;
  (* joining the reader before revoking removes the race *)
  let fs =
    Lint.analyze
      (micro "toctou-joined"
         ~threads:[ (1, [ op (Read { vkey = 1 }) ]) ]
         [
           op (Mmap { vkey = 1; pages = 1; prot = Perm.rw });
           op (Mprotect { vkey = 1; prot = Perm.rw });
           op (Spawn { tid = 1 });
           op (Join { tid = 1 });
           op (Mprotect { vkey = 1; prot = Perm.none });
           op (Free { vkey = 1 });
         ])
  in
  if
    List.exists
      (fun f -> match f.Lint.detail with Lint.Toctou _ -> true | _ -> false)
      (errors fs)
  then Alcotest.fail "toctou reported after the victim was joined"

(* --- app models: clean runs are silent, every plant is found --- *)

let test_apps_clean () =
  expect_clean "jit" (Lint.analyze (Mpk_jit.Jit_model.program ()));
  expect_clean "secstore" (Lint.analyze (Mpk_secstore.Secstore_model.program ()));
  expect_clean "kvstore" (Lint.analyze (Mpk_kvstore.Kvstore_model.program ()))

let test_planted_jit () =
  let fs = Lint.analyze (Mpk_jit.Jit_model.program ~plant:`Wx ()) in
  expect_detail "planted W^X mapping"
    (function Lint.Wx_mapping _ -> true | _ -> false)
    (errors fs);
  expect_detail "planted exec-while-writable"
    (function Lint.Wx_exec_writable _ -> true | _ -> false)
    (errors fs);
  let fs = Lint.analyze (Mpk_jit.Jit_model.program ~plant:`Gadget ()) in
  expect_detail "planted unchecked WRPKRU"
    (function Lint.Unsafe_wrpkru _ -> true | _ -> false)
    (errors fs)

let test_planted_secstore () =
  let fs = Lint.analyze (Mpk_secstore.Secstore_model.program ~plant:`Use_after_free ()) in
  expect_detail "planted use-after-free"
    (function Lint.Use_after_free _ -> true | _ -> false)
    (errors fs);
  let fs = Lint.analyze (Mpk_secstore.Secstore_model.program ~plant:`Double_free ()) in
  expect_detail "planted double-free"
    (function Lint.Double_free _ -> true | _ -> false)
    (errors fs);
  let fs = Lint.analyze (Mpk_secstore.Secstore_model.program ~plant:`Leak ()) in
  expect_detail "planted leak-on-exit"
    (function Lint.Leak_on_exit _ -> true | _ -> false)
    fs;
  if errors fs <> [] then
    Alcotest.fail "leak-on-exit must stay a warning, not an error"

let test_planted_kvstore () =
  let fs = Lint.analyze (Mpk_kvstore.Kvstore_model.program ~plant:`Unbalanced ()) in
  expect_detail "planted unbalanced fast path"
    (function Lint.Unbalanced { definite = false; _ } -> true | _ -> false)
    (errors fs);
  let fs = Lint.analyze (Mpk_kvstore.Kvstore_model.program ~plant:`Toctou ()) in
  expect_detail "planted lazy-sync TOCTOU"
    (function Lint.Toctou _ -> true | _ -> false)
    (errors fs)

(* --- witness replay: every concrete finding confirms on the simulator --- *)

let confirm_all what fs =
  List.iter
    (fun f ->
      match f.Lint.detail with
      | Lint.Maybe _ -> ()  (* imprecision-only; no concrete path to replay *)
      | _ -> (
          match Mpk_check.Witness.confirm f with
          | { Mpk_check.Witness.verdict = Mpk_check.Witness.Confirmed; _ } -> ()
          | { note; _ } ->
              Alcotest.fail
                (Format.asprintf "%s: unreproduced finding %a (%s)" what
                   Lint.pp_finding f note)))
    fs

let test_replay_confirms_plants () =
  confirm_all "jit/wx" (Lint.analyze (Mpk_jit.Jit_model.program ~plant:`Wx ()));
  confirm_all "jit/gadget" (Lint.analyze (Mpk_jit.Jit_model.program ~plant:`Gadget ()));
  confirm_all "secstore/uaf"
    (Lint.analyze (Mpk_secstore.Secstore_model.program ~plant:`Use_after_free ()));
  confirm_all "secstore/double-free"
    (Lint.analyze (Mpk_secstore.Secstore_model.program ~plant:`Double_free ()));
  confirm_all "secstore/leak"
    (Lint.analyze (Mpk_secstore.Secstore_model.program ~plant:`Leak ()));
  confirm_all "kvstore/unbalanced"
    (Lint.analyze (Mpk_kvstore.Kvstore_model.program ~plant:`Unbalanced ()));
  confirm_all "kvstore/toctou"
    (Lint.analyze (Mpk_kvstore.Kvstore_model.program ~plant:`Toctou ()))

(* --- stress-trace re-emission shares the lint vocabulary --- *)

let test_stress_trace_ir () =
  let steps = Mpk_check.Stress.gen_ops Mpk_check.Stress.default_config 400 in
  let p = Ir.of_trace ~name:"stress" steps in
  Alcotest.(check string) "program name" "stress" p.Ir.pname;
  (* heap steps are inert to the analyzer: labelling them away changes
     no finding *)
  let unheaped =
    List.map
      (fun (s : Ir.step) ->
        match s.Ir.sop with
        | Ir.Malloc _ | Ir.Mfree _ -> { s with Ir.sop = Ir.Label (Ir.op_to_string s.Ir.sop) }
        | _ -> s)
      steps
  in
  let findings steps =
    Lint.analyze (Ir.of_trace ~name:"stress" steps)
    |> List.map (fun (f : Lint.finding) ->
           (f.Lint.pass, f.Lint.severity, f.Lint.detail, f.Lint.tid, f.Lint.node, f.Lint.message))
  in
  Alcotest.(check bool) "the trace has heap steps" true (unheaped <> steps);
  Alcotest.(check bool) "the trace draws findings" true (findings steps <> []);
  Alcotest.(check bool) "heap steps change no finding" true
    (findings steps = findings unheaped)

(* --- dataflow engine edge cases --- *)

let test_widening_terminates () =
  (* An unbalanced loop drives the saturating interval domain to its
     cap; the fixpoint must still terminate (finite-height domain) and
     the balance pass must flag the drift rather than diverge. *)
  let open Ir in
  let p =
    build ~name:"drift"
      ~main:
        [
          op (Mmap { vkey = 1; pages = 1; prot = Perm.rw });
          Loop ("drift", [ op (Begin { vkey = 1; prot = Perm.rw }) ]);
          op (Free { vkey = 1 });
        ]
      ()
  in
  let fs = Lint.analyze p in
  expect_detail "balance" (function Lint.Unbalanced _ -> true | _ -> false) fs

let test_unreachable_node_state () =
  (* Nodes of a thread never spawned from the analyzed entry are not
     reached by the fixpoint: their post-state is None, not init. *)
  let open Ir in
  let p =
    build ~name:"unreachable"
      ~main:[ op (Read { vkey = 1 }) ]
      ~threads:[ (1, [ op (Write { vkey = 1 }) ]) ]
      ()
  in
  let main = main_thread p in
  let r =
    Dataflow.forward p ~entry:main.entry ~init:0 ~equal:Int.equal ~join:max
      ~transfer:(fun _ s -> s + 1)
  in
  List.iter
    (fun (n : node) ->
      Alcotest.(check bool)
        (Printf.sprintf "thread-1 node %d unreachable" n.id)
        true
        (Dataflow.state r n.id = None))
    (thread_nodes p 1);
  Alcotest.(check bool) "main entry reached" true
    (Dataflow.state r main.entry <> None)

let test_spawn_empty_thread () =
  (* Spawning a thread with an empty body must build, analyze clean,
     and thread_runs must not choke on the trivial CFG. *)
  let open Ir in
  let p =
    build ~name:"empty-thread"
      ~main:[ op (Spawn { tid = 1 }); op (Join { tid = 1 }) ]
      ~threads:[ (1, []) ]
      ()
  in
  expect_clean "spawn of an empty thread" (Lint.analyze p)

(* --- concurrency passes: lockset, lock-order, atomicity --- *)

let lk cls = { Ir.lcls = cls; linst = 0 }

let locked_access ?(mode = Ir.Lk_excl) cls body =
  Ir.op (Ir.Lock { lk = lk cls; lmode = mode })
  :: (body @ [ Ir.op (Ir.Unlock { lk = lk cls; lmode = mode }) ])

let test_lockset_micro () =
  let open Ir in
  (* t1 writes vma[0] under the lock, t2 reads it bare: empty
     intersection, both live between spawn and join -> Race. *)
  let racy =
    micro "racy"
      [ op (Spawn { tid = 1 }); op (Spawn { tid = 2 });
        op (Join { tid = 1 }); op (Join { tid = 2 }) ]
      ~threads:
        [
          (1, locked_access "mm_lock" [ op (Store { loc = L_vma 0 }) ]);
          (2, [ op (Load { loc = L_vma 0 }) ]);
        ]
  in
  let fs = Lint.analyze racy in
  expect_detail "race" (function Lint.Race _ -> true | _ -> false) fs;
  Alcotest.(check bool) "race is an error" true (errors fs <> []);
  (* same program with the reader locked too: silent *)
  let clean =
    micro "locked"
      [ op (Spawn { tid = 1 }); op (Spawn { tid = 2 });
        op (Join { tid = 1 }); op (Join { tid = 2 }) ]
      ~threads:
        [
          (1, locked_access "mm_lock" [ op (Store { loc = L_vma 0 }) ]);
          (2, locked_access ~mode:Lk_shared "mm_lock" [ op (Load { loc = L_vma 0 }) ]);
        ]
  in
  expect_clean "common-lock discipline" (Lint.analyze clean)

let test_no_race_outside_spawn_window () =
  (* Main's unlocked writes before the spawn and after the join are not
     concurrent with the thread: no finding. *)
  let open Ir in
  let p =
    micro "window"
      ([ op (Store { loc = L_vma 0 }); op (Spawn { tid = 1 }); op (Join { tid = 1 }) ]
      @ [ op (Store { loc = L_vma 0 }) ])
      ~threads:[ (1, locked_access "mm_lock" [ op (Load { loc = L_vma 0 }) ]) ]
  in
  expect_clean "pre-spawn/post-join accesses" (Lint.analyze p)

let test_lockorder_micro () =
  let open Ir in
  let p =
    micro "abba"
      [ op (Spawn { tid = 1 }); op (Spawn { tid = 2 });
        op (Join { tid = 1 }); op (Join { tid = 2 }) ]
      ~threads:
        [
          (1, locked_access "a_lock" (locked_access "b_lock" []));
          (2, locked_access "b_lock" (locked_access "a_lock" []));
        ]
  in
  let fs = Lint.analyze p in
  expect_detail "deadlock cycle" (function Lint.Deadlock _ -> true | _ -> false) fs;
  (* consistent order in both threads: silent *)
  let clean =
    micro "abab"
      [ op (Spawn { tid = 1 }); op (Spawn { tid = 2 });
        op (Join { tid = 1 }); op (Join { tid = 2 }) ]
      ~threads:
        [
          (1, locked_access "a_lock" (locked_access "b_lock" []));
          (2, locked_access "a_lock" (locked_access "b_lock" []));
        ]
  in
  expect_clean "consistent order" (Lint.analyze clean)

let test_atomicity_micro () =
  let open Ir in
  let p =
    micro "rca"
      (locked_access ~mode:Lk_shared "mm_lock" [ op (Load { loc = L_vma 0 }) ]
      @ locked_access "mm_lock" [ op (Store { loc = L_vma 0 }) ])
  in
  let fs = Lint.analyze p in
  expect_detail "atomicity window" (function Lint.Atomicity _ -> true | _ -> false) fs;
  (* check and act under one hold: silent *)
  let clean =
    micro "atomic"
      (locked_access "mm_lock"
         [ op (Load { loc = L_vma 0 }); op (Store { loc = L_vma 0 }) ])
  in
  expect_clean "single critical section" (Lint.analyze clean)

let test_unlock_unheld_micro () =
  let open Ir in
  let fs =
    Lint.analyze
      (micro "unheld" [ op (Unlock { lk = lk "mm_lock"; lmode = Lk_excl }) ])
  in
  expect_detail "unlock-unheld" (function Lint.Unlock_unheld _ -> true | _ -> false) fs

let test_pass_filter () =
  let open Ir in
  let p =
    micro "abba"
      [ op (Spawn { tid = 1 }); op (Spawn { tid = 2 });
        op (Join { tid = 1 }); op (Join { tid = 2 }) ]
      ~threads:
        [
          (1, locked_access "a_lock" (locked_access "b_lock" []));
          (2, locked_access "b_lock" (locked_access "a_lock" []));
        ]
  in
  expect_clean "lockset-only run hides the cycle"
    (Lint.analyze ~passes:[ "lockset" ] p);
  expect_detail "lockorder-only run finds it"
    (function Lint.Deadlock _ -> true | _ -> false)
    (Lint.analyze ~passes:[ "lockorder" ] p);
  Alcotest.(check bool) "pass registry lists all eight" true
    (List.length Lint.pass_names = 8)

let test_finding_order_stable () =
  (* analyze output is sorted severity-then-tid-then-node: ranks must be
     non-decreasing, so CI diffs of lint output are stable. *)
  let fs = Lint.analyze (Mpk_check.Mm_model.program ~plant:`Recycle ()) in
  let rank f =
    ( (match f.Lint.severity with Lint.Error -> 0 | Lint.Warning -> 1 | Lint.Info -> 2),
      f.Lint.tid, f.Lint.node )
  in
  let rec non_decreasing = function
    | a :: (b :: _ as rest) -> rank a <= rank b && non_decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted" true (non_decreasing fs)

(* --- the mm protocol model --- *)

let test_mm_model_clean () =
  expect_clean "clean mm protocol (all passes)"
    (Lint.analyze (Mpk_check.Mm_model.program ()))

let test_mm_model_plants () =
  let expect_plant plant what pred =
    let fs = Lint.analyze (Mpk_check.Mm_model.program ~plant ()) in
    expect_detail what pred fs;
    Alcotest.(check int)
      (Printf.sprintf "exactly one error for %s" what)
      1 (List.length (errors fs))
  in
  expect_plant `Recycle "race" (function Lint.Race _ -> true | _ -> false);
  expect_plant `Lock_order "deadlock" (function Lint.Deadlock _ -> true | _ -> false);
  expect_plant `Window "atomicity" (function Lint.Atomicity _ -> true | _ -> false)

let test_mm_model_static_order () =
  (* The clean protocol's may-held graph is acyclic; the lock-order plant
     adds only the reverse vma_lock -> mm_lock edge, so its one cycle
     over exactly the two classes shows the clean mm_lock -> vma_lock
     edge too. *)
  let clean = Mpk_check.Mm_model.program () in
  Alcotest.(check int) "clean is acyclic" 0
    (List.length (Lint.static_lock_cycles clean));
  let planted = Mpk_check.Mm_model.program ~plant:`Lock_order () in
  Alcotest.(check (list (list string)))
    "planted has the one two-class cycle"
    [ [ "mm_lock"; "vma_lock" ] ]
    (Lint.static_lock_cycles planted)

let () =
  Alcotest.run "analysis"
    [
      ( "engine",
        [
          Alcotest.test_case "interval domain saturates" `Quick test_interval;
          Alcotest.test_case "fixpoint on a balanced loop" `Quick test_fixpoint_on_loop;
          Alcotest.test_case "of_trace spawns and joins" `Quick test_of_trace_shape;
          Alcotest.test_case "widening terminates on an unbalanced loop" `Quick
            test_widening_terminates;
          Alcotest.test_case "unreachable nodes have no state" `Quick
            test_unreachable_node_state;
          Alcotest.test_case "spawn of an empty thread" `Quick test_spawn_empty_thread;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "lockset race" `Quick test_lockset_micro;
          Alcotest.test_case "no race outside the spawn window" `Quick
            test_no_race_outside_spawn_window;
          Alcotest.test_case "AB/BA lock-order cycle" `Quick test_lockorder_micro;
          Alcotest.test_case "read-check-act window" `Quick test_atomicity_micro;
          Alcotest.test_case "unlock of an unheld lock" `Quick test_unlock_unheld_micro;
          Alcotest.test_case "--pass filter" `Quick test_pass_filter;
          Alcotest.test_case "finding order is stable" `Quick test_finding_order_stable;
          Alcotest.test_case "mm protocol model is clean" `Quick test_mm_model_clean;
          Alcotest.test_case "mm protocol plants found" `Quick test_mm_model_plants;
          Alcotest.test_case "static lock-order graph" `Quick test_mm_model_static_order;
        ] );
      ( "passes",
        [
          Alcotest.test_case "typestate lifecycle" `Quick test_typestate_micro;
          Alcotest.test_case "begin/end balance" `Quick test_balance_micro;
          Alcotest.test_case "balance across signal escape" `Quick
            test_balance_signal_escape;
          Alcotest.test_case "W^X" `Quick test_wx_micro;
          Alcotest.test_case "WRPKRU gadget scan" `Quick test_gadget_scan;
          Alcotest.test_case "lazy-sync TOCTOU" `Quick test_toctou_micro;
        ] );
      ( "apps",
        [
          Alcotest.test_case "clean models are silent" `Quick test_apps_clean;
          Alcotest.test_case "jit plants found" `Quick test_planted_jit;
          Alcotest.test_case "secstore plants found" `Quick test_planted_secstore;
          Alcotest.test_case "kvstore plants found" `Quick test_planted_kvstore;
        ] );
      ( "replay",
        [
          Alcotest.test_case "planted findings confirm on the simulator" `Slow
            test_replay_confirms_plants;
        ] );
      ( "stress-ir",
        [
          Alcotest.test_case "random traces re-emit as IR" `Quick test_stress_trace_ir;
        ] );
    ]
