(* Tests for the cross-layer invariant auditor (Mpk_check.Audit) and the
   randomized stress driver (Mpk_check.Stress): the auditor must stay
   silent on every legal API sequence, and it must speak up when we
   tamper with hardware state behind libmpk's back. *)

open Mpk_hw
open Mpk_kernel

let page = Physmem.page_size

let make_env ?(threads = 1) ?hw_keys () =
  let machine = Machine.create ~cores:threads ~mem_mib:128 () in
  let proc = Proc.create machine in
  let tasks = Array.init threads (fun i -> Proc.spawn proc ~core_id:i ()) in
  let mpk = Libmpk.init ?hw_keys ~evict_rate:1.0 proc tasks.(0) in
  (mpk, proc, tasks)

let check_clean what mpk =
  match Mpk_check.Audit.run mpk with
  | [] -> ()
  | vs ->
      let msgs =
        String.concat "; "
          (List.map (fun v -> Format.asprintf "%a" Mpk_check.Audit.pp_violation v) vs)
      in
      Alcotest.fail (Printf.sprintf "audit after %s: %s" what msgs)

let invariants vs = List.sort_uniq compare (List.map (fun v -> v.Mpk_check.Audit.invariant) vs)

let check_flags what invariant mpk =
  let vs = Mpk_check.Audit.run mpk in
  if not (List.mem invariant (invariants vs)) then
    Alcotest.fail
      (Printf.sprintf "expected I%d violation after %s, got [%s]" invariant what
         (String.concat ";" (List.map string_of_int (invariants vs))))

(* --- the auditor is silent along a scripted happy path --- *)

let test_scripted_lifecycle () =
  let mpk, proc, tasks = make_env ~threads:2 () in
  let t0 = tasks.(0) and t1 = tasks.(1) in
  check_clean "init" mpk;
  let a = Libmpk.mpk_mmap mpk t0 ~vkey:1 ~len:(2 * page) ~prot:Perm.rw in
  check_clean "mmap v1" mpk;
  ignore (Libmpk.mpk_mmap mpk t1 ~vkey:2 ~len:page ~prot:Perm.rwx);
  check_clean "mmap v2" mpk;
  Libmpk.mpk_begin mpk t0 ~vkey:1 ~prot:Perm.rw;
  check_clean "begin v1" mpk;
  Mmu.write_byte (Proc.mmu proc) (Task.core t0) ~addr:a 'x';
  check_clean "write inside domain" mpk;
  Libmpk.mpk_end mpk t0 ~vkey:1;
  check_clean "end v1" mpk;
  Libmpk.mpk_mprotect mpk t1 ~vkey:2 ~prot:Perm.rx;
  check_clean "mprotect v2" mpk;
  let b = Libmpk.mpk_malloc mpk t0 ~vkey:3 ~size:256 in
  check_clean "malloc v3" mpk;
  Libmpk.mpk_free mpk t0 ~vkey:3 ~addr:b;
  check_clean "free v3" mpk;
  Libmpk.mpk_munmap mpk t0 ~vkey:1;
  check_clean "munmap v1" mpk;
  Libmpk.mpk_munmap mpk t1 ~vkey:2;
  Libmpk.mpk_munmap mpk t0 ~vkey:3;
  check_clean "teardown" mpk;
  Alcotest.(check int) "all keys back on the free list" (Libmpk.hw_keys mpk)
    (List.length (Libmpk.Key_cache.free_keys (Libmpk.cache mpk)))

(* --- lazy TLB shootdown stays coherent across the off-CPU window --- *)

let test_lazy_shootdown_audited () =
  (* A sibling caches a translation for a group's page, gets descheduled,
     and the group is unmapped (pkey_unmap_group retags the PTEs and lazily
     shoots the sibling down). The auditor's I4 must hold through the whole
     window: while the task sleeps — the idle core's stale entries are
     dropped for free — and after it reschedules and pays for the deferred
     flush. *)
  let mpk, proc, tasks = make_env ~threads:2 ~hw_keys:4 () in
  let t0 = tasks.(0) and t1 = tasks.(1) in
  let a = Libmpk.mpk_mmap mpk t0 ~vkey:1 ~len:page ~prot:Perm.rw in
  Libmpk.mpk_mprotect mpk t0 ~vkey:1 ~prot:Perm.rw;
  Mmu.write_byte (Proc.mmu proc) (Task.core t0) ~addr:a 'x';
  (* mpk_mprotect rights are process-global: the sibling can warm its own
     core's TLB with the same page. *)
  ignore (Mmu.read_byte (Proc.mmu proc) (Task.core t1) ~addr:a);
  check_clean "both TLBs warm" mpk;
  Sched.schedule_out (Proc.sched proc) t1;
  Libmpk.mpk_munmap mpk t0 ~vkey:1;
  Alcotest.(check bool) "flush deferred to switch-in" true (Task.tlb_flush_pending t1);
  check_clean "lazy window (sibling off-cpu, group gone)" mpk;
  Sched.schedule_in (Proc.sched proc) t1;
  Alcotest.(check bool) "flush debt settled" false (Task.tlb_flush_pending t1);
  check_clean "sibling rescheduled" mpk

(* --- nested begin/end across two tasks with a single hardware key --- *)

let test_nested_begin_two_tasks_one_key () =
  let mpk, _proc, tasks = make_env ~threads:2 ~hw_keys:1 () in
  let t0 = tasks.(0) and t1 = tasks.(1) in
  ignore (Libmpk.mpk_mmap mpk t0 ~vkey:1 ~len:page ~prot:Perm.rw);
  check_clean "mmap v1 (takes the only key)" mpk;
  (* Second group cannot attach at creation: no key is free. *)
  ignore (Libmpk.mpk_mmap mpk t1 ~vkey:2 ~len:page ~prot:Perm.rw);
  check_clean "mmap v2 (no key free)" mpk;
  (match Libmpk.find_group mpk 2 with
  | Some g -> Alcotest.(check bool) "v2 starts unmapped" true (g.Libmpk.Group.state = Libmpk.Group.Unmapped)
  | None -> Alcotest.fail "v2 group missing");
  (* Nested domains: t0 twice, t1 once — depth 3, pin count 3. *)
  Libmpk.mpk_begin mpk t0 ~vkey:1 ~prot:Perm.rw;
  check_clean "begin v1 @t0" mpk;
  Libmpk.mpk_begin mpk t1 ~vkey:1 ~prot:Perm.r;
  check_clean "begin v1 @t1" mpk;
  Libmpk.mpk_begin mpk t0 ~vkey:1 ~prot:Perm.rw;
  check_clean "nested begin v1 @t0" mpk;
  Alcotest.(check int) "pin count is 3" 3 (Libmpk.Key_cache.pins (Libmpk.cache mpk) 1);
  (* The only key is pinned: a domain on v2 must be refused ... *)
  (match Libmpk.mpk_begin mpk t1 ~vkey:2 ~prot:Perm.rw with
  | () -> Alcotest.fail "begin v2 should raise Key_exhausted"
  | exception Libmpk.Key_exhausted -> ());
  check_clean "Key_exhausted left no residue" mpk;
  (* ... and mpk_mprotect on v2 must fall back to plain mprotect (the
     eviction-declined path): permission changes, no key attached. *)
  Libmpk.mpk_mprotect mpk t1 ~vkey:2 ~prot:Perm.r;
  check_clean "mprotect v2 fallback" mpk;
  (match Libmpk.find_group mpk 2 with
  | Some g ->
      Alcotest.(check bool) "v2 still unmapped after fallback" true
        (g.Libmpk.Group.state = Libmpk.Group.Unmapped);
      Alcotest.(check string) "v2 permission updated" "r--" (Perm.to_string g.Libmpk.Group.prot)
  | None -> Alcotest.fail "v2 group missing");
  (* Unwind the domains one by one; the key stays pinned until the last end. *)
  Libmpk.mpk_end mpk t0 ~vkey:1;
  check_clean "first end" mpk;
  Libmpk.mpk_end mpk t1 ~vkey:1;
  check_clean "second end" mpk;
  Alcotest.(check int) "still pinned once" 1 (Libmpk.Key_cache.pins (Libmpk.cache mpk) 1);
  Libmpk.mpk_end mpk t0 ~vkey:1;
  check_clean "last end" mpk;
  Alcotest.(check int) "unpinned" 0 (Libmpk.Key_cache.pins (Libmpk.cache mpk) 1);
  (* Now the domain on v2 can evict v1 and take the key. *)
  Libmpk.mpk_begin mpk t1 ~vkey:2 ~prot:Perm.r;
  check_clean "begin v2 after unpin (evicts v1)" mpk;
  (match Libmpk.find_group mpk 1 with
  | Some g -> Alcotest.(check bool) "v1 was evicted" true (g.Libmpk.Group.state = Libmpk.Group.Unmapped)
  | None -> Alcotest.fail "v1 group missing");
  Libmpk.mpk_end mpk t1 ~vkey:2;
  check_clean "end v2" mpk

(* --- execute-only lifecycle: reserve, share, leave, reclaim --- *)

let test_xonly_lifecycle () =
  let mpk, _proc, tasks = make_env ~threads:2 ~hw_keys:4 () in
  let t0 = tasks.(0) in
  ignore (Libmpk.mpk_mmap mpk t0 ~vkey:1 ~len:page ~prot:Perm.rwx);
  ignore (Libmpk.mpk_mmap mpk t0 ~vkey:2 ~len:page ~prot:Perm.rwx);
  check_clean "two rwx groups" mpk;
  Libmpk.mpk_mprotect mpk t0 ~vkey:1 ~prot:Perm.x_only;
  check_clean "v1 goes execute-only" mpk;
  let reserve =
    match Libmpk.xonly_key mpk with
    | Some k -> k
    | None -> Alcotest.fail "no execute-only reserve after x_only mprotect"
  in
  Libmpk.mpk_mprotect mpk t0 ~vkey:2 ~prot:Perm.x_only;
  check_clean "v2 shares the reserve" mpk;
  Alcotest.(check int) "two xonly groups" 2 (Libmpk.xonly_group_count mpk);
  (match Libmpk.find_group mpk 2 with
  | Some { Libmpk.Group.state = Libmpk.Group.Mapped k; _ } ->
      Alcotest.(check int) "same reserved key" (Pkey.to_int reserve) (Pkey.to_int k)
  | _ -> Alcotest.fail "v2 not mapped to the reserve");
  Alcotest.(check int) "one key withdrawn from the cache" 1
    (Libmpk.Key_cache.reserved_count (Libmpk.cache mpk));
  Alcotest.(check int) "capacity conserved" (Libmpk.hw_keys mpk)
    (Libmpk.Key_cache.capacity (Libmpk.cache mpk));
  (* mpk_begin on an execute-only group is refused. *)
  (match Libmpk.mpk_begin mpk t0 ~vkey:1 ~prot:Perm.r with
  | () -> Alcotest.fail "begin on xonly group should fail"
  | exception Errno.Error _ -> ());
  check_clean "refused begin left no residue" mpk;
  (* Leaving execute-only through an ordinary mprotect. *)
  Libmpk.mpk_mprotect mpk t0 ~vkey:1 ~prot:Perm.rw;
  check_clean "v1 left execute-only" mpk;
  Alcotest.(check int) "one xonly group left" 1 (Libmpk.xonly_group_count mpk);
  Alcotest.(check bool) "reserve still held" true (Libmpk.xonly_key mpk <> None);
  (* Unmapping the last execute-only group reclaims the reserve. *)
  Libmpk.mpk_munmap mpk t0 ~vkey:2;
  check_clean "last xonly group unmapped" mpk;
  Alcotest.(check bool) "reserve reclaimed" true (Libmpk.xonly_key mpk = None);
  Alcotest.(check int) "nothing reserved" 0
    (Libmpk.Key_cache.reserved_count (Libmpk.cache mpk));
  Libmpk.mpk_munmap mpk t0 ~vkey:1;
  check_clean "teardown" mpk

(* --- the auditor detects tampering behind libmpk's back --- *)

let test_detects_residual_pkru_rights () =
  let mpk, _proc, tasks = make_env ~threads:2 ~hw_keys:4 () in
  check_clean "init" mpk;
  let free =
    match Libmpk.Key_cache.free_keys (Libmpk.cache mpk) with
    | k :: _ -> k
    | [] -> Alcotest.fail "no free key"
  in
  (* A free-list key suddenly readable by task 1: the use-after-free the
     paper's pkey_unmap_group closes. *)
  let core = Task.core tasks.(1) in
  Cpu.set_pkru_direct core (Pkru.set_rights (Cpu.pkru core) free Pkru.Read_write);
  check_flags "PKRU tamper on a free key" 1 mpk

let test_detects_stale_pte_tag () =
  let mpk, proc, tasks = make_env ~hw_keys:4 () in
  let t0 = tasks.(0) in
  let a = Libmpk.mpk_mmap mpk t0 ~vkey:1 ~len:page ~prot:Perm.rw in
  Libmpk.mpk_mprotect mpk t0 ~vkey:1 ~prot:Perm.rw;
  Mmu.write_byte (Proc.mmu proc) (Task.core t0) ~addr:a 'x';  (* materialize the PTE *)
  check_clean "materialized group" mpk;
  (* Retag the group's page with a key it does not own. *)
  let stranger =
    match Libmpk.Key_cache.free_keys (Libmpk.cache mpk) with
    | k :: _ -> k
    | [] -> Alcotest.fail "no free key"
  in
  let pt = Mm.page_table (Proc.mm proc) in
  let vpn = Page_table.vpn_of_addr a in
  let perm = Pte.perm (Page_table.get pt ~vpn) in
  ignore (Page_table.update_range pt ~vpn ~pages:1 (Pte.rewrite_perm_pkey perm stranger));
  check_flags "PTE tag tamper" 2 mpk

let test_detects_stale_tlb_entry () =
  let mpk, proc, tasks = make_env ~hw_keys:4 () in
  let t0 = tasks.(0) in
  let a = Libmpk.mpk_mmap mpk t0 ~vkey:1 ~len:page ~prot:Perm.rw in
  Libmpk.mpk_mprotect mpk t0 ~vkey:1 ~prot:Perm.rw;
  Mmu.write_byte (Proc.mmu proc) (Task.core t0) ~addr:a 'x';  (* fills the TLB *)
  check_clean "TLB warm" mpk;
  (* Change the PTE without shooting down the TLB: the cached translation
     is now stale. *)
  let pt = Mm.page_table (Proc.mm proc) in
  let vpn = Page_table.vpn_of_addr a in
  ignore (Page_table.update_range pt ~vpn ~pages:1 (Pte.rewrite_perm Perm.r));
  check_flags "stale TLB entry" 4 mpk

(* The begin accounting (I3) of one group opened by task 0, tampered
   with in three ways, each of which I3 must name. *)
let test_detects_begin_accounting () =
  let tampered what message tamper =
    let mpk, _proc, tasks = make_env ~threads:2 ~hw_keys:4 () in
    ignore (Libmpk.mpk_mmap mpk tasks.(0) ~vkey:1 ~len:page ~prot:Perm.rw);
    Libmpk.mpk_begin mpk tasks.(0) ~vkey:1 ~prot:Perm.rw;
    check_clean "begin" mpk;
    tamper (Option.get (Libmpk.find_group mpk 1)) (Task.id tasks.(1));
    let messages = List.map (fun v -> v.Mpk_check.Audit.message) (Mpk_check.Audit.run mpk) in
    if not (List.mem message messages) then
      Alcotest.failf "%s: expected %S among [%s]" what message (String.concat "; " messages)
  in
  tampered "negative depth" "group vkey:1 has negative begin_depth -1" (fun g _ ->
      g.Libmpk.Group.begin_depth <- -1);
  tampered "holder sum" "group vkey:1 begin_depth 1 but holders sum to 2" (fun g other ->
      Libmpk.Group.set_begin_holds g other 1);
  (* the sum and the pin count still agree: only the holder check fires *)
  tampered "holder left at depth 0" "group vkey:1 holder task 1 at depth 0" (fun g other ->
      Libmpk.Group.set_begin_holds g other 0)

(* --- key-cache regression fixes --- *)

let keys n = List.filteri (fun i _ -> i < n) Pkey.allocatable

let test_release_refuses_pinned () =
  let c = Libmpk.Key_cache.create ~keys:(keys 2) () in
  ignore (Libmpk.Key_cache.acquire c 1);
  Libmpk.Key_cache.pin c 1;
  (match Libmpk.Key_cache.release c 1 with
  | () -> Alcotest.fail "release of a pinned mapping must raise"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int) "mapping survived" 1
    (List.length (Libmpk.Key_cache.mappings c));
  Libmpk.Key_cache.unpin c 1;
  Libmpk.Key_cache.release c 1;
  Alcotest.(check int) "released after unpin" 0
    (List.length (Libmpk.Key_cache.mappings c));
  Alcotest.(check int) "capacity intact" 2 (Libmpk.Key_cache.capacity c)

let test_reserve_conserves_capacity () =
  let c = Libmpk.Key_cache.create ~keys:(keys 3) () in
  ignore (Libmpk.Key_cache.acquire c 1);
  (match Libmpk.Key_cache.reserve c with
  | Some (k, None) ->
      Alcotest.(check int) "capacity conserved" 3 (Libmpk.Key_cache.capacity c);
      Alcotest.(check (list int)) "reserved key tracked" [ Pkey.to_int k ]
        (List.map Pkey.to_int (Libmpk.Key_cache.reserved_keys c));
      Libmpk.Key_cache.add_key c k;
      Alcotest.(check int) "capacity after return" 3 (Libmpk.Key_cache.capacity c);
      Alcotest.(check int) "nothing reserved" 0 (Libmpk.Key_cache.reserved_count c)
  | Some (_, Some _) -> Alcotest.fail "no eviction expected: free keys existed"
  | None -> Alcotest.fail "reserve failed with free keys available")

let test_percentile_rejects_nan () =
  (match Mpk_util.Stats.percentile [| 1.0; Float.nan; 3.0 |] 50.0 with
  | (_ : float) -> Alcotest.fail "percentile must reject NaN samples"
  | exception Invalid_argument _ -> ());
  (* Float.compare orders negative values correctly (the polymorphic
     compare on boxed floats did too, but only by accident). *)
  Alcotest.(check (float 1e-9)) "median of mixed signs" (-1.0)
    (Mpk_util.Stats.percentile [| 3.0; -1.0; -5.0 |] 50.0)

(* --- mpk_heap through the API: exhaustion, reuse, protected metadata --- *)

let test_heap_exhaustion_and_reuse () =
  let mpk, _proc, tasks = make_env () in
  let t0 = tasks.(0) in
  (* default heap is 1 MiB; 64 KiB blocks carve it exactly *)
  let block = 64 * 1024 in
  let addrs = ref [] in
  let rec fill () =
    match Libmpk.mpk_malloc mpk t0 ~vkey:5 ~size:block with
    | addr ->
        addrs := addr :: !addrs;
        fill ()
    | exception Errno.Error (Errno.ENOMEM, _) -> ()
  in
  fill ();
  Alcotest.(check int) "heap filled completely" 16 (List.length !addrs);
  check_clean "heap exhausted" mpk;
  (* free-then-realloc reuse: first-fit hands the hole back *)
  let victim = List.nth !addrs 7 in
  Libmpk.mpk_free mpk t0 ~vkey:5 ~addr:victim;
  check_clean "after free" mpk;
  let again = Libmpk.mpk_malloc mpk t0 ~vkey:5 ~size:block in
  Alcotest.(check int) "freed hole is reused" victim again;
  (* still full: the next alloc must fail again *)
  (match Libmpk.mpk_malloc mpk t0 ~vkey:5 ~size:block with
  | (_ : int) -> Alcotest.fail "heap should still be exhausted"
  | exception Errno.Error (Errno.ENOMEM, _) -> ());
  check_clean "after realloc" mpk

let test_heap_first_use_under_key_pressure () =
  (* One hardware key, pinned by an active domain: the group mpk_malloc
     creates on first use cannot attach a key (held at PROT_NONE), but
     allocation must still succeed and the auditor must stay silent. *)
  let mpk, _proc, tasks = make_env ~hw_keys:1 () in
  let t0 = tasks.(0) in
  ignore (Libmpk.mpk_mmap mpk t0 ~vkey:1 ~len:page ~prot:Perm.rw);
  Libmpk.mpk_begin mpk t0 ~vkey:1 ~prot:Perm.rw;
  let a = Libmpk.mpk_malloc mpk t0 ~vkey:2 ~size:256 in
  check_clean "first-use malloc with all keys pinned" mpk;
  Libmpk.mpk_free mpk t0 ~vkey:2 ~addr:a;
  Libmpk.mpk_end mpk t0 ~vkey:1;
  check_clean "after teardown" mpk

let test_heap_metadata_stays_protected () =
  (* Group (and heap) metadata lives in pages guarded by the reserved
     metadata pkey: a stray application write must fault, and the
     auditor must agree the fault left nothing inconsistent. *)
  let mpk, proc, tasks = make_env () in
  let t0 = tasks.(0) in
  let a = Libmpk.mpk_malloc mpk t0 ~vkey:3 ~size:512 in
  let md_base = Libmpk.Metadata.slot_addr (Libmpk.metadata mpk) ~slot:0 in
  (match Mmu.write_byte (Proc.mmu proc) (Task.core t0) ~addr:md_base 'X' with
  | () -> Alcotest.fail "application write to libmpk metadata must fault"
  | exception Mmu.Fault _ -> ()
  | exception Signal.Killed _ -> ());
  check_clean "after blocked metadata write" mpk;
  (* the metadata the write aimed at still round-trips *)
  Libmpk.mpk_free mpk t0 ~vkey:3 ~addr:a;
  check_clean "after free" mpk

(* --- mpk_heap direct: free-list invariants under churn --- *)

let test_heap_unit_churn () =
  let h = Libmpk.Mpk_heap.create ~base:0x1000 ~len:256 in
  let a = Option.get (Libmpk.Mpk_heap.alloc h ~size:64) in
  let b = Option.get (Libmpk.Mpk_heap.alloc h ~size:64) in
  let c = Option.get (Libmpk.Mpk_heap.alloc h ~size:64) in
  let d = Option.get (Libmpk.Mpk_heap.alloc h ~size:64) in
  Alcotest.(check bool) "exhausted" true (Libmpk.Mpk_heap.alloc h ~size:16 = None);
  Alcotest.(check bool) "invariant at full" true (Libmpk.Mpk_heap.invariant h);
  (* free non-adjacent then the middle: coalescing must merge all three *)
  Libmpk.Mpk_heap.free h ~addr:b;
  Libmpk.Mpk_heap.free h ~addr:d;
  Alcotest.(check bool) "invariant after holes" true (Libmpk.Mpk_heap.invariant h);
  Libmpk.Mpk_heap.free h ~addr:c;
  Alcotest.(check bool) "invariant after coalesce" true (Libmpk.Mpk_heap.invariant h);
  (* b..d coalesced into one 192-byte run: a 192-byte alloc fits at b *)
  Alcotest.(check (option int)) "coalesced run reused" (Some b)
    (Libmpk.Mpk_heap.alloc h ~size:192);
  Libmpk.Mpk_heap.free h ~addr:a;
  Libmpk.Mpk_heap.free h ~addr:b;
  Alcotest.(check (option int)) "all bytes back" (Some 0x1000) (Libmpk.Mpk_heap.alloc h ~size:256);
  Alcotest.(check bool) "final invariant" true (Libmpk.Mpk_heap.invariant h)

(* --- randomized stress: short deterministic runs across key regimes --- *)

let test_stress_passes () =
  List.iter
    (fun hw_keys ->
      List.iter
        (fun seed ->
          let cfg = { Mpk_check.Stress.default_config with hw_keys; seed } in
          match Mpk_check.Stress.check cfg ~ops:400 with
          | Ok _ -> ()
          | Error report -> Alcotest.fail report)
        [ 1L; 2L; 3L ])
    [ 1; 4; 15 ]

(* [check] reports what each armed fault point did; the injection
   registry itself is reset when the run ends. *)
let test_stress_fault_stats () =
  let cfg = Mpk_check.Stress.default_config in
  let check cfg =
    match Mpk_check.Stress.check cfg ~ops:200 with
    | Ok p -> p.Mpk_check.Stress.fired
    | Error report -> Alcotest.fail report
  in
  Alcotest.(check int) "no plan armed, no stats" 0 (List.length (check cfg));
  match check { cfg with faults = [ ("key_cache.full", Mpk_faultinj.Once 0) ] } with
  | [ s ] ->
      Alcotest.(check string) "the armed point" "key_cache.full" s.Mpk_faultinj.name;
      Alcotest.(check int) "fired once" 1 s.Mpk_faultinj.fired
  | l -> Alcotest.failf "expected one armed point, got %d" (List.length l)

let test_stress_deterministic () =
  let cfg = { Mpk_check.Stress.default_config with seed = 42L } in
  let gen cfg = Mpk_check.Stress.gen_ops cfg 50 in
  Alcotest.(check bool) "same seed, same ops" true (gen cfg = gen cfg);
  Alcotest.(check bool) "different seeds diverge" true (gen cfg <> gen { cfg with seed = 43L })

let () =
  Alcotest.run "check"
    [
      ( "auditor-clean",
        [
          Alcotest.test_case "scripted lifecycle" `Quick test_scripted_lifecycle;
          Alcotest.test_case "nested begins, one key, two tasks" `Quick
            test_nested_begin_two_tasks_one_key;
          Alcotest.test_case "execute-only lifecycle" `Quick test_xonly_lifecycle;
          Alcotest.test_case "lazy shootdown stays coherent (I4)" `Quick
            test_lazy_shootdown_audited;
        ] );
      ( "auditor-detects",
        [
          Alcotest.test_case "residual PKRU rights (I1)" `Quick
            test_detects_residual_pkru_rights;
          Alcotest.test_case "stale PTE tag (I2)" `Quick test_detects_stale_pte_tag;
          Alcotest.test_case "stale TLB entry (I4)" `Quick test_detects_stale_tlb_entry;
          Alcotest.test_case "begin accounting (I3)" `Quick test_detects_begin_accounting;
        ] );
      ( "fixes",
        [
          Alcotest.test_case "release refuses pinned" `Quick test_release_refuses_pinned;
          Alcotest.test_case "reserve conserves capacity" `Quick
            test_reserve_conserves_capacity;
          Alcotest.test_case "percentile rejects NaN" `Quick test_percentile_rejects_nan;
        ] );
      ( "heap",
        [
          Alcotest.test_case "exhaustion and free-then-realloc reuse" `Quick
            test_heap_exhaustion_and_reuse;
          Alcotest.test_case "first-use malloc under key pressure" `Quick
            test_heap_first_use_under_key_pressure;
          Alcotest.test_case "metadata stays behind the metadata pkey" `Quick
            test_heap_metadata_stays_protected;
          Alcotest.test_case "free-list churn keeps invariants" `Quick
            test_heap_unit_churn;
        ] );
      ( "stress",
        [
          Alcotest.test_case "passes across key regimes" `Slow test_stress_passes;
          Alcotest.test_case "deterministic generation" `Quick test_stress_deterministic;
          Alcotest.test_case "check reports armed fault points" `Quick test_stress_fault_stats;
        ] );
    ]
