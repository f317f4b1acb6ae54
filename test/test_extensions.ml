(* Tests for the extension features: eviction policies, restricted
   hardware key counts, eager synchronization, API statistics — plus
   regression tests for subtle behaviours found during development
   (exec-preserving eviction, bulk PTE updates). *)

open Mpk_hw
open Mpk_kernel

let qtest = QCheck_alcotest.to_alcotest

let page = Physmem.page_size

let keys n = List.filteri (fun i _ -> i < n) Pkey.allocatable

let make_env ?(threads = 1) ?policy ?hw_keys () =
  let machine = Machine.create ~cores:(threads + 1) ~mem_mib:256 () in
  let proc = Proc.create machine in
  let main = Proc.spawn proc ~core_id:0 () in
  let others = List.init (threads - 1) (fun i -> Proc.spawn proc ~core_id:(i + 1) ()) in
  let mpk = Libmpk.init ?policy ?hw_keys ~evict_rate:1.0 proc main in
  mpk, proc, main, others

(* --- eviction policies --- *)

let test_fifo_evicts_oldest () =
  let c = Libmpk.Key_cache.create ~policy:Libmpk.Key_cache.Fifo ~keys:(keys 2) () in
  ignore (Libmpk.Key_cache.acquire c 1);
  ignore (Libmpk.Key_cache.acquire c 2);
  ignore (Libmpk.Key_cache.acquire c 1);  (* LRU would now pick 2; FIFO still picks 1 *)
  match Libmpk.Key_cache.acquire c 3 with
  | Libmpk.Key_cache.Evicted { victim; _ } -> Alcotest.(check int) "fifo victim" 1 victim
  | _ -> Alcotest.fail "expected eviction"

let test_random_policy_deterministic_per_seed () =
  let run seed =
    let c = Libmpk.Key_cache.create ~policy:Libmpk.Key_cache.Random ~seed ~keys:(keys 3) () in
    for v = 1 to 3 do
      ignore (Libmpk.Key_cache.acquire c v)
    done;
    List.init 10 (fun i ->
        match Libmpk.Key_cache.acquire c (100 + i) with
        | Libmpk.Key_cache.Evicted { victim; _ } -> victim
        | _ -> -1)
  in
  Alcotest.(check (list int)) "same seed, same victims" (run 7L) (run 7L);
  Alcotest.(check bool) "different seeds diverge" true (run 7L <> run 8L)

let test_random_policy_respects_pins () =
  let c = Libmpk.Key_cache.create ~policy:Libmpk.Key_cache.Random ~keys:(keys 2) () in
  ignore (Libmpk.Key_cache.acquire c 1);
  ignore (Libmpk.Key_cache.acquire c 2);
  Libmpk.Key_cache.pin c 1;
  for i = 0 to 9 do
    match Libmpk.Key_cache.acquire c (100 + i) with
    | Libmpk.Key_cache.Evicted { victim; _ } ->
        if victim = 1 then Alcotest.fail "random policy evicted a pinned mapping"
    | Libmpk.Key_cache.Full -> Alcotest.fail "an unpinned mapping existed"
    | _ -> ()
  done

(* Random draws over its candidates in one order: descending
   [Hashtbl.hash vkey land 15], then oldest mapping first, whatever the
   hits. One seed's victims are pinned over vkeys 1-8 and 20-35, several
   of which share a bucket (2, 6 and 20; 3, 7, 30 and 34; 4 and 5). *)
let test_random_policy_victim_order () =
  let module K = Libmpk.Key_cache in
  let c = K.create ~policy:K.Random ~seed:7L ~keys:(keys 8) () in
  for v = 1 to 8 do
    ignore (K.acquire c v)
  done;
  let victims =
    List.init 16 (fun i ->
        (* a hit on the LRU mapping first: recency is no part of the order *)
        (match K.dump c with (lru, _, _) :: _ -> ignore (K.acquire c lru) | [] -> ());
        match K.acquire c (20 + i) with K.Evicted { victim; _ } -> victim | _ -> -1)
  in
  Alcotest.(check (list int)) "seed 7's victims"
    [ 8; 20; 1; 5; 2; 7; 24; 6; 22; 28; 23; 4; 31; 3; 32; 33 ]
    victims

(* [init]'s policy reaches the cache: with 15 groups holding the 15 keys,
   a 16th group's miss evicts vkey 1 although it was used last, where LRU
   would evict vkey 2. *)
let test_policy_plumbed_through_init () =
  let mpk, _, main, _ = make_env ~policy:Libmpk.Key_cache.Fifo () in
  for vkey = 1 to 16 do
    ignore (Libmpk.mpk_mmap mpk main ~vkey ~len:4096 ~prot:Perm.rw)
  done;
  Libmpk.mpk_mprotect mpk main ~vkey:1 ~prot:Perm.rw;
  Libmpk.mpk_mprotect mpk main ~vkey:16 ~prot:Perm.rw;
  let mapped vkey = (Option.get (Libmpk.find_group mpk vkey)).Libmpk.Group.state <> Libmpk.Group.Unmapped in
  Alcotest.(check (list bool)) "vkeys 1, 2 and 16 mapped" [ false; true; true ]
    [ mapped 1; mapped 2; mapped 16 ]

(* --- restricted hardware key counts --- *)

let test_hw_keys_limits_cache () =
  let mpk, _, _, _ = make_env ~hw_keys:4 () in
  Alcotest.(check int) "capacity 4" 4 (Libmpk.Key_cache.capacity (Libmpk.cache mpk))

let test_hw_keys_still_virtualizes () =
  (* Even with 2 hardware keys, 10 groups work (with more evictions). *)
  let mpk, proc, main, _ = make_env ~hw_keys:2 () in
  let mmu = Proc.mmu proc in
  let core = Task.core main in
  let addrs =
    List.init 10 (fun i ->
        let vkey = i + 1 in
        let addr = Libmpk.mpk_mmap mpk main ~vkey ~len:page ~prot:Perm.rw in
        Libmpk.mpk_begin mpk main ~vkey ~prot:Perm.rw;
        Mmu.write_byte mmu core ~addr (Char.chr (65 + i));
        Libmpk.mpk_end mpk main ~vkey;
        addr)
  in
  List.iteri
    (fun i addr ->
      let vkey = i + 1 in
      Libmpk.mpk_begin mpk main ~vkey ~prot:Perm.r;
      Alcotest.(check char) "data survives" (Char.chr (65 + i)) (Mmu.read_byte mmu core ~addr);
      Libmpk.mpk_end mpk main ~vkey)
    addrs;
  Alcotest.(check bool) "evictions happened" true
    (Libmpk.Key_cache.evictions (Libmpk.cache mpk) > 0)

let test_hw_keys_exhaustion_earlier () =
  let mpk, _, main, _ = make_env ~hw_keys:3 () in
  for v = 1 to 3 do
    ignore (Libmpk.mpk_mmap mpk main ~vkey:v ~len:page ~prot:Perm.rw);
    Libmpk.mpk_begin mpk main ~vkey:v ~prot:Perm.rw
  done;
  ignore (Libmpk.mpk_mmap mpk main ~vkey:4 ~len:page ~prot:Perm.rw);
  match Libmpk.mpk_begin mpk main ~vkey:4 ~prot:Perm.rw with
  | exception Libmpk.Key_exhausted -> ()
  | _ -> Alcotest.fail "expected Key_exhausted with 3 keys pinned"

(* --- eager synchronization --- *)

let test_eager_sync_same_semantics () =
  let machine = Machine.create ~cores:4 ~mem_mib:64 () in
  let proc = Proc.create machine in
  let t0 = Proc.spawn proc ~core_id:0 () in
  let t1 = Proc.spawn proc ~core_id:1 () in
  let k = Syscall.pkey_alloc proc t0 ~init_rights:Pkru.Read_write in
  Syscall.pkey_sync proc t0 ~eager:true ~pkey:k Pkru.Read_only;
  Alcotest.(check bool) "t1 synced" true (Pkru.rights (Task.pkru t1) k = Pkru.Read_only)

let test_eager_sync_costs_more () =
  let cost eager =
    let machine = Machine.create ~cores:8 ~mem_mib:64 () in
    let proc = Proc.create machine in
    let t0 = Proc.spawn proc ~core_id:0 () in
    for i = 1 to 5 do
      ignore (Proc.spawn proc ~core_id:i ())
    done;
    let k = Syscall.pkey_alloc proc t0 ~init_rights:Pkru.Read_write in
    let core = Task.core t0 in
    snd (Cpu.measure core (fun () -> Syscall.pkey_sync proc t0 ~eager ~pkey:k Pkru.Read_only))
  in
  Alcotest.(check bool) "eager slower" true (cost true > 2.0 *. cost false)

let test_eager_sync_wakes_descheduled () =
  let machine = Machine.create ~cores:4 ~mem_mib:64 () in
  let proc = Proc.create machine in
  let t0 = Proc.spawn proc ~core_id:0 () in
  let t1 = Proc.spawn proc ~core_id:1 () in
  Sched.schedule_out (Proc.sched proc) t1;
  let k = Syscall.pkey_alloc proc t0 ~init_rights:Pkru.Read_write in
  Syscall.pkey_sync proc t0 ~eager:true ~pkey:k Pkru.Read_only;
  (* eager semantics: applied immediately, no pending work *)
  Alcotest.(check int) "no pending work" 0 (Task.work_pending t1);
  Alcotest.(check bool) "applied" true (Pkru.rights (Task.pkru t1) k = Pkru.Read_only)

(* --- API statistics --- *)

let test_stats_counters () =
  let mpk, proc, main, _ = make_env () in
  ignore proc;
  ignore (Libmpk.mpk_mmap mpk main ~vkey:1 ~len:page ~prot:Perm.rw);
  Libmpk.mpk_begin mpk main ~vkey:1 ~prot:Perm.rw;
  Libmpk.mpk_end mpk main ~vkey:1;
  Libmpk.mpk_mprotect mpk main ~vkey:1 ~prot:Perm.r;
  Libmpk.mpk_mprotect mpk main ~vkey:1 ~prot:Perm.rw;
  let a = Libmpk.mpk_malloc mpk main ~vkey:2 ~size:64 in
  Libmpk.mpk_free mpk main ~vkey:2 ~addr:a;
  Libmpk.mpk_munmap mpk main ~vkey:1;
  let s = Libmpk.stats mpk in
  Alcotest.(check int) "mmap (1 direct + 1 via malloc)" 2 s.Libmpk.mmap_calls;
  Alcotest.(check int) "munmap" 1 s.Libmpk.munmap_calls;
  Alcotest.(check int) "begin" 1 s.Libmpk.begin_calls;
  Alcotest.(check int) "end" 1 s.Libmpk.end_calls;
  Alcotest.(check int) "mprotect" 2 s.Libmpk.mprotect_calls;
  Alcotest.(check int) "malloc" 1 s.Libmpk.malloc_calls;
  Alcotest.(check int) "free" 1 s.Libmpk.free_calls

let test_stats_cache_mirror () =
  let mpk, _, main, _ = make_env () in
  ignore (Libmpk.mpk_mmap mpk main ~vkey:1 ~len:page ~prot:Perm.rw);
  Libmpk.mpk_mprotect mpk main ~vkey:1 ~prot:Perm.r;
  Libmpk.mpk_mprotect mpk main ~vkey:1 ~prot:Perm.rw;
  let s = Libmpk.stats mpk in
  Alcotest.(check int) "hits mirrored" (Libmpk.Key_cache.hits (Libmpk.cache mpk))
    s.Libmpk.cache_hits;
  Alcotest.(check (float 1e-9)) "hit rate = hits / lookups"
    (float_of_int s.Libmpk.cache_hits
    /. float_of_int (s.Libmpk.cache_hits + s.Libmpk.cache_misses))
    s.Libmpk.cache_hit_rate

let test_pp_stats () =
  let mpk, _, main, _ = make_env () in
  ignore (Libmpk.mpk_mmap mpk main ~vkey:1 ~len:page ~prot:Perm.rw);
  let s = Format.asprintf "%a" Libmpk.pp_stats (Libmpk.stats mpk) in
  Alcotest.(check bool) "prints something" true (String.length s > 20)

(* --- regressions --- *)

let test_eviction_preserves_exec_bit () =
  (* Regression: an evicted rwx (code) group must stay executable —
     PKRU never gated fetch, and revoking exec broke the JIT with >15
     pages. *)
  let mpk, proc, main, _ = make_env () in
  let mmu = Proc.mmu proc in
  let core = Task.core main in
  let code_addr = Libmpk.mpk_mmap mpk main ~vkey:1 ~len:page ~prot:Perm.rwx in
  Libmpk.mpk_begin mpk main ~vkey:1 ~prot:Perm.rw;
  Mmu.write_bytes mmu core ~addr:code_addr (Bytes.of_string "\x90");
  Libmpk.mpk_end mpk main ~vkey:1;
  (* force vkey 1's key to be recycled *)
  for v = 2 to 16 do
    ignore (Libmpk.mpk_mmap mpk main ~vkey:v ~len:page ~prot:Perm.rw);
    Libmpk.mpk_begin mpk main ~vkey:v ~prot:Perm.rw;
    Libmpk.mpk_end mpk main ~vkey:v
  done;
  (match Libmpk.find_group mpk 1 with
  | Some g -> Alcotest.(check bool) "group 1 evicted" true (g.Libmpk.Group.state = Libmpk.Group.Unmapped)
  | None -> Alcotest.fail "group 1 missing");
  (* fetch still works; data access still blocked *)
  ignore (Mmu.fetch mmu core ~addr:code_addr ~len:1);
  match Mmu.read_byte mmu core ~addr:code_addr with
  | exception Signal.Killed _ -> ()
  | _ -> Alcotest.fail "evicted code group readable"

let update_range_matches_per_page =
  QCheck.Test.make ~name:"update_range = per-page update" ~count:200
    QCheck.(triple (int_bound 2000) (int_range 1 600) (small_list (int_bound 2600)))
    (fun (start, pages, mapped) ->
      let mk () =
        let pt = Page_table.create () in
        List.iter
          (fun vpn ->
            Page_table.set pt ~vpn (Pte.make ~frame:(vpn land 0xFF) ~perm:Perm.rw ~pkey:Pkey.default))
          mapped;
        pt
      in
      let a = mk () and b = mk () in
      let rw = Pte.rewrite_perm Perm.r in
      let na = Page_table.update_range a ~vpn:start ~pages rw in
      let nb = ref 0 in
      for vpn = start to start + pages - 1 do
        let pte = Page_table.get b ~vpn in
        if Pte.is_present pte then begin
          Page_table.set b ~vpn (Pte.apply rw pte);
          incr nb
        end
      done;
      na = !nb
      && List.for_all
           (fun vpn ->
             Page_table.get a ~vpn = Page_table.get b ~vpn)
           mapped)

(* The bounded walk computes, at each level, which slots overlap the
   range. Ranges start next to a multiple of 512, 512^2 or 512^3 (where a
   leaf, a level-2 or a level-1 node turns over), may be empty and may
   run to the last vpn; entries sit on both sides of every edge. The
   oracle rewrites vpn by vpn with get, Pte.make and set. Keys 8-15 set
   the sign bit, so key 15 is drawn often, before and after. *)
let update_range_every_level =
  let last = (1 lsl 36) - 1 in
  let perm_of p = Perm.make ~read:(p land 1 <> 0) ~write:(p land 2 <> 0) ~exec:(p land 4 <> 0) () in
  let key = QCheck.Gen.(frequency [ (1, return 15); (3, int_range 0 15) ]) in
  let gen =
    let open QCheck.Gen in
    int_range 1 3 >>= fun level ->
    let span = 1 lsl (9 * level) in
    int_range 1 (((last + 1) / span) - 1) >>= fun k ->
    int_range (-3) 3 >>= fun d ->
    let start = (k * span) + d in
    oneof
      [ return 0; int_range 1 8; map (fun e -> span + e) (int_range (-3) 3); return (last + 1 - start) ]
    >>= fun pages ->
    let pages = min pages (last + 1 - start) in
    int_range 0 2 >>= fun fields ->
    quad (int_range 0 7) key (int_range 0 7) key >>= fun (p, k, p0, k0) ->
    return (level, start, pages, fields, (p, k, p0, k0))
  in
  let print (level, start, pages, fields, (p, k, p0, k0)) =
    Printf.sprintf "level %d: start %d pages %d fields %d perm %d key %d (from perm %d key %d)"
      level start pages fields p k p0 k0
  in
  QCheck.Test.make ~name:"update_range = per-vpn oracle at every level" ~count:500
    (QCheck.make ~print gen)
    (fun (level, start, pages, fields, (p, k, p0, k0)) ->
      let span = 1 lsl (9 * level) in
      let edge = start - (start land (span - 1)) in
      let vpns =
        List.concat_map
          (fun at -> List.init 5 (fun i -> at - 2 + i))
          [ start; start + pages; edge; edge + span; last ]
        |> List.filter (fun v -> v >= 0 && v <= last)
        |> List.sort_uniq compare
      in
      let table () =
        let pt = Page_table.create () in
        List.iter
          (fun vpn ->
            Page_table.set pt ~vpn
              (Pte.make ~frame:vpn ~perm:(perm_of p0) ~pkey:(Pkey.of_int k0)))
          vpns;
        pt
      in
      (* 0 replaces the permission, 1 and 2 the permission and the key *)
      let perm = perm_of p in
      let pkey = if fields <> 0 then Some (Pkey.of_int k) else None in
      let rw =
        match pkey with
        | None -> Pte.rewrite_perm perm
        | Some k -> Pte.rewrite_perm_pkey perm k
      in
      let a = table () and b = table () in
      let n = Page_table.update_range a ~vpn:start ~pages rw in
      let inside = List.filter (fun v -> v >= start && v < start + pages) vpns in
      List.iter
        (fun vpn ->
          let old = Page_table.get b ~vpn in
          Page_table.set b ~vpn
            (Pte.make ~frame:(Pte.frame old) ~perm
               ~pkey:(Option.value pkey ~default:(Pte.pkey old))))
        inside;
      let entries pt = Page_table.fold pt (fun v pte acc -> (v, pte) :: acc) [] in
      n = List.length inside && entries a = entries b)

let test_update_range_counts_present_only () =
  let pt = Page_table.create () in
  Page_table.set pt ~vpn:100 (Pte.make ~frame:1 ~perm:Perm.rw ~pkey:Pkey.default);
  Page_table.set pt ~vpn:102 (Pte.make ~frame:2 ~perm:Perm.rw ~pkey:Pkey.default);
  let n = Page_table.update_range pt ~vpn:95 ~pages:20 (Pte.rewrite_perm Perm.r) in
  Alcotest.(check int) "two present" 2 n

let test_update_range_leaf_boundaries () =
  (* exercise ranges crossing 512-entry leaf boundaries *)
  let pt = Page_table.create () in
  List.iter
    (fun vpn -> Page_table.set pt ~vpn (Pte.make ~frame:7 ~perm:Perm.rw ~pkey:Pkey.default))
    [ 510; 511; 512; 513; 1023; 1024 ];
  let n = Page_table.update_range pt ~vpn:511 ~pages:514 (Pte.rewrite_perm Perm.r) in
  (* 511, 512, 513, 1023, 1024 are inside [511, 1025) *)
  Alcotest.(check int) "five rewritten" 5 n;
  Alcotest.(check string) "outside untouched" "rw-"
    (Perm.to_string (Pte.perm (Page_table.get pt ~vpn:510)))

let test_mpk_begin_nested () =
  let mpk, proc, main, _ = make_env () in
  let mmu = Proc.mmu proc in
  let core = Task.core main in
  let addr = Libmpk.mpk_mmap mpk main ~vkey:1 ~len:page ~prot:Perm.rw in
  Libmpk.mpk_begin mpk main ~vkey:1 ~prot:Perm.rw;
  Libmpk.mpk_begin mpk main ~vkey:1 ~prot:Perm.rw;
  Libmpk.mpk_end mpk main ~vkey:1;
  (* one level still open: access allowed, key pinned *)
  Mmu.write_byte mmu core ~addr 'x';
  Alcotest.(check int) "still pinned" 1 (Libmpk.Key_cache.pins (Libmpk.cache mpk) 1);
  Libmpk.mpk_end mpk main ~vkey:1;
  match Mmu.read_byte mmu core ~addr with
  | exception Signal.Killed _ -> ()
  | _ -> Alcotest.fail "accessible after final end"

let test_xonly_munmap_releases_reserve () =
  let mpk, _, main, _ = make_env () in
  ignore (Libmpk.mpk_mmap mpk main ~vkey:1 ~len:page ~prot:Perm.rw);
  Libmpk.mpk_mprotect mpk main ~vkey:1 ~prot:Perm.x_only;
  Alcotest.(check bool) "reserved" true (Libmpk.xonly_key mpk <> None);
  Libmpk.mpk_munmap mpk main ~vkey:1;
  Alcotest.(check bool) "released on munmap" true (Libmpk.xonly_key mpk = None);
  Alcotest.(check int) "capacity restored" 15 (Libmpk.Key_cache.capacity (Libmpk.cache mpk))

let test_begin_concurrent_threads_independent_rights () =
  (* two threads hold the same domain open; each thread's rights drop at
     its own mpk_end, not at the other's *)
  let mpk, proc, main, others = make_env ~threads:2 () in
  let other = List.hd others in
  let mmu = Proc.mmu proc in
  let addr = Libmpk.mpk_mmap mpk main ~vkey:1 ~len:page ~prot:Perm.rw in
  Libmpk.mpk_begin mpk main ~vkey:1 ~prot:Perm.rw;
  Libmpk.mpk_begin mpk other ~vkey:1 ~prot:Perm.r;
  Mmu.write_byte mmu (Task.core main) ~addr 'a';
  ignore (Mmu.read_byte mmu (Task.core other) ~addr);
  (* main closes its domain: main loses access, other keeps its own *)
  Libmpk.mpk_end mpk main ~vkey:1;
  (match Mmu.read_byte mmu (Task.core main) ~addr with
  | exception Signal.Killed _ -> ()
  | _ -> Alcotest.fail "main kept access after its own end");
  ignore (Mmu.read_byte mmu (Task.core other) ~addr);
  Libmpk.mpk_end mpk other ~vkey:1;
  match Mmu.read_byte mmu (Task.core other) ~addr with
  | exception Signal.Killed _ -> ()
  | _ -> Alcotest.fail "other kept access after its end"

let test_end_by_non_holder_rejected () =
  let mpk, _, main, others = make_env ~threads:2 () in
  let other = List.hd others in
  ignore (Libmpk.mpk_mmap mpk main ~vkey:1 ~len:page ~prot:Perm.rw);
  Libmpk.mpk_begin mpk main ~vkey:1 ~prot:Perm.rw;
  (match Libmpk.mpk_end mpk other ~vkey:1 with
  | exception Errno.Error (Errno.EINVAL, _) -> ()
  | _ -> Alcotest.fail "a thread outside the domain closed it");
  Libmpk.mpk_end mpk main ~vkey:1

let test_munmap_scrubs_recycled_key_rights () =
  (* Found by the model fuzzer: munmapping a *globally unlocked* group
     returned its hardware key to the pool while every thread still held
     read/write rights for it — the next mpk_mmap handed those rights to
     a brand-new group. *)
  let mpk, proc, main, others = make_env ~threads:2 ~hw_keys:1 () in
  let other = List.hd others in
  let mmu = Proc.mmu proc in
  ignore (Libmpk.mpk_mmap mpk main ~vkey:1 ~len:page ~prot:Perm.rw);
  Libmpk.mpk_mprotect mpk main ~vkey:1 ~prot:Perm.rw;  (* rights synced to everyone *)
  Libmpk.mpk_munmap mpk main ~vkey:1;
  (* the single hardware key is recycled for the new secret group *)
  let secret = Libmpk.mpk_mmap mpk main ~vkey:2 ~len:page ~prot:Perm.rw in
  List.iter
    (fun task ->
      match Mmu.read_byte mmu (Task.core task) ~addr:secret with
      | exception Signal.Killed _ -> ()
      | _ -> Alcotest.failf "thread %d inherited rights through a recycled key" (Task.id task))
    [ main; other ]

let test_begin_after_eviction_restores_prot () =
  (* an evicted domain group returns with its original page protection *)
  let mpk, proc, main, _ = make_env ~hw_keys:1 () in
  let mmu = Proc.mmu proc in
  let core = Task.core main in
  let a1 = Libmpk.mpk_mmap mpk main ~vkey:1 ~len:page ~prot:Perm.rw in
  Libmpk.mpk_begin mpk main ~vkey:1 ~prot:Perm.rw;
  Mmu.write_byte mmu core ~addr:a1 'v';
  Libmpk.mpk_end mpk main ~vkey:1;
  (* group 2 steals the single key *)
  ignore (Libmpk.mpk_mmap mpk main ~vkey:2 ~len:page ~prot:Perm.rw);
  Libmpk.mpk_begin mpk main ~vkey:2 ~prot:Perm.rw;
  Libmpk.mpk_end mpk main ~vkey:2;
  (* group 1 evicted: not even begin-readable until re-attached *)
  Libmpk.mpk_begin mpk main ~vkey:1 ~prot:Perm.rw;
  Alcotest.(check char) "data intact after round trip" 'v' (Mmu.read_byte mmu core ~addr:a1);
  Mmu.write_byte mmu core ~addr:a1 'w';
  Libmpk.mpk_end mpk main ~vkey:1

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "extensions"
    [
      ( "policies",
        [
          tc "fifo evicts oldest" `Quick test_fifo_evicts_oldest;
          tc "random deterministic per seed" `Quick test_random_policy_deterministic_per_seed;
          tc "random respects pins" `Quick test_random_policy_respects_pins;
          tc "policy via init" `Quick test_policy_plumbed_through_init;
          tc "random victim order" `Quick test_random_policy_victim_order;
        ] );
      ( "hw_keys",
        [
          tc "limits cache" `Quick test_hw_keys_limits_cache;
          tc "still virtualizes" `Quick test_hw_keys_still_virtualizes;
          tc "earlier exhaustion" `Quick test_hw_keys_exhaustion_earlier;
        ] );
      ( "eager_sync",
        [
          tc "same semantics" `Quick test_eager_sync_same_semantics;
          tc "costs more" `Quick test_eager_sync_costs_more;
          tc "wakes descheduled" `Quick test_eager_sync_wakes_descheduled;
        ] );
      ( "stats",
        [
          tc "counters" `Quick test_stats_counters;
          tc "cache mirror" `Quick test_stats_cache_mirror;
          tc "pp" `Quick test_pp_stats;
        ] );
      ( "regressions",
        [
          tc "eviction preserves exec" `Quick test_eviction_preserves_exec_bit;
          qtest update_range_matches_per_page;
          qtest update_range_every_level;
          tc "update_range present only" `Quick test_update_range_counts_present_only;
          tc "update_range leaf boundaries" `Quick test_update_range_leaf_boundaries;
          tc "nested begin" `Quick test_mpk_begin_nested;
          tc "concurrent begins independent" `Quick test_begin_concurrent_threads_independent_rights;
          tc "end by non-holder rejected" `Quick test_end_by_non_holder_rejected;
          tc "xonly munmap releases reserve" `Quick test_xonly_munmap_releases_reserve;
          tc "eviction round trip" `Quick test_begin_after_eviction_restores_prot;
          tc "munmap scrubs recycled key" `Quick test_munmap_scrubs_recycled_key_rights;
        ] );
    ]
