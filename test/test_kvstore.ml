(* Tests for the Memcached case study: slab allocator, in-simulated-
   memory hash table, the four protection modes (correctness + isolation),
   and the open/closed-loop load generator. *)

open Mpk_hw
open Mpk_kernel
open Mpk_kvstore

let qtest = QCheck_alcotest.to_alcotest

(* --- Slab --- *)

let test_slab_classes () =
  Alcotest.(check int) "1 -> 64" 64 (Slab.class_of_size 1);
  Alcotest.(check int) "64 -> 64" 64 (Slab.class_of_size 64);
  Alcotest.(check int) "65 -> 128" 128 (Slab.class_of_size 65);
  Alcotest.(check int) "1000 -> 1024" 1024 (Slab.class_of_size 1000);
  Alcotest.(check int) "max" Slab.max_chunk (Slab.class_of_size Slab.max_chunk)

let test_slab_alloc_free () =
  let s = Slab.create ~base:0x100000 ~len:(4 * Slab.slab_bytes) in
  let a = Option.get (Slab.alloc s ~size:100) in
  let b = Option.get (Slab.alloc s ~size:100) in
  Alcotest.(check bool) "distinct" true (a <> b);
  Alcotest.(check int) "two chunks" 2 (Slab.allocated_chunks s);
  Slab.free s ~addr:a;
  Alcotest.(check int) "one chunk" 1 (Slab.allocated_chunks s);
  let c = Option.get (Slab.alloc s ~size:100) in
  Alcotest.(check int) "chunk reused" a c;
  Alcotest.(check bool) "invariant" true (Slab.invariant s)

let test_slab_classes_separate_slabs () =
  let s = Slab.create ~base:0 ~len:(4 * Slab.slab_bytes) in
  ignore (Option.get (Slab.alloc s ~size:64));
  ignore (Option.get (Slab.alloc s ~size:8192));
  Alcotest.(check int) "two slabs" 2 (Slab.slabs_in_use s)

let test_slab_exhaustion () =
  let s = Slab.create ~base:0 ~len:Slab.slab_bytes in
  (* one slab of 64 KiB chunks: 16 fit *)
  for _ = 1 to Slab.slab_bytes / Slab.max_chunk do
    match Slab.alloc s ~size:Slab.max_chunk with
    | Some _ -> ()
    | None -> Alcotest.fail "premature exhaustion"
  done;
  Alcotest.(check bool) "exhausted" true (Slab.alloc s ~size:Slab.max_chunk = None)

let test_slab_double_free () =
  let s = Slab.create ~base:0 ~len:Slab.slab_bytes in
  let a = Option.get (Slab.alloc s ~size:64) in
  Slab.free s ~addr:a;
  Alcotest.check_raises "double free" (Invalid_argument "Slab.free: not an allocated chunk")
    (fun () -> Slab.free s ~addr:a)

let slab_invariant_random =
  QCheck.Test.make ~name:"slab invariant under random ops" ~count:100
    QCheck.(small_list (pair (int_range 1 2048) bool))
    (fun ops ->
      let s = Slab.create ~base:0x1000 ~len:(8 * Slab.slab_bytes) in
      let live = ref [] in
      List.iter
        (fun (size, do_alloc) ->
          if do_alloc || !live = [] then (
            match Slab.alloc s ~size with Some a -> live := a :: !live | None -> ())
          else
            match !live with
            | a :: rest ->
                Slab.free s ~addr:a;
                live := rest
            | [] -> ())
        ops;
      Slab.invariant s)

(* --- Shash (through a plain server) --- *)

let test_hash_set_get () =
  let srv = Server.create ~mode:Server.Baseline ~workers:1 ~slab_mib:8 ~buckets:64 () in
  ignore (Server.set srv ~worker:0 ~key:"alpha" ~value:(Bytes.of_string "one") : (unit, _) result);
  ignore (Server.set srv ~worker:0 ~key:"beta" ~value:(Bytes.of_string "two") : (unit, _) result);
  Alcotest.(check (option string)) "alpha" (Some "one")
    (Option.map Bytes.to_string (Server.get srv ~worker:0 ~key:"alpha"));
  Alcotest.(check (option string)) "beta" (Some "two")
    (Option.map Bytes.to_string (Server.get srv ~worker:0 ~key:"beta"));
  Alcotest.(check (option string)) "missing" None
    (Option.map Bytes.to_string (Server.get srv ~worker:0 ~key:"gamma"))

let test_hash_overwrite () =
  let srv = Server.create ~mode:Server.Baseline ~workers:1 ~slab_mib:8 ~buckets:64 () in
  ignore (Server.set srv ~worker:0 ~key:"k" ~value:(Bytes.of_string "v1") : (unit, _) result);
  ignore (Server.set srv ~worker:0 ~key:"k" ~value:(Bytes.of_string "v2-longer") : (unit, _) result);
  Alcotest.(check (option string)) "overwritten" (Some "v2-longer")
    (Option.map Bytes.to_string (Server.get srv ~worker:0 ~key:"k"))

let test_hash_delete () =
  let srv = Server.create ~mode:Server.Baseline ~workers:1 ~slab_mib:8 ~buckets:64 () in
  ignore (Server.set srv ~worker:0 ~key:"k" ~value:(Bytes.of_string "v") : (unit, _) result);
  Alcotest.(check bool) "deleted" true (Server.delete srv ~worker:0 ~key:"k");
  Alcotest.(check bool) "gone" true (Server.get srv ~worker:0 ~key:"k" = None);
  Alcotest.(check bool) "double delete" false (Server.delete srv ~worker:0 ~key:"k")

let test_hash_collisions () =
  (* tiny bucket count forces chains *)
  let srv = Server.create ~mode:Server.Baseline ~workers:1 ~slab_mib:8 ~buckets:2 () in
  let n = 50 in
  for i = 0 to n - 1 do
    ignore
      (Server.set srv ~worker:0 ~key:(Printf.sprintf "key%d" i)
         ~value:(Bytes.of_string (string_of_int (i * i)))
        : (unit, _) result)
  done;
  for i = 0 to n - 1 do
    Alcotest.(check (option string)) (Printf.sprintf "key%d" i)
      (Some (string_of_int (i * i)))
      (Option.map Bytes.to_string (Server.get srv ~worker:0 ~key:(Printf.sprintf "key%d" i)))
  done;
  (* delete half, check the rest survive the unlinking *)
  for i = 0 to n - 1 do
    if i mod 2 = 0 then ignore (Server.delete srv ~worker:0 ~key:(Printf.sprintf "key%d" i))
  done;
  for i = 0 to n - 1 do
    let expect = if i mod 2 = 0 then None else Some (string_of_int (i * i)) in
    Alcotest.(check (option string)) (Printf.sprintf "after delete key%d" i) expect
      (Option.map Bytes.to_string (Server.get srv ~worker:0 ~key:(Printf.sprintf "key%d" i)))
  done

let hash_model_property =
  QCheck.Test.make ~name:"shash matches Hashtbl model" ~count:30
    QCheck.(small_list (triple (int_bound 20) (string_of_size (QCheck.Gen.int_range 1 30)) (int_bound 2)))
    (fun ops ->
      let srv = Server.create ~mode:Server.Baseline ~workers:1 ~slab_mib:8 ~buckets:8 () in
      let model : (string, string) Hashtbl.t = Hashtbl.create 16 in
      List.for_all
        (fun (k, v, op) ->
          let key = Printf.sprintf "k%d" k in
          match op with
          | 0 ->
              ignore (Server.set srv ~worker:0 ~key ~value:(Bytes.of_string v) : (unit, _) result);
              Hashtbl.replace model key v;
              true
          | 1 ->
              let got = Option.map Bytes.to_string (Server.get srv ~worker:0 ~key) in
              got = Hashtbl.find_opt model key
          | _ ->
              let deleted = Server.delete srv ~worker:0 ~key in
              let existed = Hashtbl.mem model key in
              Hashtbl.remove model key;
              deleted = existed)
        ops)

(* --- Protection modes --- *)

let all_modes = [ Server.Baseline; Server.Domain; Server.Sync; Server.Mprotect_sys ]

let test_all_modes_work () =
  List.iter
    (fun mode ->
      let srv = Server.create ~mode ~workers:2 ~slab_mib:8 ~buckets:64 () in
      ignore (Server.set srv ~worker:0 ~key:"k" ~value:(Bytes.of_string "v") : (unit, _) result);
      Alcotest.(check (option string)) (Server.mode_name mode) (Some "v")
        (Option.map Bytes.to_string (Server.get srv ~worker:1 ~key:"k")))
    all_modes

let test_domain_blocks_attacker () =
  let srv = Server.create ~mode:Server.Domain ~workers:2 ~slab_mib:8 ~buckets:64 () in
  ignore (Server.set srv ~worker:0 ~key:"secret" ~value:(Bytes.of_string "hunter2") : (unit, _) result);
  let attacker = Server.attacker_task srv in
  match
    Mmu.read_bytes (Proc.mmu (Server.proc srv)) (Task.core attacker)
      ~addr:(Server.slab_base srv) ~len:64
  with
  | exception Signal.Killed _ -> ()
  | _ -> Alcotest.fail "attacker read slab memory in Domain mode"

let test_sync_blocks_attacker_between_requests () =
  let srv = Server.create ~mode:Server.Sync ~workers:2 ~slab_mib:8 ~buckets:64 () in
  ignore (Server.set srv ~worker:0 ~key:"secret" ~value:(Bytes.of_string "hunter2") : (unit, _) result);
  let attacker = Server.attacker_task srv in
  match
    Mmu.read_bytes (Proc.mmu (Server.proc srv)) (Task.core attacker)
      ~addr:(Server.slab_base srv) ~len:64
  with
  | exception Signal.Killed _ -> ()
  | _ -> Alcotest.fail "attacker read slab memory in Sync mode (sealed between requests)"

let test_mprotect_blocks_attacker_between_requests () =
  let srv = Server.create ~mode:Server.Mprotect_sys ~workers:2 ~slab_mib:8 ~buckets:64 () in
  ignore (Server.set srv ~worker:0 ~key:"secret" ~value:(Bytes.of_string "hunter2") : (unit, _) result);
  let attacker = Server.attacker_task srv in
  match
    Mmu.read_bytes (Proc.mmu (Server.proc srv)) (Task.core attacker)
      ~addr:(Server.slab_base srv) ~len:64
  with
  | exception Signal.Killed _ -> ()
  | _ -> Alcotest.fail "attacker read slab memory in Mprotect mode"

let test_baseline_attacker_succeeds () =
  (* Unprotected Memcached: an arbitrary-read attacker wins (the paper's
     motivation). *)
  let srv = Server.create ~mode:Server.Baseline ~workers:1 ~slab_mib:8 ~buckets:64 () in
  ignore (Server.set srv ~worker:0 ~key:"secret" ~value:(Bytes.of_string "hunter2") : (unit, _) result);
  let attacker = Server.attacker_task srv in
  ignore
    (Mmu.read_bytes (Proc.mmu (Server.proc srv)) (Task.core attacker)
       ~addr:(Server.slab_base srv) ~len:64)

let test_populate_slab () =
  let srv = Server.create ~mode:Server.Baseline ~workers:1 ~slab_mib:16 ~buckets:64 () in
  let before = Server.resident_pages srv in
  Server.populate_slab srv ~mib:8;
  let after = Server.resident_pages srv in
  Alcotest.(check int) "8 MiB resident" (8 * 256) (after - before)

(* --- Protocol --- *)

let test_protocol_parse_set () =
  match Protocol.parse_request "set user 7 0 5\r\nhello\r\n" with
  | Ok (Protocol.Set { key; flags; exptime; data }) ->
      Alcotest.(check string) "key" "user" key;
      Alcotest.(check int) "flags" 7 flags;
      Alcotest.(check int) "exptime" 0 exptime;
      Alcotest.(check string) "data" "hello" (Bytes.to_string data)
  | Ok _ -> Alcotest.fail "wrong request"
  | Error e -> Alcotest.fail e

let test_protocol_parse_errors () =
  let bad s =
    match Protocol.parse_request s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %S" s
  in
  bad "set user 7 0 5\r\nhell\r\n";  (* short data *)
  bad "set user 7 0 5\r\nhelloworld";  (* bad terminator *)
  bad "get\r\n";
  bad "frobnicate x\r\n";
  bad "set user x 0 5\r\nhello\r\n";
  bad "no crlf"

let protocol_roundtrip =
  QCheck.Test.make ~name:"protocol request render/parse roundtrip" ~count:300
    QCheck.(
      triple (string_of_size (QCheck.Gen.int_range 1 20))
        (pair (int_bound 100) (int_bound 1000))
        (string_of_size (QCheck.Gen.int_bound 64)))
    (fun (rawkey, (flags, exptime), data) ->
      (* keys must be printable, no spaces/control chars *)
      let key =
        String.map (fun c -> if c <= ' ' || c = '\127' then 'k' else c) rawkey
      in
      let req = Protocol.Set { key; flags; exptime; data = Bytes.of_string data } in
      match Protocol.parse_request (Protocol.render_request req) with
      | Ok (Protocol.Set s) ->
          s.key = key && s.flags = flags && s.exptime = exptime
          && Bytes.to_string s.data = data
      | Ok _ | Error _ -> false)

let test_dispatch_set_get_delete () =
  let srv = Server.create ~mode:Server.Domain ~workers:1 ~slab_mib:8 ~buckets:64 () in
  let d = Server.dispatch srv ~worker:0 ~now:0.0 in
  Alcotest.(check string) "set" "STORED\r\n" (d "set k 3 0 5\r\nhello\r\n");
  Alcotest.(check string) "get" "VALUE k 3 5\r\nhello\r\nEND\r\n" (d "get k\r\n");
  Alcotest.(check string) "delete" "DELETED\r\n" (d "delete k\r\n");
  Alcotest.(check string) "get after delete" "END\r\n" (d "get k\r\n");
  Alcotest.(check string) "delete missing" "NOT_FOUND\r\n" (d "delete k\r\n");
  Alcotest.(check bool) "bad command -> SERVER_ERROR" true
    (String.length (d "bogus\r\n") > 12)

let test_dispatch_ttl () =
  let srv = Server.create ~mode:Server.Baseline ~workers:1 ~slab_mib:8 ~buckets:64 () in
  ignore (Server.dispatch srv ~worker:0 ~now:100.0 "set s 0 30 3\r\nttl\r\n");
  Alcotest.(check string) "alive before expiry" "VALUE s 0 3\r\nttl\r\nEND\r\n"
    (Server.dispatch srv ~worker:0 ~now:129.0 "get s\r\n");
  Alcotest.(check string) "expired" "END\r\n"
    (Server.dispatch srv ~worker:0 ~now:131.0 "get s\r\n");
  (* exptime 0 = never expires *)
  ignore (Server.dispatch srv ~worker:0 ~now:0.0 "set e 0 0 1\r\nx\r\n");
  Alcotest.(check string) "no expiry" "VALUE e 0 1\r\nx\r\nEND\r\n"
    (Server.dispatch srv ~worker:0 ~now:1e9 "get e\r\n")

let test_dispatch_lru_eviction () =
  (* a slab region of one 1 MiB slab: 64 KiB-class values fill it after
     16 items; further sets must evict the least-recently-used *)
  let srv = Server.create ~mode:Server.Baseline ~workers:1 ~slab_mib:1 ~buckets:64 () in
  let payload = String.make 40_000 'p' in
  for i = 0 to 19 do
    let r =
      Server.dispatch srv ~worker:0 ~now:0.0
        (Printf.sprintf "set big%d 0 0 %d\r\n%s\r\n" i (String.length payload) payload)
    in
    Alcotest.(check string) (Printf.sprintf "set %d stored" i) "STORED\r\n" r
  done;
  Alcotest.(check bool) "evictions happened" true (Server.items_evicted srv > 0);
  (* oldest items gone, newest alive *)
  Alcotest.(check string) "big0 evicted" "END\r\n"
    (Server.dispatch srv ~worker:0 ~now:0.0 "get big0\r\n");
  Alcotest.(check bool) "big19 alive" true
    (String.length (Server.dispatch srv ~worker:0 ~now:0.0 "get big19\r\n") > 10)

let test_dispatch_stats () =
  let srv = Server.create ~mode:Server.Domain ~workers:1 ~slab_mib:8 ~buckets:64 () in
  ignore (Server.dispatch srv ~worker:0 ~now:0.0 "set k 0 0 1\r\nv\r\n");
  let reply = Server.dispatch srv ~worker:0 ~now:0.0 "stats\r\n" in
  match Protocol.parse_response reply with
  | Ok (Protocol.Stats_reply kvs) ->
      Alcotest.(check (option string)) "curr_items" (Some "1") (List.assoc_opt "curr_items" kvs);
      Alcotest.(check (option string)) "mode" (Some "mpk_begin") (List.assoc_opt "mode" kvs)
  | Ok _ | Error _ -> Alcotest.fail "bad stats reply"

let test_dispatch_protected_isolation_intact () =
  (* the protocol front end must not leave the store unlocked *)
  let srv = Server.create ~mode:Server.Domain ~workers:2 ~slab_mib:8 ~buckets:64 () in
  ignore (Server.dispatch srv ~worker:0 ~now:0.0 "set k 0 0 6\r\nsecret\r\n");
  let attacker = Server.attacker_task srv in
  match
    Mmu.read_bytes (Proc.mmu (Server.proc srv)) (Task.core attacker)
      ~addr:(Server.slab_base srv) ~len:64
  with
  | exception Signal.Killed _ -> ()
  | _ -> Alcotest.fail "slab readable after a protocol request"

let test_dispatch_survives_buggy_request () =
  (* a pkey fault inside one request becomes a SERVER_ERROR response; the
     worker answers the next request as if nothing happened *)
  let srv = Server.create ~mode:Server.Domain ~workers:1 ~slab_mib:8 ~buckets:64 () in
  let d = Server.dispatch srv ~worker:0 ~now:0.0 in
  Alcotest.(check string) "set" "STORED\r\n" (d "set k 0 0 5\r\nhello\r\n");
  let reply = Server.buggy_peek srv ~worker:0 ~addr:(Server.slab_base srv) in
  Alcotest.(check bool)
    (Printf.sprintf "buggy request -> SERVER_ERROR (%S)" reply)
    true
    (String.length reply >= 12 && String.sub reply 0 12 = "SERVER_ERROR");
  Alcotest.(check string) "next request still served" "VALUE k 0 5\r\nhello\r\nEND\r\n"
    (d "get k\r\n");
  (* in Baseline there is no key on the slab: the planted bug leaks *)
  let srv = Server.create ~mode:Server.Baseline ~workers:1 ~slab_mib:8 ~buckets:64 () in
  let reply = Server.buggy_peek srv ~worker:0 ~addr:(Server.slab_base srv) in
  Alcotest.(check bool) "baseline leaks instead" true
    (String.length reply >= 5 && String.sub reply 0 5 = "VALUE")

let test_set_enospc_is_server_error () =
  (* the raw Server.set path (no LRU reclaim) surfaces slab exhaustion as
     a typed ENOSPC, not an exception; the store keeps serving reads *)
  let srv = Server.create ~mode:Server.Domain ~workers:1 ~slab_mib:1 ~buckets:64 () in
  let value = Bytes.make 60_000 'x' in  (* 64 KiB class: 16 chunks per 1 MiB slab *)
  let enospc = ref 0 in
  for i = 0 to 19 do
    match Server.set srv ~worker:0 ~key:(Printf.sprintf "k%d" i) ~value with
    | Ok () -> ()
    | Error Errno.ENOSPC -> incr enospc
    | Error e -> Alcotest.failf "expected ENOSPC, got %s" (Errno.to_string e)
  done;
  Alcotest.(check bool) "exhaustion reported as ENOSPC" true (!enospc > 0);
  Alcotest.(check bool) "earlier items still served" true
    (Server.get srv ~worker:0 ~key:"k0" <> None)

(* --- Loadgen: Fig 14's twemperf load is the open loop with uniform keys
   and no connection churn cost --- *)

let fig14_load srv ~rate ~duration_s ~max_delay_s =
  Loadgen.run srv ~loop:(Loadgen.Open_loop rate) ~duration_s ~max_delay_s ~working_set:200
    ~theta:0.0 ~conn_setup_cycles:0.0 ~seed:0xFEEDL ()

let test_loadgen_baseline_keeps_up () =
  let srv = Server.create ~mode:Server.Baseline ~workers:4 ~slab_mib:16 ~buckets:1024 () in
  Server.prefill srv ~items:200 ~value_size:512;
  let r = fig14_load srv ~rate:500 ~duration_s:0.2 ~max_delay_s:0.1 in
  Alcotest.(check int) "no drops" 0 r.Loadgen.dropped_conns;
  Alcotest.(check int) "all requests served" (r.Loadgen.handled_conns * 10) r.Loadgen.requests

let test_loadgen_mprotect_drops_when_populated () =
  (* Fig 14: with the region populated, per-request mprotect makes the
     server fall behind and drop connections; mpk_mprotect keeps up with
     the same load. *)
  let dropped mode =
    let srv = Server.create ~mode ~workers:4 ~slab_mib:16 ~buckets:1024 () in
    Server.prefill srv ~items:200 ~value_size:512;
    Server.populate_slab srv ~mib:16;
    let r = fig14_load srv ~rate:20_000 ~duration_s:0.02 ~max_delay_s:0.005 in
    (r.Loadgen.dropped_conns, r.Loadgen.offered_conns)
  in
  let d, o = dropped Server.Mprotect_sys in
  Alcotest.(check bool) (Printf.sprintf "mprotect drops connections (%d/%d)" d o) true (d > 0);
  let d, o = dropped Server.Sync in
  Alcotest.(check int) (Printf.sprintf "mpk_mprotect drops none of %d" o) 0 d

let test_loadgen_mpk_outperforms_mprotect () =
  (* Fig 14's headline: with ~1 GiB populated, mpk_mprotect beats
     mprotect by several x on achieved throughput. *)
  let throughput mode =
    let srv = Server.create ~mode ~workers:4 ~slab_mib:1024 ~buckets:1024 () in
    Server.prefill srv ~items:200 ~value_size:512;
    Server.populate_slab srv ~mib:1024;
    let r = fig14_load srv ~rate:1000 ~duration_s:0.1 ~max_delay_s:0.1 in
    float r.Loadgen.data_bytes /. (r.Loadgen.duration_s *. 1e6)
  in
  let sync = throughput Server.Sync in
  let mprotect = throughput Server.Mprotect_sys in
  Alcotest.(check bool)
    (Printf.sprintf "mpk_mprotect (%.1f MB/s) >> mprotect (%.1f MB/s), factor %.1f" sync
       mprotect (sync /. mprotect))
    true
    (sync > 4.0 *. mprotect)

(* --- sharding --- *)

let test_sharded_matches_model () =
  let srv =
    Server.create ~mode:Server.Sync ~workers:4 ~shards:4 ~slab_mib:16
      ~buckets:(1 lsl 10) ()
  in
  Alcotest.(check int) "four shards" 4 (Server.shard_count srv);
  let model = Hashtbl.create 64 in
  let prng = Mpk_util.Prng.create ~seed:7L in
  for i = 0 to 499 do
    let key = Printf.sprintf "key-%d" (Mpk_util.Prng.int prng 120) in
    let worker = Server.shard_of_key srv key in
    match Mpk_util.Prng.int prng 3 with
    | 0 | 1 -> (
        let value = Bytes.of_string (Printf.sprintf "v%d" i) in
        match Server.set srv ~worker ~key ~value with
        | Ok () -> Hashtbl.replace model key (Bytes.to_string value)
        | Error _ -> Alcotest.fail "unexpected ENOSPC")
    | _ ->
        let got = Server.delete srv ~worker ~key in
        Alcotest.(check bool) ("delete agrees for " ^ key) (Hashtbl.mem model key) got;
        Hashtbl.remove model key
  done;
  Hashtbl.iter
    (fun key v ->
      match Server.get srv ~worker:(Server.shard_of_key srv key) ~key with
      | Some b -> Alcotest.(check string) ("get " ^ key) v (Bytes.to_string b)
      | None -> Alcotest.fail ("lost key " ^ key))
    model;
  Alcotest.(check int) "entry_count sums the shards" (Hashtbl.length model)
    (Server.entry_count srv);
  Alcotest.(check bool) "every shard slab consistent" true (Server.slab_invariants srv)

let test_shard_routing_stable () =
  let srv =
    Server.create ~mode:Server.Baseline ~workers:3 ~shards:3 ~slab_mib:8
      ~buckets:(1 lsl 9) ()
  in
  let seen = Array.make 3 0 in
  for i = 0 to 299 do
    let key = Printf.sprintf "key-%d" i in
    let s = Server.shard_of_key srv key in
    Alcotest.(check bool) "in range" true (s >= 0 && s < 3);
    Alcotest.(check int) "stable" s (Server.shard_of_key srv key);
    seen.(s) <- seen.(s) + 1
  done;
  Array.iteri
    (fun s c ->
      Alcotest.(check bool) (Printf.sprintf "shard %d gets traffic" s) true (c > 0))
    seen

let test_sharded_sync_still_blocks_attacker () =
  (* Sharding carves up the arenas but not the protection: the two keys
     still seal the whole regions between requests. *)
  let srv =
    Server.create ~mode:Server.Sync ~workers:4 ~shards:4 ~slab_mib:16
      ~buckets:(1 lsl 10) ()
  in
  ignore
    (Server.set srv ~worker:0 ~key:"secret" ~value:(Bytes.of_string "hunter2")
      : (unit, _) result);
  let attacker = Server.attacker_task srv in
  match
    Mmu.read_bytes (Proc.mmu (Server.proc srv)) (Task.core attacker)
      ~addr:(Server.slab_base srv) ~len:64
  with
  | exception Signal.Killed _ -> ()
  | _ -> Alcotest.fail "attacker read slab memory through the sharded Sync server"

(* --- scale workload --- *)

let test_closed_loop_accounting () =
  let srv =
    Server.create ~mode:Server.Domain ~workers:2 ~shards:2 ~slab_mib:16
      ~buckets:(1 lsl 10) ()
  in
  Server.prefill srv ~items:100 ~value_size:128;
  let r =
    Loadgen.run srv ~loop:(Loadgen.Closed_loop 40) ~value_size:128
      ~working_set:200 ()
  in
  Alcotest.(check int) "closed loop handles every conn" 40 r.Loadgen.handled_conns;
  Alcotest.(check int) "closed loop never drops" 0 r.Loadgen.dropped_conns;
  Alcotest.(check int) "requests = conns x reqs_per_conn" (40 * 10) r.Loadgen.requests;
  Alcotest.(check int) "mix adds up" r.Loadgen.requests
    (r.Loadgen.gets + r.Loadgen.sets);
  Alcotest.(check int) "one busy counter per worker" 2
    (Array.length r.Loadgen.per_core_busy_s);
  Alcotest.(check bool) "throughput measured" true (r.Loadgen.throughput_rps > 0.0);
  Alcotest.(check bool) "p99 >= p50" true (r.Loadgen.p99_cycles >= r.Loadgen.p50_cycles)

let test_loadgen_deterministic_by_seed () =
  let go seed =
    let srv =
      Server.create ~mode:Server.Sync ~workers:2 ~shards:2 ~slab_mib:16
        ~buckets:(1 lsl 10) ()
    in
    Server.prefill srv ~items:100 ~value_size:128;
    let r =
      Loadgen.run srv ~loop:(Loadgen.Closed_loop 30) ~value_size:128
        ~working_set:200 ~seed ()
    in
    (r.Loadgen.gets, r.Loadgen.sets, r.Loadgen.p99_cycles, r.Loadgen.ipis)
  in
  Alcotest.(check bool) "same seed, same run" true (go 5L = go 5L)

let test_open_loop_within_offered_load () =
  (* An open loop is measured over at least its arrival window, so no
     rate reports more requests per second than it offered. *)
  let sweep =
    Scale.run_open ~mode:Server.Sync ~workers:4 ~rates:[ 2000; 10000; 100000 ] ~smoke:true ()
  in
  List.iter
    (fun (p : Scale.open_point) ->
      let r = p.Scale.op_result in
      let offered = float_of_int (p.Scale.op_rate * 10) in
      Alcotest.(check bool)
        (Printf.sprintf "rate=%d: %.1f req/s <= offered %.0f" p.Scale.op_rate
           r.Loadgen.throughput_rps offered)
        true
        (r.Loadgen.throughput_rps <= offered))
    sweep.Scale.os_points;
  Alcotest.(check int) "lowest rate drops nothing" 0
    (List.hd sweep.Scale.os_points).Scale.op_result.Loadgen.dropped_conns

let test_scale_report_batched_fewer_ipis () =
  Mpk_trace.Metrics.reset ();
  let report = Scale.run ~mode:Server.Sync ~cores:[ 1; 2 ] ~smoke:true () in
  Alcotest.(check (list string)) "no validation problems" [] (Scale.problems report);
  Alcotest.(check int) "one point per core count" 2 (List.length report.Scale.points);
  List.iter
    (fun (p : Scale.point) ->
      Alcotest.(check bool)
        (Printf.sprintf "cores=%d: batched (%d) < per-update (%d) Ipi events"
           p.Scale.cores p.Scale.ipi_events_batched p.Scale.ipi_events_per_update)
        true
        (p.Scale.ipi_events_batched < p.Scale.ipi_events_per_update);
      Alcotest.(check bool) "shard slabs survive the run" true p.Scale.slabs_ok;
      Alcotest.(check bool) "requests completed" true
        (p.Scale.batched.Loadgen.requests > 0))
    report.Scale.points;
  match Mpk_trace.Json.parse (Mpk_trace.Json.to_string (Scale.to_json report)) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("report JSON does not parse: " ^ e)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "mpk_kvstore"
    [
      ( "slab",
        [
          tc "classes" `Quick test_slab_classes;
          tc "alloc/free" `Quick test_slab_alloc_free;
          tc "class slabs" `Quick test_slab_classes_separate_slabs;
          tc "exhaustion" `Quick test_slab_exhaustion;
          tc "double free" `Quick test_slab_double_free;
          qtest slab_invariant_random;
        ] );
      ( "shash",
        [
          tc "set/get" `Quick test_hash_set_get;
          tc "overwrite" `Quick test_hash_overwrite;
          tc "delete" `Quick test_hash_delete;
          tc "collisions" `Quick test_hash_collisions;
          qtest hash_model_property;
        ] );
      ( "protection",
        [
          tc "all modes work" `Quick test_all_modes_work;
          tc "domain blocks attacker" `Quick test_domain_blocks_attacker;
          tc "sync blocks attacker" `Quick test_sync_blocks_attacker_between_requests;
          tc "mprotect blocks attacker" `Quick test_mprotect_blocks_attacker_between_requests;
          tc "baseline attacker succeeds" `Quick test_baseline_attacker_succeeds;
          tc "populate slab" `Quick test_populate_slab;
        ] );
      ( "protocol",
        [
          tc "parse set" `Quick test_protocol_parse_set;
          tc "parse errors" `Quick test_protocol_parse_errors;
          qtest protocol_roundtrip;
          tc "dispatch set/get/delete" `Quick test_dispatch_set_get_delete;
          tc "ttl" `Quick test_dispatch_ttl;
          tc "lru eviction" `Quick test_dispatch_lru_eviction;
          tc "stats" `Quick test_dispatch_stats;
          tc "isolation intact" `Quick test_dispatch_protected_isolation_intact;
          tc "survives buggy request" `Quick test_dispatch_survives_buggy_request;
          tc "ENOSPC -> SERVER_ERROR" `Quick test_set_enospc_is_server_error;
        ] );
      ( "loadgen",
        [
          tc "baseline keeps up" `Quick test_loadgen_baseline_keeps_up;
          tc "mprotect drops" `Quick test_loadgen_mprotect_drops_when_populated;
          tc "mpk beats mprotect" `Quick test_loadgen_mpk_outperforms_mprotect;
        ] );
      ( "sharding",
        [
          tc "matches model" `Quick test_sharded_matches_model;
          tc "routing stable" `Quick test_shard_routing_stable;
          tc "still blocks attacker" `Quick test_sharded_sync_still_blocks_attacker;
        ] );
      ( "scale",
        [
          tc "closed-loop accounting" `Quick test_closed_loop_accounting;
          tc "deterministic by seed" `Quick test_loadgen_deterministic_by_seed;
          tc "open loop within offered load" `Quick test_open_loop_within_offered_load;
          tc "batched fewer IPIs" `Quick test_scale_report_batched_fewer_ipis;
        ] );
    ]
