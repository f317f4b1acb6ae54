(* Tests for the libmpk core library: key cache, heap, metadata
   protection, and the eight APIs — including the security properties the
   paper claims (thread-local isolation, no key-use-after-free, metadata
   immune to corruption, synchronized mpk_mprotect, scalability past 16
   groups). *)

open Mpk_hw
open Mpk_kernel

let qtest = QCheck_alcotest.to_alcotest

let page = Physmem.page_size

let make_env ?(cores = 4) ?(threads = 1) ?vkeys ?(evict_rate = 1.0) () =
  let machine = Machine.create ~cores ~mem_mib:256 () in
  let proc = Proc.create machine in
  let main = Proc.spawn proc ~core_id:0 () in
  let others = List.init (threads - 1) (fun i -> Proc.spawn proc ~core_id:(i + 1) ()) in
  let mpk = Libmpk.init ?vkeys ~evict_rate proc main in
  mpk, proc, main, others

(* --- Key_cache --- *)

let keys n = List.filteri (fun i _ -> i < n) Pkey.allocatable

let test_cache_fresh_then_hit () =
  let c = Libmpk.Key_cache.create ~keys:(keys 2) () in
  (match Libmpk.Key_cache.acquire c 100 with
  | Libmpk.Key_cache.Fresh _ -> ()
  | _ -> Alcotest.fail "expected fresh");
  (match Libmpk.Key_cache.acquire c 100 with
  | Libmpk.Key_cache.Hit _ -> ()
  | _ -> Alcotest.fail "expected hit");
  Alcotest.(check int) "hits" 1 (Libmpk.Key_cache.hits c);
  Alcotest.(check int) "misses" 1 (Libmpk.Key_cache.misses c)

let test_cache_lru_eviction () =
  let c = Libmpk.Key_cache.create ~keys:(keys 2) () in
  ignore (Libmpk.Key_cache.acquire c 1);
  ignore (Libmpk.Key_cache.acquire c 2);
  ignore (Libmpk.Key_cache.acquire c 1);  (* 2 becomes LRU *)
  (match Libmpk.Key_cache.acquire c 3 with
  | Libmpk.Key_cache.Evicted { victim; _ } -> Alcotest.(check int) "victim is 2" 2 victim
  | _ -> Alcotest.fail "expected eviction");
  Alcotest.(check int) "evictions" 1 (Libmpk.Key_cache.evictions c)

let test_cache_pin_blocks_eviction () =
  let c = Libmpk.Key_cache.create ~keys:(keys 1) () in
  ignore (Libmpk.Key_cache.acquire c 1);
  Libmpk.Key_cache.pin c 1;
  (match Libmpk.Key_cache.acquire c 2 with
  | Libmpk.Key_cache.Full -> ()
  | _ -> Alcotest.fail "pinned mapping must not be evicted");
  Libmpk.Key_cache.unpin c 1;
  match Libmpk.Key_cache.acquire c 2 with
  | Libmpk.Key_cache.Evicted { victim = 1; _ } -> ()
  | _ -> Alcotest.fail "unpinned mapping should be evictable"

let test_cache_may_evict_false () =
  let c = Libmpk.Key_cache.create ~keys:(keys 1) () in
  ignore (Libmpk.Key_cache.acquire c 1);
  match Libmpk.Key_cache.acquire c ~may_evict:false 2 with
  | Libmpk.Key_cache.Full -> ()
  | _ -> Alcotest.fail "may_evict:false must not evict"

let test_cache_release () =
  let c = Libmpk.Key_cache.create ~keys:(keys 1) () in
  ignore (Libmpk.Key_cache.acquire c 1);
  Libmpk.Key_cache.release c 1;
  match Libmpk.Key_cache.acquire c 2 with
  | Libmpk.Key_cache.Fresh _ -> ()
  | _ -> Alcotest.fail "released key should be free"

let test_cache_nested_pins () =
  let c = Libmpk.Key_cache.create ~keys:(keys 1) () in
  ignore (Libmpk.Key_cache.acquire c 1);
  Libmpk.Key_cache.pin c 1;
  Libmpk.Key_cache.pin c 1;
  Libmpk.Key_cache.unpin c 1;
  Alcotest.(check int) "still pinned" 1 (Libmpk.Key_cache.pins c 1);
  Libmpk.Key_cache.unpin c 1;
  Alcotest.(check int) "unpinned" 0 (Libmpk.Key_cache.pins c 1)

let test_cache_reserve () =
  let c = Libmpk.Key_cache.create ~keys:(keys 2) () in
  ignore (Libmpk.Key_cache.acquire c 1);
  ignore (Libmpk.Key_cache.acquire c 2);
  (match Libmpk.Key_cache.reserve c with
  | Some (_, Some _victim) -> ()
  | Some (_, None) -> Alcotest.fail "expected an eviction"
  | None -> Alcotest.fail "reserve failed");
  (* The withdrawn key stays on the books as reserved: capacity is
     conserved, circulation shrinks. *)
  Alcotest.(check int) "capacity conserved" 2 (Libmpk.Key_cache.capacity c);
  Alcotest.(check int) "one key reserved" 1 (Libmpk.Key_cache.reserved_count c);
  Alcotest.(check int) "one mapping left" 1 (Libmpk.Key_cache.in_use c)

let cache_lru_property =
  QCheck.Test.make ~name:"cache never exceeds capacity; hit after acquire" ~count:300
    QCheck.(small_list (int_bound 30))
    (fun vkeys ->
      let c = Libmpk.Key_cache.create ~keys:(keys 5) () in
      List.for_all
        (fun v ->
          (match Libmpk.Key_cache.acquire c v with
          | Libmpk.Key_cache.Full -> false
          | _ -> true)
          && Libmpk.Key_cache.in_use c <= 5
          &&
          match Libmpk.Key_cache.acquire c v with
          | Libmpk.Key_cache.Hit _ -> true
          | _ -> false)
        vkeys)

(* The cache against a reference model kept here: mappings in a list,
   each with the tick of its last access and of its insertion, and the
   victim found by a plain min-by-tick scan over the unpinned ones (LRU
   by last access, FIFO by insertion). Over random sequences of acquire,
   pin, unpin and release, every result — hit, fresh key, victim and
   key, full, or a refusal — and the resulting mappings must agree. *)
module Model = struct
  type m = { vkey : int; pkey : Pkey.t; mutable stamp : int; inserted : int; mutable pins : int }

  type t = { fifo : bool; mutable clock : int; mutable free : Pkey.t list; mutable live : m list }

  let create ~fifo ~keys = { fifo; clock = 0; free = keys; live = [] }

  let tick t =
    t.clock <- t.clock + 1;
    t.clock

  let find t v = List.find_opt (fun m -> m.vkey = v) t.live

  let insert t v pkey =
    let now = tick t in
    t.live <- { vkey = v; pkey; stamp = now; inserted = now; pins = 0 } :: t.live

  let remove t v = t.live <- List.filter (fun m -> m.vkey <> v) t.live

  let victim t =
    let age m = if t.fifo then m.inserted else m.stamp in
    List.fold_left
      (fun best m ->
        if m.pins > 0 then best
        else match best with Some b when age b <= age m -> best | _ -> Some m)
      None t.live

  let acquire t ~may_evict v =
    match find t v with
    | Some m ->
        m.stamp <- tick t;
        Printf.sprintf "hit %d" (Pkey.to_int m.pkey)
    | None -> (
        match t.free with
        | k :: rest ->
            t.free <- rest;
            insert t v k;
            Printf.sprintf "fresh %d" (Pkey.to_int k)
        | [] -> (
            match if may_evict then victim t else None with
            | None -> "full"
            | Some m ->
                remove t m.vkey;
                insert t v m.pkey;
                Printf.sprintf "evicted %d from %d" (Pkey.to_int m.pkey) m.vkey))

  let pin t v =
    match find t v with
    | Some m ->
        m.pins <- m.pins + 1;
        "ok"
    | None -> "refused"

  let unpin t v =
    match find t v with
    | Some m when m.pins > 0 ->
        m.pins <- m.pins - 1;
        "ok"
    | Some _ | None -> "refused"

  let release t v =
    match find t v with
    | Some m when m.pins > 0 -> "refused"
    | Some m ->
        remove t v;
        t.free <- m.pkey :: t.free;
        "ok"
    | None -> "ok"

  let mappings t =
    List.sort compare (List.map (fun m -> (m.vkey, Pkey.to_int m.pkey, m.pins)) t.live)
end

let cache_matches_model =
  let op = QCheck.(triple (int_bound 3) (int_range (-2) 9) bool) in
  QCheck.Test.make ~name:"LRU and FIFO pick the reference scan's victims" ~count:300
    QCheck.(pair bool (list_of_size Gen.(int_range 1 80) op))
    (fun (fifo, ops) ->
      let module K = Libmpk.Key_cache in
      let keys = keys 4 in
      let c = K.create ~policy:(if fifo then K.Fifo else K.Lru) ~keys () in
      let m = Model.create ~fifo ~keys in
      let refused f = match f () with () -> "ok" | exception Invalid_argument _ -> "refused" in
      List.for_all
        (fun (kind, v, may_evict) ->
          let got, want =
            match kind with
            | 0 ->
                ( (match K.acquire c ~may_evict v with
                  | K.Hit k -> Printf.sprintf "hit %d" (Pkey.to_int k)
                  | K.Fresh k -> Printf.sprintf "fresh %d" (Pkey.to_int k)
                  | K.Evicted { pkey = k; victim } ->
                      Printf.sprintf "evicted %d from %d" (Pkey.to_int k) victim
                  | K.Full -> "full"),
                  Model.acquire m ~may_evict v )
            | 1 -> refused (fun () -> K.pin c v), Model.pin m v
            | 2 -> refused (fun () -> K.unpin c v), Model.unpin m v
            | _ -> refused (fun () -> K.release c v), Model.release m v
          in
          got = want
          && List.map (fun (v, k, pins) -> (v, Pkey.to_int k, pins)) (K.mappings c)
             = Model.mappings m)
        ops)

(* --- Mpk_heap --- *)

let test_heap_alloc_free () =
  let h = Libmpk.Mpk_heap.create ~base:0x1000 ~len:4096 in
  let a = Option.get (Libmpk.Mpk_heap.alloc h ~size:100) in
  let b = Option.get (Libmpk.Mpk_heap.alloc h ~size:100) in
  Alcotest.(check bool) "disjoint" true (abs (a - b) >= 100);
  Libmpk.Mpk_heap.free h ~addr:a;
  Libmpk.Mpk_heap.free h ~addr:b;
  Alcotest.(check int) "all free" 0 (Libmpk.Mpk_heap.allocated_bytes h);
  Alcotest.(check bool) "invariant" true (Libmpk.Mpk_heap.invariant h)

let test_heap_exhaustion () =
  let h = Libmpk.Mpk_heap.create ~base:0 ~len:64 in
  let a = Libmpk.Mpk_heap.alloc h ~size:48 in
  Alcotest.(check bool) "first fits" true (a <> None);
  Alcotest.(check bool) "second does not" true (Libmpk.Mpk_heap.alloc h ~size:48 = None)

let test_heap_double_free () =
  let h = Libmpk.Mpk_heap.create ~base:0 ~len:256 in
  let a = Option.get (Libmpk.Mpk_heap.alloc h ~size:16) in
  Libmpk.Mpk_heap.free h ~addr:a;
  Alcotest.check_raises "double free" (Invalid_argument "Mpk_heap.free: not an allocated block")
    (fun () -> Libmpk.Mpk_heap.free h ~addr:a)

let test_heap_coalescing () =
  let h = Libmpk.Mpk_heap.create ~base:0 ~len:256 in
  let a = Option.get (Libmpk.Mpk_heap.alloc h ~size:64) in
  let b = Option.get (Libmpk.Mpk_heap.alloc h ~size:64) in
  let c = Option.get (Libmpk.Mpk_heap.alloc h ~size:64) in
  ignore c;
  Libmpk.Mpk_heap.free h ~addr:a;
  Libmpk.Mpk_heap.free h ~addr:b;
  (* a and b coalesce: a 128-byte block must fit in front *)
  Alcotest.(check bool) "coalesced" true (Libmpk.Mpk_heap.alloc h ~size:128 <> None);
  Alcotest.(check bool) "invariant" true (Libmpk.Mpk_heap.invariant h)

let heap_invariant_property =
  QCheck.Test.make ~name:"heap invariant under random alloc/free" ~count:300
    QCheck.(small_list (pair (int_range 1 200) bool))
    (fun ops ->
      let h = Libmpk.Mpk_heap.create ~base:0x4000 ~len:4096 in
      let live = ref [] in
      List.iter
        (fun (size, do_alloc) ->
          if do_alloc || !live = [] then (
            match Libmpk.Mpk_heap.alloc h ~size with
            | Some a -> live := a :: !live
            | None -> ())
          else
            match !live with
            | a :: rest ->
                Libmpk.Mpk_heap.free h ~addr:a;
                live := rest
            | [] -> ())
        ops;
      Libmpk.Mpk_heap.invariant h)

let group_serialize_roundtrip =
  QCheck.Test.make ~name:"group metadata serialize/deserialize" ~count:300
    QCheck.(quad (int_bound 10000) (int_bound 0xFFFFF) (int_range 1 1000) (int_bound 7))
    (fun (vkey, base_pages, pages, p) ->
      let prot =
        Perm.make ~read:(p land 1 <> 0) ~write:(p land 2 <> 0) ~exec:(p land 4 <> 0) ()
      in
      let g = Libmpk.Group.make ~vkey ~base:(base_pages * page) ~pages ~prot in
      match Libmpk.Group.deserialize (Libmpk.Group.serialize g) with
      | Some (v, b, n, pr, pk) ->
          v = vkey && b = base_pages * page && n = pages && Perm.equal pr prot && pk = 0
      | None -> false)

(* --- init --- *)

let test_init_takes_all_keys () =
  let mpk, proc, _, _ = make_env () in
  Alcotest.(check int) "kernel bitmap full" 15
    (List.length (Pkey_bitmap.allocated (Proc.pkey_bitmap proc)));
  Alcotest.(check int) "cache capacity 15" 15 (Libmpk.Key_cache.capacity (Libmpk.cache mpk))

let test_init_evict_rate_default () =
  let rate r =
    let machine = Machine.create ~cores:2 ~mem_mib:64 () in
    let proc = Proc.create machine in
    let main = Proc.spawn proc ~core_id:0 () in
    Libmpk.evict_rate (Libmpk.init ~evict_rate:r proc main)
  in
  Alcotest.(check (float 0.)) "negative means 1.0" 1.0 (rate (-1.0));
  Alcotest.(check (float 0.)) "above 1 is clamped" 1.0 (rate 2.5);
  Alcotest.(check (float 0.)) "infinity is clamped" 1.0 (rate Float.infinity);
  Alcotest.(check (float 0.)) "in range is kept" 0.3 (rate 0.3);
  (* a NaN rate once survived the clamp and made every miss fall back *)
  Alcotest.check_raises "NaN is rejected" (Invalid_argument "Libmpk.init: evict_rate is NaN")
    (fun () -> ignore (rate Float.nan))

(* --- mpk_mmap / mpk_munmap --- *)

let test_mmap_creates_inaccessible_group () =
  let mpk, proc, main, _ = make_env () in
  let addr = Libmpk.mpk_mmap mpk main ~vkey:1 ~len:page ~prot:Perm.rw in
  (* Before mpk_begin nobody can touch the group. *)
  match Mmu.read_byte (Proc.mmu proc) (Task.core main) ~addr with
  | exception Signal.Killed { Signal.code = Signal.Segv_pkuerr; _ } -> ()
  | _ -> Alcotest.fail "group accessible before mpk_begin"

let test_mmap_duplicate_vkey_rejected () =
  let mpk, _, main, _ = make_env () in
  ignore (Libmpk.mpk_mmap mpk main ~vkey:1 ~len:page ~prot:Perm.rw);
  match Libmpk.mpk_mmap mpk main ~vkey:1 ~len:page ~prot:Perm.rw with
  | exception Errno.Error (Errno.EINVAL, _) -> ()
  | _ -> Alcotest.fail "duplicate vkey accepted"

let test_munmap_frees_everything () =
  let mpk, proc, main, _ = make_env () in
  let addr = Libmpk.mpk_mmap mpk main ~vkey:1 ~len:page ~prot:Perm.rw in
  Libmpk.mpk_munmap mpk main ~vkey:1;
  Alcotest.(check int) "group gone" 0 (Libmpk.group_count mpk);
  (match Mmu.read_byte (Proc.mmu proc) (Task.core main) ~addr with
  | exception Signal.Killed { Signal.code = Signal.Segv_maperr; _ } -> ()
  | _ -> Alcotest.fail "pages still mapped");
  (* vkey and hardware key are reusable afterwards *)
  ignore (Libmpk.mpk_mmap mpk main ~vkey:1 ~len:page ~prot:Perm.rw)

let test_munmap_missing_vkey () =
  let mpk, _, main, _ = make_env () in
  match Libmpk.mpk_munmap mpk main ~vkey:9 with
  | exception Errno.Error (Errno.ENOENT, _) -> ()
  | _ -> Alcotest.fail "expected ENOENT"

(* --- mpk_begin / mpk_end: domain isolation --- *)

let test_begin_end_basic () =
  let mpk, proc, main, _ = make_env () in
  let mmu = Proc.mmu proc in
  let core = Task.core main in
  let addr = Libmpk.mpk_mmap mpk main ~vkey:1 ~len:page ~prot:Perm.rw in
  Libmpk.mpk_begin mpk main ~vkey:1 ~prot:Perm.rw;
  Mmu.write_bytes mmu core ~addr (Bytes.of_string "secret");
  Alcotest.(check string) "read inside domain" "secret"
    (Bytes.to_string (Mmu.read_bytes mmu core ~addr ~len:6));
  Libmpk.mpk_end mpk main ~vkey:1;
  match Mmu.read_byte mmu core ~addr with
  | exception Signal.Killed { Signal.code = Signal.Segv_pkuerr; _ } -> ()
  | _ -> Alcotest.fail "accessible after mpk_end (paper Fig 5 says SEGFAULT)"

let test_begin_is_thread_local () =
  (* The core security property: another thread does NOT gain access when
     one thread opens a domain. *)
  let mpk, proc, main, others = make_env ~threads:2 () in
  let other = List.hd others in
  let addr = Libmpk.mpk_mmap mpk main ~vkey:1 ~len:page ~prot:Perm.rw in
  Libmpk.mpk_begin mpk main ~vkey:1 ~prot:Perm.rw;
  Mmu.write_byte (Proc.mmu proc) (Task.core main) ~addr 's';
  (match Mmu.read_byte (Proc.mmu proc) (Task.core other) ~addr with
  | exception Signal.Killed { Signal.code = Signal.Segv_pkuerr; _ } -> ()
  | _ -> Alcotest.fail "other thread can read an open domain");
  Libmpk.mpk_end mpk main ~vkey:1

let test_begin_read_only () =
  let mpk, proc, main, _ = make_env () in
  let addr = Libmpk.mpk_mmap mpk main ~vkey:1 ~len:page ~prot:Perm.rw in
  Libmpk.mpk_begin mpk main ~vkey:1 ~prot:Perm.r;
  ignore (Mmu.read_byte (Proc.mmu proc) (Task.core main) ~addr);
  (match Mmu.write_byte (Proc.mmu proc) (Task.core main) ~addr 'x' with
  | exception Signal.Killed { Signal.code = Signal.Segv_pkuerr; _ } -> ()
  | _ -> Alcotest.fail "read-only domain allowed a write");
  Libmpk.mpk_end mpk main ~vkey:1

let test_begin_beyond_group_prot () =
  let mpk, _, main, _ = make_env () in
  ignore (Libmpk.mpk_mmap mpk main ~vkey:1 ~len:page ~prot:Perm.r);
  match Libmpk.mpk_begin mpk main ~vkey:1 ~prot:Perm.rw with
  | exception Errno.Error (Errno.EACCES, _) -> ()
  | _ -> Alcotest.fail "begin exceeded group permission"

let test_end_without_begin () =
  let mpk, _, main, _ = make_env () in
  ignore (Libmpk.mpk_mmap mpk main ~vkey:1 ~len:page ~prot:Perm.rw);
  match Libmpk.mpk_end mpk main ~vkey:1 with
  | exception Errno.Error (Errno.EINVAL, _) -> ()
  | _ -> Alcotest.fail "mpk_end without begin accepted"

let test_key_exhaustion_exception () =
  let mpk, _, main, _ = make_env () in
  for v = 1 to 15 do
    ignore (Libmpk.mpk_mmap mpk main ~vkey:v ~len:page ~prot:Perm.rw);
    Libmpk.mpk_begin mpk main ~vkey:v ~prot:Perm.rw
  done;
  ignore (Libmpk.mpk_mmap mpk main ~vkey:16 ~len:page ~prot:Perm.rw);
  (match Libmpk.mpk_begin mpk main ~vkey:16 ~prot:Perm.rw with
  | exception Libmpk.Key_exhausted -> ()
  | _ -> Alcotest.fail "expected Key_exhausted");
  (* Ending one domain frees a key; begin now succeeds. *)
  Libmpk.mpk_end mpk main ~vkey:3;
  Libmpk.mpk_begin mpk main ~vkey:16 ~prot:Perm.rw

(* --- Scalability: more groups than hardware keys --- *)

let test_virtualization_past_16_groups () =
  let mpk, proc, main, _ = make_env () in
  let mmu = Proc.mmu proc in
  let core = Task.core main in
  let n = 40 in
  let addrs = Array.make (n + 1) 0 in
  for v = 1 to n do
    addrs.(v) <- Libmpk.mpk_mmap mpk main ~vkey:v ~len:page ~prot:Perm.rw;
    Libmpk.mpk_begin mpk main ~vkey:v ~prot:Perm.rw;
    Mmu.write_byte mmu core ~addr:addrs.(v) (Char.chr (v land 0xff));
    Libmpk.mpk_end mpk main ~vkey:v
  done;
  Alcotest.(check int) "40 groups live" n (Libmpk.group_count mpk);
  (* Every group keeps its data and its isolation, mapped or evicted. *)
  for v = 1 to n do
    (match Mmu.read_byte mmu core ~addr:addrs.(v) with
    | exception Signal.Killed _ -> ()
    | _ -> Alcotest.failf "group %d accessible outside a domain" v);
    Libmpk.mpk_begin mpk main ~vkey:v ~prot:Perm.r;
    Alcotest.(check char) "data survives eviction cycles" (Char.chr (v land 0xff))
      (Mmu.read_byte mmu core ~addr:addrs.(v));
    Libmpk.mpk_end mpk main ~vkey:v
  done

let test_no_key_use_after_free_via_libmpk () =
  (* The hazard of the raw API (see test_kernel) cannot happen through
     libmpk: recycling a hardware key scrubs rights and retags pages. *)
  let mpk, proc, main, _ = make_env () in
  let mmu = Proc.mmu proc in
  let core = Task.core main in
  (* Group 1 gets a key and an open domain... then closes. *)
  let addr1 = Libmpk.mpk_mmap mpk main ~vkey:1 ~len:page ~prot:Perm.rw in
  Libmpk.mpk_begin mpk main ~vkey:1 ~prot:Perm.rw;
  Libmpk.mpk_end mpk main ~vkey:1;
  (* Force 15 other groups through begin to evict group 1's key. *)
  for v = 2 to 16 do
    ignore (Libmpk.mpk_mmap mpk main ~vkey:v ~len:page ~prot:Perm.rw);
    Libmpk.mpk_begin mpk main ~vkey:v ~prot:Perm.rw;
    Libmpk.mpk_end mpk main ~vkey:v
  done;
  (* Group 1's pages must not have become accessible through any stale
     key/rights pair. *)
  match Mmu.read_byte mmu core ~addr:addr1 with
  | exception Signal.Killed _ -> ()
  | _ -> Alcotest.fail "evicted group readable: key-use-after-free through libmpk"

(* --- Metadata protection --- *)

let test_metadata_user_write_faults () =
  let mpk, proc, main, _ = make_env () in
  ignore (Libmpk.mpk_mmap mpk main ~vkey:1 ~len:page ~prot:Perm.rw);
  let md = Libmpk.metadata mpk in
  let addr = Libmpk.Metadata.slot_addr md ~slot:0 in
  match Mmu.write_byte (Proc.mmu proc) (Task.core main) ~addr 'X' with
  | exception Signal.Killed { Signal.code = Signal.Segv_accerr; _ } -> ()
  | _ -> Alcotest.fail "metadata writable from userspace"

(* A plain user-mode read of slot 0 through the region's read-only view,
   decoded as the auditor decodes it. *)
let read_slot0 proc main md =
  Mmu.read_bytes (Proc.mmu proc) (Task.core main)
    ~addr:(Libmpk.Metadata.slot_addr md ~slot:0)
    ~len:Libmpk.Group.metadata_bytes
  |> Libmpk.Group.deserialize

let test_metadata_user_read_ok () =
  let mpk, proc, main, _ = make_env () in
  ignore (Libmpk.mpk_mmap mpk main ~vkey:7 ~len:(2 * page) ~prot:Perm.rw);
  let md = Libmpk.metadata mpk in
  match read_slot0 proc main md with
  | Some (vkey, _, pages, prot, _) ->
      Alcotest.(check int) "vkey" 7 vkey;
      Alcotest.(check int) "pages" 2 pages;
      Alcotest.(check string) "prot" "rw-" (Perm.to_string prot)
  | None -> Alcotest.fail "slot empty"

let test_metadata_tracks_updates () =
  let mpk, proc, main, _ = make_env () in
  ignore (Libmpk.mpk_mmap mpk main ~vkey:7 ~len:page ~prot:Perm.rw);
  Libmpk.mpk_mprotect mpk main ~vkey:7 ~prot:Perm.r;
  let md = Libmpk.metadata mpk in
  match read_slot0 proc main md with
  | Some (_, _, _, prot, _) -> Alcotest.(check string) "prot updated" "r--" (Perm.to_string prot)
  | None -> Alcotest.fail "slot empty"

let test_metadata_grows () =
  let mpk, _, main, _ = make_env () in
  let md = Libmpk.metadata mpk in
  let initial = Libmpk.Metadata.capacity_slots md in
  (* Many small groups force a doubling of the metadata region. *)
  for v = 1 to initial + 1 do
    ignore (Libmpk.mpk_mmap mpk main ~vkey:v ~len:page ~prot:Perm.rw)
  done;
  Alcotest.(check bool) "capacity doubled" true
    (Libmpk.Metadata.capacity_slots md > initial);
  Alcotest.(check int) "records preserved" (initial + 1) (Libmpk.Metadata.used_slots md)

(* --- Hardcoded vkey registry --- *)

let test_registry_rejects_unknown () =
  let mpk, _, main, _ = make_env ~vkeys:[ 100; 101 ] () in
  ignore (Libmpk.mpk_mmap mpk main ~vkey:100 ~len:page ~prot:Perm.rw);
  match Libmpk.mpk_mmap mpk main ~vkey:999 ~len:page ~prot:Perm.rw with
  | exception Libmpk.Unregistered_vkey 999 -> ()
  | _ -> Alcotest.fail "unregistered vkey accepted"

let test_registry_blocks_corrupted_key_use () =
  (* Protection-key corruption: even if an attacker overwrites a vkey an
     application stored in writable memory, using the corrupted value is
     caught by the load-time-hardcoded registry. *)
  let mpk, _, main, _ = make_env ~vkeys:[ 100 ] () in
  ignore (Libmpk.mpk_mmap mpk main ~vkey:100 ~len:page ~prot:Perm.rw);
  let corrupted = 100 + 7 in
  match Libmpk.mpk_begin mpk main ~vkey:corrupted ~prot:Perm.rw with
  | exception Libmpk.Unregistered_vkey _ -> ()
  | _ -> Alcotest.fail "corrupted vkey slipped through"

(* Every vkey-keyed entry point checks the registry before it charges or
   counts anything; a registered vkey without a group fails after the
   call's user charge (15 cycles plus 15 per modelled probe) and its
   counter. *)
let test_registry_validation_order () =
  let stats = Alcotest.testable Libmpk.pp_stats ( = ) in
  let count_begin s = { s with Libmpk.begin_calls = s.Libmpk.begin_calls + 1 } in
  let count_end s = { s with Libmpk.end_calls = s.Libmpk.end_calls + 1 } in
  let count_mprotect s = { s with Libmpk.mprotect_calls = s.Libmpk.mprotect_calls + 1 } in
  let count_munmap s = { s with Libmpk.munmap_calls = s.Libmpk.munmap_calls + 1 } in
  let count_free s = { s with Libmpk.free_calls = s.Libmpk.free_calls + 1 } in
  let cases =
    [
      ("mpk_begin", (fun mpk task vkey -> Libmpk.mpk_begin mpk task ~vkey ~prot:Perm.r), 45.0,
       count_begin, Errno.ENOENT);
      ("mpk_end", (fun mpk task vkey -> Libmpk.mpk_end mpk task ~vkey), 45.0, count_end,
       Errno.ENOENT);
      ("mpk_mprotect", (fun mpk task vkey -> Libmpk.mpk_mprotect mpk task ~vkey ~prot:Perm.r),
       60.0, count_mprotect, Errno.ENOENT);
      ("mpk_munmap", (fun mpk task vkey -> Libmpk.mpk_munmap mpk task ~vkey), 60.0, count_munmap,
       Errno.ENOENT);
      ("mpk_free", (fun mpk task vkey -> Libmpk.mpk_free mpk task ~vkey ~addr:0x1234), 60.0,
       count_free, Errno.EINVAL);
      ( "mpk_mprotect_many",
        (fun mpk task vkey -> Libmpk.mpk_mprotect_many mpk task ~updates:[ (vkey, Perm.r) ]),
        60.0, count_mprotect, Errno.ENOENT );
    ]
  in
  List.iter
    (fun (name, call, cycles, counted, errno) ->
      let mpk, _, main, _ = make_env ~threads:2 ~vkeys:[ 1; 2 ] () in
      ignore (Libmpk.mpk_mmap mpk main ~vkey:1 ~len:page ~prot:Perm.rw);
      let core = Task.core main in
      let c0 = Cpu.cycles core and s0 = Libmpk.stats mpk in
      (match call mpk main 9 with
      | exception Libmpk.Unregistered_vkey 9 -> ()
      | _ -> Alcotest.fail (name ^ ": unregistered vkey accepted"));
      Alcotest.(check (float 0.)) (name ^ ": unregistered, no cycle") c0 (Cpu.cycles core);
      Alcotest.check stats (name ^ ": unregistered, no counter") s0 (Libmpk.stats mpk);
      (match call mpk main 2 with
      | exception Errno.Error (e, _) when e = errno -> ()
      | _ -> Alcotest.fail (name ^ ": registered vkey without a group accepted"));
      Alcotest.(check (float 0.)) (name ^ ": no group, the user charge") (c0 +. cycles)
        (Cpu.cycles core);
      Alcotest.check stats (name ^ ": no group, the call counted") (counted s0) (Libmpk.stats mpk))
    cases

(* --- mpk_mprotect --- *)

let test_mprotect_global_semantics () =
  (* mprotect-style: the new permission binds every thread, unlike
     mpk_begin. *)
  let mpk, proc, main, others = make_env ~threads:2 () in
  let other = List.hd others in
  let mmu = Proc.mmu proc in
  let addr = Libmpk.mpk_mmap mpk main ~vkey:1 ~len:page ~prot:Perm.rw in
  Libmpk.mpk_mprotect mpk main ~vkey:1 ~prot:Perm.rw;
  Mmu.write_byte mmu (Task.core main) ~addr 'a';
  Mmu.write_byte mmu (Task.core other) ~addr 'b';  (* both threads can write *)
  Libmpk.mpk_mprotect mpk main ~vkey:1 ~prot:Perm.r;
  ignore (Mmu.read_byte mmu (Task.core other) ~addr);
  (match Mmu.write_byte mmu (Task.core other) ~addr 'c' with
  | exception Signal.Killed _ -> ()
  | _ -> Alcotest.fail "other thread wrote after global r--");
  match Mmu.write_byte mmu (Task.core main) ~addr 'c' with
  | exception Signal.Killed _ -> ()
  | _ -> Alcotest.fail "caller wrote after global r--"

let test_mprotect_lazy_sync_descheduled () =
  let mpk, proc, main, others = make_env ~threads:2 () in
  let other = List.hd others in
  let addr = Libmpk.mpk_mmap mpk main ~vkey:1 ~len:page ~prot:Perm.rw in
  Libmpk.mpk_mprotect mpk main ~vkey:1 ~prot:Perm.rw;
  Sched.schedule_out (Proc.sched proc) other;
  Libmpk.mpk_mprotect mpk main ~vkey:1 ~prot:Perm.none;
  (* other is off-CPU; the rights update is queued and applied before it
     can run again. *)
  Sched.schedule_in (Proc.sched proc) other;
  match Mmu.read_byte (Proc.mmu proc) (Task.core other) ~addr with
  | exception Signal.Killed _ -> ()
  | _ -> Alcotest.fail "descheduled thread kept stale access"

let test_mprotect_exec_bit_change () =
  let mpk, proc, main, _ = make_env () in
  let mmu = Proc.mmu proc in
  let core = Task.core main in
  let addr = Libmpk.mpk_mmap mpk main ~vkey:1 ~len:page ~prot:Perm.rw in
  Libmpk.mpk_mprotect mpk main ~vkey:1 ~prot:Perm.rw;
  Mmu.write_bytes mmu core ~addr (Bytes.of_string "\xc3");
  (match Mmu.fetch mmu core ~addr ~len:1 with
  | exception Signal.Killed { Signal.code = Signal.Segv_accerr; _ } -> ()
  | _ -> Alcotest.fail "fetch before exec granted");
  Libmpk.mpk_mprotect mpk main ~vkey:1 ~prot:Perm.rwx;
  ignore (Mmu.fetch mmu core ~addr ~len:1)

let test_mprotect_exec_only_reserved_key () =
  let mpk, proc, main, others = make_env ~threads:2 () in
  let other = List.hd others in
  let mmu = Proc.mmu proc in
  let addr = Libmpk.mpk_mmap mpk main ~vkey:1 ~len:page ~prot:Perm.rw in
  Libmpk.mpk_mprotect mpk main ~vkey:1 ~prot:Perm.rw;
  Mmu.write_bytes mmu (Task.core main) ~addr (Bytes.of_string "\x90\xc3");
  Libmpk.mpk_mprotect mpk main ~vkey:1 ~prot:Perm.x_only;
  Alcotest.(check bool) "reserved key exists" true (Libmpk.xonly_key mpk <> None);
  (* fetch works for everyone; read works for NO ONE — unlike the raw
     kernel's unsynchronized execute-only memory. *)
  ignore (Mmu.fetch mmu (Task.core main) ~addr ~len:2);
  ignore (Mmu.fetch mmu (Task.core other) ~addr ~len:2);
  (match Mmu.read_byte mmu (Task.core main) ~addr with
  | exception Signal.Killed _ -> ()
  | _ -> Alcotest.fail "owner read exec-only");
  (match Mmu.read_byte mmu (Task.core other) ~addr with
  | exception Signal.Killed _ -> ()
  | _ -> Alcotest.fail "other thread read exec-only (the gap libmpk closes)");
  (* A second exec-only group shares the reserved key. *)
  ignore (Libmpk.mpk_mmap mpk main ~vkey:2 ~len:page ~prot:Perm.rw);
  let k_before = Libmpk.xonly_key mpk in
  Libmpk.mpk_mprotect mpk main ~vkey:2 ~prot:Perm.x_only;
  Alcotest.(check bool) "same reserved key" true (Libmpk.xonly_key mpk = k_before);
  (* Leaving exec-only returns the reserve once no group uses it. *)
  Libmpk.mpk_mprotect mpk main ~vkey:1 ~prot:Perm.rw;
  Alcotest.(check bool) "still reserved (one group left)" true (Libmpk.xonly_key mpk <> None);
  Libmpk.mpk_mprotect mpk main ~vkey:2 ~prot:Perm.rw;
  Alcotest.(check bool) "reserve released" true (Libmpk.xonly_key mpk = None)

let test_mprotect_eviction_rate_zero_falls_back () =
  (* With evict_rate = 0 a miss never evicts: it must fall back to plain
     mprotect, still giving correct global semantics. *)
  let mpk, proc, main, _ = make_env ~evict_rate:0.0 () in
  let mmu = Proc.mmu proc in
  let core = Task.core main in
  (* Fill all 15 keys. *)
  for v = 1 to 15 do
    ignore (Libmpk.mpk_mmap mpk main ~vkey:v ~len:page ~prot:Perm.rw)
  done;
  let addr16 = Libmpk.mpk_mmap mpk main ~vkey:16 ~len:page ~prot:Perm.rw in
  let ev_before = Libmpk.Key_cache.evictions (Libmpk.cache mpk) in
  Libmpk.mpk_mprotect mpk main ~vkey:16 ~prot:Perm.rw;
  Mmu.write_byte mmu core ~addr:addr16 'x';
  Libmpk.mpk_mprotect mpk main ~vkey:16 ~prot:Perm.none;
  (match Mmu.read_byte mmu core ~addr:addr16 with
  | exception Signal.Killed _ -> ()
  | _ -> Alcotest.fail "permission not enforced by fallback");
  Alcotest.(check int) "no evictions happened" ev_before
    (Libmpk.Key_cache.evictions (Libmpk.cache mpk))

let test_mprotect_during_begin_rejected () =
  let mpk, _, main, _ = make_env () in
  ignore (Libmpk.mpk_mmap mpk main ~vkey:1 ~len:page ~prot:Perm.rw);
  Libmpk.mpk_begin mpk main ~vkey:1 ~prot:Perm.rw;
  match Libmpk.mpk_mprotect mpk main ~vkey:1 ~prot:Perm.r with
  | exception Errno.Error (Errno.EINVAL, _) -> ()
  | _ -> Alcotest.fail "mpk_mprotect inside an open domain accepted"

let test_mprotect_hit_is_fast () =
  (* Fig 8 fast path: single-thread hit ≈ user bookkeeping + WRPKRU,
     an order of magnitude under mprotect's 1094 cycles. *)
  let mpk, _, main, _ = make_env ~threads:1 () in
  ignore (Libmpk.mpk_mmap mpk main ~vkey:1 ~len:page ~prot:Perm.rw);
  Libmpk.mpk_mprotect mpk main ~vkey:1 ~prot:Perm.rw;  (* warm *)
  let _, cycles =
    Cpu.measure (Task.core main) (fun () ->
        Libmpk.mpk_mprotect mpk main ~vkey:1 ~prot:Perm.r)
  in
  Alcotest.(check bool)
    (Printf.sprintf "hit cost %.1f < 150 cycles" cycles)
    true (cycles < 150.0)

(* --- mpk_mprotect_many: a run of cache hits shares one do_pkey_sync --- *)

(* The caller on core 0, on-CPU siblings on cores 1 and 2, and groups
   1-3 of two pages at rw. With [hw_keys] below 3 the last groups start
   unmapped. *)
let many_env ?(hw_keys = 15) ?vkeys () =
  let machine = Machine.create ~cores:4 ~mem_mib:64 () in
  let proc = Proc.create machine in
  let main = Proc.spawn proc ~core_id:0 () in
  let siblings = [ Proc.spawn proc ~core_id:1 (); Proc.spawn proc ~core_id:2 () ] in
  let mpk = Libmpk.init ?vkeys ~hw_keys ~evict_rate:1.0 proc main in
  List.iter
    (fun vkey -> ignore (Libmpk.mpk_mmap mpk main ~vkey ~len:(2 * page) ~prot:Perm.rw))
    [ 1; 2; 3 ];
  mpk, proc, main, siblings

(* Everything a protection change may touch: each group's state, the
   key cache's mappings, and every thread's PKRU. *)
let state mpk proc =
  List.map
    (fun (vkey, g, _) ->
      Printf.sprintf "v%d %s key:%s isolated:%b xonly:%b" vkey
        (Perm.to_string g.Libmpk.Group.prot)
        (match g.Libmpk.Group.state with
        | Libmpk.Group.Mapped k -> string_of_int (Pkey.to_int k)
        | Libmpk.Group.Unmapped -> "-")
        g.Libmpk.Group.isolated g.Libmpk.Group.xonly)
    (Libmpk.groups mpk)
  @ List.map
      (fun (vkey, pkey, pins) ->
        Printf.sprintf "cache v%d->%d pins:%d" vkey (Pkey.to_int pkey) pins)
      (Libmpk.Key_cache.mappings (Libmpk.cache mpk))
  @ List.map
      (fun t ->
        Printf.sprintf "t%d pkru:%08x pending:%d" (Task.id t) (Pkru.to_int (Task.pkru t))
          (Task.work_pending t))
      (Proc.tasks proc)

let test_mprotect_many_matches_sequential () =
  let agree name ?hw_keys updates =
    let mpk, proc, main, _ = many_env ?hw_keys () in
    Libmpk.mpk_mprotect_many mpk main ~updates;
    let batched = state mpk proc in
    Alcotest.(check int) (name ^ ": audit clean") 0 (List.length (Mpk_check.Audit.run mpk));
    let mpk, proc, main, _ = many_env ?hw_keys () in
    List.iter (fun (vkey, prot) -> Libmpk.mpk_mprotect mpk main ~vkey ~prot) updates;
    Alcotest.(check (list string)) name (state mpk proc) batched
  in
  agree "cache hits" [ (1, Perm.r); (2, Perm.rw); (1, Perm.none); (3, Perm.r) ];
  agree "exec flip and execute-only" [ (1, Perm.r); (2, Perm.rx); (3, Perm.x_only); (1, Perm.rw) ];
  agree "unmapped group" ~hw_keys:2 [ (1, Perm.r); (3, Perm.rw); (2, Perm.r) ];
  (* going execute-only releases vkey 1's key, which its deferred update
     names *)
  agree "key released mid-batch" [ (1, Perm.r); (1, Perm.x_only) ];
  (* vkey 2 takes vkey 1's only key after vkey 1's update was deferred:
     that update must reach the siblings before the key is recycled *)
  agree "key recycled mid-batch" ~hw_keys:1 [ (1, Perm.rw); (2, Perm.r); (1, Perm.r) ]

let test_mprotect_many_one_sync () =
  let mpk, proc, main, siblings = many_env () in
  let sharer = Proc.spawn proc ~core_id:1 () in
  let sleeper = Proc.spawn proc ~core_id:3 () in
  Sched.schedule_out (Proc.sched proc) sleeper;
  let sched = Proc.sched proc in
  let syscalls = Syscall.count () and ipis = Sched.ipis_sent sched in
  Libmpk.mpk_mprotect_many mpk main ~updates:[ (1, Perm.r); (2, Perm.r); (3, Perm.r) ];
  Alcotest.(check int) "one pkey_sync syscall" 1 (Syscall.count () - syscalls);
  Alcotest.(check int) "one IPI per on-CPU core" 2 (Sched.ipis_sent sched - ipis);
  let keys =
    List.map
      (fun (_, g, _) ->
        match g.Libmpk.Group.state with
        | Libmpk.Group.Mapped k -> k
        | Libmpk.Group.Unmapped -> Alcotest.fail "group unmapped")
      (Libmpk.groups mpk)
  in
  List.iter
    (fun t ->
      List.iter
        (fun k ->
          Alcotest.(check bool)
            (Printf.sprintf "t%d reads key %d" (Task.id t) (Pkey.to_int k))
            true
            (Pkru.rights (Task.pkru t) k = Pkru.Read_only))
        keys)
    (main :: sharer :: siblings);
  Alcotest.(check int) "the sleeper's updates wait for it" 3 (Task.work_pending sleeper)

let test_mprotect_many_full_path () =
  let mpk, _, main, _ = many_env ~hw_keys:2 () in
  let (), trace =
    Mpk_trace.Tracer.record (fun () ->
        Libmpk.mpk_mprotect_many mpk main
          ~updates:[ (1, Perm.r); (1, Perm.rx); (2, Perm.x_only); (3, Perm.rw); (3, Perm.r) ])
  in
  let full_calls =
    List.length
      (List.filter
         (fun e ->
           match e.Mpk_trace.Event.ev with
           | Mpk_trace.Event.Span_begin { name = "mpk_mprotect" } -> true
           | _ -> false)
         (Mpk_trace.Tracer.events trace))
  in
  Alcotest.(check int) "exec flip, execute-only and unmapped take mpk_mprotect" 3 full_calls

(* An update that raises must not skip the batch's sync: the earlier
   updates, already in the caller's PKRU and the group state, must reach
   the siblings too. *)
let test_mprotect_many_failure_syncs_applied () =
  let fails name ?vkeys ~setup updates check_exn =
    let mpk, _, main, siblings = many_env ?vkeys () in
    setup mpk main;
    (match Libmpk.mpk_mprotect_many mpk main ~updates with
    | () -> Alcotest.fail (name ^ ": expected a failure")
    | exception e -> check_exn e);
    let g = Option.get (Libmpk.find_group mpk 1) in
    let k = Option.get (Libmpk.Group.pkey g) in
    Alcotest.(check string) (name ^ ": vkey 1 updated") "rw-" (Perm.to_string g.Libmpk.Group.prot);
    Alcotest.(check bool) (name ^ ": vkey 1 no longer isolated") false g.Libmpk.Group.isolated;
    List.iter
      (fun t ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: t%d holds rw" name (Task.id t))
          true
          (Pkru.rights (Task.pkru t) k = Pkru.Read_write);
        Alcotest.(check int)
          (Printf.sprintf "%s: t%d drained" name (Task.id t))
          0 (Task.work_pending t))
      (main :: siblings)
  in
  let no_setup _ _ = () in
  fails "unknown vkey" ~setup:no_setup [ (1, Perm.rw); (4, Perm.rw) ] (function
    | Errno.Error (Errno.ENOENT, _) -> ()
    | e -> raise e);
  fails "unregistered vkey" ~vkeys:[ 1; 2; 3 ] ~setup:no_setup [ (1, Perm.rw); (9, Perm.rw) ]
    (function Libmpk.Unregistered_vkey 9 -> () | e -> raise e);
  fails "inside mpk_begin"
    ~setup:(fun mpk main -> Libmpk.mpk_begin mpk main ~vkey:2 ~prot:Perm.r)
    [ (1, Perm.rw); (2, Perm.rw) ]
    (function Errno.Error (Errno.EINVAL, _) -> () | e -> raise e)

(* One open/seal pair as a Sync kvstore worker makes it: the caller on
   core 0, on-CPU siblings on cores 1 and 2, two mapped groups. Totals
   and counts cannot see a reordered charge; the kind and core of every
   event, in order, can. *)
let test_mprotect_many_pair_trace () =
  let machine = Machine.create ~cores:3 ~mem_mib:64 () in
  let proc = Proc.create machine in
  let tasks = List.init 3 (fun core_id -> Proc.spawn proc ~core_id ()) in
  let main = List.hd tasks in
  let mpk = Libmpk.init ~vkeys:[ 200; 201 ] ~evict_rate:1.0 proc main in
  List.iter
    (fun vkey -> ignore (Libmpk.mpk_mmap mpk main ~vkey ~len:(2 * page) ~prot:Perm.rw))
    [ 200; 201 ];
  let open_ () = Libmpk.mpk_mprotect_many mpk main ~updates:[ (200, Perm.rw); (201, Perm.rw) ] in
  let seal () = Libmpk.mpk_mprotect_many mpk main ~updates:[ (201, Perm.none); (200, Perm.none) ] in
  let clocks () = List.map Cpu.cycles (Array.to_list (Machine.cores machine)) in
  let pkrus () = List.map (fun t -> Printf.sprintf "%08x" (Pkru.to_int (Task.pkru t))) tasks in
  let before = clocks () and syscalls = Syscall.count () in
  open_ ();
  Alcotest.(check (list string)) "every task's PKRU, open"
    [ "55555540"; "55555540"; "55555540" ] (pkrus ());
  seal ();
  Alcotest.(check (list (float 0.))) "each core's cycles" [ 1173.1999999999971; 900.; 900. ]
    (List.map2 ( -. ) (clocks ()) before);
  Alcotest.(check int) "one pkey_sync per call" 2 (Syscall.count () - syscalls);
  Alcotest.(check (list (triple int int int))) "IPIs per core, set-up included"
    [ (0, 8, 0); (1, 0, 4); (2, 0, 4) ]
    (Sched.ipis_per_core (Proc.sched proc));
  Alcotest.(check (list string)) "every task's PKRU, sealed"
    [ "55555554"; "55555554"; "55555554" ] (pkrus ());
  let (), trace = Mpk_trace.Tracer.record (fun () -> open_ (); seal ()) in
  let call =
    [ "span_begin@0"; "group_op@0"; "cache_hit@0"; "wrpkru@0"; "group_op@0"; "cache_hit@0";
      "wrpkru@0"; "span_begin@0"; "syscall_enter@0"; "pkey_sync_deferred@0";
      "pkey_sync_deferred@0"; "pkey_sync_deferred@0"; "pkey_sync_deferred@0"; "ipi@0";
      "pkey_sync_executed@1"; "pkey_sync_executed@1"; "ipi@0"; "pkey_sync_executed@2";
      "pkey_sync_executed@2"; "syscall_exit@0"; "span_end@0"; "span_end@0" ]
  in
  Alcotest.(check (list string)) "event kinds and cores" (call @ call)
    (List.map
       (fun e ->
         Printf.sprintf "%s@%d" (Mpk_trace.Event.kind e.Mpk_trace.Event.ev) e.Mpk_trace.Event.core)
       (Mpk_trace.Tracer.events trace))

let test_mprotect_many_allocation () =
  let words updates =
    let mpk, _, main, _ = many_env () in
    Libmpk.mpk_mprotect_many mpk main ~updates;  (* grow the task_work rings *)
    Alloc_budget.allocated (fun () -> Libmpk.mpk_mprotect_many mpk main ~updates)
  in
  Alcotest.(check (float 0.)) "1 cache hit allocates nothing" 0. (words [ (1, Perm.r) ]);
  Alcotest.(check (float 0.)) "2 cache hits allocate nothing" 0.
    (words [ (1, Perm.r); (2, Perm.r) ])

(* --- allocation budget of key virtualization: with nothing recording,
   the request paths allocate only what they return --- *)

(* [groups] domain groups of [pages] populated pages each over all 15
   keys, in a process of two threads: [main] created them, [other] is
   its sibling on a second core. *)
let churn_env ~groups ~pages =
  let machine = Machine.create ~cores:2 ~mem_mib:64 () in
  let proc = Proc.create machine in
  let main = Proc.spawn proc ~core_id:0 () in
  let other = Proc.spawn proc ~core_id:1 () in
  let mpk = Libmpk.init ~evict_rate:1.0 proc main in
  for vkey = 0 to groups - 1 do
    let addr = Libmpk.mpk_mmap mpk main ~vkey ~len:(pages * page) ~prot:Perm.rw in
    Mm.populate (Proc.mm proc) (Task.core main) ~addr ~len:(pages * page)
  done;
  mpk, main, other

(* A key-cache hit allocates nothing in [mpk_begin], [mpk_end] (nested
   or not) or [mpk_mprotect], with the other thread's PKRU synced. *)
let test_hit_allocation () =
  let mpk, main, other = churn_env ~groups:4 ~pages:8 in
  let none name f =
    f ();  (* the first calls grow the task_work rings and holder slots *)
    Alcotest.(check (float 0.)) (name ^ " allocates nothing") 0.
      (Alloc_budget.allocated (fun () -> for _ = 1 to 50 do f () done))
  in
  let hit = Libmpk.Key_cache.hits (Libmpk.cache mpk) in
  none "mpk_begin" (fun () -> Libmpk.mpk_begin mpk other ~vkey:1 ~prot:Perm.r);
  none "mpk_end" (fun () -> Libmpk.mpk_end mpk other ~vkey:1);
  none "begin and end" (fun () ->
      Libmpk.mpk_begin mpk main ~vkey:2 ~prot:Perm.rw;
      Libmpk.mpk_end mpk main ~vkey:2);
  none "mpk_mprotect" (fun () ->
      Libmpk.mpk_mprotect mpk main ~vkey:3 ~prot:Perm.r;
      Libmpk.mpk_mprotect mpk other ~vkey:3 ~prot:Perm.rw);
  let cache = Libmpk.cache mpk in
  Alcotest.(check int) "every mprotect a hit" (hit + 102) (Libmpk.Key_cache.hits cache);
  Alcotest.(check int) "no miss since the four mmaps" 4 (Libmpk.Key_cache.misses cache)

(* What an evicting miss allocates: nothing. Its [Key_cache.Evicted]
   result is the victim key's own, and the retagging syscalls, the PKRU
   scrub of the other thread and the LRU scan build nothing, so the
   count holds for any group size and any number of groups. *)
let evicting_miss_words = 0.

let test_evicting_miss_allocation () =
  let words ~groups ~pages =
    let mpk, main, other = churn_env ~groups ~pages in
    let evictions () = Libmpk.Key_cache.evictions (Libmpk.cache mpk) in
    (* Two rounds of round robin over more groups than keys, returning
       the mean words per call: under LRU every call misses and evicts.
       The first rounds grow every group's holder slots and the rings. *)
    let next = ref 0 in
    let rounds f =
      let before = evictions () and w = ref 0. in
      for _ = 1 to 2 * groups do
        let vkey = !next in
        next := (vkey + 1) mod groups;
        w := !w +. f vkey
      done;
      Alcotest.(check int) "every call evicts" (2 * groups) (evictions () - before);
      !w /. float_of_int (2 * groups)
    in
    let begin_ vkey =
      let w = Alloc_budget.allocated (fun () -> Libmpk.mpk_begin mpk other ~vkey ~prot:Perm.r) in
      Libmpk.mpk_end mpk other ~vkey;
      w
    in
    let mprotect vkey =
      let prot = if vkey land 1 = 0 then Perm.r else Perm.rw in
      Alloc_budget.allocated (fun () -> Libmpk.mpk_mprotect mpk main ~vkey ~prot)
    in
    (* groups 0..14 were mapped at creation: start past them *)
    next := 15;
    ignore (rounds begin_);
    let b = rounds begin_ in
    ignore (rounds mprotect);
    (b, rounds mprotect)
  in
  List.iter
    (fun (groups, pages) ->
      let b, m = words ~groups ~pages in
      let check what w =
        Alcotest.(check (float 0.))
          (Printf.sprintf "%d groups of %d pages: an evicting %s" groups pages what)
          evicting_miss_words w
      in
      check "mpk_begin" b;
      check "mpk_mprotect" m)
    [ (16, 8); (16, 512); (256, 8) ]

(* The whole key-virtualization path through Libmpk alone: 64 groups over
   15 keys on two threads, zipf-drawn, four begin/end pairs to every
   mpk_mprotect. An operation allocates nothing: neither its draws nor
   its evicting misses. *)
let test_churn_loop_allocation () =
  let groups = 64 in
  let mpk, main, other = churn_env ~groups ~pages:8 in
  let prng = Mpk_util.Prng.create ~seed:1L in
  let zipf = Mpk_util.Zipf.create ~theta:0.99 ~n:groups () in
  let writable = Array.make groups true in
  let op () =
    let vkey = Mpk_util.Zipf.sample zipf prng in
    let task = if Mpk_util.Prng.int prng 2 = 0 then main else other in
    if Mpk_util.Prng.int prng 5 < 4 then begin
      Libmpk.mpk_begin mpk task ~vkey ~prot:Perm.r;
      Libmpk.mpk_end mpk task ~vkey
    end
    else begin
      Libmpk.mpk_mprotect mpk task ~vkey ~prot:(if writable.(vkey) then Perm.r else Perm.rw);
      writable.(vkey) <- not writable.(vkey)
    end
  in
  for _ = 1 to 1000 do op () done;
  let ops = 4000 in
  let evictions () = Libmpk.Key_cache.evictions (Libmpk.cache mpk) in
  let before = evictions () in
  let w = Alloc_budget.allocated (fun () -> for _ = 1 to ops do op () done) /. float_of_int ops in
  let misses = float_of_int (evictions () - before) /. float_of_int ops in
  Alcotest.(check (float 0.))
    (Printf.sprintf "words per op (%.2f evicting misses per op)" misses)
    0. w;
  Alcotest.(check (list string)) "audit clean" []
    (List.map (fun v -> v.Mpk_check.Audit.message) (Mpk_check.Audit.run mpk))

(* --- mpk_malloc / mpk_free --- *)

let test_malloc_free_basic () =
  let mpk, proc, main, _ = make_env () in
  let mmu = Proc.mmu proc in
  let core = Task.core main in
  let a = Libmpk.mpk_malloc mpk main ~vkey:1 ~size:128 in
  Libmpk.mpk_begin mpk main ~vkey:1 ~prot:Perm.rw;
  Mmu.write_bytes mmu core ~addr:a (Bytes.of_string "key material");
  Alcotest.(check string) "readback" "key material"
    (Bytes.to_string (Mmu.read_bytes mmu core ~addr:a ~len:12));
  Libmpk.mpk_end mpk main ~vkey:1;
  (match Mmu.read_byte mmu core ~addr:a with
  | exception Signal.Killed _ -> ()
  | _ -> Alcotest.fail "heap block accessible outside domain");
  Libmpk.mpk_free mpk main ~vkey:1 ~addr:a

let test_malloc_distinct_blocks () =
  let mpk, _, main, _ = make_env () in
  let a = Libmpk.mpk_malloc mpk main ~vkey:1 ~size:64 in
  let b = Libmpk.mpk_malloc mpk main ~vkey:1 ~size:64 in
  Alcotest.(check bool) "disjoint" true (a <> b)

let test_malloc_enomem_on_full_heap () =
  (* a 1-page default heap: the second large block cannot fit *)
  let machine = Machine.create ~cores:2 ~mem_mib:64 () in
  let proc = Proc.create machine in
  let main = Proc.spawn proc ~core_id:0 () in
  let mpk = Libmpk.init ~default_heap_bytes:page ~evict_rate:1.0 proc main in
  ignore (Libmpk.mpk_malloc mpk main ~vkey:1 ~size:3000);
  match Libmpk.mpk_malloc mpk main ~vkey:1 ~size:3000 with
  | exception Errno.Error (Errno.ENOMEM, _) -> ()
  | _ -> Alcotest.fail "expected ENOMEM from a full group heap"

let test_malloc_respects_registry () =
  let mpk, _, main, _ = make_env ~vkeys:[ 7 ] () in
  ignore (Libmpk.mpk_malloc mpk main ~vkey:7 ~size:64);
  match Libmpk.mpk_malloc mpk main ~vkey:8 ~size:64 with
  | exception Libmpk.Unregistered_vkey 8 -> ()
  | _ -> Alcotest.fail "unregistered vkey allocated"

let test_metadata_slot_reuse_after_munmap () =
  let mpk, _, main, _ = make_env () in
  ignore (Libmpk.mpk_mmap mpk main ~vkey:1 ~len:page ~prot:Perm.rw);
  let used_before = Libmpk.Metadata.used_slots (Libmpk.metadata mpk) in
  Libmpk.mpk_munmap mpk main ~vkey:1;
  Alcotest.(check int) "slot freed" (used_before - 1)
    (Libmpk.Metadata.used_slots (Libmpk.metadata mpk));
  ignore (Libmpk.mpk_mmap mpk main ~vkey:2 ~len:page ~prot:Perm.rw);
  Alcotest.(check int) "slot reused, no growth" used_before
    (Libmpk.Metadata.used_slots (Libmpk.metadata mpk))

let test_mprotect_then_begin_interleave () =
  (* a group can move between the global and domain usage models *)
  let mpk, proc, main, others = make_env ~threads:2 () in
  let other = List.hd others in
  let mmu = Proc.mmu proc in
  let addr = Libmpk.mpk_mmap mpk main ~vkey:1 ~len:page ~prot:Perm.rw in
  (* global phase: both threads write *)
  Libmpk.mpk_mprotect mpk main ~vkey:1 ~prot:Perm.rw;
  Mmu.write_byte mmu (Task.core other) ~addr 'g';
  (* lock globally, then open a domain for main only *)
  Libmpk.mpk_mprotect mpk main ~vkey:1 ~prot:Perm.none;
  Libmpk.mpk_begin mpk main ~vkey:1 ~prot:Perm.rw;
  Mmu.write_byte mmu (Task.core main) ~addr 'd';
  (match Mmu.read_byte mmu (Task.core other) ~addr with
  | exception Signal.Killed _ -> ()
  | _ -> Alcotest.fail "other thread saw the domain");
  Libmpk.mpk_end mpk main ~vkey:1;
  (* back to global *)
  Libmpk.mpk_mprotect mpk main ~vkey:1 ~prot:Perm.r;
  Alcotest.(check char) "data flowed through both models" 'd'
    (Mmu.read_byte mmu (Task.core other) ~addr)

let test_free_without_heap () =
  let mpk, _, main, _ = make_env () in
  match Libmpk.mpk_free mpk main ~vkey:5 ~addr:0x1234 with
  | exception Errno.Error (Errno.EINVAL, _) -> ()
  | _ -> Alcotest.fail "expected EINVAL"

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "libmpk"
    [
      ( "key_cache",
        [
          tc "fresh then hit" `Quick test_cache_fresh_then_hit;
          tc "lru eviction" `Quick test_cache_lru_eviction;
          tc "pin blocks eviction" `Quick test_cache_pin_blocks_eviction;
          tc "may_evict false" `Quick test_cache_may_evict_false;
          tc "release" `Quick test_cache_release;
          tc "nested pins" `Quick test_cache_nested_pins;
          tc "reserve" `Quick test_cache_reserve;
          qtest cache_lru_property;
          qtest cache_matches_model;
        ] );
      ( "heap",
        [
          tc "alloc/free" `Quick test_heap_alloc_free;
          tc "exhaustion" `Quick test_heap_exhaustion;
          tc "double free" `Quick test_heap_double_free;
          tc "coalescing" `Quick test_heap_coalescing;
          qtest heap_invariant_property;
        ] );
      ("group", [ qtest group_serialize_roundtrip ]);
      ( "init",
        [
          tc "takes all keys" `Quick test_init_takes_all_keys;
          tc "default evict rate" `Quick test_init_evict_rate_default;
        ] );
      ( "mmap",
        [
          tc "inaccessible group" `Quick test_mmap_creates_inaccessible_group;
          tc "duplicate vkey" `Quick test_mmap_duplicate_vkey_rejected;
          tc "munmap frees" `Quick test_munmap_frees_everything;
          tc "munmap missing" `Quick test_munmap_missing_vkey;
        ] );
      ( "domain",
        [
          tc "begin/end" `Quick test_begin_end_basic;
          tc "thread local" `Quick test_begin_is_thread_local;
          tc "read-only domain" `Quick test_begin_read_only;
          tc "beyond group prot" `Quick test_begin_beyond_group_prot;
          tc "end without begin" `Quick test_end_without_begin;
          tc "key exhaustion" `Quick test_key_exhaustion_exception;
        ] );
      ( "virtualization",
        [
          tc "40 groups" `Quick test_virtualization_past_16_groups;
          tc "no key UAF via libmpk" `Quick test_no_key_use_after_free_via_libmpk;
        ] );
      ( "metadata",
        [
          tc "user write faults" `Quick test_metadata_user_write_faults;
          tc "user read ok" `Quick test_metadata_user_read_ok;
          tc "tracks updates" `Quick test_metadata_tracks_updates;
          tc "grows" `Quick test_metadata_grows;
        ] );
      ( "registry",
        [
          tc "rejects unknown" `Quick test_registry_rejects_unknown;
          tc "blocks corrupted keys" `Quick test_registry_blocks_corrupted_key_use;
          tc "validation order" `Quick test_registry_validation_order;
        ] );
      ( "mprotect",
        [
          tc "global semantics" `Quick test_mprotect_global_semantics;
          tc "lazy sync" `Quick test_mprotect_lazy_sync_descheduled;
          tc "exec bit change" `Quick test_mprotect_exec_bit_change;
          tc "exec-only reserved key" `Quick test_mprotect_exec_only_reserved_key;
          tc "evict_rate 0 fallback" `Quick test_mprotect_eviction_rate_zero_falls_back;
          tc "rejected during begin" `Quick test_mprotect_during_begin_rejected;
          tc "hit is fast" `Quick test_mprotect_hit_is_fast;
        ] );
      ( "mprotect_many",
        [
          tc "matches sequential" `Quick test_mprotect_many_matches_sequential;
          tc "one sync per batch" `Quick test_mprotect_many_one_sync;
          tc "full path" `Quick test_mprotect_many_full_path;
          tc "failure syncs what was applied" `Quick test_mprotect_many_failure_syncs_applied;
          tc "open/seal pair trace" `Quick test_mprotect_many_pair_trace;
        ] );
      ( "alloc_budget",
        [
          tc "mpk_mprotect_many hit path" `Quick test_mprotect_many_allocation;
          tc "key-cache hits" `Quick test_hit_allocation;
          tc "evicting misses" `Quick test_evicting_miss_allocation;
          tc "churn loop" `Quick test_churn_loop_allocation;
        ] );
      ( "heap_api",
        [
          tc "malloc/free" `Quick test_malloc_free_basic;
          tc "distinct blocks" `Quick test_malloc_distinct_blocks;
          tc "ENOMEM on full heap" `Quick test_malloc_enomem_on_full_heap;
          tc "malloc respects registry" `Quick test_malloc_respects_registry;
          tc "metadata slot reuse" `Quick test_metadata_slot_reuse_after_munmap;
          tc "mprotect/begin interleave" `Quick test_mprotect_then_begin_interleave;
          tc "free without heap" `Quick test_free_without_heap;
        ] );
    ]
