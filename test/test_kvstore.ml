(* Tests for the Memcached case study: slab allocator, in-simulated-
   memory hash table, the four protection modes (correctness + isolation),
   and the open/closed-loop load generator. *)

open Mpk_hw
open Mpk_kernel
open Mpk_kvstore

let qtest = QCheck_alcotest.to_alcotest

(* --- Slab --- *)

let chunk s ~size =
  let a = Slab.alloc s ~size in
  if a = Slab.exhausted then Alcotest.fail "slab exhausted" else a

let test_slab_classes () =
  (* the size class serving [size]: the bytes one chunk of it takes, the
     stride between a fresh slab's first two chunks *)
  let class_of_size size =
    let s = Slab.create ~base:0 ~len:Slab.slab_bytes in
    let a = chunk s ~size in
    chunk s ~size - a
  in
  Alcotest.(check int) "1 -> 64" 64 (class_of_size 1);
  Alcotest.(check int) "64 -> 64" 64 (class_of_size 64);
  Alcotest.(check int) "65 -> 128" 128 (class_of_size 65);
  Alcotest.(check int) "1000 -> 1024" 1024 (class_of_size 1000);
  Alcotest.(check int) "max" Slab.max_chunk (class_of_size Slab.max_chunk)

let test_slab_alloc_free () =
  let s = Slab.create ~base:0x100000 ~len:(4 * Slab.slab_bytes) in
  let a = chunk s ~size:100 in
  let b = chunk s ~size:100 in
  Alcotest.(check int) "next chunk of the 128-byte class" (a + 128) b;
  Slab.free s ~addr:a;
  let c = chunk s ~size:100 in
  Alcotest.(check int) "chunk reused" a c;
  Alcotest.(check bool) "invariant" true (Slab.invariant s)

let test_slab_classes_separate_slabs () =
  (* a two-slab region holds two classes, each in a slab of its own *)
  let s = Slab.create ~base:0 ~len:(2 * Slab.slab_bytes) in
  ignore (chunk s ~size:64);
  ignore (chunk s ~size:8192);
  Alcotest.(check bool) "two slabs: a third class finds none" true
    (Slab.alloc s ~size:1024 = Slab.exhausted);
  Alcotest.(check bool) "the two classes still allocate" true
    (Slab.alloc s ~size:64 <> Slab.exhausted && Slab.alloc s ~size:8192 <> Slab.exhausted)

let test_slab_exhaustion () =
  let s = Slab.create ~base:0 ~len:Slab.slab_bytes in
  (* one slab of 64 KiB chunks: 16 fit *)
  for _ = 1 to Slab.slab_bytes / Slab.max_chunk do
    if Slab.alloc s ~size:Slab.max_chunk = Slab.exhausted then Alcotest.fail "premature exhaustion"
  done;
  Alcotest.(check int) "exhausted" Slab.exhausted (Slab.alloc s ~size:Slab.max_chunk)

let test_slab_double_free () =
  let s = Slab.create ~base:0 ~len:Slab.slab_bytes in
  let a = chunk s ~size:64 in
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
          if do_alloc || !live = [] then begin
            let a = Slab.alloc s ~size in
            if a <> Slab.exhausted then live := a :: !live
          end
          else
            match !live with
            | a :: rest ->
                Slab.free s ~addr:a;
                live := rest
            | [] -> ())
        ops;
      Slab.invariant s)

(* The list-and-Hashtbl slab allocator [Slab] replaced, kept as the
   reference for the order in which chunks are handed out: a class's
   free chunks are a stack, a fresh slab pushes its chunks so that the
   lowest address is taken first, and a freed chunk is taken next. *)
module Ref_slab = struct
  type cls = { chunk : int; mutable free : int list }

  type t = {
    base : int;
    len : int;
    mutable next_slab : int;
    classes : cls array;
    live : (int, int) Hashtbl.t;
  }

  let min_chunk = 64

  let class_count =
    let rec count c n = if c >= Slab.max_chunk then n + 1 else count (c * 2) (n + 1) in
    count min_chunk 0

  let class_index_of_size size =
    if size > Slab.max_chunk then invalid_arg "Slab: size exceeds the largest class";
    let rec scan i = if min_chunk lsl i >= size || i = class_count - 1 then i else scan (i + 1) in
    scan 0

  let create ~base ~len =
    {
      base;
      len;
      next_slab = 0;
      classes =
        Array.init class_count (fun i -> { chunk = min_chunk lsl i; free = [] });
      live = Hashtbl.create 64;
    }

  let grow t idx =
    if t.next_slab + Slab.slab_bytes > t.len then false
    else begin
      let cls = t.classes.(idx) in
      let slab_base = t.base + t.next_slab in
      t.next_slab <- t.next_slab + Slab.slab_bytes;
      for i = (Slab.slab_bytes / cls.chunk) - 1 downto 0 do
        cls.free <- (slab_base + (i * cls.chunk)) :: cls.free
      done;
      true
    end

  let alloc t ~size =
    if size <= 0 then invalid_arg "Slab.alloc: size must be positive";
    let idx = class_index_of_size size in
    let cls = t.classes.(idx) in
    if cls.free = [] then ignore (grow t idx);
    match cls.free with
    | addr :: rest ->
        cls.free <- rest;
        Hashtbl.replace t.live addr idx;
        Some addr
    | [] -> None

  let free t ~addr =
    match Hashtbl.find_opt t.live addr with
    | None -> invalid_arg "Slab.free: not an allocated chunk"
    | Some idx ->
        Hashtbl.remove t.live addr;
        let cls = t.classes.(idx) in
        cls.free <- addr :: cls.free

  let allocated_chunks t = Hashtbl.length t.live
end

type slab_op = Alloc of int | Free_live of int | Free_again of int | Free_addr of int

let slab_op_gen =
  let open QCheck.Gen in
  (* one size per class from 64 B to 64 KiB, and sizes just past a class *)
  let size =
    oneof
      [
        map (fun k -> 64 lsl k) (int_bound 10);
        map (fun k -> (64 lsl k) + 1) (int_bound 9);
        int_range 1 Slab.max_chunk;
      ]
  in
  frequency
    [
      5, map (fun s -> Alloc s) size;
      3, map (fun i -> Free_live i) nat;
      1, map (fun i -> Free_again i) nat;
      1, map (fun o -> Free_addr o) (int_range (-64) ((3 * Slab.slab_bytes) + 4096));
    ]

let slab_op_print = function
  | Alloc s -> Printf.sprintf "alloc %d" s
  | Free_live i -> Printf.sprintf "free live #%d" i
  | Free_again i -> Printf.sprintf "free freed #%d" i
  | Free_addr o -> Printf.sprintf "free base+%d" o

let slab_matches_reference =
  QCheck.Test.make ~name:"same chunks as the reference allocator" ~count:200
    (QCheck.make
       ~print:QCheck.Print.(list slab_op_print)
       QCheck.Gen.(list_size (int_range 1 400) slab_op_gen))
    (fun ops ->
      let base = 0x40000 and len = 3 * Slab.slab_bytes in
      let s = Slab.create ~base ~len and r = Ref_slab.create ~base ~len in
      let live = ref [] and freed = ref [] in
      let outcome f = match f () with () -> "ok" | exception Invalid_argument m -> m in
      let same_free addr =
        let got = outcome (fun () -> Slab.free s ~addr) in
        let want = outcome (fun () -> Ref_slab.free r ~addr) in
        if got <> want then QCheck.Test.fail_reportf "free 0x%x: %S, reference %S" addr got want;
        if got = "ok" then begin
          live := List.filter (( <> ) addr) !live;
          freed := addr :: !freed
        end
      in
      let nth l i = List.nth l (i mod List.length l) in
      List.iter
        (fun op ->
          (match op with
          | Alloc size ->
              let got = Slab.alloc s ~size in
              let want = Option.value (Ref_slab.alloc r ~size) ~default:Slab.exhausted in
              if got <> want then
                QCheck.Test.fail_reportf "alloc %d: %d, reference %d" size got want;
              if got <> Slab.exhausted then live := got :: !live
          | Free_live i -> if !live <> [] then same_free (nth !live i)
          | Free_again i -> if !freed <> [] then same_free (nth !freed i)
          | Free_addr o -> same_free (base + o));
          if List.length !live <> Ref_slab.allocated_chunks r then
            QCheck.Test.fail_reportf "after %s: chunks %d/%d" (slab_op_print op)
              (List.length !live) (Ref_slab.allocated_chunks r))
        ops;
      (* the invariant walks every free chunk and checks the byte count
         against the live chunks: once per case *)
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
  (* overwrite half: each new version unlinks its shadowed entry from
     the middle of a chain, and the rest survive the unlinking *)
  for i = 0 to n - 1 do
    if i mod 2 = 0 then
      ignore
        (Server.set srv ~worker:0 ~key:(Printf.sprintf "key%d" i) ~value:(Bytes.of_string "new")
          : (unit, _) result)
  done;
  for i = 0 to n - 1 do
    let expect = if i mod 2 = 0 then "new" else string_of_int (i * i) in
    Alcotest.(check (option string)) (Printf.sprintf "after overwrite key%d" i) (Some expect)
      (Option.map Bytes.to_string (Server.get srv ~worker:0 ~key:(Printf.sprintf "key%d" i)))
  done

let hash_model_property =
  QCheck.Test.make ~name:"shash matches Hashtbl model" ~count:30
    QCheck.(small_list (triple (int_bound 20) (string_of_size (QCheck.Gen.int_range 1 30)) (int_bound 1)))
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
          | _ ->
              let got = Option.map Bytes.to_string (Server.get srv ~worker:0 ~key) in
              got = Hashtbl.find_opt model key)
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

(* The five protection disciplines: [Sync] seals with one batched pair
   per request or with four single updates. *)
let five_modes =
  [
    "original", Server.Baseline, true;
    "mpk_begin", Server.Domain, true;
    "mpk_mprotect batched", Server.Sync, true;
    "mpk_mprotect per-update", Server.Sync, false;
    "mprotect", Server.Mprotect_sys, true;
  ]

let attacker_reads_slab srv =
  let attacker = Server.attacker_task srv in
  match
    Mmu.read_bytes (Proc.mmu (Server.proc srv)) (Task.core attacker) ~addr:(Server.slab_base srv)
      ~len:64
  with
  | exception Signal.Killed _ -> false
  | _ -> true

let audit_clean what mpk =
  match Mpk_check.Audit.run mpk with
  | [] -> ()
  | vs ->
      Alcotest.failf "%s: auditor flagged %s" what
        (String.concat "; " (List.map (Format.asprintf "%a" Mpk_check.Audit.pp_violation) vs))

(* A request that dies inside the store still seals it. The value of the
   second set takes the first chunk of a fresh slab, so its first write
   faults in a page; with frame allocation failing, that write raises
   SIGBUS and the default disposition kills the request. *)
let test_raise_mid_store_seals () =
  List.iter
    (fun (name, mode, sync_batch) ->
      let srv = Server.create ~mode ~sync_batch ~workers:2 ~slab_mib:8 ~buckets:64 () in
      let set key c = Server.set srv ~worker:0 ~key ~value:(Bytes.make 2000 c) in
      Alcotest.(check bool) (name ^ ": a small set") true
        (Server.set srv ~worker:0 ~key:"small" ~value:(Bytes.of_string "v") = Ok ());
      (match
         Mpk_faultinj.inject ~seed:0L [ ("physmem.alloc_frame", Mpk_faultinj.Once 0) ]
           (fun () -> set "big" 'b')
       with
      | exception Signal.Killed si ->
          Alcotest.(check string) (name ^ ": killed by SIGBUS") "SIGBUS"
            (List.hd (String.split_on_char ' ' (Signal.to_string si)))
      | _ -> Alcotest.failf "%s: the set survived frame exhaustion" name);
      if mode <> Server.Baseline then
        Alcotest.(check bool) (name ^ ": the slab is sealed") false (attacker_reads_slab srv);
      (match Server.mpk srv with
      | Some mpk when mode = Server.Domain ->
          audit_clean name mpk;
          List.iter
            (fun vkey ->
              match Libmpk.find_group mpk vkey with
              | Some g ->
                  Alcotest.(check int) (name ^ ": no begin pin left") 0 g.Libmpk.Group.begin_depth
              | None -> Alcotest.failf "%s: group %d missing" name vkey)
            [ Server.slab_vkey; Server.hash_vkey ]
      | _ -> ());
      Alcotest.(check bool) (name ^ ": the next set succeeds") true (set "big" 'c' = Ok ());
      Alcotest.(check (option string)) (name ^ ": and is read back") (Some (String.make 2000 'c'))
        (Option.map Bytes.to_string (Server.get srv ~worker:1 ~key:"big")))
    five_modes

let test_populate_slab () =
  let srv = Server.create ~mode:Server.Baseline ~workers:1 ~slab_mib:16 ~buckets:64 () in
  (* present PTEs across the 16 MiB slab region *)
  let resident_pages () =
    let table = Mm.page_table (Proc.mm (Server.proc srv)) in
    let start = Page_table.vpn_of_addr (Server.slab_base srv) in
    let count = ref 0 in
    for vpn = start to start + (16 * 256) - 1 do
      if Pte.is_present (Page_table.get table ~vpn) then incr count
    done;
    !count
  in
  let before = resident_pages () in
  Server.populate_slab srv ~mib:8;
  let after = resident_pages () in
  Alcotest.(check int) "8 MiB resident" (8 * 256) (after - before)

(* --- Request errors and containment --- *)

(* The planted wild read of [buggy_peek] on the sealed slab: each
   protected discipline catches its fault as [Error] and the worker
   serves its next request; Baseline has no key on the slab, and the
   read leaks. *)
let test_buggy_request_contained () =
  List.iter
    (fun (name, mode, sync_batch) ->
      let srv = Server.create ~mode ~sync_batch ~workers:2 ~slab_mib:8 ~buckets:64 () in
      Alcotest.(check bool) (name ^ ": set") true
        (Server.set srv ~worker:0 ~key:"k" ~value:(Bytes.of_string "hello") = Ok ());
      let addr = Server.slab_base srv in
      (match Server.buggy_peek srv ~worker:0 ~addr, mode with
      | Ok _, Server.Baseline -> ()
      | Ok c, _ -> Alcotest.failf "%s: the planted read leaked %C" name c
      | Error si, Server.Baseline ->
          Alcotest.failf "%s: the unprotected read faulted (%s)" name (Signal.to_string si)
      | Error si, _ ->
          let want = if mode = Server.Mprotect_sys then Signal.Segv_accerr else Signal.Segv_pkuerr in
          Alcotest.(check string) (name ^ ": fault code") (Signal.code_to_string want)
            (Signal.code_to_string si.Signal.code);
          Alcotest.(check int) (name ^ ": fault address") addr si.Signal.addr);
      Alcotest.(check (option string)) (name ^ ": the next get is served") (Some "hello")
        (Option.map Bytes.to_string (Server.get srv ~worker:0 ~key:"k")))
    five_modes

let test_set_enospc () =
  (* a full slab class surfaces as a typed ENOSPC, not an exception; the
     store keeps serving reads *)
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

(* An entry larger than the largest slab class can never be stored: the
   set is [Error EINVAL], and the store is left as it was. *)
let test_oversized_item () =
  let srv = Server.create ~mode:Server.Domain ~workers:1 ~slab_mib:8 ~buckets:64 () in
  Alcotest.(check bool) "set k" true
    (Server.set srv ~worker:0 ~key:"k" ~value:(Bytes.of_string "hello") = Ok ());
  let big = Bytes.make 70_000 'x' in
  Alcotest.(check bool) "Server.set: EINVAL" true
    (Server.set srv ~worker:0 ~key:"big" ~value:big = Error Errno.EINVAL);
  Alcotest.(check bool) "nothing stored" true (Server.get srv ~worker:0 ~key:"big" = None);
  Alcotest.(check (option string)) "k still served" (Some "hello")
    (Option.map Bytes.to_string (Server.get srv ~worker:0 ~key:"k"));
  Alcotest.(check bool) "slab untouched" true (Server.slab_invariants srv)

(* --- Allocation: a request allocates only what it returns --- *)

(* Per call, averaged over 20 calls after warm-up calls have grown the
   slab class, faulted in the chunks' pages and filled the TLB. *)
let words_per_call f =
  for _ = 1 to 3 do
    f ()
  done;
  Alloc_budget.allocated (fun () ->
      for _ = 1 to 20 do
        f ()
      done)
  /. 20.

(* In every mode, with 512-byte values: a get hit allocates its value
   (66 words) and its [Some] (2); a miss and an overwriting set
   allocate nothing. *)
let test_request_allocation () =
  List.iter
    (fun (name, mode, sync_batch) ->
      let srv = Server.create ~mode ~sync_batch ~workers:2 ~slab_mib:8 ~buckets:64 () in
      let value = Bytes.make 512 'v' in
      let check what expected f =
        Alcotest.(check (float 0.)) (Printf.sprintf "%s: %s" name what) expected (words_per_call f)
      in
      let set key = ignore (Server.set srv ~worker:0 ~key ~value : (unit, _) result) in
      List.iter set [ "k0"; "k1"; "k2" ];
      check "get hit" 68. (fun () -> ignore (Server.get srv ~worker:1 ~key:"k1" : bytes option));
      check "get miss" 0. (fun () -> ignore (Server.get srv ~worker:1 ~key:"nope" : bytes option));
      check "overwriting set" 0. (fun () -> set "k2"))
    five_modes

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

(* The load generator draws key [i] as [Server.key_name i], the name
   [prefill] stored it under: were the two to differ, every get would
   miss without any error. *)
let test_key_names () =
  List.iter
    (fun i -> Alcotest.(check string) (string_of_int i) (Printf.sprintf "key-%d" i) (Server.key_name i))
    [ 0; 9; 10; 99; 100; 4_999; 1_000_000; max_int ];
  let srv = Server.create ~mode:Server.Baseline ~workers:2 ~slab_mib:8 ~buckets:64 () in
  Server.prefill srv ~items:20 ~value_size:16;
  let r = Loadgen.run srv ~loop:(Loadgen.Closed_loop 4) ~value_size:16 ~working_set:20 ~seed:3L () in
  Alcotest.(check int) "every get hit a prefilled key" (r.Loadgen.data_bytes / 16)
    r.Loadgen.requests

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
        Alcotest.(check (option string)) ("get agrees for " ^ key) (Hashtbl.find_opt model key)
          (Option.map Bytes.to_string (Server.get srv ~worker ~key))
  done;
  (* every key ever drawn reads back as the model has it, unset ones as
     misses *)
  for k = 0 to 119 do
    let key = Printf.sprintf "key-%d" k in
    Alcotest.(check (option string)) ("get " ^ key) (Hashtbl.find_opt model key)
      (Option.map Bytes.to_string (Server.get srv ~worker:(Server.shard_of_key srv key) ~key))
  done;
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
  Alcotest.(check int) "10 requests per connection" (40 * 10) r.Loadgen.requests;
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
    Option.get
      (Scale.run ~mode:Server.Sync ~cores:[ 4 ] ~open_rates:[ 2000; 10000; 100000 ]
         ~smoke:true ())
        .Scale.open_loop
  in
  List.iter
    (fun (p : Scale.open_point) ->
      let r = p.Scale.op_result in
      let offered = float_of_int (p.Scale.op_rate * Loadgen.reqs_per_conn) in
      Alcotest.(check bool)
        (Printf.sprintf "rate=%d: %.1f req/s <= offered %.0f" p.Scale.op_rate
           r.Loadgen.throughput_rps offered)
        true
        (r.Loadgen.throughput_rps <= offered))
    sweep.Scale.os_points;
  Alcotest.(check int) "lowest rate drops nothing" 0
    (List.hd sweep.Scale.os_points).Scale.op_result.Loadgen.dropped_conns

let test_scale_ipis_are_trace_events () =
  (* Scale counts a run's IPIs as its [Sched.ipis_sent] delta: with a
     trace recording a smoke-sized measured run, that count equals the
     run's [Ipi] events, batched and per-update alike. The run emits
     more events than the rings keep, so they are counted by the
     registry's per-kind counter. *)
  let ipi_events () =
    List.find_map
      (fun m ->
        match Mpk_trace.Json.member "name" m with
        | Some (Mpk_trace.Json.String "trace_events_total{kind=\"ipi\"}") ->
            Option.bind (Mpk_trace.Json.member "value" m) Mpk_trace.Json.to_number
        | _ -> None)
      (Option.get (Mpk_trace.Json.to_list (Mpk_trace.Metrics.export_json ())))
  in
  List.iter
    (fun batch ->
      let srv =
        Server.create ~mode:Server.Sync ~workers:2 ~shards:2 ~sync_batch:batch
          ~slab_mib:16 ~buckets:4096 ()
      in
      Server.prefill srv ~items:300 ~value_size:128;
      Mpk_trace.Metrics.reset ();
      let r, _ =
        Mpk_trace.Tracer.record (fun () ->
            Loadgen.run srv ~loop:(Loadgen.Closed_loop 120) ~value_size:128
              ~working_set:500 ())
      in
      Alcotest.(check (option (float 0.)))
        (Printf.sprintf "batch=%b: Ipi events = ipis_sent delta" batch)
        (Some (float_of_int r.Loadgen.ipis))
        (ipi_events ());
      Alcotest.(check bool) "the run sent IPIs" true (r.Loadgen.ipis > 0))
    [ true; false ]

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
          qtest slab_matches_reference;
        ] );
      ( "shash",
        [
          tc "set/get" `Quick test_hash_set_get;
          tc "overwrite" `Quick test_hash_overwrite;
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
          tc "raise mid-store seals" `Quick test_raise_mid_store_seals;
        ] );
      (* Request errors and containment, under the group's earlier name
         so that the printed test names stay the same. *)
      ( "protocol",
        [
          tc "survives buggy request" `Quick test_buggy_request_contained;
          tc "ENOSPC -> SERVER_ERROR" `Quick test_set_enospc;
          tc "oversized item" `Quick test_oversized_item;
        ] );
      ( "allocation", [ tc "requests" `Quick test_request_allocation ] );
      ( "loadgen",
        [
          tc "baseline keeps up" `Quick test_loadgen_baseline_keeps_up;
          tc "mprotect drops" `Quick test_loadgen_mprotect_drops_when_populated;
          tc "mpk beats mprotect" `Quick test_loadgen_mpk_outperforms_mprotect;
          tc "key names" `Quick test_key_names;
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
          tc "IPIs are trace events" `Quick test_scale_ipis_are_trace_events;
        ] );
    ]
