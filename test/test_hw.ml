(* Tests for mpk_hw: permissions, PKRU semantics, PTE encoding, page
   table, TLB, CPU pipeline model, MMU access checks (paper Fig 1). *)

open Mpk_hw

let qtest = QCheck_alcotest.to_alcotest

(* --- Perm --- *)

let test_perm_strings () =
  Alcotest.(check string) "rw" "rw-" (Perm.to_string Perm.rw);
  Alcotest.(check string) "none" "---" (Perm.to_string Perm.none);
  Alcotest.(check string) "x" "--x" (Perm.to_string Perm.x_only);
  Alcotest.(check string) "rwx" "rwx" (Perm.to_string Perm.rwx)

let test_perm_subsumes () =
  Alcotest.(check bool) "rwx >= rw" true (Perm.subsumes Perm.rwx Perm.rw);
  Alcotest.(check bool) "rw >= rwx" false (Perm.subsumes Perm.rw Perm.rwx);
  Alcotest.(check bool) "r >= none" true (Perm.subsumes Perm.r Perm.none);
  Alcotest.(check bool) "anything >= itself" true (Perm.subsumes Perm.rx Perm.rx);
  Alcotest.(check bool) "r >= x" false (Perm.subsumes Perm.r Perm.x_only)

(* --- Pkey --- *)

let test_pkey_range () =
  Alcotest.(check int) "default is 0" 0 (Pkey.to_int Pkey.default);
  Alcotest.(check int) "15 allocatable" 15 (List.length Pkey.allocatable);
  Alcotest.check_raises "16 rejected" (Invalid_argument "Pkey.of_int: 16 not in [0, 16)")
    (fun () -> ignore (Pkey.of_int 16));
  Alcotest.check_raises "-1 rejected" (Invalid_argument "Pkey.of_int: -1 not in [0, 16)")
    (fun () -> ignore (Pkey.of_int (-1)))

(* --- Pkru --- *)

let test_pkru_init_linux () =
  (* Linux boots threads with 0x55555554: key 0 rw, keys 1-15 denied. *)
  Alcotest.(check bool) "key0 rw" true (Pkru.rights Pkru.init Pkey.default = Pkru.Read_write);
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "key%d denied" (Pkey.to_int k))
        true
        (Pkru.rights Pkru.init k = Pkru.No_access))
    Pkey.allocatable

let test_pkru_set_get () =
  let k5 = Pkey.of_int 5 in
  let k7 = Pkey.of_int 7 in
  let v = Pkru.set_rights Pkru.init k5 Pkru.Read_only in
  Alcotest.(check bool) "k5 ro" true (Pkru.rights v k5 = Pkru.Read_only);
  Alcotest.(check bool) "k7 untouched" true (Pkru.rights v k7 = Pkru.No_access);
  let v = Pkru.set_rights v k5 Pkru.Read_write in
  Alcotest.(check bool) "k5 rw" true (Pkru.rights v k5 = Pkru.Read_write)

let test_pkru_allows () =
  Alcotest.(check bool) "rw allows write" true (Pkru.allows Pkru.Read_write ~write:true);
  Alcotest.(check bool) "ro blocks write" false (Pkru.allows Pkru.Read_only ~write:true);
  Alcotest.(check bool) "ro allows read" true (Pkru.allows Pkru.Read_only ~write:false);
  Alcotest.(check bool) "none blocks read" false (Pkru.allows Pkru.No_access ~write:false)

let test_pkru_rights_of_perm () =
  Alcotest.(check bool) "rw" true (Pkru.rights_of_perm Perm.rw = Pkru.Read_write);
  Alcotest.(check bool) "r" true (Pkru.rights_of_perm Perm.r = Pkru.Read_only);
  Alcotest.(check bool) "none" true (Pkru.rights_of_perm Perm.none = Pkru.No_access);
  Alcotest.(check bool) "x-only -> no data access" true
    (Pkru.rights_of_perm Perm.x_only = Pkru.No_access)

let pkru_roundtrip =
  QCheck.Test.make ~name:"pkru set/get roundtrip" ~count:500
    QCheck.(pair (int_bound 15) (int_bound 2))
    (fun (k, r) ->
      let key = Pkey.of_int k in
      let rights =
        match r with 0 -> Pkru.No_access | 1 -> Pkru.Read_only | _ -> Pkru.Read_write
      in
      let v = Pkru.set_rights Pkru.all_access key rights in
      Pkru.rights v key = rights)

let pkru_independence =
  QCheck.Test.make ~name:"pkru keys independent" ~count:500
    QCheck.(pair (int_bound 15) (int_bound 15))
    (fun (a, b) ->
      QCheck.assume (a <> b);
      let ka = Pkey.of_int a and kb = Pkey.of_int b in
      let v = Pkru.set_rights Pkru.init ka Pkru.Read_write in
      Pkru.rights v kb = Pkru.rights Pkru.init kb)

(* --- Pte --- *)

let max_frame = 0xFFFFFFFFF (* 36 bits *)

(* Every frame, permission and key, and both rewrites: keys 8-15 set
   bit 62, the sign bit of the immediate. *)
let pte_roundtrip =
  QCheck.Test.make ~name:"pte encode/decode roundtrip" ~count:1000
    QCheck.(quad (int_bound max_frame) (pair (int_bound 7) (int_bound 7))
              (int_bound 15) (int_bound 15))
    (fun (frame, (p, p'), k, k') ->
      let perm_of p =
        Perm.make ~read:(p land 1 <> 0) ~write:(p land 2 <> 0) ~exec:(p land 4 <> 0) ()
      in
      let decodes pte perm pkey =
        Pte.is_present pte
        && Pte.frame pte = frame
        && Perm.equal (Pte.perm pte) perm
        && Pkey.equal (Pte.pkey pte) pkey
      in
      let perm = perm_of p and pkey = Pkey.of_int k in
      let perm' = perm_of p' and pkey' = Pkey.of_int k' in
      let pte = Pte.make ~frame ~perm ~pkey in
      decodes pte perm pkey
      && decodes (Pte.with_perm pte perm') perm' pkey
      && decodes (Pte.with_pkey pte pkey') perm pkey')

let test_pte_absent () =
  Alcotest.(check bool) "absent not present" false (Pte.is_present Pte.absent)

let test_pte_with () =
  let pte = Pte.make ~frame:99 ~perm:Perm.rw ~pkey:(Pkey.of_int 3) in
  let pte2 = Pte.with_perm pte Perm.r in
  Alcotest.(check int) "frame preserved" 99 (Pte.frame pte2);
  Alcotest.(check int) "pkey preserved" 3 (Pkey.to_int (Pte.pkey pte2));
  Alcotest.(check string) "perm changed" "r--" (Perm.to_string (Pte.perm pte2));
  let pte3 = Pte.with_pkey pte (Pkey.of_int 11) in
  Alcotest.(check int) "pkey changed" 11 (Pkey.to_int (Pte.pkey pte3));
  Alcotest.(check string) "perm preserved" "rw-" (Perm.to_string (Pte.perm pte3))

(* --- Physmem --- *)

let test_physmem_alloc_free () =
  let m = Physmem.create ~frames:4 in
  let f1 = Physmem.alloc_frame m in
  let f2 = Physmem.alloc_frame m in
  Alcotest.(check bool) "distinct frames" true (f1 <> f2);
  Alcotest.(check int) "in use" 2 (Physmem.frames_in_use m);
  Physmem.free_frame m f1;
  Alcotest.(check int) "freed" 1 (Physmem.frames_in_use m);
  let f3 = Physmem.alloc_frame m in
  let f4 = Physmem.alloc_frame m in
  let f5 = Physmem.alloc_frame m in
  ignore (f3, f4, f5);
  Alcotest.check_raises "exhausted" Out_of_memory (fun () ->
      ignore (Physmem.alloc_frame m))

let test_physmem_zeroed_on_reuse () =
  let m = Physmem.create ~frames:2 in
  let f = Physmem.alloc_frame m in
  Physmem.write_byte m f 100 'Z';
  Physmem.free_frame m f;
  let f' = Physmem.alloc_frame m in
  Alcotest.(check char) "reused frame zeroed" '\000' (Physmem.read_byte m f' 100)

let test_physmem_bytes () =
  let m = Physmem.create ~frames:2 in
  let f = Physmem.alloc_frame m in
  Physmem.write_bytes m f 10 (Bytes.of_string "hello") 0 5;
  Alcotest.(check string) "readback" "hello" (Bytes.to_string (Physmem.read_bytes m f 10 5));
  Physmem.write_int64 m f 512 0x1122334455667788L;
  Alcotest.(check int64) "int64 readback" 0x1122334455667788L (Physmem.read_int64 m f 512)

let test_physmem_bounds () =
  let m = Physmem.create ~frames:1 in
  let f = Physmem.alloc_frame m in
  Alcotest.check_raises "off-end write"
    (Invalid_argument "Physmem: offset out of frame bounds") (fun () ->
      Physmem.write_byte m f 4096 'x')

(* --- Page_table --- *)

let test_page_table_set_get () =
  let pt = Page_table.create () in
  let pte = Pte.make ~frame:7 ~perm:Perm.rw ~pkey:Pkey.default in
  Page_table.set pt ~vpn:0x12345 pte;
  Alcotest.(check bool) "present" true (Pte.is_present (Page_table.get pt ~vpn:0x12345));
  Alcotest.(check int) "frame" 7 (Pte.frame (Page_table.get pt ~vpn:0x12345));
  Alcotest.(check bool) "absent elsewhere" false
    (Pte.is_present (Page_table.get pt ~vpn:0x12346));
  Alcotest.(check int) "mapped count" 1 (Page_table.mapped_pages pt)

let test_page_table_clear () =
  let pt = Page_table.create () in
  Page_table.set pt ~vpn:5 (Pte.make ~frame:1 ~perm:Perm.r ~pkey:Pkey.default);
  Page_table.set pt ~vpn:5 Pte.absent;
  Alcotest.(check bool) "cleared" false (Pte.is_present (Page_table.get pt ~vpn:5));
  Alcotest.(check int) "count back to zero" 0 (Page_table.mapped_pages pt)

let test_page_table_protect_range () =
  let pt = Page_table.create () in
  for v = 10 to 19 do
    Page_table.set pt ~vpn:v (Pte.make ~frame:v ~perm:Perm.rw ~pkey:Pkey.default)
  done;
  let touched =
    Page_table.update_range pt ~vpn:12 ~pages:5 (fun pte -> Pte.with_perm pte Perm.r)
  in
  Alcotest.(check int) "touched 5" 5 touched;
  Alcotest.(check string) "inside changed" "r--"
    (Perm.to_string (Pte.perm (Page_table.get pt ~vpn:14)));
  Alcotest.(check string) "outside unchanged" "rw-"
    (Perm.to_string (Pte.perm (Page_table.get pt ~vpn:10)))

let test_page_table_pkey_range () =
  let pt = Page_table.create () in
  for v = 0 to 9 do
    Page_table.set pt ~vpn:v (Pte.make ~frame:v ~perm:Perm.rw ~pkey:Pkey.default)
  done;
  let k = Pkey.of_int 9 in
  ignore (Page_table.update_range pt ~vpn:3 ~pages:4 (fun pte -> Pte.with_pkey pte k));
  Alcotest.(check int) "count with pkey" 4 (Page_table.count_with_pkey pt k);
  Alcotest.(check int) "pkey set" 9 (Pkey.to_int (Pte.pkey (Page_table.get pt ~vpn:5)))

let test_page_table_fold_order () =
  let pt = Page_table.create () in
  List.iter
    (fun v -> Page_table.set pt ~vpn:v (Pte.make ~frame:v ~perm:Perm.r ~pkey:Pkey.default))
    [ 1000; 5; 0xFFFFF; 42 ];
  let vpns = List.rev (Page_table.fold pt (fun vpn _ acc -> vpn :: acc) []) in
  Alcotest.(check (list int)) "ascending" [ 5; 42; 1000; 0xFFFFF ] vpns

let test_page_table_top_bits () =
  let pt = Page_table.create () in
  let vpn = (1 lsl 36) - 1 and k = Pkey.of_int 15 in
  let pte = Pte.make ~frame:max_frame ~perm:Perm.rw ~pkey:k in
  Alcotest.(check bool) "key 15 sets the sign bit" true ((pte :> int) < 0);
  Page_table.set pt ~vpn pte;
  Alcotest.(check int) "mapped" 1 (Page_table.mapped_pages pt);
  let n =
    Page_table.update_range pt ~vpn:(vpn - 9) ~pages:10 (fun pte -> Pte.with_perm pte Perm.r)
  in
  Alcotest.(check int) "one rewritten" 1 n;
  let want = Pte.make ~frame:max_frame ~perm:Perm.r ~pkey:k in
  Alcotest.(check bool) "perm rewritten, frame and key kept" true
    (Page_table.get pt ~vpn = want);
  Alcotest.(check bool) "fold sees it" true
    (Page_table.fold pt (fun v p acc -> (v, p) :: acc) [] = [ (vpn, want) ]);
  Alcotest.(check int) "count_with_pkey" 1 (Page_table.count_with_pkey pt k);
  Alcotest.(check int) "still mapped" 1 (Page_table.mapped_pages pt)

let page_table_model =
  QCheck.Test.make ~name:"page table matches model map" ~count:200
    QCheck.(small_list (pair (int_bound 100000) (int_bound 1)))
    (fun ops ->
      let pt = Page_table.create () in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (vpn, op) ->
          if op = 0 then begin
            let pte = Pte.make ~frame:(vpn land 0xFFFF) ~perm:Perm.rw ~pkey:Pkey.default in
            Page_table.set pt ~vpn pte;
            Hashtbl.replace model vpn ()
          end
          else begin
            Page_table.set pt ~vpn Pte.absent;
            Hashtbl.remove model vpn
          end)
        ops;
      Page_table.mapped_pages pt = Hashtbl.length model
      && Hashtbl.fold
           (fun vpn () acc -> acc && Pte.is_present (Page_table.get pt ~vpn))
           model true)

(* --- Tlb --- *)

let mk_pte frame = Pte.make ~frame ~perm:Perm.rw ~pkey:Pkey.default

let test_tlb_hit_miss () =
  let tlb = Tlb.create ~sets:4 ~ways:2 () in
  Alcotest.(check bool) "cold miss" true (Tlb.lookup tlb ~vpn:1 = None);
  Tlb.insert tlb ~vpn:1 (mk_pte 10);
  (match Tlb.lookup tlb ~vpn:1 with
  | Some pte -> Alcotest.(check int) "hit frame" 10 (Pte.frame pte)
  | None -> Alcotest.fail "expected hit");
  Alcotest.(check int) "one hit" 1 (Tlb.hits tlb);
  Alcotest.(check int) "one miss" 1 (Tlb.misses tlb)

let test_tlb_flush_all () =
  let tlb = Tlb.create ~sets:4 ~ways:2 () in
  Tlb.insert tlb ~vpn:1 (mk_pte 1);
  Tlb.insert tlb ~vpn:2 (mk_pte 2);
  Tlb.flush_all tlb;
  Alcotest.(check bool) "gone" true (Tlb.lookup tlb ~vpn:1 = None);
  Alcotest.(check bool) "gone too" true (Tlb.lookup tlb ~vpn:2 = None);
  Alcotest.(check int) "flush counted" 1 (Tlb.flushes tlb)

let test_tlb_flush_page () =
  let tlb = Tlb.create ~sets:4 ~ways:2 () in
  Tlb.insert tlb ~vpn:1 (mk_pte 1);
  Tlb.insert tlb ~vpn:2 (mk_pte 2);
  Tlb.flush_page tlb ~vpn:1;
  Alcotest.(check bool) "flushed page gone" true (Tlb.lookup tlb ~vpn:1 = None);
  Alcotest.(check bool) "other survives" true (Tlb.lookup tlb ~vpn:2 <> None)

let test_tlb_lru_eviction () =
  let tlb = Tlb.create ~sets:1 ~ways:2 () in
  Tlb.insert tlb ~vpn:1 (mk_pte 1);
  Tlb.insert tlb ~vpn:2 (mk_pte 2);
  ignore (Tlb.lookup tlb ~vpn:1);  (* make 2 the LRU *)
  Tlb.insert tlb ~vpn:3 (mk_pte 3);
  Alcotest.(check bool) "1 survives (recently used)" true (Tlb.lookup tlb ~vpn:1 <> None);
  Alcotest.(check bool) "2 evicted" true (Tlb.lookup tlb ~vpn:2 = None)

let test_tlb_update_in_place () =
  let tlb = Tlb.create ~sets:1 ~ways:2 () in
  Tlb.insert tlb ~vpn:1 (mk_pte 1);
  Tlb.insert tlb ~vpn:1 (mk_pte 99);
  match Tlb.lookup tlb ~vpn:1 with
  | Some pte -> Alcotest.(check int) "updated" 99 (Pte.frame pte)
  | None -> Alcotest.fail "expected hit"

(* --- Cpu / pipeline (paper Fig 2 + Table 1) --- *)

let test_cpu_wrpkru_cost () =
  let cpu = Cpu.create ~id:0 () in
  let (), cycles = Cpu.measure cpu (fun () -> Cpu.wrpkru cpu Pkru.all_access) in
  Alcotest.(check (float 1e-9)) "wrpkru = 23.3" 23.3 cycles

let test_cpu_rdpkru_cost () =
  let cpu = Cpu.create ~id:0 () in
  let _, cycles = Cpu.measure cpu (fun () -> Cpu.rdpkru cpu) in
  Alcotest.(check (float 1e-9)) "rdpkru = 0.5" 0.5 cycles

let test_cpu_wrpkru_sets_value () =
  let cpu = Cpu.create ~id:0 () in
  Cpu.wrpkru cpu (Pkru.of_int 0xABCD);
  Alcotest.(check int) "pkru value" 0xABCD (Pkru.to_int (Cpu.pkru cpu))

let test_fig2_adds_after_slower () =
  (* W1: adds then WRPKRU; W2: WRPKRU then adds. W2 must be slower for
     every n > 0 (post-serialization refill), the paper's Fig 2 shape. *)
  let run_w1 n =
    let cpu = Cpu.create ~id:0 () in
    snd
      (Cpu.measure cpu (fun () ->
           Cpu.exec_adds cpu n;
           Cpu.wrpkru cpu Pkru.all_access))
  in
  let run_w2 n =
    let cpu = Cpu.create ~id:0 () in
    snd
      (Cpu.measure cpu (fun () ->
           Cpu.wrpkru cpu Pkru.all_access;
           Cpu.exec_adds cpu n))
  in
  List.iter
    (fun n ->
      let w1 = run_w1 n and w2 = run_w2 n in
      Alcotest.(check bool) (Printf.sprintf "W2 > W1 at n=%d" n) true (w2 > w1))
    [ 1; 2; 4; 8; 16; 32 ];
  (* The gap saturates once n exceeds the refill window. *)
  let gap n = run_w2 n -. run_w1 n in
  Alcotest.(check (float 1e-9)) "gap saturates" (gap 16) (gap 32)

let test_cpu_measure_isolated () =
  let cpu = Cpu.create ~id:0 () in
  Cpu.charge cpu 100.0;
  let _, c = Cpu.measure cpu (fun () -> Cpu.charge cpu 5.0) in
  Alcotest.(check (float 1e-9)) "only inner charge" 5.0 c;
  Alcotest.(check (float 1e-9)) "total" 105.0 (Cpu.cycles cpu)

(* --- Mmu (paper Fig 1 permission intersection) --- *)

let make_mmu () =
  let mem = Physmem.create ~frames:64 in
  let pt = Page_table.create () in
  let mmu = Mmu.create pt mem in
  let cpu = Cpu.create ~id:0 () in
  let map ~vpn ~perm ~pkey =
    let frame = Physmem.alloc_frame mem in
    Page_table.set pt ~vpn (Pte.make ~frame ~perm ~pkey)
  in
  mmu, cpu, map

let addr_of vpn = vpn * Physmem.page_size

let test_mmu_read_write () =
  let mmu, cpu, map = make_mmu () in
  map ~vpn:1 ~perm:Perm.rw ~pkey:Pkey.default;
  Mmu.write_byte mmu cpu ~addr:(addr_of 1 + 5) 'A';
  Alcotest.(check char) "readback" 'A' (Mmu.read_byte mmu cpu ~addr:(addr_of 1 + 5))

let expect_fault name cause f =
  match f () with
  | exception Mmu.Fault fault ->
      Alcotest.(check string) name (Mmu.cause_to_string cause)
        (Mmu.cause_to_string fault.Mmu.cause)
  | _ -> Alcotest.fail (name ^ ": expected fault")

let test_mmu_not_present () =
  let mmu, cpu, _ = make_mmu () in
  expect_fault "unmapped read" Mmu.Not_present (fun () ->
      Mmu.read_byte mmu cpu ~addr:(addr_of 9))

let test_mmu_page_perm () =
  let mmu, cpu, map = make_mmu () in
  map ~vpn:1 ~perm:Perm.r ~pkey:Pkey.default;
  ignore (Mmu.read_byte mmu cpu ~addr:(addr_of 1));
  expect_fault "write to read-only page" Mmu.Page_perm (fun () ->
      Mmu.write_byte mmu cpu ~addr:(addr_of 1) 'x')

let test_mmu_pkey_denied () =
  let mmu, cpu, map = make_mmu () in
  let k = Pkey.of_int 4 in
  map ~vpn:1 ~perm:Perm.rw ~pkey:k;
  (* init PKRU denies keys 1-15 *)
  expect_fault "pkey denies read" Mmu.Pkey_denied (fun () ->
      Mmu.read_byte mmu cpu ~addr:(addr_of 1));
  (* grant read-only *)
  Cpu.wrpkru cpu (Pkru.set_rights (Cpu.pkru cpu) k Pkru.Read_only);
  ignore (Mmu.read_byte mmu cpu ~addr:(addr_of 1));
  expect_fault "pkey denies write" Mmu.Pkey_denied (fun () ->
      Mmu.write_byte mmu cpu ~addr:(addr_of 1) 'x');
  (* grant rw *)
  Cpu.wrpkru cpu (Pkru.set_rights (Cpu.pkru cpu) k Pkru.Read_write);
  Mmu.write_byte mmu cpu ~addr:(addr_of 1) 'x'

let test_mmu_fetch_ignores_pkru () =
  (* Execute-only memory: page rx with a denied key. Fetch must succeed,
     read must fault — exactly Fig 1's "instruction fetch is independent
     of the PKRU". *)
  let mmu, cpu, map = make_mmu () in
  let k = Pkey.of_int 4 in
  map ~vpn:1 ~perm:Perm.rx ~pkey:k;
  ignore (Mmu.fetch mmu cpu ~addr:(addr_of 1) ~len:16);
  expect_fault "read denied" Mmu.Pkey_denied (fun () ->
      Mmu.read_byte mmu cpu ~addr:(addr_of 1))

let test_mmu_fetch_needs_exec () =
  let mmu, cpu, map = make_mmu () in
  map ~vpn:1 ~perm:Perm.rw ~pkey:Pkey.default;
  expect_fault "fetch from non-exec" Mmu.Page_perm (fun () ->
      ignore (Mmu.fetch mmu cpu ~addr:(addr_of 1) ~len:4))

let test_mmu_cross_page () =
  let mmu, cpu, map = make_mmu () in
  map ~vpn:1 ~perm:Perm.rw ~pkey:Pkey.default;
  map ~vpn:2 ~perm:Perm.rw ~pkey:Pkey.default;
  let addr = addr_of 2 - 3 in
  Mmu.write_bytes mmu cpu ~addr (Bytes.of_string "abcdef");
  Alcotest.(check string) "cross-page readback" "abcdef"
    (Bytes.to_string (Mmu.read_bytes mmu cpu ~addr ~len:6))

let test_mmu_cross_page_partial_fault () =
  let mmu, cpu, map = make_mmu () in
  map ~vpn:1 ~perm:Perm.rw ~pkey:Pkey.default;
  (* vpn 2 unmapped: the crossing write must fault *)
  expect_fault "second page missing" Mmu.Not_present (fun () ->
      Mmu.write_bytes mmu cpu ~addr:(addr_of 2 - 3) (Bytes.of_string "abcdef"))

let test_mmu_tlb_charges () =
  let mmu, cpu, map = make_mmu () in
  map ~vpn:1 ~perm:Perm.rw ~pkey:Pkey.default;
  let costs = Cpu.costs cpu in
  let _, first = Cpu.measure cpu (fun () -> Mmu.read_byte mmu cpu ~addr:(addr_of 1)) in
  let _, second = Cpu.measure cpu (fun () -> Mmu.read_byte mmu cpu ~addr:(addr_of 1)) in
  Alcotest.(check (float 1e-9)) "miss pays walk" (costs.Costs.page_walk +. costs.Costs.mem_access) first;
  Alcotest.(check (float 1e-9)) "hit pays tlb" (costs.Costs.tlb_hit +. costs.Costs.mem_access) second

let test_mmu_kernel_bypass () =
  let mmu, cpu, map = make_mmu () in
  let k = Pkey.of_int 3 in
  map ~vpn:1 ~perm:Perm.r ~pkey:k;
  (* user write faults on both page perm and pkey; kernel write works *)
  expect_fault "user blocked" Mmu.Page_perm (fun () ->
      Mmu.write_byte mmu cpu ~addr:(addr_of 1) 'x');
  Mmu.kernel_write_bytes mmu ~addr:(addr_of 1) (Bytes.of_string "K");
  Cpu.wrpkru cpu (Pkru.set_rights (Cpu.pkru cpu) k Pkru.Read_only);
  Alcotest.(check char) "kernel write visible" 'K' (Mmu.read_byte mmu cpu ~addr:(addr_of 1))

(* --- Costs helpers --- *)

let test_costs_change_protection () =
  let c = Costs.default in
  let base = Costs.change_protection c ~vmas:1 ~pages:1 ~present:1 in
  let more_pages = Costs.change_protection c ~vmas:1 ~pages:100 ~present:1 in
  let more_present = Costs.change_protection c ~vmas:1 ~pages:100 ~present:100 in
  Alcotest.(check bool) "scan cost is small" true (more_pages -. base < 100.0);
  (* pte_update / pte_scan = 28x by calibration *)
  Alcotest.(check bool) "present PTEs dominate" true
    (more_present -. more_pages > 20.0 *. (more_pages -. base))

let test_costs_tlb_invalidate () =
  let c = Costs.default in
  Alcotest.(check (float 1e-9)) "zero pages free" 0.0 (Costs.tlb_invalidate c ~pages:0);
  Alcotest.(check (float 1e-9)) "one page = one invlpg" c.Costs.tlb_flush_page
    (Costs.tlb_invalidate c ~pages:1);
  (* past the ceiling: a single full flush, cheaper than per-page *)
  let at_ceiling = Costs.tlb_invalidate c ~pages:c.Costs.tlb_flush_ceiling in
  let past_ceiling = Costs.tlb_invalidate c ~pages:(c.Costs.tlb_flush_ceiling + 1) in
  Alcotest.(check (float 1e-9)) "full flush past ceiling" c.Costs.tlb_flush_all past_ceiling;
  Alcotest.(check bool) "kernel's crossover" true (past_ceiling < at_ceiling)

let test_costs_table1_identity () =
  (* the calibration identity spelled out in costs.ml must actually hold *)
  let c = Costs.default in
  Alcotest.(check (float 1e-6)) "mprotect identity" 1094.0
    (c.Costs.kernel_entry_exit +. c.Costs.vma_find +. c.Costs.vma_update
    +. c.Costs.pte_scan +. c.Costs.pte_update +. c.Costs.tlb_flush_page);
  Alcotest.(check (float 1e-6)) "pkey_alloc identity" 186.3
    (c.Costs.kernel_entry_exit +. c.Costs.pkey_alloc_work);
  Alcotest.(check (float 1e-6)) "pkey_free identity" 137.2
    (c.Costs.kernel_entry_exit +. c.Costs.pkey_free_work)

(* --- more TLB behaviour --- *)

let test_tlb_set_isolation () =
  (* entries in different sets never evict each other *)
  let tlb = Tlb.create ~sets:4 ~ways:1 () in
  Tlb.insert tlb ~vpn:0 (mk_pte 0);
  Tlb.insert tlb ~vpn:1 (mk_pte 1);
  Tlb.insert tlb ~vpn:2 (mk_pte 2);
  Tlb.insert tlb ~vpn:3 (mk_pte 3);
  List.iter
    (fun vpn -> Alcotest.(check bool) (string_of_int vpn) true (Tlb.lookup tlb ~vpn <> None))
    [ 0; 1; 2; 3 ];
  (* vpn 4 maps to set 0 and evicts only vpn 0 *)
  Tlb.insert tlb ~vpn:4 (mk_pte 4);
  Alcotest.(check bool) "vpn 0 evicted" true (Tlb.lookup tlb ~vpn:0 = None);
  Alcotest.(check bool) "vpn 1 untouched" true (Tlb.lookup tlb ~vpn:1 <> None)

let test_tlb_stats_reset () =
  let tlb = Tlb.create () in
  ignore (Tlb.lookup tlb ~vpn:1);
  Tlb.insert tlb ~vpn:1 (mk_pte 1);
  ignore (Tlb.lookup tlb ~vpn:1);
  Tlb.reset_stats tlb;
  Alcotest.(check int) "hits" 0 (Tlb.hits tlb);
  Alcotest.(check int) "misses" 0 (Tlb.misses tlb);
  Alcotest.(check int) "flushes" 0 (Tlb.flushes tlb);
  (* entries survive a stats reset *)
  Alcotest.(check bool) "entry intact" true (Tlb.lookup tlb ~vpn:1 <> None)

(* --- physmem refcounting (shared memory substrate) --- *)

let test_physmem_refcount () =
  let m = Physmem.create ~frames:2 in
  let f = Physmem.alloc_frame m in
  Alcotest.(check int) "initial ref" 1 (Physmem.refcount m f);
  Physmem.ref_frame m f;
  Alcotest.(check int) "bumped" 2 (Physmem.refcount m f);
  Physmem.write_byte m f 0 'z';
  Physmem.free_frame m f;
  Alcotest.(check int) "still alive" 1 (Physmem.refcount m f);
  Alcotest.(check char) "data survives partial free" 'z' (Physmem.read_byte m f 0);
  Physmem.free_frame m f;
  Alcotest.(check int) "gone" 0 (Physmem.refcount m f);
  Alcotest.(check int) "not in use" 0 (Physmem.frames_in_use m)

let test_machine_flush_all_tlbs () =
  let m = Machine.create ~cores:2 ~mem_mib:16 () in
  Tlb.insert (Cpu.tlb (Machine.core m 0)) ~vpn:5 (mk_pte 5);
  Tlb.insert (Cpu.tlb (Machine.core m 1)) ~vpn:6 (mk_pte 6);
  Machine.flush_all_tlbs m;
  Alcotest.(check bool) "core0 flushed" true (Tlb.lookup (Cpu.tlb (Machine.core m 0)) ~vpn:5 = None);
  Alcotest.(check bool) "core1 flushed" true (Tlb.lookup (Cpu.tlb (Machine.core m 1)) ~vpn:6 = None)

let test_machine_basics () =
  let m = Machine.create ~cores:4 ~mem_mib:16 () in
  Alcotest.(check int) "core count" 4 (Machine.core_count m);
  Cpu.charge (Machine.core m 2) 500.0;
  Alcotest.(check (float 1e-9)) "now = max" 500.0 (Machine.now m);
  Alcotest.check_raises "bad core" (Invalid_argument "Machine.core: bad index") (fun () ->
      ignore (Machine.core m 4))

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "mpk_hw"
    [
      ( "perm",
        [ tc "strings" `Quick test_perm_strings; tc "subsumes" `Quick test_perm_subsumes ] );
      ("pkey", [ tc "range" `Quick test_pkey_range ]);
      ( "pkru",
        [
          tc "linux init" `Quick test_pkru_init_linux;
          tc "set/get" `Quick test_pkru_set_get;
          tc "allows" `Quick test_pkru_allows;
          tc "rights of perm" `Quick test_pkru_rights_of_perm;
          qtest pkru_roundtrip;
          qtest pkru_independence;
        ] );
      ( "pte",
        [ qtest pte_roundtrip; tc "absent" `Quick test_pte_absent; tc "with_*" `Quick test_pte_with ] );
      ( "physmem",
        [
          tc "alloc/free" `Quick test_physmem_alloc_free;
          tc "zeroed on reuse" `Quick test_physmem_zeroed_on_reuse;
          tc "bytes" `Quick test_physmem_bytes;
          tc "bounds" `Quick test_physmem_bounds;
        ] );
      ( "page_table",
        [
          tc "set/get" `Quick test_page_table_set_get;
          tc "clear" `Quick test_page_table_clear;
          tc "protect range" `Quick test_page_table_protect_range;
          tc "pkey range" `Quick test_page_table_pkey_range;
          tc "fold order" `Quick test_page_table_fold_order;
          tc "key 15, largest frame" `Quick test_page_table_top_bits;
          qtest page_table_model;
        ] );
      ( "tlb",
        [
          tc "hit/miss" `Quick test_tlb_hit_miss;
          tc "flush all" `Quick test_tlb_flush_all;
          tc "flush page" `Quick test_tlb_flush_page;
          tc "lru eviction" `Quick test_tlb_lru_eviction;
          tc "update in place" `Quick test_tlb_update_in_place;
        ] );
      ( "cpu",
        [
          tc "wrpkru cost" `Quick test_cpu_wrpkru_cost;
          tc "rdpkru cost" `Quick test_cpu_rdpkru_cost;
          tc "wrpkru sets value" `Quick test_cpu_wrpkru_sets_value;
          tc "fig2 serialization" `Quick test_fig2_adds_after_slower;
          tc "measure" `Quick test_cpu_measure_isolated;
        ] );
      ( "mmu",
        [
          tc "read/write" `Quick test_mmu_read_write;
          tc "not present" `Quick test_mmu_not_present;
          tc "page perm" `Quick test_mmu_page_perm;
          tc "pkey denied" `Quick test_mmu_pkey_denied;
          tc "fetch ignores pkru" `Quick test_mmu_fetch_ignores_pkru;
          tc "fetch needs exec" `Quick test_mmu_fetch_needs_exec;
          tc "cross page" `Quick test_mmu_cross_page;
          tc "cross page fault" `Quick test_mmu_cross_page_partial_fault;
          tc "tlb charges" `Quick test_mmu_tlb_charges;
          tc "kernel bypass" `Quick test_mmu_kernel_bypass;
        ] );
      ( "costs",
        [
          tc "change_protection" `Quick test_costs_change_protection;
          tc "tlb_invalidate" `Quick test_costs_tlb_invalidate;
          tc "table1 identities" `Quick test_costs_table1_identity;
        ] );
      ( "tlb_more",
        [
          tc "set isolation" `Quick test_tlb_set_isolation;
          tc "stats reset" `Quick test_tlb_stats_reset;
        ] );
      ("physmem_refs", [ tc "refcount" `Quick test_physmem_refcount ]);
      ( "machine",
        [
          tc "basics" `Quick test_machine_basics;
          tc "flush all tlbs" `Quick test_machine_flush_all_tlbs;
        ] );
    ]
