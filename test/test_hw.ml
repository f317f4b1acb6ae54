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
      let v = Pkru.set_rights (Pkru.of_int 0) key rights in
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

(* The present entries of a page table. *)
let mapped pt = Page_table.fold pt (fun _ _ n -> n + 1) 0

let max_frame = 0xFFFFFFFFF (* 36 bits *)

(* Every frame, permission and key, and every rewrite: keys 8-15 set
   bit 62, the sign bit of the immediate. A rewrite keeps the frame and
   the field it does not name. *)
let pte_roundtrip =
  QCheck.Test.make ~name:"pte encode/decode roundtrip" ~count:1000
    QCheck.(quad (int_bound max_frame) (pair (int_bound 7) (int_bound 7))
              (pair (int_bound 15) (int_bound 15)) (pair (int_bound 3) (int_bound 3)))
    (fun (frame, (p, p'), (k, k'), (s, s')) ->
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
      (* a selector: 0 replaces nothing, 1 the permission, 2 and 3 both *)
      let rewrite sel perm pkey =
        match sel with
        | 0 -> Pte.identity
        | 1 -> Pte.rewrite_perm perm
        | _ -> Pte.rewrite_perm_pkey perm pkey
      in
      let a = rewrite s perm' pkey' and b = rewrite s' perm pkey' in
      decodes pte perm pkey
      && decodes (Pte.apply (Pte.rewrite_perm perm') pte) perm' pkey
      && decodes (Pte.apply (Pte.rewrite_perm_pkey perm pkey') pte) perm pkey'
      && decodes (Pte.apply (Pte.rewrite_perm_pkey perm' pkey') pte) perm' pkey'
      && Pte.apply Pte.identity pte = pte
      && Pte.apply (Pte.compose a b) pte = Pte.apply b (Pte.apply a pte)
      && Pte.apply (Pte.compose Pte.identity a) pte = Pte.apply a pte
      && Pte.apply (Pte.compose a Pte.identity) pte = Pte.apply a pte)

let test_pte_absent () =
  Alcotest.(check bool) "absent not present" false (Pte.is_present Pte.absent);
  Alcotest.(check bool) "a rewrite leaves absent absent" true
    (Pte.apply (Pte.rewrite_perm_pkey Perm.rwx (Pkey.of_int 15)) Pte.absent = Pte.absent)

let test_pte_with () =
  let pte = Pte.make ~frame:99 ~perm:Perm.rw ~pkey:(Pkey.of_int 3) in
  let pte2 = Pte.apply (Pte.rewrite_perm Perm.r) pte in
  Alcotest.(check int) "frame preserved" 99 (Pte.frame pte2);
  Alcotest.(check int) "pkey preserved" 3 (Pkey.to_int (Pte.pkey pte2));
  Alcotest.(check string) "perm changed" "r--" (Perm.to_string (Pte.perm pte2));
  let pte3 = Pte.apply (Pte.rewrite_perm_pkey Perm.rw (Pkey.of_int 11)) pte2 in
  Alcotest.(check int) "pkey changed" 11 (Pkey.to_int (Pte.pkey pte3));
  Alcotest.(check string) "perm replaced" "rw-" (Perm.to_string (Pte.perm pte3));
  Alcotest.(check int) "frame kept" 99 (Pte.frame pte3);
  let entries = [| pte; Pte.absent; pte3 |] in
  Alcotest.(check int) "apply_present counts present entries" 2
    (Pte.apply_present (Pte.rewrite_perm Perm.none) entries ~lo:0 ~hi:3);
  Alcotest.(check bool) "apply_present rewrites in place" true
    (entries
    = [| Pte.make ~frame:99 ~perm:Perm.none ~pkey:(Pkey.of_int 3); Pte.absent;
         Pte.make ~frame:99 ~perm:Perm.none ~pkey:(Pkey.of_int 11) |])

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
  Physmem.write_word m f 512 0x1122334455667788;
  Alcotest.(check int) "word readback" 0x1122334455667788 (Physmem.read_word m f 512);
  Physmem.write_word m f 520 (-2);
  Alcotest.(check string) "a word is 8 little-endian bytes, sign-extended"
    "\xfe\xff\xff\xff\xff\xff\xff\xff" (Bytes.to_string (Physmem.read_bytes m f 520 8));
  Alcotest.(check int) "negative word readback" (-2) (Physmem.read_word m f 520)

let test_physmem_bounds () =
  let m = Physmem.create ~frames:1 in
  let f = Physmem.alloc_frame m in
  Alcotest.check_raises "off-end write"
    (Invalid_argument "Physmem: offset out of frame bounds") (fun () ->
      Physmem.write_byte m f 4096 'x')

let test_physmem_frame_range () =
  let m = Physmem.create ~frames:4 in
  let buf = Bytes.make 8 'b' in
  let out_of_range = Invalid_argument "Physmem: frame out of range" in
  List.iter
    (fun f ->
      let raises name g = Alcotest.check_raises (Printf.sprintf "%s frame %d" name f) out_of_range g in
      raises "write_byte" (fun () -> Physmem.write_byte m f 0 'x');
      raises "read_byte" (fun () -> ignore (Physmem.read_byte m f 0));
      raises "write_bytes" (fun () -> Physmem.write_bytes m f 0 buf 0 8);
      raises "read_bytes" (fun () -> ignore (Physmem.read_bytes m f 0 8));
      raises "read_into" (fun () -> Physmem.read_into m f 0 buf 0 8);
      raises "write_word" (fun () -> Physmem.write_word m f 0 1);
      raises "read_word" (fun () -> ignore (Physmem.read_word m f 0)))
    [ 100; 4; -1; -3 ];
  Alcotest.(check char) "in-range frame never written reads zero" '\000' (Physmem.read_byte m 3 0);
  Alcotest.(check int) "as a word too" 0 (Physmem.read_word m 3 8);
  Physmem.write_byte m 3 5 'y';
  Alcotest.(check char) "in-range frame holds its write" 'y' (Physmem.read_byte m 3 5)

(* Frames come out in the order of a list-based allocator (the most
   recently freed first, then the lowest never used) while the arrays
   double from 1,024 to 2,048 and 4,096 and stop at the 5,000 frames. *)
let test_physmem_growth () =
  let total = 5000 in
  let m = Physmem.create ~frames:total in
  let model_free = ref [] and model_next = ref 0 in
  let live = Hashtbl.create 4096 in  (* frame -> expected refcount *)
  let stamp f = Char.chr (1 + (f mod 251)) in
  let alloc () =
    let want =
      match !model_free with
      | f :: rest ->
          model_free := rest;
          f
      | [] ->
          incr model_next;
          !model_next - 1
    in
    let f = Physmem.alloc_frame m in
    if f <> want then Alcotest.failf "allocated frame %d, list order gives %d" f want;
    if Physmem.read_byte m f 9 <> '\000' then Alcotest.failf "frame %d not zeroed" f;
    Physmem.write_byte m f 9 (stamp f);
    Hashtbl.replace live f 1;
    f
  in
  let free f =
    Physmem.free_frame m f;
    match Hashtbl.find live f with
    | 1 ->
        Hashtbl.remove live f;
        model_free := f :: !model_free
    | n -> Hashtbl.replace live f (n - 1)
  in
  for _round = 1 to 4 do
    let fresh = Array.init 1200 (fun _ -> alloc ()) in
    Array.iteri
      (fun i f ->
        if i mod 5 = 0 then begin
          Physmem.ref_frame m f;
          Hashtbl.replace live f 2
        end;
        if i mod 3 = 0 then free f)
      fresh
  done;
  let check_live () =
    Hashtbl.iter
      (fun f n ->
        if Physmem.refcount m f <> n then
          Alcotest.failf "frame %d: refcount %d, want %d" f (Physmem.refcount m f) n;
        if Physmem.read_byte m f 9 <> stamp f then Alcotest.failf "frame %d lost its data" f)
      live
  in
  check_live ();
  Alcotest.(check int) "frames in use" (Hashtbl.length live) (Physmem.frames_in_use m);
  while Physmem.frames_in_use m < total do
    ignore (alloc ())
  done;
  check_live ();
  Alcotest.(check int) "every frame handed out once" total !model_next;
  Alcotest.check_raises "exhausted at total" Out_of_memory (fun () ->
      ignore (Physmem.alloc_frame m))

(* Random allocator calls and accesses against a reference that keeps
   one flat 4 KiB page per frame. Offsets cluster around the 128-byte
   line boundaries and lengths include whole pages, so words and ranges
   straddle lines; six frames recycle often, so reads see recycled
   frames and their storage. *)
type physmem_op =
  | Alloc
  | Ref of int
  | Free of int
  | Write_byte of int * int * char
  | Write_word of int * int * int
  | Write_bytes of int * int * int  (* frame, offset, length *)
  | Read of int * int * int

let physmem_model_frames = 6

let physmem_op_gen =
  let open QCheck.Gen in
  let frame = int_bound (physmem_model_frames - 1) in
  let off = oneof [ int_bound 4095; map2 (fun l d -> (l * 128) + d) (int_bound 32) (int_range (-9) 9) ] in
  let clip width o = max 0 (min (Physmem.page_size - width) o) in
  let range =
    map2
      (fun o len -> (clip len o, len))
      off
      (frequency [ (3, int_bound 20); (2, int_range 100 300); (1, return Physmem.page_size) ])
  in
  frequency
    [
      (3, return Alloc);
      (1, map (fun f -> Ref f) frame);
      (3, map (fun f -> Free f) frame);
      (2, map3 (fun f o c -> Write_byte (f, clip 1 o, c)) frame off char);
      (2, map3 (fun f o v -> Write_word (f, clip 8 o, v)) frame off int);
      (3, map2 (fun f (o, len) -> Write_bytes (f, o, len)) frame range);
      (5, map2 (fun f (o, len) -> Read (f, o, len)) frame range);
    ]

let show_physmem_op = function
  | Alloc -> "alloc"
  | Ref f -> Printf.sprintf "ref %d" f
  | Free f -> Printf.sprintf "free %d" f
  | Write_byte (f, o, c) -> Printf.sprintf "write_byte %d %d %C" f o c
  | Write_word (f, o, v) -> Printf.sprintf "write_word %d %d %d" f o v
  | Write_bytes (f, o, len) -> Printf.sprintf "write_bytes %d %d %d" f o len
  | Read (f, o, len) -> Printf.sprintf "read %d %d %d" f o len

let physmem_model =
  QCheck.Test.make ~name:"physmem matches a flat-page model" ~count:300
    (QCheck.make ~print:QCheck.Print.(list show_physmem_op) ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 10 80) physmem_op_gen))
    (fun ops ->
      let n = physmem_model_frames in
      let m = Physmem.create ~frames:n in
      (* the reference: a page and a reference count per frame *)
      let pages = Array.init n (fun _ -> Bytes.make Physmem.page_size '\000') in
      let refs = Array.make n 0 in
      let zero f = Bytes.fill pages.(f) 0 Physmem.page_size '\000' in
      let rejected f = match f () with () -> false | exception Invalid_argument _ -> true in
      let counted op f =
        if Physmem.refcount m f <> refs.(f) then
          QCheck.Test.fail_reportf "%s: refcount %d, want %d" (show_physmem_op op)
            (Physmem.refcount m f) refs.(f)
      in
      let same what got want =
        if not (Bytes.equal got want) then
          QCheck.Test.fail_reportf "%s read %S, want %S" what (Bytes.to_string got)
            (Bytes.to_string want)
      in
      let step i op =
        (match op with
        | Alloc -> (
            match Physmem.alloc_frame m with
            | f ->
                if refs.(f) <> 0 then QCheck.Test.fail_reportf "frame %d handed out twice" f;
                refs.(f) <- 1;
                zero f
            | exception Out_of_memory ->
                if Array.exists (( = ) 0) refs then
                  QCheck.Test.fail_report "out of memory with a frame free")
        | Ref f when refs.(f) = 0 ->
            if not (rejected (fun () -> Physmem.ref_frame m f)) then
              QCheck.Test.fail_reportf "ref of free frame %d accepted" f
        | Ref f ->
            Physmem.ref_frame m f;
            refs.(f) <- refs.(f) + 1;
            counted op f
        | Free f when refs.(f) = 0 ->
            if not (rejected (fun () -> Physmem.free_frame m f)) then
              QCheck.Test.fail_reportf "free of free frame %d accepted" f
        | Free f ->
            Physmem.free_frame m f;
            refs.(f) <- refs.(f) - 1;
            if refs.(f) = 0 then zero f;
            counted op f
        | Write_byte (f, o, c) ->
            Physmem.write_byte m f o c;
            Bytes.set pages.(f) o c
        | Write_word (f, o, v) ->
            Physmem.write_word m f o v;
            Bytes.set_int64_le pages.(f) o (Int64.of_int v)
        | Write_bytes (f, o, len) ->
            let src = Bytes.init (len + 3) (fun j -> Char.chr (((i * 31) + j) land 0xff)) in
            Physmem.write_bytes m f o src 3 len;
            Bytes.blit src 3 pages.(f) o len
        | Read (f, o, len) ->
            let what = show_physmem_op op in
            let want = Bytes.sub pages.(f) o len in
            same (what ^ ": read_bytes") (Physmem.read_bytes m f o len) want;
            let into = Bytes.make (len + 5) '?' in
            Physmem.read_into m f o into 5 len;
            same (what ^ ": read_into") (Bytes.sub into 5 len) want;
            if len > 0 then begin
              let last = o + len - 1 in
              same (what ^ ": read_byte")
                (Bytes.make 1 (Physmem.read_byte m f last))
                (Bytes.make 1 (Bytes.get pages.(f) last))
            end;
            let w = min o (Physmem.page_size - 8) in
            let want_word = Int64.to_int (Bytes.get_int64_le pages.(f) w) in
            if Physmem.read_word m f w <> want_word then
              QCheck.Test.fail_reportf "%s: read_word %d = %d, want %d" (show_physmem_op op) w
                (Physmem.read_word m f w) want_word);
        let in_use = Array.fold_left (fun acc r -> if r > 0 then acc + 1 else acc) 0 refs in
        if Physmem.frames_in_use m <> in_use then
          QCheck.Test.fail_reportf "%s: %d frames in use, want %d" (show_physmem_op op)
            (Physmem.frames_in_use m) in_use
      in
      List.iteri step ops;
      Array.iteri
        (fun f page ->
          same (Printf.sprintf "frame %d's whole page" f)
            (Physmem.read_bytes m f 0 Physmem.page_size) page)
        pages;
      true)

(* --- Page_table --- *)

let test_page_table_set_get () =
  let pt = Page_table.create () in
  let pte = Pte.make ~frame:7 ~perm:Perm.rw ~pkey:Pkey.default in
  Page_table.set pt ~vpn:0x12345 pte;
  Alcotest.(check bool) "present" true (Pte.is_present (Page_table.get pt ~vpn:0x12345));
  Alcotest.(check int) "frame" 7 (Pte.frame (Page_table.get pt ~vpn:0x12345));
  Alcotest.(check bool) "absent elsewhere" false
    (Pte.is_present (Page_table.get pt ~vpn:0x12346));
  Alcotest.(check int) "mapped count" 1 (mapped pt)

let test_page_table_clear () =
  let pt = Page_table.create () in
  Page_table.set pt ~vpn:5 (Pte.make ~frame:1 ~perm:Perm.r ~pkey:Pkey.default);
  Page_table.set pt ~vpn:5 Pte.absent;
  Alcotest.(check bool) "cleared" false (Pte.is_present (Page_table.get pt ~vpn:5));
  Alcotest.(check int) "count back to zero" 0 (mapped pt)

let test_page_table_protect_range () =
  let pt = Page_table.create () in
  for v = 10 to 19 do
    Page_table.set pt ~vpn:v (Pte.make ~frame:v ~perm:Perm.rw ~pkey:Pkey.default)
  done;
  let touched =
    Page_table.update_range pt ~vpn:12 ~pages:5 (Pte.rewrite_perm Perm.r)
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
  ignore (Page_table.update_range pt ~vpn:3 ~pages:4 (Pte.rewrite_perm_pkey Perm.rw k));
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
  Alcotest.(check int) "mapped" 1 (mapped pt);
  let n =
    Page_table.update_range pt ~vpn:(vpn - 9) ~pages:10 (Pte.rewrite_perm Perm.r)
  in
  Alcotest.(check int) "one rewritten" 1 n;
  let want = Pte.make ~frame:max_frame ~perm:Perm.r ~pkey:k in
  Alcotest.(check bool) "perm rewritten, frame and key kept" true
    (Page_table.get pt ~vpn = want);
  Alcotest.(check bool) "fold sees it" true
    (Page_table.fold pt (fun v p acc -> (v, p) :: acc) [] = [ (vpn, want) ]);
  Alcotest.(check int) "count_with_pkey" 1 (Page_table.count_with_pkey pt k);
  Alcotest.(check int) "still mapped" 1 (mapped pt)

(* Random sets, clears and rewrites against a flat table of every vpn
   touched, which a rewrite changes entry by entry. The vpns span four
   leaves, two on each side of a level-1 boundary. Range ends cluster on
   leaf boundaries, so ranges cover one or several whole leaves, part of
   one, or both, and several rewrites land on one leaf; entries and
   rewrites draw from two permissions and two keys, so a present set
   into a rewritten leaf often holds what the pending rewrite would
   write, and often does not. *)
type pt_op =
  | Set of int * Pte.t
  | Clear of int
  | Rewrite of { vpn : int; pages : int; perm : Perm.t option; pkey : Pkey.t option }

let pt_model_leaves = 4
let pt_model_base = (1 lsl 18) - (2 * 512)
let pt_model_span = pt_model_leaves * 512
let pt_model_keys = [ Pkey.default; Pkey.of_int 15 ]

let pt_op_gen =
  let open QCheck.Gen in
  let leaf = int_bound (pt_model_leaves - 1) in
  let vpn =
    map (( + ) pt_model_base)
      (oneof
         [
           map2 (fun l j -> (l * 512) + j) leaf (oneofl [ 0; 1; 2; 255; 510; 511 ]);
           int_bound (pt_model_span - 1);
         ])
  in
  let point =
    frequency
      [
        (3, map (( * ) 512) (int_bound pt_model_leaves));
        ( 2,
          map2
            (fun l d -> max 0 (min pt_model_span ((l * 512) + d)))
            (int_bound pt_model_leaves) (int_range (-2) 2) );
        (1, int_bound pt_model_span);
      ]
  in
  let perm = oneofl [ Perm.r; Perm.rw ] and pkey = oneofl pt_model_keys in
  frequency
    [
      ( 4,
        map3
          (fun vpn frame (perm, pkey) -> Set (vpn, Pte.make ~frame ~perm ~pkey))
          vpn (int_bound 0xFFFF) (pair perm pkey) );
      (1, map (fun vpn -> Clear vpn) vpn);
      ( 4,
        map3
          (fun a b (perm, pkey) ->
            (* a rewrite replaces the key only with the permission *)
            let pkey = if Option.is_none perm then None else pkey in
            Rewrite { vpn = pt_model_base + min a b; pages = abs (a - b); perm; pkey })
          point point (pair (opt perm) (opt pkey)) );
    ]

let show_pte pte =
  if Pte.is_present pte then
    Printf.sprintf "frame:%d perm:%s pkey:%d" (Pte.frame pte) (Perm.to_string (Pte.perm pte))
      (Pkey.to_int (Pte.pkey pte))
  else "<absent>"

let show_pt_op = function
  | Set (vpn, pte) -> Printf.sprintf "set %#x (%s)" vpn (show_pte pte)
  | Clear vpn -> Printf.sprintf "clear %#x" vpn
  | Rewrite { vpn; pages; perm; pkey } ->
      Printf.sprintf "rewrite %#x+%d%s%s" vpn pages
        (match perm with None -> "" | Some p -> " perm:" ^ Perm.to_string p)
        (match pkey with None -> "" | Some k -> Printf.sprintf " pkey:%d" (Pkey.to_int k))

let page_table_model =
  QCheck.Test.make ~name:"page table matches model map" ~count:100
    (QCheck.make ~print:QCheck.Print.(list show_pt_op) ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 1 40) pt_op_gen))
    (fun ops ->
      let pt = Page_table.create () in
      (* the reference: every vpn ever set, absent once cleared *)
      let model = Hashtbl.create 64 in
      let present () =
        Hashtbl.fold
          (fun vpn pte acc -> if Pte.is_present pte then (vpn, pte) :: acc else acc)
          model []
        |> List.sort compare
      in
      let step op =
        let what = show_pt_op op in
        (match op with
        | Set (vpn, pte) ->
            Page_table.set pt ~vpn pte;
            Hashtbl.replace model vpn pte
        | Clear vpn ->
            Page_table.set pt ~vpn Pte.absent;
            Hashtbl.replace model vpn Pte.absent
        | Rewrite { vpn; pages; perm; pkey } ->
            let rw =
              match perm, pkey with
              | None, _ -> Pte.identity
              | Some p, None -> Pte.rewrite_perm p
              | Some p, Some k -> Pte.rewrite_perm_pkey p k
            in
            let n = Page_table.update_range pt ~vpn ~pages rw in
            let want = ref 0 in
            Hashtbl.filter_map_inplace
              (fun v pte ->
                if v >= vpn && v < vpn + pages && Pte.is_present pte then begin
                  incr want;
                  Some (Pte.apply rw pte)
                end
                else Some pte)
              model;
            if n <> !want then QCheck.Test.fail_reportf "%s: rewrote %d, want %d" what n !want);
        Hashtbl.iter
          (fun vpn want ->
            let got = Page_table.get pt ~vpn in
            if got <> want then
              QCheck.Test.fail_reportf "%s: get %#x = %s, want %s" what vpn (show_pte got)
                (show_pte want))
          model;
        let present = present () in
        if List.rev (Page_table.fold pt (fun vpn pte acc -> (vpn, pte) :: acc) []) <> present then
          QCheck.Test.fail_reportf "%s: fold differs from the model" what;
        List.iter
          (fun k ->
            let want =
              List.length (List.filter (fun (_, pte) -> Pkey.equal (Pte.pkey pte) k) present)
            in
            if Page_table.count_with_pkey pt k <> want then
              QCheck.Test.fail_reportf "%s: count_with_pkey %d = %d, want %d" what (Pkey.to_int k)
                (Page_table.count_with_pkey pt k) want)
          pt_model_keys;
        if mapped pt <> List.length present then
          QCheck.Test.fail_reportf "%s: %d mapped, want %d" what (mapped pt)
            (List.length present)
      in
      List.iter step ops;
      true)

(* --- Tlb --- *)

let mk_pte frame = Pte.make ~frame ~perm:Perm.rw ~pkey:Pkey.default

let test_tlb_hit_miss () =
  let tlb = Tlb.create ~sets:4 ~ways:2 () in
  Alcotest.(check bool) "cold miss" true (Tlb.lookup tlb ~vpn:1 = Pte.absent);
  Tlb.insert tlb ~vpn:1 (mk_pte 10);
  Alcotest.(check int) "hit frame" 10 (Pte.frame (Tlb.lookup tlb ~vpn:1));
  Alcotest.(check int) "one hit" 1 (Tlb.hits tlb);
  Alcotest.(check int) "one miss" 1 (Tlb.misses tlb)

let test_tlb_flush_all () =
  let tlb = Tlb.create ~sets:4 ~ways:2 () in
  Tlb.insert tlb ~vpn:1 (mk_pte 1);
  Tlb.insert tlb ~vpn:2 (mk_pte 2);
  Tlb.flush_all tlb;
  Alcotest.(check bool) "gone" true (Tlb.lookup tlb ~vpn:1 = Pte.absent);
  Alcotest.(check bool) "gone too" true (Tlb.lookup tlb ~vpn:2 = Pte.absent);
  Alcotest.(check int) "flush counted" 1 (Tlb.flushes tlb)

let test_tlb_flush_page () =
  let tlb = Tlb.create ~sets:4 ~ways:2 () in
  Tlb.insert tlb ~vpn:1 (mk_pte 1);
  Tlb.insert tlb ~vpn:2 (mk_pte 2);
  Tlb.flush_page tlb ~vpn:1;
  Alcotest.(check bool) "flushed page gone" true (Tlb.lookup tlb ~vpn:1 = Pte.absent);
  Alcotest.(check bool) "other survives" true (Tlb.lookup tlb ~vpn:2 <> Pte.absent)

let test_tlb_lru_eviction () =
  let tlb = Tlb.create ~sets:1 ~ways:2 () in
  Tlb.insert tlb ~vpn:1 (mk_pte 1);
  Tlb.insert tlb ~vpn:2 (mk_pte 2);
  ignore (Tlb.lookup tlb ~vpn:1);  (* make 2 the LRU *)
  Tlb.insert tlb ~vpn:3 (mk_pte 3);
  Alcotest.(check bool) "1 survives (recently used)" true (Tlb.lookup tlb ~vpn:1 <> Pte.absent);
  Alcotest.(check bool) "2 evicted" true (Tlb.lookup tlb ~vpn:2 = Pte.absent)

let test_tlb_update_in_place () =
  let tlb = Tlb.create ~sets:1 ~ways:2 () in
  Tlb.insert tlb ~vpn:1 (mk_pte 1);
  Tlb.insert tlb ~vpn:1 (mk_pte 99);
  Alcotest.(check int) "updated" 99 (Pte.frame (Tlb.lookup tlb ~vpn:1))

(* --- Cpu / pipeline (paper Fig 2 + Table 1) --- *)

let test_cpu_wrpkru_cost () =
  let cpu = Cpu.create ~id:0 () in
  let (), cycles = Cpu.measure cpu (fun () -> Cpu.wrpkru cpu (Pkru.of_int 0)) in
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
           Cpu.wrpkru cpu (Pkru.of_int 0)))
  in
  let run_w2 n =
    let cpu = Cpu.create ~id:0 () in
    snd
      (Cpu.measure cpu (fun () ->
           Cpu.wrpkru cpu (Pkru.of_int 0);
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
      Alcotest.(check bool) name true (fault.Mmu.cause = cause)
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

(* A protection change charges [pte_scan] per page and [pte_update] per
   present PTE (Mm's change_locked): 99 more pages must cost under 100
   cycles, and present PTEs must dominate. *)
let test_costs_change_protection () =
  let c = Costs.default in
  Alcotest.(check bool) "scan cost is small" true (99.0 *. c.Costs.pte_scan < 100.0);
  (* pte_update / pte_scan = 28x by calibration *)
  Alcotest.(check bool) "present PTEs dominate" true (c.Costs.pte_update > 20.0 *. c.Costs.pte_scan)

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
    (fun vpn -> Alcotest.(check bool) (string_of_int vpn) true (Tlb.lookup tlb ~vpn <> Pte.absent))
    [ 0; 1; 2; 3 ];
  (* vpn 4 maps to set 0 and evicts only vpn 0 *)
  Tlb.insert tlb ~vpn:4 (mk_pte 4);
  Alcotest.(check bool) "vpn 0 evicted" true (Tlb.lookup tlb ~vpn:0 = Pte.absent);
  Alcotest.(check bool) "vpn 1 untouched" true (Tlb.lookup tlb ~vpn:1 <> Pte.absent)

let test_tlb_sets_power_of_two () =
  Alcotest.check_raises "6 sets" (Invalid_argument "Tlb.create") (fun () ->
      ignore (Tlb.create ~sets:6 ()));
  List.iter
    (fun sets ->
      let tlb = Tlb.create ~sets ~ways:1 () in
      for vpn = 0 to sets - 1 do
        Tlb.insert tlb ~vpn (mk_pte vpn)
      done;
      for vpn = 0 to sets - 1 do
        Alcotest.(check int) (Printf.sprintf "%d sets: vpn %d cached" sets vpn) vpn
          (Pte.frame (Tlb.lookup tlb ~vpn))
      done)
    [ 1; 4; 256 ]

let test_tlb_insert_absent () =
  let tlb = Tlb.create () in
  Alcotest.check_raises "absent is a miss, not an entry"
    (Invalid_argument "Tlb.insert: absent entry") (fun () -> Tlb.insert tlb ~vpn:1 Pte.absent)

(* --- allocation budget: translation and range rewrites run at memory
   speed, so the hot paths allocate nothing per call --- *)

let test_tlb_allocation () =
  let n = 10_000 in
  let tlb = Tlb.create () in
  let each name f =
    Alcotest.(check (float 0.)) (name ^ " allocates nothing") 0.
      (Alloc_budget.allocated (fun () ->
           for i = 1 to n do
             f i
           done))
  in
  each "insert" (fun i -> Tlb.insert tlb ~vpn:(i land 2047) (mk_pte i));
  Tlb.insert tlb ~vpn:7 (mk_pte 7);
  each "lookup hit" (fun _ -> ignore (Tlb.lookup tlb ~vpn:7));
  each "lookup miss" (fun i -> ignore (Tlb.lookup tlb ~vpn:(4096 + i)));
  each "flush_page" (fun i -> Tlb.flush_page tlb ~vpn:(i land 2047));
  each "flush_all" (fun _ -> Tlb.flush_all tlb);
  Alcotest.(check int) "hits" n (Tlb.hits tlb);
  Alcotest.(check int) "misses" n (Tlb.misses tlb)

let test_update_range_allocation () =
  let words pages =
    let pt = Page_table.create () in
    for vpn = 0 to pages - 1 do
      Page_table.set pt ~vpn (mk_pte vpn)
    done;
    let rw = Pte.rewrite_perm_pkey Perm.r (Pkey.of_int 15) in
    let n = ref 0 in
    let w = Alloc_budget.allocated (fun () -> n := Page_table.update_range pt ~vpn:0 ~pages rw) in
    Alcotest.(check int) "every page rewritten" pages !n;
    w
  in
  Alcotest.(check (float 0.)) "8 and 16384 pages allocate alike" (words 8) (words 16384)

(* Once the arrays have grown, the allocator and the accessors of a
   backed frame allocate nothing ([read_bytes] returns a fresh buffer,
   so it is left out). *)
let test_physmem_allocation () =
  let n = 3000 in
  let m = Physmem.create ~frames:n in
  let frames = Array.make n 0 in
  let alloc_all () =
    for i = 0 to n - 1 do
      frames.(i) <- Physmem.alloc_frame m
    done
  in
  let free_all () =
    for i = 0 to n - 1 do
      Physmem.free_frame m frames.(i)
    done
  in
  alloc_all ();  (* grows the arrays to every frame *)
  free_all ();
  let none name f = Alcotest.(check (float 0.)) (name ^ " allocates nothing") 0. (Alloc_budget.allocated f) in
  none "alloc_frame" alloc_all;
  none "ref_frame" (fun () ->
      for i = 0 to n - 1 do
        Physmem.ref_frame m frames.(i)
      done);
  none "free_frame (shared)" free_all;
  none "free_frame (last ref)" free_all;
  alloc_all ();
  let f = frames.(7) in
  let buf = Bytes.make 64 'p' in
  Physmem.write_bytes m f 0 buf 0 64;  (* the frame's storage now exists *)
  none "write_byte" (fun () ->
      for off = 0 to 4095 do
        Physmem.write_byte m f off 'w'
      done);
  none "read_byte" (fun () ->
      for off = 0 to 4095 do
        ignore (Physmem.read_byte m f off)
      done);
  none "write_bytes" (fun () -> Physmem.write_bytes m f 100 buf 0 64);
  none "read_into" (fun () -> Physmem.read_into m f 100 buf 0 64);
  none "write_word" (fun () -> Physmem.write_word m f 512 42);
  none "read_word" (fun () ->
      for off = 0 to 511 do
        ignore (Physmem.read_word m f (off * 8))
      done)

(* A frame costs host memory for the lines written to it: 2,048 frames
   stamped with one 64-byte line each, like the key-churn benchmark's
   group pages, cost a fraction of a page apiece, and a frame written
   end to end little more than its page. *)
let test_physmem_storage () =
  let n = 2048 in
  let m = Physmem.create ~frames:n in
  let frames = Array.init n (fun _ -> Physmem.alloc_frame m) in
  let words_per_frame what ~at_most src =
    Array.iter (fun f -> Physmem.write_bytes m f 0 src 0 (Bytes.length src)) frames;
    let w = float_of_int (Obj.reachable_words (Obj.repr m)) /. float_of_int n in
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.1f words per frame, at most %d" what w at_most)
      true
      (w <= float_of_int at_most)
  in
  words_per_frame "one 64-byte line" ~at_most:64 (Bytes.make 64 's');
  words_per_frame "the whole page" ~at_most:560 (Bytes.make Physmem.page_size 'p')

let test_mmu_single_page_allocation () =
  let mmu, cpu, map = make_mmu () in
  map ~vpn:1 ~perm:Perm.rw ~pkey:Pkey.default;
  map ~vpn:2 ~perm:Perm.rw ~pkey:Pkey.default;
  let addr = addr_of 1 + 64 in
  let record = Bytes.make 32 'm' in
  let n = 1_000 in
  let each name ~at_most f =
    let w = Alloc_budget.allocated (fun () -> for _ = 1 to n do f () done) /. float_of_int n in
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.1f words per call, at most %d" name w at_most)
      true
      (w <= float_of_int at_most)
  in
  Mmu.write_bytes mmu cpu ~addr record;  (* the frame's storage now exists *)
  each "read_word" ~at_most:0 (fun () -> ignore (Mmu.read_word mmu cpu ~addr));
  each "write_word" ~at_most:0 (fun () -> Mmu.write_word mmu cpu ~addr 42);
  let key = Bytes.create 32 in
  each "read_into" ~at_most:0 (fun () -> Mmu.read_into mmu cpu ~addr key ~len:16);
  Alcotest.(check string) "read_into reads what read_bytes does"
    (Bytes.to_string (Mmu.read_bytes mmu cpu ~addr ~len:16))
    (Bytes.sub_string key 0 16);
  each "write_bytes" ~at_most:0 (fun () -> Mmu.write_bytes mmu cpu ~addr record);
  each "kernel_write_bytes" ~at_most:0 (fun () -> Mmu.kernel_write_bytes mmu ~addr record);
  Alcotest.(check string) "last write landed" (Bytes.to_string record)
    (Bytes.to_string (Mmu.read_bytes mmu cpu ~addr ~len:32));
  (* a page-crossing access takes the same closure-free page loop *)
  let crossing = addr_of 2 - 16 in
  Mmu.write_bytes mmu cpu ~addr:crossing record;  (* and the second page's *)
  each "write_bytes across two pages" ~at_most:0 (fun () ->
      Mmu.write_bytes mmu cpu ~addr:crossing record);
  each "kernel_write_bytes across two pages" ~at_most:0 (fun () ->
      Mmu.kernel_write_bytes mmu ~addr:crossing record);
  Alcotest.(check string) "crossing write landed" (Bytes.to_string record)
    (Bytes.to_string (Mmu.read_bytes mmu cpu ~addr:crossing ~len:32));
  (* a word straddling the page boundary still takes both pages' path *)
  let straddle = addr_of 2 - 4 in
  Mmu.write_word mmu cpu ~addr:straddle 0x1122334455667788;
  Alcotest.(check int) "straddling word" 0x1122334455667788 (Mmu.read_word mmu cpu ~addr:straddle)

(* The build inlines small functions across libraries: [Cpu.cycles],
   read from this executable, is a field load, and its float is summed
   unboxed. A build that compiles [-opaque] (dune's dev profile) calls
   it, and every read allocates the boxed float it returns. *)
let test_cross_library_inlining () =
  let cpu = Cpu.create ~id:0 () in
  Cpu.charge cpu 3.0;
  let n = 1_000 in
  let total = Array.make 1 0.0 in
  let w =
    Alloc_budget.allocated (fun () ->
        let sum = ref 0.0 in
        for _ = 1 to n do
          sum := !sum +. Cpu.cycles cpu
        done;
        total.(0) <- !sum)
    /. float_of_int n
  in
  Alcotest.(check (float 0.)) "every read summed" (3.0 *. float_of_int n) total.(0);
  if w > 0.0 then
    Alcotest.failf
      "Cpu.cycles allocates %.3f words per read: the build lost cross-module inlining (dune-workspace's \
       release profile)"
      w

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

let test_machine_basics () =
  let m = Machine.create ~cores:4 ~mem_mib:16 () in
  Alcotest.(check int) "core count" 4 (Machine.core_count m);
  Cpu.charge (Machine.core m 2) 500.0;
  Alcotest.(check (float 0.)) "core 2 charged" 500.0 (Cpu.cycles (Machine.core m 2));
  Alcotest.(check (float 0.)) "core 1 not" 0.0 (Cpu.cycles (Machine.core m 1));
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
          tc "frame out of range" `Quick test_physmem_frame_range;
          tc "growth keeps order and refcounts" `Quick test_physmem_growth;
          qtest physmem_model;
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
          tc "sets must be a power of two" `Quick test_tlb_sets_power_of_two;
          tc "insert absent" `Quick test_tlb_insert_absent;
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
        ] );
      ( "alloc_budget",
        [
          tc "tlb" `Quick test_tlb_allocation;
          tc "update_range" `Quick test_update_range_allocation;
          tc "mmu single page" `Quick test_mmu_single_page_allocation;
          tc "physmem" `Quick test_physmem_allocation;
          tc "physmem storage" `Quick test_physmem_storage;
          tc "cross-library inlining" `Quick test_cross_library_inlining;
        ] );
      ("physmem_refs", [ tc "refcount" `Quick test_physmem_refcount ]);
      ( "machine",
        [
          tc "basics" `Quick test_machine_basics;
        ] );
    ]
