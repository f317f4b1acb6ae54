open Mpk_analysis
open Mpk_hw

let slab = Server.slab_vkey
let hash = Server.hash_vkey
let scanner_tid = 3

let program ?plant () =
  let open Ir in
  let close_both = [ op (End { vkey = hash }); op (End { vkey = slab }) ] in
  let worker ?(fast_path = false) () =
    let request_tail =
      if fast_path then
        [
          If
            ( "hit in L1 cache?",
              [ op (End { vkey = hash }); label "reply from L1 (slab end missed)" ],
              close_both );
        ]
      else close_both
    in
    [
      Loop
        ( "requests",
          [
            op (Begin { vkey = slab; prot = Perm.rw });
            op (Begin { vkey = hash; prot = Perm.rw });
            Guard
              ( [
                  label "parse request";
                  op (Write { vkey = hash });
                  op (Write { vkey = slab });
                  op (Read { vkey = slab });
                ]
                @ request_tail,
                close_both @ [ label "answer SERVER_ERROR" ] );
          ] );
    ]
  in
  let scanner = [ Loop ("bare scan", [ op (Read { vkey = slab }) ]) ] in
  let plant_toctou = plant = Some `Toctou in
  let main =
    [
      op (Mmap { vkey = slab; pages = 4; prot = Perm.rw });
      op (Mmap { vkey = hash; pages = 1; prot = Perm.rw });
    ]
    @ (if plant_toctou then
         [
           label "publish slab globally";
           op (Mprotect { vkey = slab; prot = Perm.rw });
         ]
       else [])
    @ [ op (Spawn { tid = 1 }); op (Spawn { tid = 2 }) ]
    @ (if plant_toctou then [ op (Spawn { tid = scanner_tid }) ] else [])
    @ [ Loop ("epochs", [ label "tick" ]) ]
    @ (if plant_toctou then
         [
           label "seal epoch while scanner is live";
           op (Mprotect { vkey = slab; prot = Perm.none });
         ]
       else [])
    @ [ op (Join { tid = 1 }); op (Join { tid = 2 }) ]
    @ (if plant_toctou then [ op (Join { tid = scanner_tid }) ] else [])
    @ [ op (Free { vkey = slab }); op (Free { vkey = hash }) ]
  in
  let threads =
    [ 1, worker ~fast_path:(plant = Some `Unbalanced) (); 2, worker () ]
    @ if plant_toctou then [ scanner_tid, scanner ] else []
  in
  Ir.build ~name:"kvstore" ~main ~threads ()
