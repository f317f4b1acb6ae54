open Mpk_analysis
open Mpk_hw

let key_vkey = Keystore.vkey

let program ?plant () =
  let open Ir in
  let sign_session =
    [
      op (Begin { vkey = key_vkey; prot = Perm.r });
      Guard
        ( [ label "derive signature"; op (Read { vkey = key_vkey }); op (End { vkey = key_vkey }) ],
          [ op (End { vkey = key_vkey }); label "drop session" ] );
    ]
  in
  let main =
    [
      op (Mmap { vkey = key_vkey; pages = 1; prot = Perm.rw });
      label "store secret";
      op (Begin { vkey = key_vkey; prot = Perm.rw });
      op (Write { vkey = key_vkey });
      op (End { vkey = key_vkey });
      Loop
        ( "serve TLS",
          [ If ("handshake?", sign_session, [ label "static response" ]) ] );
    ]
    @ (match plant with
      | Some `Leak -> [ label "shutdown (free forgotten)" ]
      | Some `Double_free ->
          [ op (Free { vkey = key_vkey }); op (Free { vkey = key_vkey }) ]
      | Some `Use_after_free ->
          op (Free { vkey = key_vkey })
          :: label "drain stale session"
          :: sign_session
      | None -> [ op (Free { vkey = key_vkey }) ])
  in
  Ir.build ~name:"secstore" ~main ()
