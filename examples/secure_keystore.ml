(* The OpenSSL case study (paper §5.1/§6.1): a TLS-like server stores its
   RSA private key in an mpk-protected heap. A Heartbleed-style over-read
   leaks the key from the unprotected server; against the protected one
   it dies with a protection-key fault.

     dune exec examples/secure_keystore.exe *)

open Mpk_kernel
open Mpk_secstore

let line = String.make 70 '-'

let demo mode =
  Printf.printf "%s\nkeystore mode: %s\n%s\n" line
    (match mode with
    | Keystore.Insecure -> "INSECURE (stock OpenSSL layout)"
    | Keystore.Protected -> "PROTECTED (libmpk: keys in an isolated page group)")
    line;
  let machine = Mpk_hw.Machine.create ~cores:2 ~mem_mib:64 () in
  let proc = Proc.create machine in
  let task = Proc.spawn proc ~core_id:0 () in
  let mpk =
    match mode with
    | Keystore.Protected -> Some (Libmpk.init ~evict_rate:1.0 proc task)
    | Keystore.Insecure -> None
  in
  let server = Tls_server.create ~mode proc task ?mpk ~seed:0x5EC0L () in
  let ks = Tls_server.keystore server in

  (* Normal operation works in both modes: handshake + one request. *)
  let prng = Mpk_util.Prng.create ~seed:42L in
  let blob, client_key = Tls_server.client_hello server prng in
  let session = Tls_server.accept server task blob in
  Printf.printf "TLS handshake: session keys agree = %b\n"
    (Bytes.equal client_key (Tls_server.session_key session));
  ignore (Tls_server.serve task session ~size:1024);
  print_endline "served a 1 KB response over the session";

  (* The attack: a heartbeat echo claiming far more bytes than it sent. *)
  print_endline "\nattacker sends: payload=\"ping\" claimed_len=8192 ...";
  (match Heartbleed.echo ks task ~payload:(Bytes.of_string "ping") ~claimed_len:8192 with
  | Heartbleed.Leaked data ->
      Printf.printf "server echoed %d bytes\n" (Bytes.length data);
      if Heartbleed.leaks_secret ks task (Heartbleed.Leaked data) then
        print_endline ">>> PRIVATE KEY LEAKED (the echoed bytes contain the RSA secret) <<<"
      else print_endline "over-read succeeded but missed the key"
  | Heartbleed.Crashed reason ->
      Printf.printf "request died: %s\n" reason;
      print_endline ">>> attack blocked: the over-read hit the protected page group <<<");
  print_newline ()

let () =
  demo Keystore.Insecure;
  demo Keystore.Protected;
  print_endline "secure_keystore demo done."
