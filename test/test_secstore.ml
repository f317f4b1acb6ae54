(* Tests for the OpenSSL case study: keystore storage/retrieval, the
   Heartbleed PoC (leaks when insecure, crashes when protected — paper
   §6.1), the TLS-like handshake, and the load generator. *)

open Mpk_kernel
open Mpk_secstore

let make_env ?(threads = 2) () =
  let machine = Mpk_hw.Machine.create ~cores:4 ~mem_mib:128 () in
  let proc = Proc.create machine in
  let main = Proc.spawn proc ~core_id:0 () in
  let others = List.init (threads - 1) (fun i -> Proc.spawn proc ~core_id:(i + 1) ()) in
  proc, main, others

let keypair seed =
  Mpk_crypto.Rsa.generate (Mpk_util.Prng.create ~seed) ~bits:96

(* --- Keystore --- *)

let test_keystore_roundtrip_insecure () =
  let proc, main, _ = make_env () in
  let ks = Keystore.create ~mode:Keystore.Insecure proc main () in
  let kp = keypair 1L in
  ignore (Keystore.store ks main kp);
  Keystore.with_secret ks main (fun s ->
      Alcotest.(check bool) "d preserved" true
        (Mpk_crypto.Bignum.equal s.Mpk_crypto.Rsa.d kp.Mpk_crypto.Rsa.secret.Mpk_crypto.Rsa.d))

let test_keystore_roundtrip_protected () =
  let proc, main, _ = make_env () in
  let mpk = Libmpk.init ~evict_rate:1.0 proc main in
  let ks = Keystore.create ~mode:Keystore.Protected proc main ~mpk () in
  let kp = keypair 2L in
  ignore (Keystore.store ks main kp);
  Keystore.with_secret ks main (fun s ->
      Alcotest.(check bool) "n preserved" true
        (Mpk_crypto.Bignum.equal s.Mpk_crypto.Rsa.n kp.Mpk_crypto.Rsa.secret.Mpk_crypto.Rsa.n))

let test_keystore_protected_requires_mpk () =
  let proc, main, _ = make_env () in
  Alcotest.check_raises "missing mpk"
    (Invalid_argument "Keystore.create: Protected mode requires ~mpk") (fun () ->
      ignore (Keystore.create ~mode:Keystore.Protected proc main ()))

let test_keystore_protected_key_unreadable_outside_domain () =
  let proc, main, _ = make_env () in
  let mpk = Libmpk.init ~evict_rate:1.0 proc main in
  let ks = Keystore.create ~mode:Keystore.Protected proc main ~mpk () in
  ignore (Keystore.store ks main (keypair 3L));
  let addr, len = Keystore.secret_region ks in
  match Keystore.attacker_read ks main ~addr ~len with
  | exception Signal.Killed _ -> ()
  | _ -> Alcotest.fail "secret readable outside mpk_begin"

(* --- Heartbleed --- *)

let test_heartbleed_leaks_insecure () =
  let proc, main, _ = make_env () in
  let ks = Keystore.create ~mode:Keystore.Insecure proc main () in
  ignore (Keystore.store ks main (keypair 4L));
  (* claimed_len reaches past the buffer area into the key material *)
  match Heartbleed.echo ks main ~payload:(Bytes.of_string "ping") ~claimed_len:2048 with
  | Heartbleed.Crashed f -> Alcotest.failf "insecure echo crashed: %s" f
  | Heartbleed.Leaked _ as outcome ->
      Alcotest.(check bool) "private key leaked" true (Heartbleed.leaks_secret ks main outcome)

let test_heartbleed_blocked_protected () =
  let proc, main, _ = make_env () in
  let mpk = Libmpk.init ~evict_rate:1.0 proc main in
  let ks = Keystore.create ~mode:Keystore.Protected proc main ~mpk () in
  ignore (Keystore.store ks main (keypair 5L));
  match Heartbleed.echo ks main ~payload:(Bytes.of_string "ping") ~claimed_len:8192 with
  | Heartbleed.Crashed reason ->
      Alcotest.(check bool) "killed by a fault (paper: segmentation fault)" true
        (String.length reason > 0)
  | Heartbleed.Leaked _ as outcome ->
      if Heartbleed.leaks_secret ks main outcome then
        Alcotest.fail "protected keystore leaked the private key"
      else Alcotest.fail "over-read succeeded (should have faulted)"

let test_heartbleed_honest_read_ok () =
  (* A well-behaved echo (claimed_len = payload length) works in both
     modes. *)
  List.iter
    (fun mode ->
      let proc, main, _ = make_env () in
      let mpk =
        match mode with
        | Keystore.Protected -> Some (Libmpk.init ~evict_rate:1.0 proc main)
        | Keystore.Insecure -> None
      in
      let ks = Keystore.create ~mode proc main ?mpk () in
      ignore (Keystore.store ks main (keypair 6L));
      match Heartbleed.echo ks main ~payload:(Bytes.of_string "hello") ~claimed_len:5 with
      | Heartbleed.Leaked data -> Alcotest.(check string) "echo" "hello" (Bytes.to_string data)
      | Heartbleed.Crashed f -> Alcotest.failf "honest echo crashed: %s" f)
    [ Keystore.Insecure; Keystore.Protected ]

(* --- TLS server --- *)

let test_handshake_agrees () =
  List.iter
    (fun mode ->
      let proc, main, _ = make_env () in
      let mpk =
        match mode with
        | Keystore.Protected -> Some (Libmpk.init ~evict_rate:1.0 proc main)
        | Keystore.Insecure -> None
      in
      let server = Tls_server.create ~mode proc main ?mpk ~seed:7L () in
      let prng = Mpk_util.Prng.create ~seed:9L in
      let blob, client_key = Tls_server.client_hello server prng in
      let session = Tls_server.accept server main blob in
      Alcotest.(check bytes) "session keys agree" client_key (Tls_server.session_key session))
    [ Keystore.Insecure; Keystore.Protected ]

let test_serve_charges_by_size () =
  let proc, main, _ = make_env () in
  let server = Tls_server.create ~mode:Keystore.Insecure proc main ~seed:8L () in
  let prng = Mpk_util.Prng.create ~seed:10L in
  let blob, _ = Tls_server.client_hello server prng in
  let session = Tls_server.accept server main blob in
  let core = Task.core main in
  let measure size =
    snd (Mpk_hw.Cpu.measure core (fun () -> ignore (Tls_server.serve main session ~size)))
  in
  let small = measure 1024 in
  let large = measure (512 * 1024) in
  Alcotest.(check bool) "large costs more" true (large > 100.0 *. small)

let test_heartbeat_rejected_then_serves () =
  (* the Heartbleed probe against the hardened server: the over-read hits
     the keystore's pkey and the request dies on SEGV_PKUERR, and the
     server still echoes an honest heartbeat and completes a fresh
     handshake + request after *)
  let proc, main, _ = make_env () in
  let mpk = Libmpk.init ~evict_rate:1.0 proc main in
  let server = Tls_server.create ~mode:Keystore.Protected proc main ~mpk ~seed:31L () in
  let ks = Tls_server.keystore server in
  (* the probe: claim far more than was sent — the first request buffer
     sits directly below the keystore group, so the over-read walks into
     its pkey-protected pages *)
  (match Heartbleed.echo ks main ~payload:(Bytes.of_string "ping") ~claimed_len:65536 with
  | Heartbleed.Leaked data -> Alcotest.failf "probe served: leaked %d bytes" (Bytes.length data)
  | Heartbleed.Crashed reason ->
      let rec mentions i =
        i + 11 <= String.length reason
        && (String.sub reason i 11 = "SEGV_PKUERR" || mentions (i + 1))
      in
      Alcotest.(check bool) ("a pkey fault: " ^ reason) true (mentions 0));
  (* an honest heartbeat afterwards: served *)
  (match Heartbleed.echo ks main ~payload:(Bytes.of_string "ping") ~claimed_len:4 with
  | Heartbleed.Leaked data -> Alcotest.(check string) "echo" "ping" (Bytes.to_string data)
  | Heartbleed.Crashed reason -> Alcotest.failf "honest heartbeat crashed: %s" reason);
  (* the server survived: the next client is served normally *)
  let prng = Mpk_util.Prng.create ~seed:32L in
  let blob, client_key = Tls_server.client_hello server prng in
  let session = Tls_server.accept server main blob in
  Alcotest.(check bytes) "handshake after the probe" client_key (Tls_server.session_key session);
  ignore (Tls_server.serve main session ~size:1024)

let test_loadgen_overhead_under_one_percent () =
  (* Fig 11's claim: libmpk costs < 1% of throughput. *)
  let throughput mode =
    let proc, main, others = make_env ~threads:4 () in
    let mpk =
      match mode with
      | Keystore.Protected -> Some (Libmpk.init ~evict_rate:1.0 proc main)
      | Keystore.Insecure -> None
    in
    let server = Tls_server.create ~mode proc main ?mpk ~seed:11L () in
    (Loadgen.run server (main :: others) ~requests:200 ~size:4096).Loadgen.throughput_rps
  in
  let base = throughput Keystore.Insecure in
  let prot = throughput Keystore.Protected in
  let overhead = (base -. prot) /. base in
  Alcotest.(check bool)
    (Printf.sprintf "overhead %.4f%% < 1%%" (overhead *. 100.0))
    true
    (overhead < 0.01 && overhead > -0.01)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "mpk_secstore"
    [
      ( "keystore",
        [
          tc "roundtrip insecure" `Quick test_keystore_roundtrip_insecure;
          tc "roundtrip protected" `Quick test_keystore_roundtrip_protected;
          tc "protected requires mpk" `Quick test_keystore_protected_requires_mpk;
          tc "unreadable outside domain" `Quick test_keystore_protected_key_unreadable_outside_domain;
        ] );
      ( "heartbleed",
        [
          tc "leaks when insecure" `Quick test_heartbleed_leaks_insecure;
          tc "blocked when protected" `Quick test_heartbleed_blocked_protected;
          tc "honest read ok" `Quick test_heartbleed_honest_read_ok;
        ] );
      ( "tls",
        [
          tc "handshake agrees" `Quick test_handshake_agrees;
          tc "serve charges by size" `Quick test_serve_charges_by_size;
          tc "heartbeat rejected, server survives" `Quick test_heartbeat_rejected_then_serves;
          tc "libmpk overhead <1%" `Quick test_loadgen_overhead_under_one_percent;
        ] );
    ]
