(* Tests for mpk_crypto: bignum arithmetic (incl. properties against
   OCaml's native ints), SHA-256/ChaCha20/HMAC known-answer vectors, RSA
   roundtrips. *)

open Mpk_crypto

let qtest = QCheck_alcotest.to_alcotest

let prng () = Mpk_util.Prng.create ~seed:0xBEEFL

(* --- Bignum --- *)

let big =
  Alcotest.testable
    (fun fmt x -> Format.fprintf fmt "0x%s" (Mpk_util.Hex.encode (Bignum.to_bytes x)))
    Bignum.equal

let zero = Bignum.of_int 0

(* [x] is the natural [n]. *)
let is_int x n = Bignum.equal x (Bignum.of_int n)

(* 2^k, from its big-endian bytes. *)
let pow2 k =
  let b = Bytes.make ((k / 8) + 1) '\000' in
  Bytes.set b 0 (Char.chr (1 lsl (k mod 8)));
  Bignum.of_bytes b

let shift_left x k = Bignum.mul x (pow2 k)

(* [of_int n] read back bit by bit: every bit of [n], and none above. *)
let test_bignum_of_to_int () =
  List.iter
    (fun n ->
      let x = Bignum.of_int n in
      Alcotest.(check (list bool)) (string_of_int n)
        (List.init 64 (fun i -> i < 63 && (n lsr i) land 1 = 1))
        (List.init 64 (Bignum.testbit x)))
    [ 0; 1; 2; 255; 256; 67108863; 67108864; 1 lsl 40; max_int / 2 ]

let test_bignum_compare () =
  Alcotest.(check bool) "0 < 1" true (Bignum.compare zero Bignum.one < 0);
  Alcotest.(check bool) "big > small" true
    (Bignum.compare (Bignum.of_int 1000000) (Bignum.of_int 999999) > 0);
  Alcotest.(check bool) "equal" true (Bignum.equal (Bignum.of_int 42) (Bignum.of_int 42))

let arith_props =
  let gen = QCheck.(pair (int_bound 1_000_000_000) (int_bound 1_000_000_000)) in
  [
    QCheck.Test.make ~name:"add matches int" ~count:500 gen (fun (a, b) ->
        is_int (Bignum.add (Bignum.of_int a) (Bignum.of_int b)) (a + b));
    QCheck.Test.make ~name:"sub matches int" ~count:500 gen (fun (a, b) ->
        let hi = max a b and lo = min a b in
        is_int (Bignum.sub (Bignum.of_int hi) (Bignum.of_int lo)) (hi - lo));
    QCheck.Test.make ~name:"mul matches int" ~count:500
      QCheck.(pair (int_bound 1_000_000) (int_bound 1_000_000))
      (fun (a, b) ->
        is_int (Bignum.mul (Bignum.of_int a) (Bignum.of_int b)) (a * b));
    QCheck.Test.make ~name:"divmod matches int" ~count:500 gen (fun (a, b) ->
        QCheck.assume (b > 0);
        let q, r = Bignum.divmod (Bignum.of_int a) (Bignum.of_int b) in
        is_int q (a / b) && is_int r (a mod b));
    QCheck.Test.make ~name:"shift roundtrip" ~count:500
      QCheck.(pair (int_bound 1_000_000_000) (int_bound 80))
      (fun (a, k) ->
        let x = Bignum.of_int a in
        Bignum.equal (Bignum.shift_right (shift_left x k) k) x);
    QCheck.Test.make ~name:"bytes roundtrip" ~count:500 QCheck.(int_bound max_int)
      (fun a ->
        let x = Bignum.of_int a in
        Bignum.equal (Bignum.of_bytes (Bignum.to_bytes x)) x);
    QCheck.Test.make ~name:"mod_pow matches naive" ~count:200
      QCheck.(triple (int_bound 1000) (int_bound 30) (int_range 2 1000))
      (fun (b, e, m) ->
        let rec naive acc i = if i = 0 then acc else naive (acc * b mod m) (i - 1) in
        is_int
          (Bignum.mod_pow ~base:(Bignum.of_int b) ~exp:(Bignum.of_int e)
             ~modulus:(Bignum.of_int m))
          (naive 1 e));
  ]

(* Shift-and-subtract long division, one quotient bit at a time: the
   reference [Bignum.divmod] must match exactly. *)
let bit_serial_divmod a b =
  if Bignum.compare a b < 0 then zero, a
  else begin
    let q = ref zero and r = ref a in
    for i = Bignum.bits a - Bignum.bits b downto 0 do
      let d = shift_left b i in
      if Bignum.compare !r d >= 0 then begin
        r := Bignum.sub !r d;
        q := Bignum.add !q (pow2 i)
      end
    done;
    !q, !r
  end

(* Operands of up to 700 and 400 bits drawn from the case's seed; every
   third divisor is 2^k - 1, whose all-ones digits stress the quotient
   estimate's correction and add-back steps. *)
let divmod_reference_prop =
  QCheck.Test.make ~name:"divmod matches bit-serial division" ~count:300
    QCheck.(triple (int_range 1 700) (int_range 1 400) int)
    (fun (abits, bbits, seed) ->
      let p = Mpk_util.Prng.create ~seed:(Int64.of_int seed) in
      let a = Bignum.random p ~bits:abits in
      let b =
        if seed mod 3 = 0 then Bignum.sub (pow2 bbits) Bignum.one
        else Bignum.random p ~bits:bbits
      in
      let q, r = Bignum.divmod a b in
      let q', r' = bit_serial_divmod a b in
      Bignum.equal q q' && Bignum.equal r r'
      && Bignum.equal a (Bignum.add (Bignum.mul q b) r)
      && Bignum.compare r b < 0)

(* Random operands almost never make a quotient-digit estimate one too
   large after its correction test (about 2 in 2^26 digits). These
   pairs, written as big-endian 26-bit digits, each do. *)
let test_bignum_divmod_add_back () =
  let of_digits =
    List.fold_left
      (fun acc d -> Bignum.add (shift_left acc 26) (Bignum.of_int d))
      zero
  in
  let half = 1 lsl 25 and top = (1 lsl 26) - 1 in
  List.iter
    (fun (da, db) ->
      let a = of_digits da and b = of_digits db in
      let q, r = Bignum.divmod a b in
      let q', r' = bit_serial_divmod a b in
      Alcotest.check big "quotient" q' q;
      Alcotest.check big "remainder" r' r)
    [
      [ half; 1; half - 1; half ], [ half; 1; top ];
      [ half; top; half; 0 ], [ 1; half - 1; top ];
      [ half; half - 1; 1; 1 ], [ 1; 0; top; 1 ];
      [ half - 1; half; half; half; 1 ], [ half; half - 1; top ];
    ]

let test_bignum_large_mul_div () =
  let p = prng () in
  let a = Bignum.random p ~bits:300 in
  let b = Bignum.random p ~bits:200 in
  let prod = Bignum.mul a b in
  let q, r = Bignum.divmod prod b in
  Alcotest.check big "(a*b)/b = a" a q;
  Alcotest.check big "(a*b) mod b = 0" zero r

let test_bignum_sub_negative () =
  Alcotest.check_raises "negative sub" (Invalid_argument "Bignum.sub: would be negative")
    (fun () -> ignore (Bignum.sub Bignum.one Bignum.two))

let test_bignum_invmod () =
  (* 3 * 4 = 12 ≡ 1 (mod 11) *)
  (match Bignum.invmod (Bignum.of_int 3) (Bignum.of_int 11) with
  | Some x -> Alcotest.check big "3^-1 mod 11 = 4" (Bignum.of_int 4) x
  | None -> Alcotest.fail "inverse exists");
  (* gcd(4, 8) != 1: no inverse *)
  Alcotest.(check bool) "no inverse" true (Bignum.invmod (Bignum.of_int 4) (Bignum.of_int 8) = None)

let invmod_property =
  QCheck.Test.make ~name:"invmod: a * a^-1 = 1 mod m" ~count:300
    QCheck.(pair (int_range 2 100000) (int_range 2 100000))
    (fun (a, m) ->
      match Bignum.invmod (Bignum.of_int a) (Bignum.of_int m) with
      | None -> true  (* not coprime *)
      | Some inv ->
          is_int (Bignum.rem (Bignum.mul (Bignum.of_int a) inv) (Bignum.of_int m)) 1)

let test_bignum_random_bits () =
  let p = prng () in
  for _ = 1 to 50 do
    let x = Bignum.random p ~bits:100 in
    Alcotest.(check int) "exact bit width" 100 (Bignum.bits x)
  done

let test_bignum_padded () =
  let x = Bignum.of_int 0xABCD in
  let b = Bignum.to_bytes_padded x ~len:4 in
  Alcotest.(check string) "padded" "\x00\x00\xab\xcd" (Bytes.to_string b)

(* --- SHA-256 known-answer vectors (FIPS / NIST) --- *)

let test_sha256_vectors () =
  Alcotest.(check string) "empty"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Mpk_util.Hex.encode (Sha256.digest (Bytes.of_string "")));
  Alcotest.(check string) "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Mpk_util.Hex.encode (Sha256.digest (Bytes.of_string "abc")));
  Alcotest.(check string) "448-bit"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Mpk_util.Hex.encode (Sha256.digest (Bytes.of_string "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")))

let test_sha256_long () =
  (* one million 'a' characters, the classic NIST vector *)
  Alcotest.(check string) "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Mpk_util.Hex.encode (Sha256.digest (Bytes.make 1_000_000 'a')))

(* --- ChaCha20 RFC 8439 vector --- *)

let hex_to_bytes s =
  let n = String.length s / 2 in
  Bytes.init n (fun i -> Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))

let bytes_to_hex b =
  let buf = Buffer.create (Bytes.length b * 2) in
  Bytes.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) b;
  Buffer.contents buf

let test_chacha20_rfc_block () =
  (* RFC 8439 §2.3.2 test vector *)
  let key = hex_to_bytes "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f" in
  let nonce = hex_to_bytes "000000090000004a00000000" in
  (* the keystream block is what encrypting 64 zero bytes yields *)
  let ks = Chacha20.crypt ~key ~nonce ~counter:1 (Bytes.make 64 '\000') in
  Alcotest.(check string) "keystream block"
    "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4ed2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
    (bytes_to_hex ks)

let test_chacha20_rfc_encrypt () =
  (* RFC 8439 §2.4.2 *)
  let key = hex_to_bytes "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f" in
  let nonce = hex_to_bytes "000000000000004a00000000" in
  let plain =
    Bytes.of_string
      "Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it."
  in
  let ct = Chacha20.crypt ~key ~nonce ~counter:1 plain in
  Alcotest.(check string) "ciphertext head" "6e2e359a2568f98041ba0728dd0d6981"
    (bytes_to_hex (Bytes.sub ct 0 16));
  Alcotest.(check string) "roundtrip" (Bytes.to_string plain)
    (Bytes.to_string (Chacha20.crypt ~key ~nonce ~counter:1 ct))

let chacha_roundtrip =
  QCheck.Test.make ~name:"chacha20 roundtrip" ~count:100 QCheck.(string_of_size (QCheck.Gen.int_bound 500))
    (fun s ->
      let key = Bytes.make 32 'k' in
      let nonce = Bytes.make 12 'n' in
      let data = Bytes.of_string s in
      Bytes.equal (Chacha20.crypt ~key ~nonce (Chacha20.crypt ~key ~nonce data)) data)

(* --- HMAC (RFC 4231 test case 2) --- *)

let test_hmac_rfc4231 () =
  let mac = Hmac.sha256 ~key:(Bytes.of_string "Jefe") (Bytes.of_string "what do ya want for nothing?") in
  Alcotest.(check string) "tc2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (bytes_to_hex mac)

let test_hmac_long_key () =
  (* keys longer than the block size are hashed first (RFC 4231 tc6) *)
  let key = Bytes.make 131 '\xaa' in
  let mac = Hmac.sha256 ~key (Bytes.of_string "Test Using Larger Than Block-Size Key - Hash Key First") in
  Alcotest.(check string) "tc6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (bytes_to_hex mac)

let test_hmac_derive_len () =
  let d = Hmac.derive ~secret:(Bytes.of_string "s") ~label:"session" ~len:50 in
  Alcotest.(check int) "length" 50 (Bytes.length d);
  let d2 = Hmac.derive ~secret:(Bytes.of_string "s") ~label:"session" ~len:50 in
  Alcotest.(check string) "deterministic" (bytes_to_hex d) (bytes_to_hex d2);
  let d3 = Hmac.derive ~secret:(Bytes.of_string "s") ~label:"other" ~len:50 in
  Alcotest.(check bool) "label matters" false (Bytes.equal d d3)

(* --- RSA --- *)

let test_miller_rabin_known () =
  let p = prng () in
  List.iter
    (fun (n, expect) ->
      Alcotest.(check bool) (string_of_int n) expect
        (Rsa.probably_prime p (Bignum.of_int n)))
    [
      2, true; 3, true; 4, false; 17, true; 561, false (* Carmichael *);
      7919, true; 7917, false; 104729, true; 104730, false;
      2147483647, true (* 2^31-1, Mersenne prime *);
    ]

let test_rsa_roundtrip () =
  let p = prng () in
  let kp = Rsa.generate p ~bits:128 in
  let msg = Bignum.to_bytes (Bignum.of_int 123456789) in
  let ct = Rsa.encrypt_bytes kp.Rsa.public msg in
  Alcotest.(check bool) "ciphertext differs" false
    (Bignum.equal (Bignum.of_bytes ct) (Bignum.of_bytes msg));
  Alcotest.(check bytes) "decrypt" msg
    (Rsa.decrypt_bytes_padded kp.Rsa.secret ct ~len:(Bytes.length msg))

let test_rsa_bytes_roundtrip () =
  let p = prng () in
  let kp = Rsa.generate p ~bits:128 in
  let msg = Bytes.of_string "premaster" in
  let ct = Rsa.encrypt_bytes kp.Rsa.public msg in
  Alcotest.(check string) "roundtrip" "premaster"
    (Bytes.to_string (Rsa.decrypt_bytes_padded kp.Rsa.secret ct ~len:(Bytes.length msg)))

let test_rsa_distinct_keys () =
  let p = prng () in
  let k1 = Rsa.generate p ~bits:96 in
  let k2 = Rsa.generate p ~bits:96 in
  Alcotest.(check bool) "moduli differ" false
    (Bignum.equal k1.Rsa.public.Rsa.n k2.Rsa.public.Rsa.n);
  (* decrypting with the wrong key garbles *)
  let msg = Bignum.to_bytes (Bignum.of_int 424242) in
  let ct = Rsa.encrypt_bytes k1.Rsa.public msg in
  let ct = Bignum.to_bytes (Bignum.rem (Bignum.of_bytes ct) k2.Rsa.secret.Rsa.n) in
  let wrong = Rsa.decrypt_bytes_padded k2.Rsa.secret ct ~len:12 in
  Alcotest.(check bool) "wrong key fails" false
    (Bignum.equal (Bignum.of_bytes wrong) (Bignum.of_bytes msg))

(* --- Aead (encrypt-then-MAC, the core-dump sealer) --- *)

let aead_key = Bytes.init 32 Char.chr
let aead_nonce = Bytes.init 12 Char.chr
let aead_aad = Bytes.of_string "mpk-core|kat"

(* Known answer computed with an independent implementation of the
   construction (ChaCha20 + HKDF-style derive + HMAC-SHA256 over the
   length-prefixed aad/nonce/ciphertext concatenation). *)
let test_aead_kat () =
  let ct, tag = Aead.seal ~key:aead_key ~nonce:aead_nonce ~aad:aead_aad
      (Bytes.of_string "attack at dawn")
  in
  Alcotest.(check string) "ciphertext" "c6799860edb0bda9d08a336c0767" (Mpk_util.Hex.encode ct);
  Alcotest.(check string) "tag"
    "cb83371f0f73f989e2efcf963f25535d2ae72beef05b45ba882d663210ba5e1e"
    (Mpk_util.Hex.encode tag)

let test_aead_roundtrip () =
  List.iter
    (fun len ->
      let pt = Bytes.init len (fun i -> Char.chr ((i * 7 + len) land 0xff)) in
      let ct, tag = Aead.seal ~key:aead_key ~nonce:aead_nonce ~aad:aead_aad pt in
      if len > 0 then
        Alcotest.(check bool) "ciphertext differs" false (Bytes.equal ct pt);
      match Aead.open_ ~key:aead_key ~nonce:aead_nonce ~aad:aead_aad ~tag ct with
      | Ok pt' -> Alcotest.(check bool) (Printf.sprintf "len %d" len) true (Bytes.equal pt pt')
      | Error e -> Alcotest.fail e)
    [ 0; 1; 63; 64; 65; 4096 ]

let expect_reject name ~nonce ~aad ~tag ct =
  (match Aead.open_ ~key:aead_key ~nonce ~aad ~tag ct with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: forgery accepted" name)

let test_aead_tamper () =
  let pt = Bytes.of_string "protected page bytes" in
  let ct, tag = Aead.seal ~key:aead_key ~nonce:aead_nonce ~aad:aead_aad pt in
  (* flipped ciphertext bit *)
  let ct' = Bytes.copy ct in
  Bytes.set ct' 3 (Char.chr (Char.code (Bytes.get ct' 3) lxor 0x10));
  expect_reject "flipped ct bit" ~nonce:aead_nonce ~aad:aead_aad ~tag ct';
  (* swapped nonce *)
  let nonce' = Bytes.init 12 (fun i -> Char.chr (11 - i)) in
  expect_reject "swapped nonce" ~nonce:nonce' ~aad:aead_aad ~tag ct;
  (* truncated tag *)
  expect_reject "truncated tag" ~nonce:aead_nonce ~aad:aead_aad
    ~tag:(Bytes.sub tag 0 16) ct;
  (* altered aad *)
  expect_reject "altered aad" ~nonce:aead_nonce ~aad:(Bytes.of_string "mpk-core|kat2") ~tag ct;
  (* flipped tag bit *)
  let tag' = Bytes.copy tag in
  Bytes.set tag' 0 (Char.chr (Char.code (Bytes.get tag' 0) lxor 1));
  expect_reject "flipped tag bit" ~nonce:aead_nonce ~aad:aead_aad ~tag:tag' ct

let test_aead_wrong_key () =
  let pt = Bytes.of_string "secret" in
  let ct, tag = Aead.seal ~key:aead_key ~nonce:aead_nonce ~aad:aead_aad pt in
  let key' = Bytes.init 32 (fun i -> Char.chr (i + 1)) in
  match Aead.open_ ~key:key' ~nonce:aead_nonce ~aad:aead_aad ~tag ct with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong key accepted"

let test_aead_sizes () =
  Alcotest.check_raises "short key" (Invalid_argument "Aead: key must be 32 bytes")
    (fun () -> ignore (Aead.seal ~key:(Bytes.create 16) ~nonce:aead_nonce ~aad:aead_aad Bytes.empty));
  Alcotest.check_raises "short nonce" (Invalid_argument "Aead: nonce must be 12 bytes")
    (fun () -> ignore (Aead.seal ~key:aead_key ~nonce:(Bytes.create 8) ~aad:aead_aad Bytes.empty))

let aead_roundtrip_prop =
  QCheck.Test.make ~name:"aead seal/open roundtrip" ~count:200
    QCheck.(string_of_size (Gen.int_bound 300))
    (fun s ->
      let pt = Bytes.of_string s in
      let ct, tag = Aead.seal ~key:aead_key ~nonce:aead_nonce ~aad:aead_aad pt in
      match Aead.open_ ~key:aead_key ~nonce:aead_nonce ~aad:aead_aad ~tag ct with
      | Ok pt' -> Bytes.equal pt pt'
      | Error _ -> false)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "mpk_crypto"
    [
      ( "bignum",
        [
          tc "of/to int" `Quick test_bignum_of_to_int;
          tc "compare" `Quick test_bignum_compare;
          tc "large mul/div" `Quick test_bignum_large_mul_div;
          tc "sub negative" `Quick test_bignum_sub_negative;
          tc "invmod" `Quick test_bignum_invmod;
          tc "random bits" `Quick test_bignum_random_bits;
          tc "padded bytes" `Quick test_bignum_padded;
          qtest invmod_property;
        ]
        @ List.map qtest arith_props
        @ [
            tc "divmod add-back" `Quick test_bignum_divmod_add_back;
            qtest divmod_reference_prop;
          ] );
      ( "sha256",
        [ tc "vectors" `Quick test_sha256_vectors; tc "million a" `Slow test_sha256_long ] );
      ( "chacha20",
        [
          tc "rfc block" `Quick test_chacha20_rfc_block;
          tc "rfc encrypt" `Quick test_chacha20_rfc_encrypt;
          qtest chacha_roundtrip;
        ] );
      ( "hmac",
        [
          tc "rfc4231 tc2" `Quick test_hmac_rfc4231;
          tc "long key" `Quick test_hmac_long_key;
          tc "derive" `Quick test_hmac_derive_len;
        ] );
      ( "aead",
        [
          tc "known answer" `Quick test_aead_kat;
          tc "roundtrip" `Quick test_aead_roundtrip;
          tc "tamper detection" `Quick test_aead_tamper;
          tc "wrong key" `Quick test_aead_wrong_key;
          tc "size validation" `Quick test_aead_sizes;
          qtest aead_roundtrip_prop;
        ] );
      ( "rsa",
        [
          tc "miller-rabin" `Quick test_miller_rabin_known;
          tc "roundtrip" `Quick test_rsa_roundtrip;
          tc "bytes roundtrip" `Quick test_rsa_bytes_roundtrip;
          tc "distinct keys" `Quick test_rsa_distinct_keys;
        ] );
    ]
