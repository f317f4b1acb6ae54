let key_bytes = 32
let nonce_bytes = 12

let check_sizes ~key ~nonce =
  if Bytes.length key <> key_bytes then
    invalid_arg (Printf.sprintf "Aead: key must be %d bytes" key_bytes);
  if Bytes.length nonce <> nonce_bytes then
    invalid_arg (Printf.sprintf "Aead: nonce must be %d bytes" nonce_bytes)

(* Independent subkeys so a ciphertext never doubles as MAC input keyed
   with the encryption key. *)
let enc_key key = Hmac.derive ~secret:key ~label:"aead-chacha20-enc" ~len:key_bytes
let mac_key key = Hmac.derive ~secret:key ~label:"aead-hmac-mac" ~len:key_bytes

let le64 n =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int n);
  b

let mac_input ~aad ~nonce ciphertext =
  Bytes.concat Bytes.empty
    [ le64 (Bytes.length aad); aad; le64 (Bytes.length nonce); nonce; ciphertext ]

let tag_of ~key ~nonce ~aad ciphertext =
  Hmac.sha256 ~key:(mac_key key) (mac_input ~aad ~nonce ciphertext)

(* Constant-time equality: accumulate the XOR of every byte pair so the
   comparison cost does not depend on where the first difference is. *)
let ct_equal a b =
  Bytes.length a = Bytes.length b
  && begin
       let acc = ref 0 in
       for i = 0 to Bytes.length a - 1 do
         acc := !acc lor (Char.code (Bytes.get a i) lxor Char.code (Bytes.get b i))
       done;
       !acc = 0
     end

let seal ~key ~nonce ~aad plaintext =
  check_sizes ~key ~nonce;
  let ciphertext = Chacha20.crypt ~key:(enc_key key) ~nonce plaintext in
  (ciphertext, tag_of ~key ~nonce ~aad ciphertext)

let verify ~key ~nonce ~aad ~tag ciphertext =
  check_sizes ~key ~nonce;
  ct_equal tag (tag_of ~key ~nonce ~aad ciphertext)

let open_ ~key ~nonce ~aad ~tag ciphertext =
  if not (verify ~key ~nonce ~aad ~tag ciphertext) then
    Error "AEAD: authentication failed"
  else Ok (Chacha20.crypt ~key:(enc_key key) ~nonce ciphertext)
