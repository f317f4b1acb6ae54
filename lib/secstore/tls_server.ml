open Mpk_hw
open Mpk_kernel
open Mpk_crypto

type t = { ks : Keystore.t }

type session = { key : bytes; nonce : bytes }

(* ~0.2 ms at 2.4 GHz: the ballpark of a 1024-bit RSA private-key op. *)
let rsa_decrypt_cycles = 500_000.0

(* symmetric crypto + copy per payload byte *)
let per_byte_cycles = 3.0

let create ~mode proc task ?mpk ~seed () =
  let prng = Mpk_util.Prng.create ~seed in
  let kp = Rsa.generate prng ~bits:128 in
  let ks = Keystore.create ~mode proc task ?mpk () in
  ignore (Keystore.store ks task kp);
  { ks }

let keystore t = t.ks

let premaster_len = 8

let client_hello t prng =
  let premaster = Bytes.init premaster_len (fun _ -> Char.chr (Mpk_util.Prng.int prng 256)) in
  let blob = Rsa.encrypt_bytes (Keystore.public t.ks) premaster in
  let key = Hmac.derive ~secret:premaster ~label:"session" ~len:32 in
  blob, key

(* The private-key operation: key bytes are fetched from (protected)
   simulated memory, and the heavy modexp is charged to the core. *)
let accept t task blob =
  let premaster =
    Keystore.with_secret t.ks task (fun secret ->
        Cpu.charge ~label:"rsa_decrypt" (Task.core task) rsa_decrypt_cycles;
        Rsa.decrypt_bytes_padded secret blob ~len:premaster_len)
  in
  {
    key = Hmac.derive ~secret:premaster ~label:"session" ~len:32;
    nonce = Bytes.make 12 '\000';
  }

let session_key s = s.key

let serve task session ~size =
  let core = Task.core task in
  (* Request decrypt (small) + response build/encrypt (size-dependent). *)
  Cpu.charge ~label:"record_copy" core (64.0 *. per_byte_cycles);
  Cpu.charge ~label:"record_copy" core (float_of_int size *. per_byte_cycles);
  (* Produce a real (sampled) ciphertext so correctness is testable
     without streaming megabytes through the simulator. *)
  let sample = min size 4096 in
  let body = Bytes.make sample 'd' in
  Chacha20.crypt ~key:session.key ~nonce:session.nonce body
