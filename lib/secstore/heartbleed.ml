open Mpk_hw
open Mpk_kernel

type outcome = Leaked of bytes | Crashed of string

let echo ks task ~payload ~claimed_len =
  let buf = Keystore.alloc_request_buffer ks task ~len:(Bytes.length payload) in
  Mmu.write_bytes (Proc.mmu (Keystore.proc_of ks)) (Task.core task) ~addr:buf payload;
  match Keystore.attacker_read ks task ~addr:buf ~len:claimed_len with
  | data -> Leaked data
  | exception Mmu.Fault f -> Crashed (Mmu.fault_to_string f)
  | exception Signal.Killed si -> Crashed (Signal.to_string si)

let contains ~needle hay =
  let n = Bytes.length needle and h = Bytes.length hay in
  if n = 0 || n > h then false
  else begin
    let rec scan i = i + n <= h && (Bytes.equal (Bytes.sub hay i n) needle || scan (i + 1)) in
    scan 0
  end

let leaks_secret ks task outcome =
  match outcome with
  | Crashed _ -> false
  | Leaked data ->
      let secret =
        Keystore.with_secret ks task (fun s ->
            let b = Mpk_crypto.Bignum.to_bytes s.Mpk_crypto.Rsa.d in
            b)
      in
      contains ~needle:secret data
