open Mpk_hw
open Mpk_kernel
open Mpk_crypto

type mode = Insecure | Protected

let vkey = 100  (* hardcoded, as §4.3 requires *)

let page = Physmem.page_size

type t = {
  mode : mode;
  proc : Proc.t;
  mpk : Libmpk.t option;
  region : int;  (* insecure heap base *)
  mutable bump : int;  (* next free offset in the insecure region *)
  mutable secret_addr : int;
  mutable secret_len : int;
  mutable pub : Rsa.public option;
  mutable adjacent_free : bool;  (* protected: guard-page slot unused *)
}

let insecure_region_pages = 16

(* Insecure layout: request buffers bump-allocate from the region base;
   the serialized key lives at this fixed offset just above them — the
   adjacency Heartbleed exploited. *)
let insecure_key_offset = 1024

let create ~mode proc task ?mpk () =
  (match mode, mpk with
  | Protected, None -> invalid_arg "Keystore.create: Protected mode requires ~mpk"
  | _ -> ());
  let region =
    match mode with
    | Insecure -> Syscall.mmap proc task ~len:(insecure_region_pages * page) ~prot:Perm.rw ()
    | Protected -> 0
  in
  {
    mode;
    proc;
    mpk;
    region;
    bump = 0;
    secret_addr = 0;
    secret_len = 0;
    pub = None;
    adjacent_free = true;
  }

let proc_of t = t.proc

let serialize_secret (s : Rsa.secret) =
  let n = Bignum.to_bytes s.Rsa.n in
  let d = Bignum.to_bytes s.Rsa.d in
  let out = Bytes.create (4 + Bytes.length n + Bytes.length d) in
  Bytes.set_uint16_le out 0 (Bytes.length n);
  Bytes.set_uint16_le out 2 (Bytes.length d);
  Bytes.blit n 0 out 4 (Bytes.length n);
  Bytes.blit d 0 out (4 + Bytes.length n) (Bytes.length d);
  out

let deserialize_secret b : Rsa.secret =
  let nlen = Bytes.get_uint16_le b 0 in
  let dlen = Bytes.get_uint16_le b 2 in
  {
    Rsa.n = Bignum.of_bytes (Bytes.sub b 4 nlen);
    Rsa.d = Bignum.of_bytes (Bytes.sub b (4 + nlen) dlen);
  }

let insecure_alloc t len =
  let addr = t.region + t.bump in
  t.bump <- t.bump + len;
  if t.bump > insecure_key_offset then failwith "Keystore: request-buffer area full";
  addr

let store_bytes t task data =
  let len = Bytes.length data in
  if len > (insecure_region_pages * page) - insecure_key_offset then
    failwith "Keystore: key too large";
  let addr =
    match t.mode, t.mpk with
    | Insecure, _ -> t.region + insecure_key_offset
    | Protected, Some mpk -> Libmpk.mpk_malloc mpk task ~vkey ~size:len
    | Protected, None -> assert false
  in
  (match t.mode, t.mpk with
  | Insecure, _ -> Mmu.write_bytes (Proc.mmu t.proc) (Task.core task) ~addr data
  | Protected, Some mpk ->
      Libmpk.mpk_begin mpk task ~vkey ~prot:Perm.rw;
      Mmu.write_bytes (Proc.mmu t.proc) (Task.core task) ~addr data;
      Libmpk.mpk_end mpk task ~vkey
  | Protected, None -> assert false);
  t.secret_addr <- addr;
  t.secret_len <- len;
  addr

let store t task (kp : Rsa.keypair) =
  let addr = store_bytes t task (serialize_secret kp.Rsa.secret) in
  t.pub <- Some kp.Rsa.public;
  addr

let store_opaque t task data = store_bytes t task data

let with_secret t task f =
  let read () =
    Mmu.read_bytes (Proc.mmu t.proc) (Task.core task) ~addr:t.secret_addr ~len:t.secret_len
  in
  match t.mode, t.mpk with
  | Insecure, _ -> f (deserialize_secret (read ()))
  | Protected, Some mpk ->
      Libmpk.mpk_begin mpk task ~vkey ~prot:Perm.r;
      let data = read () in
      Libmpk.mpk_end mpk task ~vkey;
      f (deserialize_secret data)
  | Protected, None -> assert false

let public t =
  match t.pub with Some p -> p | None -> failwith "Keystore.public: no key stored"

let secret_region t = t.secret_addr, t.secret_len

let alloc_request_buffer t task ~len =
  match t.mode, t.mpk with
  | Insecure, _ -> insecure_alloc t len
  | Protected, Some mpk ->
      let group =
        match Libmpk.find_group mpk vkey with
        | Some g -> g
        | None -> failwith "Keystore: store a key first"
      in
      if len <= page && t.adjacent_free then begin
        (* Place the buffer in the guard page directly below the protected
           group, so an overflow walks straight into protected pages — the
           Heartbleed layout. *)
        t.adjacent_free <- false;
        Syscall.mmap t.proc task ~at:(group.Libmpk.Group.base - page) ~len ~prot:Perm.rw ()
      end
      else Syscall.mmap t.proc task ~len ~prot:Perm.rw ()
  | Protected, None -> assert false

let attacker_read t task ~addr ~len =
  Mmu.read_bytes (Proc.mmu t.proc) (Task.core task) ~addr ~len
