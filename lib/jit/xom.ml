open Mpk_hw
open Mpk_kernel

type module_info = { name : string; vkey : Libmpk.Vkey.t; base : int; len : int }

type t = {
  mpk : Libmpk.t;
  mutable next_vkey : int;
  mutable loaded : module_info list;
}

let vkey_base = 5000  (* module vkeys live in their own namespace *)

let create mpk = { mpk; next_vkey = vkey_base; loaded = [] }

let load t task ~name code =
  let vkey = t.next_vkey in
  t.next_vkey <- t.next_vkey + 1;
  let len = Bytes.length code in
  let base = Libmpk.mpk_mmap t.mpk task ~vkey ~len ~prot:Perm.rw in
  Libmpk.mpk_begin t.mpk task ~vkey ~prot:Perm.rw;
  Mmu.write_bytes (Mpk_kernel.Proc.mmu (Libmpk.proc t.mpk)) (Task.core task) ~addr:base code;
  Libmpk.mpk_end t.mpk task ~vkey;
  let m = { name; vkey; base; len } in
  t.loaded <- m :: t.loaded;
  m

let seal t task m = Libmpk.mpk_mprotect t.mpk task ~vkey:m.vkey ~prot:Perm.x_only

let execute t task m =
  Bytecode.execute (Proc.mmu (Libmpk.proc t.mpk)) (Task.core task) ~addr:m.base ~len:m.len

let modules t = t.loaded
