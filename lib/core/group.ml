open Mpk_hw

type state = Unmapped | Mapped of Pkey.t

type t = {
  vkey : Vkey.t;
  base : int;
  pages : int;
  mutable prot : Perm.t;
  max_prot : Perm.t;
  mutable state : state;
  mutable begin_depth : int;
  begin_holders : (int, int) Hashtbl.t;
  mutable isolated : bool;
  mutable xonly : bool;
}

let make ~vkey ~base ~pages ~prot =
  {
    vkey;
    base;
    pages;
    prot;
    max_prot = prot;
    state = Unmapped;
    begin_depth = 0;
    begin_holders = Hashtbl.create 4;
    isolated = true;
    xonly = false;
  }

let len t = t.pages * Physmem.page_size

let pkey t = match t.state with Unmapped -> None | Mapped k -> Some k

let metadata_bytes = 32

let prot_to_int (p : Perm.t) =
  (if p.read then 1 else 0) lor (if p.write then 2 else 0) lor if p.exec then 4 else 0

let prot_of_int v : Perm.t =
  { read = v land 1 <> 0; write = v land 2 <> 0; exec = v land 4 <> 0 }

let serialize_into t b =
  if Bytes.length b <> metadata_bytes then invalid_arg "Group.serialize_into: bad length";
  Bytes.set_int64_le b 0 (Int64.of_int t.vkey);
  Bytes.set_int64_le b 8 (Int64.of_int t.base);
  Bytes.set_int64_le b 16 (Int64.of_int t.pages);
  Bytes.set_int32_le b 24 (Int32.of_int (prot_to_int t.prot));
  let pk = match t.state with Unmapped -> 0 | Mapped k -> Pkey.to_int k in
  Bytes.set_int32_le b 28 (Int32.of_int pk)

let serialize t =
  let b = Bytes.create metadata_bytes in
  serialize_into t b;
  b

let deserialize b =
  if Bytes.length b <> metadata_bytes then None
  else
    let vkey = Int64.to_int (Bytes.get_int64_le b 0) in
    let base = Int64.to_int (Bytes.get_int64_le b 8) in
    let pages = Int64.to_int (Bytes.get_int64_le b 16) in
    let prot = prot_of_int (Int32.to_int (Bytes.get_int32_le b 24)) in
    let pk = Int32.to_int (Bytes.get_int32_le b 28) in
    Some (vkey, base, pages, prot, pk)
