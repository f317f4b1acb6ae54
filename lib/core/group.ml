open Mpk_hw

type state = Unmapped | Mapped of Pkey.t

(* One [Mapped k] per key, built once. *)
let mapped_states = Array.init Pkey.count (fun k -> Mapped (Pkey.of_int k))
let mapped k = mapped_states.(Pkey.to_int k)

(* The begin holders are the first [count] slots of the two arrays:
   adding one fills the next slot and dropping one moves the last into
   its place, so neither allocates once the arrays have grown. *)
type holders = { mutable tasks : int array; mutable depths : int array; mutable count : int }

type t = {
  vkey : Vkey.t;
  base : int;
  pages : int;
  mutable prot : Perm.t;
  max_prot : Perm.t;
  mutable state : state;
  mutable begin_depth : int;
  holders : holders;
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
    holders = { tasks = Array.make 4 0; depths = Array.make 4 0; count = 0 };
    isolated = true;
    xonly = false;
  }

let len t = t.pages * Physmem.page_size

let rec holder_slot h task i =
  if i = h.count then -1 else if h.tasks.(i) = task then i else holder_slot h task (i + 1)

let begin_holds t task =
  match holder_slot t.holders task 0 with -1 -> 0 | i -> t.holders.depths.(i)

let set_begin_holds t task depth =
  let h = t.holders in
  match holder_slot h task 0 with
  | -1 ->
      let n = h.count in
      if n = Array.length h.tasks then begin
        h.tasks <- Array.append h.tasks (Array.make n 0);
        h.depths <- Array.append h.depths (Array.make n 0)
      end;
      h.tasks.(n) <- task;
      h.depths.(n) <- depth;
      h.count <- n + 1
  | i -> h.depths.(i) <- depth

let drop_begin_holder t task =
  let h = t.holders in
  match holder_slot h task 0 with
  | -1 -> ()
  | i ->
      let last = h.count - 1 in
      h.tasks.(i) <- h.tasks.(last);
      h.depths.(i) <- h.depths.(last);
      h.count <- last

let begin_holders t =
  let h = t.holders in
  List.init h.count (fun i -> h.tasks.(i), h.depths.(i))

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
