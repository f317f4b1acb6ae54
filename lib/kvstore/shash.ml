open Mpk_hw
open Mpk_kernel

type t = {
  proc : Proc.t;
  nbuckets : int;
  bucket_base : int;
  slab : Slab.t;
  mutable entries : int;
}

let header_bytes = 16  (* next:8  keylen:2  vallen:4  pad:2 *)

let create proc ~buckets ~bucket_base slab =
  if buckets <= 0 then invalid_arg "Shash.create: buckets must be positive";
  { proc; nbuckets = buckets; bucket_base; slab; entries = 0 }

let buckets t = t.nbuckets

(* FNV-1a, offset basis truncated to OCaml's 63-bit int *)
let hash key =
  let h = ref 0x4bf29ce484222325 in
  for i = 0 to String.length key - 1 do
    h := (!h lxor Char.code (String.unsafe_get key i)) * 0x100000001b3
  done;
  !h land max_int

let bucket_addr t key = t.bucket_base + (hash key mod t.nbuckets * 8)

(* Bucket slots and entry next fields hold pointers; an entry's second
   word is its header. *)
let read_word t task addr = Int64.to_int (Mmu.read_int64 (Proc.mmu t.proc) (Task.core task) ~addr)

let write_ptr t task addr v =
  Mmu.write_int64 (Proc.mmu t.proc) (Task.core task) ~addr (Int64.of_int v)

(* An entry header's second word packs keylen (bits 0-15) and vallen
   (bits 16-47); the pad bytes above are zero. *)
let keylen_of hdr = hdr land 0xffff
let vallen_of hdr = Int32.to_int (Int32.of_int (hdr lsr 16))

let key_matches t task entry ~key =
  String.equal
    (Bytes.unsafe_to_string
       (Mmu.read_bytes (Proc.mmu t.proc) (Task.core task) ~addr:(entry + header_bytes)
          ~len:(String.length key)))
    key

(* A chain hit: the entry, its predecessor link address (the bucket slot
   for the head, otherwise the predecessor's next field, at offset 0),
   its successor and its header word. *)
type found = { prev_link : int; entry : int; next : int; hdr : int }

(* Walk [key]'s chain from [entry], reading each entry's next pointer,
   then its header word, then (when the key length matches) its key. *)
let rec walk t task ~key prev_link entry =
  if entry = 0 then None
  else begin
    let next = read_word t task entry in
    let hdr = read_word t task (entry + 8) in
    if keylen_of hdr = String.length key && key_matches t task entry ~key then
      Some { prev_link; entry; next; hdr }
    else walk t task ~key entry next
  end

let find_with_prev t task ~key =
  let slot = bucket_addr t key in
  walk t task ~key slot (read_word t task slot)

let unlink t task ~prev_link ~entry ~next =
  (* prev_link is either a bucket slot or a predecessor entry address;
     in both cases the next-pointer lives at offset 0. *)
  ignore entry;
  write_ptr t task prev_link next

let set t task ~key ~value =
  let mmu = Proc.mmu t.proc in
  let core = Task.core task in
  let keylen = String.length key in
  let vallen = Bytes.length value in
  let size = header_bytes + keylen + vallen in
  match Slab.alloc t.slab ~size with
  | None -> Error Errno.ENOSPC
  | Some entry ->
      let slot = bucket_addr t key in
      let old = find_with_prev t task ~key in
      let head = read_word t task slot in
      (* head insert *)
      write_ptr t task entry head;
      let hdr = Bytes.create 8 in
      Bytes.set_uint16_le hdr 0 keylen;
      Bytes.set_int32_le hdr 2 (Int32.of_int vallen);
      Bytes.set_uint16_le hdr 6 0;
      Mmu.write_bytes mmu core ~addr:(entry + 8) hdr;
      Mmu.write_bytes mmu core ~addr:(entry + header_bytes) (Bytes.of_string key);
      Mmu.write_bytes mmu core ~addr:(entry + header_bytes + keylen) value;
      write_ptr t task slot entry;
      t.entries <- t.entries + 1;
      (* drop a shadowed older version *)
      (match old with
      | Some { prev_link; entry = old_entry; next; _ } ->
          let prev_link = if prev_link = slot then entry else prev_link in
          unlink t task ~prev_link ~entry:old_entry ~next;
          Slab.free t.slab ~addr:old_entry;
          t.entries <- t.entries - 1
      | None -> ());
      Ok ()

let get t task ~key =
  match find_with_prev t task ~key with
  | None -> None
  | Some { entry; hdr; _ } ->
      Some
        (Mmu.read_bytes (Proc.mmu t.proc) (Task.core task)
           ~addr:(entry + header_bytes + keylen_of hdr) ~len:(vallen_of hdr))

let delete t task ~key =
  match find_with_prev t task ~key with
  | None -> false
  | Some { prev_link; entry; next; _ } ->
      unlink t task ~prev_link ~entry ~next;
      Slab.free t.slab ~addr:entry;
      t.entries <- t.entries - 1;
      true

let entry_count t = t.entries
