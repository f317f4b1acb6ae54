open Mpk_hw
open Mpk_kernel

type t = {
  proc : Proc.t;
  nbuckets : int;
  bucket_base : int;
  slab : Slab.t;
  mutable key_buf : bytes;  (* a chain entry's key, read for comparison *)
  (* The last chain hit ([find]): its predecessor link address (the
     bucket slot for the head, otherwise the predecessor's next field,
     at offset 0), its successor and its header word. *)
  mutable prev_link : int;
  mutable next : int;
  mutable hdr : int;
}

let header_bytes = 16  (* next:8  keylen:2  vallen:4  pad:2 *)

let create proc ~buckets ~bucket_base slab =
  if buckets <= 0 then invalid_arg "Shash.create: buckets must be positive";
  {
    proc;
    nbuckets = buckets;
    bucket_base;
    slab;
    key_buf = Bytes.create 256;
    prev_link = 0;
    next = 0;
    hdr = 0;
  }

let buckets t = t.nbuckets

(* FNV-1a, offset basis truncated to OCaml's 63-bit int *)
let hash key =
  let h = ref 0x4bf29ce484222325 in
  for i = 0 to String.length key - 1 do
    h := (!h lxor Char.code (String.unsafe_get key i)) * 0x100000001b3
  done;
  !h land max_int

let bucket_addr t key = t.bucket_base + (hash key mod t.nbuckets * 8)

(* An entry header's second word packs keylen (bits 0-15) and vallen
   (bits 16-47); the pad bytes above are zero. *)
let keylen_of hdr = hdr land 0xffff
let vallen_of hdr = (hdr lsr 16) land 0xffff_ffff

(* [buf] starts with [key] from index [i] on. *)
let rec same_prefix buf key i =
  i = String.length key
  || (Bytes.unsafe_get buf i = String.unsafe_get key i && same_prefix buf key (i + 1))

(* The entry's key is read into [key_buf] with one checked copy, as a
   [read_bytes] of the key's length would be, and compared in place. *)
let key_matches t mmu core entry ~key =
  let len = String.length key in
  if Bytes.length t.key_buf < len then t.key_buf <- Bytes.create len;
  Mmu.read_into mmu core ~addr:(entry + header_bytes) t.key_buf ~len;
  same_prefix t.key_buf key 0

(* Walk [key]'s chain from [entry], reading each entry's next pointer,
   then its header word, then (when the key length matches) its key.
   A hit returns the entry and records [prev_link], [next] and [hdr];
   a miss returns 0. *)
let rec walk t mmu core ~key prev_link entry =
  if entry = 0 then 0
  else begin
    let next = Mmu.read_word mmu core ~addr:entry in
    let hdr = Mmu.read_word mmu core ~addr:(entry + 8) in
    if keylen_of hdr = String.length key && key_matches t mmu core entry ~key then begin
      t.prev_link <- prev_link;
      t.next <- next;
      t.hdr <- hdr;
      entry
    end
    else walk t mmu core ~key entry next
  end

let find t mmu core ~key =
  let slot = bucket_addr t key in
  walk t mmu core ~key slot (Mmu.read_word mmu core ~addr:slot)

let set t task ~key ~value =
  let keylen = String.length key in
  let vallen = Bytes.length value in
  let size = header_bytes + keylen + vallen in
  if size > Slab.max_chunk then Error Errno.EINVAL
  else begin
    let entry = Slab.alloc t.slab ~size in
    if entry = Slab.exhausted then Error Errno.ENOSPC
    else begin
      let mmu = Proc.mmu t.proc and core = Task.core task in
      let slot = bucket_addr t key in
      let old = find t mmu core ~key in
      let old_prev = t.prev_link and old_next = t.next in
      (* head insert *)
      Mmu.write_word mmu core ~addr:entry (Mmu.read_word mmu core ~addr:slot);
      Mmu.write_word mmu core ~addr:(entry + 8) (keylen lor (vallen lsl 16));
      Mmu.write_bytes mmu core ~addr:(entry + header_bytes) (Bytes.unsafe_of_string key);
      Mmu.write_bytes mmu core ~addr:(entry + header_bytes + keylen) value;
      Mmu.write_word mmu core ~addr:slot entry;
      (* drop a shadowed older version; the bucket slot now points at
         the new entry, whose next field is the old head *)
      if old <> 0 then begin
        Mmu.write_word mmu core ~addr:(if old_prev = slot then entry else old_prev) old_next;
        Slab.free t.slab ~addr:old
      end;
      Ok ()
    end
  end

let get t task ~key =
  let mmu = Proc.mmu t.proc and core = Task.core task in
  let entry = find t mmu core ~key in
  if entry = 0 then None
  else begin
    let hdr = t.hdr in
    Some
      (Mmu.read_bytes mmu core ~addr:(entry + header_bytes + keylen_of hdr) ~len:(vallen_of hdr))
  end

let delete t task ~key =
  let mmu = Proc.mmu t.proc and core = Task.core task in
  let entry = find t mmu core ~key in
  if entry = 0 then false
  else begin
    (* prev_link is either a bucket slot or a predecessor entry address;
       in both cases the next-pointer lives at offset 0 *)
    Mmu.write_word mmu core ~addr:t.prev_link t.next;
    Slab.free t.slab ~addr:entry;
    true
  end
