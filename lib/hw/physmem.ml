let page_size = 4096
let page_shift = 12

(* Fault injection: simulate physical-frame exhaustion (ENOMEM upstream). *)
let fp_alloc_frame = "physmem.alloc_frame"
let () = Mpk_faultinj.declare fp_alloc_frame

type frame = int

(* A frame never written since allocation has no storage yet and reads
   as zeroes; its [backing] slot holds [unbacked]. *)
let unbacked = Bytes.empty

(* Frame-indexed state. Both arrays share one capacity, which doubles
   (up to [total]) whenever [next_fresh] reaches it: a 4 GiB machine has
   1M frames, and most runs touch a few thousand, so sizing them to
   [total] up front would cost host RAM for frames never used. Frames at
   or above the capacity are free, unwritten and unreferenced.

   [refs.(f)] is the mapping count of an allocated frame. A freed frame
   holds [lnot next] instead, [next] being the free frame freed before it
   ([-1] at the end): the free list threads through the array, most
   recently freed first, and a value [<= 0] means free. *)
type t = {
  total : int;
  mutable backing : bytes array;  (* frame -> storage, [unbacked] until written *)
  mutable refs : int array;
  mutable free_head : int;  (* most recently freed frame, -1 when none *)
  mutable next_fresh : int;
  mutable in_use : int;
}

let initial_capacity = 1024

let create ~frames =
  if frames <= 0 then invalid_arg "Physmem.create: frames must be positive";
  let cap = min frames initial_capacity in
  {
    total = frames;
    backing = Array.make cap unbacked;
    refs = Array.make cap 0;
    free_head = -1;
    next_fresh = 0;
    in_use = 0;
  }

let frames_in_use t = t.in_use

let grow t ~past =
  let cap = ref (Array.length t.refs) in
  while !cap <= past do
    cap := min t.total (2 * !cap)
  done;
  let extend a fill =
    let a' = Array.make !cap fill in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  in
  t.backing <- extend t.backing unbacked;
  t.refs <- extend t.refs 0

let alloc_frame t =
  if Mpk_faultinj.fire fp_alloc_frame then raise Out_of_memory;
  let frame =
    if t.free_head >= 0 then begin
      let f = t.free_head in
      t.free_head <- lnot t.refs.(f);
      f
    end
    else begin
      if t.next_fresh >= t.total then raise Out_of_memory;
      let f = t.next_fresh in
      if f >= Array.length t.refs then grow t ~past:f;
      t.next_fresh <- f + 1;
      f
    end
  in
  (* Frames are handed out zeroed: drop any stale backing. *)
  t.backing.(frame) <- unbacked;
  t.in_use <- t.in_use + 1;
  t.refs.(frame) <- 1;
  frame

let allocated t f = f >= 0 && f < t.next_fresh && t.refs.(f) > 0

let refcount t f = if allocated t f then t.refs.(f) else 0

let ref_frame t f =
  if not (allocated t f) then invalid_arg "Physmem.ref_frame: frame not allocated";
  t.refs.(f) <- t.refs.(f) + 1

let free_frame t f =
  if f < 0 || f >= t.next_fresh then invalid_arg "Physmem.free_frame: bad frame";
  match t.refs.(f) with
  | n when n <= 0 -> invalid_arg "Physmem.free_frame: frame not allocated"
  | n when n > 1 -> t.refs.(f) <- n - 1
  | _ ->
      t.refs.(f) <- lnot t.free_head;
      t.free_head <- f;
      t.backing.(f) <- unbacked;
      t.in_use <- t.in_use - 1

let check_frame t f = if f < 0 || f >= t.total then invalid_arg "Physmem: frame out of range"

let backing t f =
  check_frame t f;
  if f < Array.length t.backing then t.backing.(f) else unbacked

let storage t f =
  let b = backing t f in
  if b != unbacked then b
  else begin
    if f >= Array.length t.backing then grow t ~past:f;
    let b = Bytes.make page_size '\000' in
    t.backing.(f) <- b;
    b
  end

let check_off off len =
  if off < 0 || len < 0 || off + len > page_size then
    invalid_arg "Physmem: offset out of frame bounds"

let read_byte t f off =
  check_off off 1;
  let b = backing t f in
  if b == unbacked then '\000' else Bytes.get b off

let write_byte t f off c =
  check_off off 1;
  Bytes.set (storage t f) off c

let read_into t f off dst dst_off len =
  check_off off len;
  let b = backing t f in
  if b == unbacked then Bytes.fill dst dst_off len '\000' else Bytes.blit b off dst dst_off len

let read_bytes t f off len =
  check_off off len;
  let b = Bytes.create len in
  read_into t f off b 0 len;
  b

let write_bytes t f off src src_off len =
  check_off off len;
  Bytes.blit src src_off (storage t f) off len

let read_word t f off =
  check_off off 8;
  let b = backing t f in
  if b == unbacked then 0 else Int64.to_int (Bytes.get_int64_le b off)

let write_word t f off v =
  check_off off 8;
  Bytes.set_int64_le (storage t f) off (Int64.of_int v)
