let page_size = 4096
let page_shift = 12

(* Fault injection: simulate physical-frame exhaustion (ENOMEM upstream). *)
let fp_alloc_frame = "physmem.alloc_frame"
let () = Mpk_faultinj.declare fp_alloc_frame

type frame = int

(* Frame contents are stored a 128-byte line at a time, each line in a
   slot taken on its first write, so a frame costs host RAM only for the
   lines written to it: most written frames hold a few (a key-churn
   group page one 64-byte stamp, a kvstore slab chunk one item). *)
let line_shift = 7
let line_size = 1 lsl line_shift
let line_mask = line_size - 1
let lines_per_page = page_size / line_size

(* Slots live in blocks of [block_lines] lines, allocated as slots run
   out and never moved or reallocated: slot [s] is line
   [s land (block_lines - 1)] of block [s lsr block_shift]. *)
let block_shift = 9
let block_lines = 1 lsl block_shift

(* A written frame's row holds the slot of each of its lines, -1 for a
   line never written, which reads as zeroes. A frame never written
   since allocation shares this row of -1s, which is never written. *)
let unwritten = Array.make lines_per_page (-1)

(* Frame-indexed state. Both arrays share one capacity, which doubles
   (up to [total]) whenever [next_fresh] reaches it: a 4 GiB machine has
   1M frames, and most runs touch a few thousand, so sizing them to
   [total] up front would cost host RAM for frames never used. Frames at
   or above the capacity are free, unwritten and unreferenced.

   [refs.(f)] is the mapping count of an allocated frame. A freed frame
   holds [lnot next] instead, [next] being the free frame freed before it
   ([-1] at the end): the free list threads through the array, most
   recently freed first, and a value [<= 0] means free.

   Freed slots form a stack threaded the same way: the first 8 bytes of
   a free slot's line hold the slot freed before it ([-1] at the end). *)
type t = {
  total : int;
  mutable rows : int array array;  (* frame -> line slots, [unwritten] until written *)
  mutable refs : int array;
  mutable free_head : int;  (* most recently freed frame, -1 when none *)
  mutable next_fresh : int;
  mutable in_use : int;
  mutable blocks : bytes array;
  mutable fresh_slots : int;  (* slots ever handed out *)
  mutable free_slot : int;  (* most recently freed slot, -1 when none *)
  word : bytes;  (* a word that straddles two lines, assembled *)
}

let initial_capacity = 1024

let create ~frames =
  if frames <= 0 then invalid_arg "Physmem.create: frames must be positive";
  let cap = min frames initial_capacity in
  {
    total = frames;
    rows = Array.make cap unwritten;
    refs = Array.make cap 0;
    free_head = -1;
    next_fresh = 0;
    in_use = 0;
    blocks = [||];
    fresh_slots = 0;
    free_slot = -1;
    word = Bytes.create 8;
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
  t.rows <- extend t.rows unwritten;
  t.refs <- extend t.refs 0

let block t s = t.blocks.(s lsr block_shift)

(* Where in slot [s]'s block the byte of page offset [off] lives. *)
let pos s off = ((s land (block_lines - 1)) lsl line_shift) lor (off land line_mask)

(* A zeroed slot: the most recently freed one if any, else the next
   fresh one, which a new block starts out zeroed. *)
let take_slot t =
  let s = t.free_slot in
  if s >= 0 then begin
    let b = block t s in
    t.free_slot <- Int64.to_int (Bytes.get_int64_le b (pos s 0));
    Bytes.fill b (pos s 0) line_size '\000';
    s
  end
  else begin
    let s = t.fresh_slots in
    let i = s lsr block_shift in
    if i = Array.length t.blocks then begin
      let blocks = Array.make (max 1 (2 * i)) Bytes.empty in
      Array.blit t.blocks 0 blocks 0 i;
      t.blocks <- blocks
    end;
    if s land (block_lines - 1) = 0 then t.blocks.(i) <- Bytes.make (block_lines * line_size) '\000';
    t.fresh_slots <- s + 1;
    s
  end

(* Push the frame's slots onto the free stack; it reads as zeroes. *)
let release_lines t f =
  let row = t.rows.(f) in
  if row != unwritten then begin
    for line = 0 to lines_per_page - 1 do
      let s = row.(line) in
      if s >= 0 then begin
        Bytes.set_int64_le (block t s) (pos s 0) (Int64.of_int t.free_slot);
        t.free_slot <- s
      end
    done;
    t.rows.(f) <- unwritten
  end

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
  (* Frames are handed out zeroed: drop what was written while free. *)
  release_lines t frame;
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
      release_lines t f;
      t.in_use <- t.in_use - 1

let check_frame t f = if f < 0 || f >= t.total then invalid_arg "Physmem: frame out of range"

let row t f =
  check_frame t f;
  if f < Array.length t.rows then t.rows.(f) else unwritten

let written_row t f =
  let row = row t f in
  if row != unwritten then row
  else begin
    if f >= Array.length t.rows then grow t ~past:f;
    let row = Array.make lines_per_page (-1) in
    t.rows.(f) <- row;
    row
  end

(* The slot of [row]'s [line], taken if the line was never written. *)
let line_slot t row line =
  let s = row.(line) in
  if s >= 0 then s
  else begin
    let s = take_slot t in
    row.(line) <- s;
    s
  end

let check_off off len =
  if off < 0 || len < 0 || off + len > page_size then
    invalid_arg "Physmem: offset out of frame bounds"

let read_byte t f off =
  check_off off 1;
  let s = (row t f).(off lsr line_shift) in
  if s < 0 then '\000' else Bytes.get (block t s) (pos s off)

let write_byte t f off c =
  check_off off 1;
  let s = line_slot t (written_row t f) (off lsr line_shift) in
  Bytes.set (block t s) (pos s off) c

(* Ranges are copied a line at a time; the caller's buffer is checked
   once, as [Bytes.blit] would, before anything is copied. *)
let check_buf b off len = if off < 0 || off > Bytes.length b - len then invalid_arg "Bytes.blit"

let read_into t f off dst dst_off len =
  check_off off len;
  let row = row t f in
  check_buf dst dst_off len;
  let off = ref off and dst_off = ref dst_off and left = ref len in
  while !left > 0 do
    let in_line = line_size - (!off land line_mask) in
    let n = if !left < in_line then !left else in_line in
    let s = Array.unsafe_get row (!off lsr line_shift) in
    if s < 0 then Bytes.unsafe_fill dst !dst_off n '\000'
    else Bytes.unsafe_blit (block t s) (pos s !off) dst !dst_off n;
    off := !off + n;
    dst_off := !dst_off + n;
    left := !left - n
  done

let read_bytes t f off len =
  check_off off len;
  let b = Bytes.create len in
  read_into t f off b 0 len;
  b

let write_bytes t f off src src_off len =
  check_off off len;
  let row = written_row t f in
  check_buf src src_off len;
  let off = ref off and src_off = ref src_off and left = ref len in
  while !left > 0 do
    let in_line = line_size - (!off land line_mask) in
    let n = if !left < in_line then !left else in_line in
    let s = line_slot t row (!off lsr line_shift) in
    Bytes.unsafe_blit src !src_off (block t s) (pos s !off) n;
    off := !off + n;
    src_off := !src_off + n;
    left := !left - n
  done

(* A word within one line is read or written in place; one that
   straddles two lines goes through [t.word]. *)
let in_one_line off = off land line_mask <= line_size - 8

let read_word t f off =
  check_off off 8;
  if in_one_line off then begin
    let s = (row t f).(off lsr line_shift) in
    if s < 0 then 0 else Int64.to_int (Bytes.get_int64_le (block t s) (pos s off))
  end
  else begin
    read_into t f off t.word 0 8;
    Int64.to_int (Bytes.get_int64_le t.word 0)
  end

let write_word t f off v =
  check_off off 8;
  if in_one_line off then begin
    let s = line_slot t (written_row t f) (off lsr line_shift) in
    Bytes.set_int64_le (block t s) (pos s off) (Int64.of_int v)
  end
  else begin
    Bytes.set_int64_le t.word 0 (Int64.of_int v);
    write_bytes t f off t.word 0 8
  end
