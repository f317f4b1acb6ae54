let slab_bytes = 1 lsl 20
let min_chunk = 64
let max_chunk = 64 * 1024
let exhausted = -1

(* A class's free chunks are an int stack: [free.(top - 1)] is handed
   out next and a freed chunk is pushed on top, so a class reuses its
   most recently freed chunk first. Its capacity covers every chunk of
   the class's slabs, so a free never grows it. *)
type slab_class = {
  chunk : int;
  mutable free : int array;
  mutable top : int;
  mutable slabs : int;  (* slabs assigned to this class *)
}

type t = {
  base : int;
  len : int;
  mutable next_slab : int;  (* offset of the next virgin slab *)
  classes : slab_class array;
  class_of_slab : int array;  (* class index per slab, -1 while virgin *)
  live : Bytes.t array;
      (* per assigned slab, one bit per [min_chunk] of it, set on an
         allocated chunk's first; empty while the slab is virgin *)
  mutable bytes : int;
}

let class_count =
  let rec count c n = if c >= max_chunk then n + 1 else count (c * 2) (n + 1) in
  count min_chunk 0

let class_of_index i = min_chunk lsl i

let rec scan size i =
  if class_of_index i >= size || i = class_count - 1 then i else scan size (i + 1)

let class_index_of_size size =
  if size > max_chunk then invalid_arg "Slab: size exceeds the largest class";
  scan size 0

let create ~base ~len =
  if len < slab_bytes then invalid_arg "Slab.create: region smaller than one slab";
  let slabs = len / slab_bytes in
  {
    base;
    len;
    next_slab = 0;
    classes =
      Array.init class_count (fun i ->
          { chunk = class_of_index i; free = [||]; top = 0; slabs = 0 });
    class_of_slab = Array.make slabs (-1);
    live = Array.make slabs Bytes.empty;
    bytes = 0;
  }

(* [off] is an offset into the assigned slabs. *)
let is_live t off =
  let unit = off mod slab_bytes / min_chunk in
  Char.code (Bytes.get t.live.(off / slab_bytes) (unit lsr 3)) land (1 lsl (unit land 7)) <> 0

let flip_live t off =
  let bits = t.live.(off / slab_bytes) and unit = off mod slab_bytes / min_chunk in
  let byte = Char.code (Bytes.get bits (unit lsr 3)) in
  Bytes.set bits (unit lsr 3) (Char.chr (byte lxor (1 lsl (unit land 7))))

(* Assign a virgin slab to a class, splitting it into chunks pushed so
   that the lowest address is on top. Called only on an empty stack. *)
let grow_class t idx =
  if t.next_slab + slab_bytes > t.len then false
  else begin
    let cls = t.classes.(idx) in
    let slab_base = t.base + t.next_slab in
    t.class_of_slab.(t.next_slab / slab_bytes) <- idx;
    t.live.(t.next_slab / slab_bytes) <- Bytes.make (slab_bytes / min_chunk / 8) '\000';
    t.next_slab <- t.next_slab + slab_bytes;
    cls.slabs <- cls.slabs + 1;
    let chunks = slab_bytes / cls.chunk in
    let needed = cls.slabs * chunks in
    if Array.length cls.free < needed then
      cls.free <- Array.make (Int.max needed (2 * Array.length cls.free)) 0;
    for i = chunks - 1 downto 0 do
      cls.free.(cls.top) <- slab_base + (i * cls.chunk);
      cls.top <- cls.top + 1
    done;
    true
  end

let alloc t ~size =
  if size <= 0 then invalid_arg "Slab.alloc: size must be positive";
  let idx = class_index_of_size size in
  let cls = t.classes.(idx) in
  if cls.top = 0 && not (grow_class t idx) then exhausted
  else begin
    cls.top <- cls.top - 1;
    let addr = cls.free.(cls.top) in
    flip_live t (addr - t.base);
    t.bytes <- t.bytes + cls.chunk;
    addr
  end

(* A live bit is set only at a chunk's first byte, so an aligned offset
   inside the assigned slabs whose bit is set is an allocated chunk. *)
let free t ~addr =
  let off = addr - t.base in
  if off < 0 || off >= t.next_slab || off land (min_chunk - 1) <> 0 || not (is_live t off) then
    invalid_arg "Slab.free: not an allocated chunk";
  flip_live t off;
  let cls = t.classes.(t.class_of_slab.(off / slab_bytes)) in
  cls.free.(cls.top) <- addr;
  cls.top <- cls.top + 1;
  t.bytes <- t.bytes - cls.chunk

(* Chunks never overlap and lie inside the region: a free chunk sits on
   a chunk boundary of a slab of its class and is not live, a live bit
   marks a chunk boundary of its slab's class, and the live chunks add
   up to the allocated bytes, each chunk counting its whole class. *)
let invariant t =
  let on_boundary off idx =
    off < t.next_slab
    && t.class_of_slab.(off / slab_bytes) = idx
    && off mod slab_bytes mod class_of_index idx = 0
  in
  let ok = ref (t.next_slab <= t.len) in
  Array.iteri
    (fun idx cls ->
      for i = 0 to cls.top - 1 do
        let off = cls.free.(i) - t.base in
        ok := !ok && off >= 0 && on_boundary off idx && not (is_live t off)
      done)
    t.classes;
  let live_bytes = ref 0 in
  for unit = 0 to (t.next_slab / min_chunk) - 1 do
    let off = unit * min_chunk in
    if is_live t off then begin
      let idx = t.class_of_slab.(off / slab_bytes) in
      live_bytes := !live_bytes + class_of_index idx;
      ok := !ok && on_boundary off idx
    end
  done;
  !ok && !live_bytes = t.bytes
