(* Way [w] of set [s] lives at index [s * ways + w] of four flat arrays,
   so a lookup, a fill or a flush allocates nothing. A way is live when
   its epoch is the TLB's: [flush_all] bumps the TLB's epoch, and
   [flush_page] zeroes the way's (epochs start at 1). *)
type t = {
  sets : int;
  ways : int;
  vpns : int array;
  ptes : Pte.t array;
  stamps : int array;  (* LRU: the clock at the way's last fill or hit *)
  epochs : int array;
  mutable epoch : int;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable flushes : int;
}

let create ?(sets = 256) ?(ways = 6) () =
  (* The set index masks the vpn, so [sets] must be a power of two. *)
  if sets <= 0 || ways <= 0 || sets land (sets - 1) <> 0 then invalid_arg "Tlb.create";
  let n = sets * ways in
  {
    sets;
    ways;
    vpns = Array.make n 0;
    ptes = Array.make n Pte.absent;
    stamps = Array.make n 0;
    epochs = Array.make n 0;
    epoch = 1;
    clock = 0;
    hits = 0;
    misses = 0;
    flushes = 0;
  }

let first_way t vpn = (vpn land (t.sets - 1)) * t.ways

(* The live way of [vpn]'s set holding [vpn], or -1. *)
let find t vpn =
  let i = ref (first_way t vpn) in
  let stop = !i + t.ways in
  while !i < stop && not (t.vpns.(!i) = vpn && t.epochs.(!i) = t.epoch) do
    incr i
  done;
  if !i < stop then !i else -1

let lookup t ~vpn =
  let i = find t vpn in
  if i < 0 then begin
    t.misses <- t.misses + 1;
    Pte.absent
  end
  else begin
    t.clock <- t.clock + 1;
    t.stamps.(i) <- t.clock;
    t.hits <- t.hits + 1;
    t.ptes.(i)
  end

(* The way a fill of [vpn] takes: the one already holding it, else the
   lowest free way, else the least recently used. *)
let victim t vpn =
  let same = find t vpn in
  if same >= 0 then same
  else begin
    let first = first_way t vpn in
    let stop = first + t.ways in
    let i = ref first in
    while !i < stop && t.epochs.(!i) = t.epoch do
      incr i
    done;
    if !i < stop then !i
    else begin
      let lru = ref first in
      for j = first + 1 to stop - 1 do
        if t.stamps.(j) < t.stamps.(!lru) then lru := j
      done;
      !lru
    end
  end

let insert t ~vpn pte =
  if not (Pte.is_present pte) then invalid_arg "Tlb.insert: absent entry";
  let i = victim t vpn in
  t.clock <- t.clock + 1;
  t.vpns.(i) <- vpn;
  t.ptes.(i) <- pte;
  t.stamps.(i) <- t.clock;
  t.epochs.(i) <- t.epoch

let flush_all t =
  t.epoch <- t.epoch + 1;
  t.flushes <- t.flushes + 1

let flush_page t ~vpn =
  let i = find t vpn in
  if i >= 0 then t.epochs.(i) <- 0;
  t.flushes <- t.flushes + 1

let fold t f init =
  let acc = ref init in
  for i = 0 to Array.length t.vpns - 1 do
    if t.epochs.(i) = t.epoch then acc := f t.vpns.(i) t.ptes.(i) !acc
  done;
  !acc

let hits t = t.hits
let misses t = t.misses
let flushes t = t.flushes

