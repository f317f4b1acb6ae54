open Mpk_hw

type acquire_result =
  | Hit of Pkey.t
  | Fresh of Pkey.t
  | Evicted of { pkey : Pkey.t; mutable victim : Vkey.t }
  | Full

(* A hardware key's entry, built with the cache together with every
   result the key's [acquire] can return, so that neither a lookup nor a
   miss allocates. Each mapping of the key relabels the entry in place.
   Only an unpinned mapping is dropped or evicted, so an unmapped entry
   has no pins. *)
type entry = {
  pkey : Pkey.t;
  mutable mapped : bool;
  mutable vkey : Vkey.t;  (* the mapped vkey; stale once unmapped *)
  hit : acquire_result;  (* [Hit pkey] *)
  fresh : acquire_result;  (* [Fresh pkey] *)
  evicted : acquire_result;  (* [Evicted], its [victim] set by each eviction *)
  mutable stamp : int;  (* last access (LRU) *)
  mutable inserted : int;  (* when mapped (FIFO, and Random's order) *)
  mutable pins : int;
}

type policy = Lru | Fifo | Random

type t = {
  policy : policy;
  prng : Mpk_util.Prng.t;
  mutable free : Pkey.t list;
  mutable reserved : Pkey.t list;  (* withdrawn from circulation, still owned *)
  slots : entry array;  (* every key's entry, by key: the lookup and victim scans *)
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable invalidations : int;  (* mappings removed by [release] (mpk_free path) *)
  mutable full : int;  (* misses that returned [Full] (no mapping created) *)
}

(* Fault injection: force the miss path to find no usable key ("cache
   full": all entries pinned), or make [reserve] refuse. Exercises the
   Key_exhausted / degradation paths that a well-provisioned cache never
   reaches naturally. *)
let fp_full = "key_cache.full"
let fp_reserve = "key_cache.reserve"

let () =
  Mpk_faultinj.declare fp_full;
  Mpk_faultinj.declare fp_reserve

let entry pkey =
  {
    pkey;
    mapped = false;
    vkey = -1;
    hit = Hit pkey;
    fresh = Fresh pkey;
    evicted = Evicted { pkey; victim = -1 };
    stamp = 0;
    inserted = 0;
    pins = 0;
  }

(* No entry: what a failed lookup or victim search returns. Never
   mutated. *)
let vacant = entry Pkey.default

let create ?(policy = Lru) ?(seed = 0x5EEDL) ~keys () =
  {
    policy;
    prng = Mpk_util.Prng.create ~seed;
    free = keys;
    reserved = [];
    slots = Array.init Pkey.count (fun k -> entry (Pkey.of_int k));
    clock = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    invalidations = 0;
    full = 0;
  }


let tick t =
  t.clock <- t.clock + 1;
  t.clock

(* The entry mapping [vkey] among [t.slots.(i..)], or [vacant]. *)
let rec find t vkey i =
  if i = Array.length t.slots then vacant
  else
    let e = t.slots.(i) in
    if e.mapped && e.vkey = vkey then e else find t vkey (i + 1)

let candidate e = e.mapped && e.pins = 0
let age t e = match t.policy with Fifo -> e.inserted | Lru | Random -> e.stamp

(* The unpinned mapping of least [age], [best] when none is older. Ages
   are distinct ticks, so the scan order cannot change the pick. *)
let rec oldest t i best =
  if i = Array.length t.slots then best
  else
    let e = t.slots.(i) in
    oldest t (i + 1)
      (if (not (candidate e)) || (best != vacant && age t best <= age t e) then best else e)

(* The entry to evict, or [vacant] when every mapping is pinned. Random
   draws over the unpinned mappings in descending [Vkey.hash vkey land
   15], then oldest mapping first: each seed's victims, and with them
   the policy ablation's numbers, follow from that order. *)
let victim t =
  match t.policy with
  | Lru | Fifo -> oldest t 0 vacant
  | Random -> (
      let order e = (-(Vkey.hash e.vkey land 15), e.inserted) in
      let unpinned =
        List.filter candidate (Array.to_list t.slots)
        |> List.sort (fun a b -> compare (order a) (order b))
      in
      match unpinned with
      | [] -> vacant
      | _ -> List.nth unpinned (Mpk_util.Prng.int t.prng (List.length unpinned)))

(* Map [vkey] onto [e]'s key, as its newest and most recent mapping. *)
let relabel t e vkey =
  let now = tick t in
  e.mapped <- true;
  e.vkey <- vkey;
  e.stamp <- now;
  e.inserted <- now

let full t =
  t.full <- t.full + 1;
  Full

let acquire t ?(may_evict = true) vkey =
  let e = find t vkey 0 in
  if e != vacant then begin
    e.stamp <- tick t;
    t.hits <- t.hits + 1;
    e.hit
  end
  else begin
    t.misses <- t.misses + 1;
    if Mpk_faultinj.fire fp_full then full t
    else
      match t.free with
      | pkey :: rest ->
          t.free <- rest;
          let e = t.slots.(Pkey.to_int pkey) in
          relabel t e vkey;
          e.fresh
      | [] ->
          let e = if may_evict then victim t else vacant in
          if e == vacant then full t
          else begin
            (match e.evicted with Evicted r -> r.victim <- e.vkey | _ -> assert false);
            relabel t e vkey;
            t.evictions <- t.evictions + 1;
            e.evicted
          end
  end

let add_key t pkey =
  t.reserved <- List.filter (fun k -> not (Pkey.equal k pkey)) t.reserved;
  t.free <- pkey :: t.free

let reserve t =
  if Mpk_faultinj.fire fp_reserve then None
  else
    match t.free with
    | pkey :: rest ->
        t.free <- rest;
        t.reserved <- pkey :: t.reserved;
        Some (pkey, None)
    | [] ->
        let e = victim t in
        if e == vacant then None
        else begin
          e.mapped <- false;
          t.evictions <- t.evictions + 1;
          t.reserved <- e.pkey :: t.reserved;
          Some (e.pkey, Some e.vkey)
        end

let pin t vkey =
  let e = find t vkey 0 in
  if e == vacant then invalid_arg "Key_cache.pin: vkey not mapped";
  e.pins <- e.pins + 1

let unpin t vkey =
  let e = find t vkey 0 in
  if e == vacant then invalid_arg "Key_cache.unpin: vkey not mapped";
  if e.pins = 0 then invalid_arg "Key_cache.unpin: not pinned";
  e.pins <- e.pins - 1

let pins t vkey = (find t vkey 0).pins

let release t vkey =
  let e = find t vkey 0 in
  if e.pins > 0 then
    (* Recycling a pinned key would hand an mpk_begin holder's rights to
       the next group mapped onto it — refuse loudly instead. *)
    invalid_arg (Printf.sprintf "Key_cache.release: vkey %d is pinned" vkey);
  if e != vacant then begin
    e.mapped <- false;
    t.invalidations <- t.invalidations + 1;
    t.free <- e.pkey :: t.free
  end

let live t = List.filter (fun e -> e.mapped) (Array.to_list t.slots)
let in_use t = Array.fold_left (fun n e -> if e.mapped then n + 1 else n) 0 t.slots
let capacity t = List.length t.free + List.length t.reserved + in_use t
let free_keys t = t.free
let reserved_keys t = t.reserved
let reserved_count t = List.length t.reserved

let mappings t =
  List.map (fun e -> (e.vkey, e.pkey, e.pins)) (live t)
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions
let invalidations t = t.invalidations
let full_misses t = t.full

let hit_rate t =
  let total = t.hits + t.misses in
  if total = 0 then 0.0 else float_of_int t.hits /. float_of_int total

let dump t =
  List.sort (fun a b -> compare a.stamp b.stamp) (live t)
  |> List.map (fun e -> (e.vkey, e.pkey, e.pins > 0))
