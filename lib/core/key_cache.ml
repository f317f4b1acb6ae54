open Mpk_hw

type acquire_result =
  | Hit of Pkey.t
  | Fresh of Pkey.t
  | Evicted of Pkey.t * Vkey.t
  | Full

(* A mapping. An eviction hands the victim's entry — its key and its
   prebuilt [Hit] — to the new vkey, so that the miss builds only its
   [Evicted] result and the new vkey's table cell. *)
type entry = {
  mutable vkey : Vkey.t;
  pkey : Pkey.t;
  hit : acquire_result;  (* [Hit pkey], built once so that a hit allocates nothing *)
  mutable stamp : int;  (* last access (LRU) *)
  mutable inserted : int;  (* insertion order (FIFO) *)
  mutable pins : int;
}

type policy = Lru | Fifo | Random

type t = {
  policy : policy;
  prng : Mpk_util.Prng.t;
  mutable free : Pkey.t list;
  mutable reserved : Pkey.t list;  (* withdrawn from circulation, still owned *)
  map : (Vkey.t, entry) Hashtbl.t;
  slots : entry array;  (* the mapped entries by key, [vacant] elsewhere: the LRU/FIFO scan *)
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

(* No mapping: what an empty slot holds and a failed victim search
   returns. Never mutated. *)
let vacant = { vkey = -1; pkey = Pkey.default; hit = Full; stamp = 0; inserted = 0; pins = 0 }

let create ?(policy = Lru) ?(seed = 0x5EEDL) ~keys () =
  {
    policy;
    prng = Mpk_util.Prng.create ~seed;
    free = keys;
    reserved = [];
    map = Hashtbl.create 16;
    slots = Array.make Pkey.count vacant;
    clock = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    invalidations = 0;
    full = 0;
  }

let policy t = t.policy

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let age t e = match t.policy with Fifo -> e.inserted | Lru | Random -> e.stamp

(* The unpinned mapping of least [age], [best] when none is older. Ages
   are distinct ticks, so the scan order cannot change the pick. *)
let rec oldest t i best =
  if i = Array.length t.slots then best
  else
    let e = t.slots.(i) in
    oldest t (i + 1)
      (if e == vacant || e.pins > 0 || (best != vacant && age t best <= age t e) then best
       else e)

(* The entry to evict, or [vacant] when every mapping is pinned. Random
   draws over the unpinned mappings in the table's fold order. *)
let victim t =
  match t.policy with
  | Lru | Fifo -> oldest t 0 vacant
  | Random -> (
      let unpinned =
        Hashtbl.fold (fun _ e acc -> if e.pins = 0 then e :: acc else acc) t.map []
      in
      match unpinned with
      | [] -> vacant
      | _ -> List.nth unpinned (Mpk_util.Prng.int t.prng (List.length unpinned)))

let full t =
  t.full <- t.full + 1;
  Full

let acquire t ?(may_evict = true) vkey =
  match Hashtbl.find t.map vkey with
  | e ->
      e.stamp <- tick t;
      t.hits <- t.hits + 1;
      e.hit
  | exception Not_found -> (
      t.misses <- t.misses + 1;
      if Mpk_faultinj.fire fp_full then full t
      else
        match t.free with
        | pkey :: rest ->
            t.free <- rest;
            let now = tick t in
            let e = { vkey; pkey; hit = Hit pkey; stamp = now; inserted = now; pins = 0 } in
            t.slots.(Pkey.to_int pkey) <- e;
            Hashtbl.replace t.map vkey e;
            Fresh pkey
        | [] ->
            let e = if may_evict then victim t else vacant in
            if e == vacant then full t
            else begin
              let evicted = e.vkey in
              Hashtbl.remove t.map evicted;
              let now = tick t in
              e.vkey <- vkey;
              e.stamp <- now;
              e.inserted <- now;
              Hashtbl.replace t.map vkey e;
              t.evictions <- t.evictions + 1;
              Evicted (e.pkey, evicted)
            end)

let add_key t pkey =
  t.reserved <- List.filter (fun k -> not (Pkey.equal k pkey)) t.reserved;
  t.free <- pkey :: t.free

(* Drop [e]'s mapping: its key leaves the table and the scan. *)
let unmap t e =
  Hashtbl.remove t.map e.vkey;
  t.slots.(Pkey.to_int e.pkey) <- vacant

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
          unmap t e;
          t.evictions <- t.evictions + 1;
          t.reserved <- e.pkey :: t.reserved;
          Some (e.pkey, Some e.vkey)
        end

let pin t vkey =
  match Hashtbl.find t.map vkey with
  | e -> e.pins <- e.pins + 1
  | exception Not_found -> invalid_arg "Key_cache.pin: vkey not mapped"

let unpin t vkey =
  match Hashtbl.find t.map vkey with
  | e when e.pins > 0 -> e.pins <- e.pins - 1
  | _ -> invalid_arg "Key_cache.unpin: not pinned"
  | exception Not_found -> invalid_arg "Key_cache.unpin: vkey not mapped"

let pinned t vkey =
  match Hashtbl.find_opt t.map vkey with Some e -> e.pins > 0 | None -> false

let release t vkey =
  match Hashtbl.find_opt t.map vkey with
  | Some e when e.pins > 0 ->
      (* Recycling a pinned key would hand an mpk_begin holder's rights to
         the next group mapped onto it — refuse loudly instead. *)
      invalid_arg (Printf.sprintf "Key_cache.release: vkey %d is pinned" vkey)
  | Some e ->
      unmap t e;
      t.invalidations <- t.invalidations + 1;
      t.free <- e.pkey :: t.free
  | None -> ()

let capacity t = List.length t.free + List.length t.reserved + Hashtbl.length t.map
let in_use t = Hashtbl.length t.map
let free_keys t = t.free
let reserved_keys t = t.reserved
let reserved_count t = List.length t.reserved

let pins t vkey =
  match Hashtbl.find_opt t.map vkey with Some e -> e.pins | None -> 0

let mappings t =
  Hashtbl.fold (fun vkey e acc -> (vkey, e.pkey, e.pins) :: acc) t.map []
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
  Hashtbl.fold (fun vkey e acc -> (vkey, e.pkey, e.pins > 0, e.stamp) :: acc) t.map []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> compare a b)
  |> List.map (fun (v, p, pinned, _) -> v, p, pinned)
