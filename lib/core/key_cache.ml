open Mpk_hw

type acquire_result =
  | Hit of Pkey.t
  | Fresh of Pkey.t
  | Evicted of Pkey.t * Vkey.t
  | Full

type entry = {
  pkey : Pkey.t;
  hit : acquire_result;  (* [Hit pkey], built once so that a hit allocates nothing *)
  mutable stamp : int;  (* last access (LRU) *)
  inserted : int;  (* insertion order (FIFO) *)
  mutable pins : int;
}

type policy = Lru | Fifo | Random

type t = {
  policy : policy;
  prng : Mpk_util.Prng.t;
  mutable free : Pkey.t list;
  mutable reserved : Pkey.t list;  (* withdrawn from circulation, still owned *)
  map : (Vkey.t, entry) Hashtbl.t;
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

let create ?(policy = Lru) ?(seed = 0x5EEDL) ~keys () =
  {
    policy;
    prng = Mpk_util.Prng.create ~seed;
    free = keys;
    reserved = [];
    map = Hashtbl.create 16;
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

let min_by metric t =
  Hashtbl.fold
    (fun vkey e best ->
      if e.pins > 0 then best
      else
        match best with
        | Some (_, b) when metric b <= metric e -> best
        | _ -> Some (vkey, e))
    t.map None

let lru_victim t =
  match t.policy with
  | Lru -> min_by (fun e -> e.stamp) t
  | Fifo -> min_by (fun e -> e.inserted) t
  | Random -> (
      let unpinned =
        Hashtbl.fold (fun vkey e acc -> if e.pins = 0 then (vkey, e) :: acc else acc) t.map []
      in
      match unpinned with
      | [] -> None
      | _ -> Some (List.nth unpinned (Mpk_util.Prng.int t.prng (List.length unpinned))))

let entry pkey ~now = { pkey; hit = Hit pkey; stamp = now; inserted = now; pins = 0 }

let acquire t ?(may_evict = true) vkey =
  match Hashtbl.find t.map vkey with
  | e ->
      e.stamp <- tick t;
      t.hits <- t.hits + 1;
      e.hit
  | exception Not_found -> (
      t.misses <- t.misses + 1;
      let full () =
        t.full <- t.full + 1;
        Full
      in
      if Mpk_faultinj.fire fp_full then full ()
      else
      match t.free with
      | pkey :: rest ->
          t.free <- rest;
          Hashtbl.replace t.map vkey (entry pkey ~now:(tick t));
          Fresh pkey
      | [] ->
          if not may_evict then full ()
          else (
            match lru_victim t with
            | None -> full ()
            | Some (victim, e) ->
                Hashtbl.remove t.map victim;
                Hashtbl.replace t.map vkey (entry e.pkey ~now:(tick t));
                t.evictions <- t.evictions + 1;
                Evicted (e.pkey, victim)))

let add_key t pkey =
  t.reserved <- List.filter (fun k -> not (Pkey.equal k pkey)) t.reserved;
  t.free <- pkey :: t.free

let lookup t vkey =
  match Hashtbl.find_opt t.map vkey with
  | Some e ->
      e.stamp <- tick t;
      Some e.pkey
  | None -> None

let reserve t =
  if Mpk_faultinj.fire fp_reserve then None
  else
  match t.free with
  | pkey :: rest ->
      t.free <- rest;
      t.reserved <- pkey :: t.reserved;
      Some (pkey, None)
  | [] -> (
      match lru_victim t with
      | None -> None
      | Some (victim, e) ->
          Hashtbl.remove t.map victim;
          t.evictions <- t.evictions + 1;
          t.reserved <- e.pkey :: t.reserved;
          Some (e.pkey, Some victim))

let pin t vkey =
  match Hashtbl.find_opt t.map vkey with
  | Some e -> e.pins <- e.pins + 1
  | None -> invalid_arg "Key_cache.pin: vkey not mapped"

let unpin t vkey =
  match Hashtbl.find_opt t.map vkey with
  | Some e when e.pins > 0 -> e.pins <- e.pins - 1
  | Some _ -> invalid_arg "Key_cache.unpin: not pinned"
  | None -> invalid_arg "Key_cache.unpin: vkey not mapped"

let pinned t vkey =
  match Hashtbl.find_opt t.map vkey with Some e -> e.pins > 0 | None -> false

let release t vkey =
  match Hashtbl.find_opt t.map vkey with
  | Some e when e.pins > 0 ->
      (* Recycling a pinned key would hand an mpk_begin holder's rights to
         the next group mapped onto it — refuse loudly instead. *)
      invalid_arg (Printf.sprintf "Key_cache.release: vkey %d is pinned" vkey)
  | Some e ->
      Hashtbl.remove t.map vkey;
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
