type 'a result = {
  in_state : (int, 'a) Hashtbl.t;  (* node id -> state on entry *)
  witness : (int, int list) Hashtbl.t;  (* node id -> path of node ids (excl. node) *)
}

let state r n = Hashtbl.find_opt r.in_state n
let path_to r n = Option.value ~default:[] (Hashtbl.find_opt r.witness n) @ [ n ]

let forward (p : Ir.program) ~(entry : int) ~init ~equal ~join ~transfer =
  let in_state = Hashtbl.create 64 in
  let witness = Hashtbl.create 64 in
  let work = Queue.create () in
  Hashtbl.replace in_state entry init;
  Hashtbl.replace witness entry [];
  Queue.add entry work;
  (* Guard against non-converging domains: |nodes| * height budget. *)
  let budget = ref (Array.length p.nodes * 512) in
  while not (Queue.is_empty work) do
    decr budget;
    if !budget < 0 then failwith "Dataflow.forward: fixpoint budget exhausted (domain not finite-height?)";
    let id = Queue.pop work in
    let node = Ir.node p id in
    let st = Hashtbl.find in_state id in
    let path = Hashtbl.find witness id in
    let out = transfer node st in
    List.iter
      (fun (edge, succ) ->
        let propagated = if edge = Ir.Escape then st else out in
        let updated =
          match Hashtbl.find_opt in_state succ with
          | None -> Some propagated
          | Some old ->
              let joined = join old propagated in
              if equal joined old then None else Some joined
        in
        match updated with
        | None -> ()
        | Some st' ->
            Hashtbl.replace in_state succ st';
            Hashtbl.replace witness succ (path @ [ id ]);
            Queue.add succ work)
      node.Ir.succs
  done;
  { in_state; witness }

let reached (p : Ir.program) r tid =
  Ir.thread_nodes p tid |> List.filter (fun n -> Hashtbl.mem r.in_state n.Ir.id)

(* --- saturating interval counter, the workhorse lattice --- *)

module Interval = struct
  let cap = 8

  type t = int * int

  let zero = 0, 0
  let equal (a, b) (c, d) = a = c && b = d
  let join (a, b) (c, d) = min a c, max b d
  let incr (lo, hi) = min (lo + 1) cap, min (hi + 1) cap
  let decr (lo, hi) = max (lo - 1) 0, max (hi - 1) 0
  let to_string (lo, hi) = if lo = hi then string_of_int lo else Printf.sprintf "[%d,%d]" lo hi
end

(* --- must/may set pairs, for held-lock and thread-liveness domains --- *)

module MustMay (Ord : Set.OrderedType) = struct
  module S = Set.Make (Ord)

  type t = { must : S.t; may : S.t }

  let exact s = { must = s; may = s }
  let empty = exact S.empty
  let equal a b = S.equal a.must b.must && S.equal a.may b.may
  let join a b = { must = S.inter a.must b.must; may = S.union a.may b.may }
  let add x t = { must = S.add x t.must; may = S.add x t.may }
  let remove x t = { must = S.remove x t.must; may = S.remove x t.may }
end

(* --- int-keyed maps with a default, for per-vkey state --- *)

module VMap = struct
  include Map.Make (Int)

  let find_d ~default k m = Option.value ~default (find_opt k m)

  let equal_d ~default eq a b =
    let keys m = fold (fun k _ acc -> k :: acc) m [] in
    List.for_all
      (fun k -> eq (find_d ~default k a) (find_d ~default k b))
      (List.sort_uniq Stdlib.compare (keys a @ keys b))

  let join_d ~default j a b =
    merge
      (fun _ x y ->
        Some (j (Option.value ~default x) (Option.value ~default y)))
      a b
end
