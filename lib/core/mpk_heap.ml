let granule = 16

type t = {
  base : int;
  len : int;
  mutable free_list : (int * int) list;  (* (addr, size), sorted by addr *)
  blocks : (int, int) Hashtbl.t;  (* addr -> size *)
  mutable allocated : int;
}

let create ~base ~len =
  if len <= 0 then invalid_arg "Mpk_heap.create: empty heap";
  { base; len; free_list = [ base, len ]; blocks = Hashtbl.create 64; allocated = 0 }

let round_up size = (size + granule - 1) / granule * granule

let alloc t ~size =
  if size <= 0 then invalid_arg "Mpk_heap.alloc: size must be positive";
  let size = round_up size in
  let rec take acc = function
    | [] -> None
    | (addr, avail) :: rest when avail >= size ->
        let remainder = if avail > size then [ addr + size, avail - size ] else [] in
        t.free_list <- List.rev_append acc (remainder @ rest);
        Hashtbl.replace t.blocks addr size;
        t.allocated <- t.allocated + size;
        Some addr
    | chunk :: rest -> take (chunk :: acc) rest
  in
  take [] t.free_list

let free t ~addr =
  match Hashtbl.find_opt t.blocks addr with
  | None -> invalid_arg "Mpk_heap.free: not an allocated block"
  | Some size ->
      Hashtbl.remove t.blocks addr;
      t.allocated <- t.allocated - size;
      (* Insert sorted, coalescing with both neighbours. *)
      let rec insert = function
        | [] -> [ addr, size ]
        | (a, s) :: rest when a + s = addr -> coalesce_left a s rest
        | (a, s) :: rest when addr + size = a -> (addr, size + s) :: rest
        | (a, s) :: rest when a > addr -> (addr, size) :: (a, s) :: rest
        | chunk :: rest -> chunk :: insert rest
      and coalesce_left a s rest =
        match rest with
        | (a2, s2) :: rest2 when addr + size = a2 -> (a, s + size + s2) :: rest2
        | _ -> (a, s + size) :: rest
      in
      t.free_list <- insert t.free_list

let free_bytes t = List.fold_left (fun acc (_, s) -> acc + s) 0 t.free_list

let invariant t =
  let sorted_disjoint =
    let rec check = function
      | (a1, s1) :: ((a2, _) :: _ as rest) ->
          (* strict <: adjacency would mean a missed coalesce *)
          s1 > 0 && a1 + s1 < a2 && check rest
      | [ (_, s) ] -> s > 0
      | [] -> true
    in
    check t.free_list
  in
  let in_range =
    List.for_all (fun (a, s) -> a >= t.base && a + s <= t.base + t.len) t.free_list
    && Hashtbl.fold
         (fun a s acc -> acc && a >= t.base && a + s <= t.base + t.len)
         t.blocks true
  in
  let conserved = free_bytes t + t.allocated = t.len in
  let blocks_disjoint =
    (* Every block must not intersect any free chunk. *)
    Hashtbl.fold
      (fun a s acc ->
        acc
        && List.for_all (fun (fa, fs) -> a + s <= fa || fa + fs <= a) t.free_list)
      t.blocks true
  in
  sorted_disjoint && in_range && conserved && blocks_disjoint
