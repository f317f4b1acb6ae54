(* Four radix levels of 512 entries each. Inner nodes are lazily allocated
   arrays; leaves store the PTEs themselves, which are immediates, so a
   rewrite neither allocates nor runs the write barrier. *)

let fanout = 512
let level_bits = 9
let levels = 4

type node =
  | Inner of node option array
  | Leaf of Pte.t array

type t = { root : node option array; mutable mapped : int }

let create () = { root = Array.make fanout None; mapped = 0 }

let vpn_of_addr addr = addr lsr Physmem.page_shift
let addr_of_vpn vpn = vpn lsl Physmem.page_shift

let index vpn level =
  (* level 0 is the root, level 3 holds leaves. *)
  (vpn lsr ((levels - 1 - level) * level_bits)) land (fanout - 1)

let check_vpn vpn =
  if vpn < 0 || vpn lsr (levels * level_bits) <> 0 then
    invalid_arg "Page_table: vpn out of 48-bit range"

let rec find_leaf ~create_missing arr vpn level =
  let i = index vpn level in
  if level = levels - 2 then begin
    match arr.(i) with
    | Some (Leaf leaf) -> Some leaf
    | Some (Inner _) -> assert false
    | None ->
        if not create_missing then None
        else begin
          let leaf = Array.make fanout Pte.absent in
          arr.(i) <- Some (Leaf leaf);
          Some leaf
        end
  end
  else
    match arr.(i) with
    | Some (Inner next) -> find_leaf ~create_missing next vpn (level + 1)
    | Some (Leaf _) -> assert false
    | None ->
        if not create_missing then None
        else begin
          let next = Array.make fanout None in
          arr.(i) <- Some (Inner next);
          find_leaf ~create_missing next vpn (level + 1)
        end

let set t ~vpn pte =
  check_vpn vpn;
  if not (Pte.is_present pte) then begin
    match find_leaf ~create_missing:false t.root vpn 0 with
    | None -> ()
    | Some leaf ->
        let i = index vpn (levels - 1) in
        if Pte.is_present leaf.(i) then t.mapped <- t.mapped - 1;
        leaf.(i) <- Pte.absent
  end
  else
    match find_leaf ~create_missing:true t.root vpn 0 with
    | None -> assert false
    | Some leaf ->
        let i = index vpn (levels - 1) in
        if not (Pte.is_present leaf.(i)) then t.mapped <- t.mapped + 1;
        leaf.(i) <- pte

let get t ~vpn =
  check_vpn vpn;
  match find_leaf ~create_missing:false t.root vpn 0 with
  | None -> Pte.absent
  | Some leaf -> leaf.(index vpn (levels - 1))

let update t ~vpn f =
  let pte = get t ~vpn in
  if Pte.is_present pte then begin
    set t ~vpn (f pte);
    true
  end
  else false

let update_range t ~vpn ~pages f =
  check_vpn vpn;
  if pages > 0 then check_vpn (vpn + pages - 1);
  let lo = vpn and hi = vpn + pages in  (* [lo, hi) *)
  let touched = ref 0 in
  (* [span] = number of vpns under one slot at this level *)
  let rec walk arr level node_base =
    let span = 1 lsl ((levels - 1 - level) * level_bits) in
    for i = 0 to fanout - 1 do
      let slot_lo = node_base + (i * span) in
      let slot_hi = slot_lo + span in
      if slot_lo < hi && slot_hi > lo then
        match arr.(i) with
        | None -> ()
        | Some (Inner next) -> walk next (level + 1) slot_lo
        | Some (Leaf leaf) ->
            let jlo = max 0 (lo - slot_lo) in
            let jhi = min fanout (hi - slot_lo) in
            for j = jlo to jhi - 1 do
              if Pte.is_present leaf.(j) then begin
                leaf.(j) <- f leaf.(j);
                incr touched
              end
            done
    done
  in
  (* Leaves appear at level 2 holding the level-3 index, so a Leaf's
     slot spans [fanout] vpns; walk handles that via span at level 2. *)
  walk t.root 0 0;
  !touched

let fold t f init =
  let acc = ref init in
  let rec walk arr level prefix =
    for i = 0 to fanout - 1 do
      match arr.(i) with
      | None -> ()
      | Some (Inner next) -> walk next (level + 1) ((prefix lsl level_bits) lor i)
      | Some (Leaf leaf) ->
          let base = ((prefix lsl level_bits) lor i) lsl level_bits in
          for j = 0 to fanout - 1 do
            if Pte.is_present leaf.(j) then acc := f (base lor j) leaf.(j) !acc
          done
    done
  in
  walk t.root 0 0;
  !acc

let count_with_pkey t pkey =
  fold t (fun _ pte acc -> if Pkey.equal (Pte.pkey pte) pkey then acc + 1 else acc) 0

let mapped_pages t = t.mapped
