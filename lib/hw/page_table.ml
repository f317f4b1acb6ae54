(* Four radix levels of 512 entries each. Inner nodes are lazily allocated
   arrays; leaves store the PTEs themselves, which are immediates, so a
   rewrite neither allocates nor runs the write barrier.

   A leaf also holds a pending rewrite, which every read applies to the
   entry it returns, and its present count. A protection change that
   covers a whole leaf composes into the pending rewrite and reads the
   count, O(1) whatever the leaf holds. The entries take the pending
   rewrite only when a change covers part of the leaf, or when a store
   would read back differently under it. *)

let fanout = 512
let level_bits = 9
let levels = 4

type leaf = {
  entries : Pte.t array;
  mutable pending : Pte.rewrite;
  mutable present : int;
}

type node =
  | Inner of node option array
  | Leaf of leaf

type t = { root : node option array }

let create () = { root = Array.make fanout None }

let vpn_of_addr addr = addr lsr Physmem.page_shift
let addr_of_vpn vpn = vpn lsl Physmem.page_shift

let index vpn level =
  (* level 0 is the root, level 3 holds leaves. *)
  (vpn lsr ((levels - 1 - level) * level_bits)) land (fanout - 1)

let check_vpn vpn =
  if vpn < 0 || vpn lsr (levels * level_bits) <> 0 then
    invalid_arg "Page_table: vpn out of 48-bit range"

(* What [find_leaf] returns for a missing leaf it may not create: a
   sentinel rather than an option, so that a lookup allocates nothing. *)
let no_leaf = { entries = [||]; pending = Pte.identity; present = 0 }

let rec find_leaf ~create_missing arr vpn level =
  let i = index vpn level in
  if level = levels - 2 then begin
    match arr.(i) with
    | Some (Leaf leaf) -> leaf
    | Some (Inner _) -> assert false
    | None ->
        if not create_missing then no_leaf
        else begin
          let leaf =
            { entries = Array.make fanout Pte.absent; pending = Pte.identity; present = 0 }
          in
          arr.(i) <- Some (Leaf leaf);
          leaf
        end
  end
  else
    match arr.(i) with
    | Some (Inner next) -> find_leaf ~create_missing next vpn (level + 1)
    | Some (Leaf _) -> assert false
    | None ->
        if not create_missing then no_leaf
        else begin
          let next = Array.make fanout None in
          arr.(i) <- Some (Inner next);
          find_leaf ~create_missing next vpn (level + 1)
        end

(* Applies a leaf's pending rewrite to its entries, leaving none. *)
let settle leaf =
  if leaf.pending != Pte.identity then begin
    ignore (Pte.apply_present leaf.pending leaf.entries ~lo:0 ~hi:fanout);
    leaf.pending <- Pte.identity
  end

let set t ~vpn pte =
  check_vpn vpn;
  let i = index vpn (levels - 1) in
  if not (Pte.is_present pte) then begin
    let leaf = find_leaf ~create_missing:false t.root vpn 0 in
    if leaf != no_leaf && Pte.is_present leaf.entries.(i) then begin
      leaf.entries.(i) <- Pte.absent;
      leaf.present <- leaf.present - 1
    end
  end
  else begin
    let leaf = find_leaf ~create_missing:true t.root vpn 0 in
    (* Stored as is, [pte] reads back as [Pte.apply leaf.pending pte]. A
       demand fault's entry, built from the attributes the same rewrite
       gave its VMA, reads back unchanged. *)
    if Pte.apply leaf.pending pte != pte then settle leaf;
    if not (Pte.is_present leaf.entries.(i)) then leaf.present <- leaf.present + 1;
    leaf.entries.(i) <- pte
  end

let get t ~vpn =
  check_vpn vpn;
  let leaf = find_leaf ~create_missing:false t.root vpn 0 in
  if leaf == no_leaf then Pte.absent
  else Pte.apply leaf.pending leaf.entries.(index vpn (levels - 1))

(* Rewrites the present entries of [lo, hi) under [arr], a node at
   [level] whose first slot starts at vpn [base]. Only the slots that
   overlap the range are visited, and the range is never empty. A leaf
   the range covers whole takes [rw] into its pending rewrite; one it
   covers in part is rewritten entry by entry. *)
let rec rewrite_node rw arr level base ~lo ~hi =
  let shift = (levels - 1 - level) * level_bits in
  let first = if lo > base then (lo - base) lsr shift else 0 in
  let last = (hi - 1 - base) lsr shift in
  let last = if last < fanout then last else fanout - 1 in
  let n = ref 0 in
  for i = first to last do
    let slot = base + (i lsl shift) in
    match arr.(i) with
    | None -> ()
    | Some (Inner next) -> n := !n + rewrite_node rw next (level + 1) slot ~lo ~hi
    | Some (Leaf leaf) ->
        if lo <= slot && hi - slot >= fanout then begin
          leaf.pending <- Pte.compose leaf.pending rw;
          n := !n + leaf.present
        end
        else begin
          settle leaf;
          let lo = if lo > slot then lo - slot else 0 in
          let hi = if hi - slot < fanout then hi - slot else fanout in
          n := !n + Pte.apply_present rw leaf.entries ~lo ~hi
        end
  done;
  !n

let update_range t ~vpn ~pages rw =
  check_vpn vpn;
  if pages <= 0 then 0
  else begin
    check_vpn (vpn + pages - 1);
    rewrite_node rw t.root 0 0 ~lo:vpn ~hi:(vpn + pages)
  end

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
            let pte = leaf.entries.(j) in
            if Pte.is_present pte then acc := f (base lor j) (Pte.apply leaf.pending pte) !acc
          done
    done
  in
  walk t.root 0 0;
  !acc

let count_with_pkey t pkey =
  fold t (fun _ pte acc -> if Pkey.equal (Pte.pkey pte) pkey then acc + 1 else acc) 0
