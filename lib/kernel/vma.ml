open Mpk_hw

module IntMap = Map.Make (Int)

type attrs = { prot : Perm.t; pkey : Pkey.t }

(* A vma is now an identity-bearing mutable record, because the
   concurrency protocol (DESIGN.md §13) is about *object* lifetime:
   readers may hold a reference to a vma after it has been unmapped and
   its storage handed to another mapping. [vm_mm] names the owning
   address space (-1 only before first use), [detached] marks removal
   from the tree, [gen] counts slab recycles (diagnostics only — the
   lookup protocol never needs it), and [vlock]'s shared side is the
   vm_refcnt readers hold across their critical section. *)
type vma = {
  mutable start : int;
  mutable pages : int;
  mutable attrs : attrs;
  mutable vm_mm : int;
  mutable gen : int;
  mutable detached : bool;
  vlock : Lock.t;
}

type t = {
  mm_id : int;
  mutable areas : vma IntMap.t;
  mm_lock : Lock.t;
}

let attrs_equal a b = Perm.equal a.prot b.prot && Pkey.equal a.pkey b.pkey

(* --- address-space identity (mmgrab/mmdrop model) --- *)

let next_mm_id = ref 0
let mm_grab_counts : (int, int ref) Hashtbl.t = Hashtbl.create 16

let grab_cell mm_id =
  match Hashtbl.find_opt mm_grab_counts mm_id with
  | Some c -> c
  | None ->
      let c = ref 0 in
      Hashtbl.replace mm_grab_counts mm_id c;
      c

let mm_grab mm_id = if mm_id >= 0 then incr (grab_cell mm_id)
let mm_drop mm_id = if mm_id >= 0 then decr (grab_cell mm_id)

let grabs_outstanding () =
  Hashtbl.fold (fun _ c acc -> acc + !c) mm_grab_counts 0

let create () =
  incr next_mm_id;
  ignore (grab_cell !next_mm_id);
  { mm_id = !next_mm_id; areas = IntMap.empty; mm_lock = Lock.make ~cls:"mm_lock" }

let mm_lock t = t.mm_lock

(* --- typesafe slab (SLAB_TYPESAFE_BY_RCU model) --- *)

(* Freed vmas go to a process-global free-list and are handed out again
   — possibly to a different mm — without any quarantine. The records
   are therefore always valid OCaml memory (stale readers cannot crash
   the runtime), but their *contents* can belong to someone else by the
   time a racing reader looks: exactly the situation the lookup
   protocol's recycle check exists to detect. *)
let slab : vma list ref = ref []
let recycle_count = ref 0

let slab_recycled () = !recycle_count

(* Empty the free-list (records pinned by abandoned readers included:
   dropping them leaks nothing the GC can't reclaim). Harness drivers
   call this before a run so its behaviour is a pure function of its
   inputs rather than of whatever earlier runs left on the slab. *)
let slab_reset () = slab := []

let alloc_vma t ~start ~pages ~attrs =
  (* A slab entry still pinned by a stale reader is skipped, not
     reused: vm_refcnt must be zero before the slot can be handed out
     (the reader's pending put still runs against the old contents). *)
  let rec take acc = function
    | [] ->
        slab := List.rev acc;
        None
    | v :: rest when Lock.reader_count v.vlock = 0 && not (Lock.write_locked v.vlock)
      ->
        slab := List.rev_append acc rest;
        Some v
    | v :: rest -> take (v :: acc) rest
  in
  match take [] !slab with
  | Some v ->
      incr recycle_count;
      v.gen <- v.gen + 1;
      v.start <- start;
      v.pages <- pages;
      v.attrs <- attrs;
      v.vm_mm <- t.mm_id;
      v.detached <- false;
      v
  | None ->
      {
        start;
        pages;
        attrs;
        vm_mm = t.mm_id;
        gen = 0;
        detached = false;
        vlock = Lock.make ~cls:"vma_lock";
      }

(* Push to the slab. [vm_mm] is deliberately left stale — as with
   SLAB_TYPESAFE_BY_RCU, freeing scrubs nothing; only the next
   allocation overwrites. *)
let free_vma v = slab := v :: !slab

let free_detached vmas = List.iter free_vma vmas

(* --- tree queries (walk-only; see the locking notes in the mli) --- *)

let count t = IntMap.cardinal t.areas

let to_list t = IntMap.fold (fun _ v acc -> v :: acc) t.areas [] |> List.rev

let vend v = v.start + v.pages

(* Last area starting at or before [vpn]. *)
let floor_area t vpn =
  match IntMap.find_last_opt (fun s -> s <= vpn) t.areas with
  | Some (_, v) -> Some v
  | None -> None

let find t vpn =
  match floor_area t vpn with
  | Some v when vpn < vend v -> Some v
  | Some _ | None -> None

(* Logarithmic in the number of areas: begin at the area holding [start],
   then step from each area's end to the next area's start. *)
let overlapping t ~start ~pages =
  let stop = start + pages in
  let rec from vpn acc =
    match IntMap.find_first_opt (fun s -> s >= vpn) t.areas with
    | Some (_, v) when v.start < stop -> from (vend v) (v :: acc)
    | Some _ | None -> List.rev acc
  in
  match find t start with
  | Some v when v.start < stop -> from (vend v) [ v ]
  | Some _ | None -> from start []

let covered t ~start ~pages =
  let rec check vpn =
    if vpn >= start + pages then true
    else
      match find t vpn with
      | None -> false
      | Some v -> check (vend v)
  in
  pages > 0 && check start

(* --- recycling-safe lookup protocol (SNIPPETS.md §2) --- *)

let recycle_check = ref true
let set_recycle_check b = recycle_check := b

let start_read v ~actor = Lock.try_acquire v.vlock Lock.Shared ~actor

let read_valid t v vpn =
  v.vm_mm = t.mm_id && (not v.detached) && v.start <= vpn && vpn < vend v

let validate_read t v vpn = if !recycle_check then read_valid t v vpn else true

let end_read t v ~actor =
  let owner = v.vm_mm in
  if owner <> t.mm_id then begin
    (* The vma was recycled into another address space while we held
       the reference. Dropping the last refcount wakes that owner's
       writer, so the owner must be pinned (mmgrab) across the put —
       dereferencing it unpinned is the use-after-free this dance
       prevents in Linux's vma_refcount_put(). *)
    mm_grab owner;
    Lock.release v.vlock Lock.Shared ~actor;
    mm_drop owner
  end
  else Lock.release v.vlock Lock.Shared ~actor

(* --- write side (callers hold the mm lock exclusively in concurrent
   settings; every structural change write-locks the vmas it touches,
   which waits out any reader that won the refcount race) --- *)

let insert t v = t.areas <- IntMap.add v.start v t.areas

(* Unlink from the tree. Acquiring the vma write lock drains readers;
   after [detached] is set, any reader that raced the unlink fails
   validation and retries under the mm lock. The record is NOT freed:
   callers still need its fields (e.g. to free frames) and push it to
   the slab afterwards via [free_detached]. *)
let detach t ~actor v =
  Lock.acquire v.vlock Lock.Exclusive ~actor;
  t.areas <- IntMap.remove v.start t.areas;
  v.detached <- true;
  Lock.release v.vlock Lock.Exclusive ~actor

let detach_free t ~actor v =
  detach t ~actor v;
  free_vma v

let add ?(actor = -1) t ~start ~pages attrs =
  if pages <= 0 then invalid_arg "Vma.add: pages must be positive";
  (match overlapping t ~start ~pages with
  | [] -> ()
  | _ -> invalid_arg "Vma.add: overlaps an existing area");
  (* Merge with adjacent equal-attribute neighbours, as Linux does for
     compatible anonymous mappings. Mergeable neighbours are detached
     first (draining their readers), then a single area is grown or
     inserted — so no two vma locks are ever held at once and the
     class-level lock order stays flat. *)
  let stop = start + pages in
  let right_extra =
    match IntMap.find_opt stop t.areas with
    | Some right when attrs_equal right.attrs attrs ->
        let extra = right.pages in
        detach_free t ~actor right;
        extra
    | Some _ | None -> 0
  in
  match find t (start - 1) with
  | Some left when vend left = start && attrs_equal left.attrs attrs ->
      Lock.acquire left.vlock Lock.Exclusive ~actor;
      left.pages <- left.pages + pages + right_extra;
      Lock.release left.vlock Lock.Exclusive ~actor
  | Some _ | None ->
      insert t (alloc_vma t ~start ~pages:(pages + right_extra) ~attrs)

(* Split [v] so that [vpn] starts a new area; returns false if [vpn] is
   already a boundary. The left part keeps the record (its tree key is
   unchanged); the right part is a fresh allocation. *)
let split_at ?(actor = -1) t vpn =
  match find t vpn with
  | Some v when v.start < vpn ->
      Lock.acquire v.vlock Lock.Exclusive ~actor;
      let right = alloc_vma t ~start:vpn ~pages:(vend v - vpn) ~attrs:v.attrs in
      v.pages <- vpn - v.start;
      Lock.release v.vlock Lock.Exclusive ~actor;
      insert t right;
      true
  | Some _ | None -> false

let remove_range ?(actor = -1) t ~start ~pages =
  if pages <= 0 then invalid_arg "Vma.remove_range: pages must be positive";
  let stop = start + pages in
  ignore (split_at ~actor t start);
  ignore (split_at ~actor t stop);
  let doomed = overlapping t ~start ~pages in
  List.iter (detach t ~actor) doomed;
  doomed

let merge_neighbours ?(actor = -1) t vpn =
  (* Try to merge the area containing [vpn] with its left neighbour. *)
  match find t vpn with
  | None -> false
  | Some v -> (
      match find t (v.start - 1) with
      | Some left when vend left = v.start && attrs_equal left.attrs v.attrs ->
          let extra = v.pages in
          detach_free t ~actor v;
          Lock.acquire left.vlock Lock.Exclusive ~actor;
          left.pages <- left.pages + extra;
          Lock.release left.vlock Lock.Exclusive ~actor;
          true
      | Some _ | None -> false)

let set_attrs ?(actor = -1) t ~start ~pages f =
  if pages <= 0 then invalid_arg "Vma.set_attrs: pages must be positive";
  if not (covered t ~start ~pages) then
    invalid_arg "Vma.set_attrs: range not fully covered";
  let stop = start + pages in
  let splits = ref 0 in
  if split_at ~actor t start then incr splits;
  if split_at ~actor t stop then incr splits;
  let targets = overlapping t ~start ~pages in
  List.iter
    (fun v ->
      Lock.acquire v.vlock Lock.Exclusive ~actor;
      v.attrs <- f v.attrs;
      Lock.release v.vlock Lock.Exclusive ~actor)
    targets;
  let touched = List.length targets in
  let merges = ref 0 in
  (* Merge across the whole affected neighbourhood, including both edges. *)
  List.iter
    (fun vpn -> if merge_neighbours ~actor t vpn then incr merges)
    (start :: List.map (fun v -> v.start) targets @ [ stop ]);
  touched, !splits, !merges

let invariant t =
  let ok = ref true in
  let prev = ref None in
  IntMap.iter
    (fun start v ->
      if start <> v.start || v.pages <= 0 then ok := false;
      if v.vm_mm <> t.mm_id || v.detached then ok := false;
      (match !prev with
      | Some p ->
          if vend p > v.start then ok := false;
          if vend p = v.start && attrs_equal p.attrs v.attrs then ok := false
      | None -> ());
      prev := Some v)
    t.areas;
  !ok
