open Mpk_hw

type attrs = { prot : Perm.t; pkey : Pkey.t }

(* A vma is now an identity-bearing mutable record, because the
   concurrency protocol (DESIGN.md §13) is about *object* lifetime:
   readers may hold a reference to a vma after it has been unmapped and
   its storage handed to another mapping. [vm_mm] names the owning
   address space (-1 only before first use), [detached] marks removal
   from the array, and [vlock]'s shared side is the vm_refcnt readers
   hold across their critical section. *)
type vma = {
  mutable start : int;
  mutable pages : int;
  mutable attrs : attrs;
  mutable vm_mm : int;
  mutable detached : bool;
  vlock : Lock.t;
}

(* The areas live in one sorted array, searched by binary search and
   walked by index: slots [0, len) hold the areas in ascending [start]
   order, and the slots past [len] are spare capacity, never read. *)
type t = {
  mm_id : int;
  mutable areas : vma array;
  mutable len : int;
  mm_lock : Lock.t;
  mutable recycle_check : bool;  (* off only under torture's recycle plant *)
}

let attrs_equal a b = Perm.equal a.prot b.prot && Pkey.equal a.pkey b.pkey

(* Rewritten attributes are interned, one shared record per (prot, pkey)
   pair, so that a protection change allocates nothing per area. *)
let perm_index (p : Perm.t) =
  (if p.read then 4 else 0) lor (if p.write then 2 else 0) lor if p.exec then 1 else 0

let interned =
  Array.init (8 * Pkey.count) (fun i ->
      {
        prot = Perm.make ~read:(i land 4 <> 0) ~write:(i land 2 <> 0) ~exec:(i land 1 <> 0) ();
        pkey = Pkey.of_int (i lsr 3);
      })

(* A rewrite applies to an area's attributes as to the PTEs made from
   them: the attributes are the template every PTE of the area is built
   from when it faults in. *)
let rewrite_attrs rw a =
  let pte = Pte.apply rw (Pte.make ~frame:0 ~perm:a.prot ~pkey:a.pkey) in
  interned.((Pkey.to_int (Pte.pkey pte) lsl 3) lor perm_index (Pte.perm pte))

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
  {
    mm_id = !next_mm_id;
    areas = [||];
    len = 0;
    mm_lock = Lock.make ~cls:"mm_lock";
    recycle_check = true;
  }

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
        detached = false;
        vlock = Lock.make ~cls:"vma_lock";
      }

(* Push to the slab. [vm_mm] is deliberately left stale — as with
   SLAB_TYPESAFE_BY_RCU, freeing scrubs nothing; only the next
   allocation overwrites. *)
let free_vma v = slab := v :: !slab

let free_detached vmas = List.iter free_vma vmas

(* --- array queries (walk-only; see the locking notes in the mli) --- *)


let to_list t = List.init t.len (fun i -> t.areas.(i))

let vend v = v.start + v.pages

(* Index of the last area starting at or before [vpn]; -1 when none does. *)
let floor_index t vpn =
  let lo = ref 0 and hi = ref t.len in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if t.areas.(mid).start <= vpn then lo := mid + 1 else hi := mid
  done;
  !lo - 1

(* Index of the area containing [vpn]; -1 when [vpn] is unmapped. *)
let index_of t vpn =
  let i = floor_index t vpn in
  if i >= 0 && vpn < vend t.areas.(i) then i else -1

(* Index of the first area ending after [vpn]; [len] when none does. *)
let first_ending_after t vpn =
  let i = floor_index t vpn in
  if i >= 0 && vpn < vend t.areas.(i) then i else i + 1

let find t vpn =
  let i = index_of t vpn in
  if i < 0 then None else Some t.areas.(i)

let overlaps t ~start ~pages =
  pages > 0
  &&
  let i = first_ending_after t start in
  i < t.len && t.areas.(i).start < start + pages

let overlapping t ~start ~pages =
  let first = first_ending_after t start in
  let rec collect i acc = if i < first then acc else collect (i - 1) (t.areas.(i) :: acc) in
  if pages <= 0 then [] else collect (floor_index t (start + pages - 1)) []

(* True when the areas from index [i] on reach [stop] with no gap. *)
let rec reaches t i stop =
  let e = vend t.areas.(i) in
  e >= stop || (i + 1 < t.len && t.areas.(i + 1).start = e && reaches t (i + 1) stop)

let covered t ~start ~pages =
  pages > 0
  &&
  let i = index_of t start in
  i >= 0 && reaches t i (start + pages)

(* --- recycling-safe lookup protocol (SNIPPETS.md §2) --- *)

let skip_recycle_check t = t.recycle_check <- false

let start_read v ~actor = Lock.try_acquire v.vlock Lock.Shared ~actor

let read_valid t v vpn =
  v.vm_mm = t.mm_id && (not v.detached) && v.start <= vpn && vpn < vend v

let validate_read t v vpn = if t.recycle_check then read_valid t v vpn else true

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

(* Put [v] in its sorted place, doubling the array when it is full. *)
let insert t v =
  let i = floor_index t v.start + 1 in
  if t.len = Array.length t.areas then begin
    let bigger = Array.make (max 8 (2 * t.len)) v in
    Array.blit t.areas 0 bigger 0 t.len;
    t.areas <- bigger
  end;
  Array.blit t.areas i t.areas (i + 1) (t.len - i);
  t.areas.(i) <- v;
  t.len <- t.len + 1

(* Take [v] out of the array; no two areas share a start. *)
let unlink t v =
  let i = floor_index t v.start in
  Array.blit t.areas (i + 1) t.areas i (t.len - i - 1);
  t.len <- t.len - 1

(* Unlink from the array. Acquiring the vma write lock drains readers;
   after [detached] is set, any reader that raced the unlink fails
   validation and retries under the mm lock. The record is NOT freed:
   callers still need its fields (e.g. to free frames) and push it to
   the slab afterwards via [free_detached]. *)
let detach t ~actor v =
  Lock.acquire v.vlock Lock.Exclusive ~actor;
  unlink t v;
  v.detached <- true;
  Lock.release v.vlock Lock.Exclusive ~actor

let detach_free t ~actor v =
  detach t ~actor v;
  free_vma v

let add ?(actor = -1) t ~start ~pages attrs =
  if pages <= 0 then invalid_arg "Vma.add: pages must be positive";
  if overlaps t ~start ~pages then invalid_arg "Vma.add: overlaps an existing area";
  (* Merge with adjacent equal-attribute neighbours, as Linux does for
     compatible anonymous mappings. Mergeable neighbours are detached
     first (draining their readers), then a single area is grown or
     inserted — so no two vma locks are ever held at once and the
     class-level lock order stays flat. *)
  let stop = start + pages in
  let right_extra =
    let i = floor_index t stop in
    if i >= 0 && t.areas.(i).start = stop && attrs_equal t.areas.(i).attrs attrs then begin
      let right = t.areas.(i) in
      let extra = right.pages in
      detach_free t ~actor right;
      extra
    end
    else 0
  in
  let i = index_of t (start - 1) in
  if i >= 0 && vend t.areas.(i) = start && attrs_equal t.areas.(i).attrs attrs then begin
    let left = t.areas.(i) in
    Lock.acquire left.vlock Lock.Exclusive ~actor;
    left.pages <- left.pages + pages + right_extra;
    Lock.release left.vlock Lock.Exclusive ~actor
  end
  else insert t (alloc_vma t ~start ~pages:(pages + right_extra) ~attrs)

(* Split the area holding [vpn] so that [vpn] starts a new area; false if
   [vpn] is unmapped or already a boundary. The left part keeps the
   record (and its place in the array); the right part is a fresh
   allocation. *)
let split_at ~actor t vpn =
  let i = index_of t vpn in
  if i >= 0 && t.areas.(i).start < vpn then begin
    let v = t.areas.(i) in
    Lock.acquire v.vlock Lock.Exclusive ~actor;
    let right = alloc_vma t ~start:vpn ~pages:(vend v - vpn) ~attrs:v.attrs in
    v.pages <- vpn - v.start;
    Lock.release v.vlock Lock.Exclusive ~actor;
    insert t right;
    true
  end
  else false

let remove_range ?(actor = -1) t ~start ~pages =
  if pages <= 0 then invalid_arg "Vma.remove_range: pages must be positive";
  let stop = start + pages in
  ignore (split_at ~actor t start);
  ignore (split_at ~actor t stop);
  let doomed = overlapping t ~start ~pages in
  List.iter (detach t ~actor) doomed;
  doomed

(* Area [i] touches its left neighbour and carries equal attributes. *)
let mergeable_left t i =
  i > 0
  && vend t.areas.(i - 1) = t.areas.(i).start
  && attrs_equal t.areas.(i - 1).attrs t.areas.(i).attrs

(* Merge the area holding [vpn] into its left neighbour when they are
   mergeable; true if they merged. *)
let merge_at ~actor t vpn =
  let i = index_of t vpn in
  if mergeable_left t i then begin
    let v = t.areas.(i) and left = t.areas.(i - 1) in
    let extra = v.pages in
    detach_free t ~actor v;
    Lock.acquire left.vlock Lock.Exclusive ~actor;
    left.pages <- left.pages + extra;
    Lock.release left.vlock Lock.Exclusive ~actor;
    true
  end
  else false

(* --- the three steps of a protection change over a covered range --- *)

let split_edges ~actor t ~start ~pages =
  let at_start = Bool.to_int (split_at ~actor t start) in
  at_start + Bool.to_int (split_at ~actor t (start + pages))

let rewrite_range ~actor t ~start ~pages rw =
  let stop = start + pages in
  let i = ref (index_of t start) in
  let touched = ref 0 in
  while !i < t.len && t.areas.(!i).start < stop do
    let v = t.areas.(!i) in
    Lock.acquire v.vlock Lock.Exclusive ~actor;
    v.attrs <- rewrite_attrs rw v.attrs;
    Lock.release v.vlock Lock.Exclusive ~actor;
    incr touched;
    incr i
  done;
  !touched

(* Merge across the whole affected neighbourhood, both edges included:
   at the start of every area the range held after its split, then at
   [stop]. An area's end stays put when it merges into its left
   neighbour, so each next start is the end of the area holding the
   current one. *)
let merge_range ~actor t ~start ~pages =
  let stop = start + pages in
  let merges = ref 0 in
  let vpn = ref start in
  while !vpn < stop do
    if merge_at ~actor t !vpn then incr merges;
    vpn := vend t.areas.(index_of t !vpn)
  done;
  if merge_at ~actor t stop then incr merges;
  !merges

let invariant t =
  let ok = ref true in
  for i = 0 to t.len - 1 do
    let v = t.areas.(i) in
    if v.pages <= 0 || v.vm_mm <> t.mm_id || v.detached then ok := false;
    if i > 0 then begin
      let p = t.areas.(i - 1) in
      if vend p > v.start then ok := false;
      if vend p = v.start && attrs_equal p.attrs v.attrs then ok := false
    end
  done;
  !ok
