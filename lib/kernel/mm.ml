open Mpk_hw

type t = {
  table : Page_table.t;
  vmas : Vma.t;
  mem : Physmem.t;
  mmu : Mmu.t;
  mutable bump : int;  (* next free vpn for address allocation *)
}

let bump_base_vpn = 0x10000  (* user mappings start at 256 MiB *)

(* Lock plumbing. Acquisitions charge zero cycles — the simulator's cost
   model folds lock traffic into the operations themselves — but each
   charge is a preemption point, which is what lets the torture
   scheduler interleave other fibers exactly where a real kernel could
   be preempted while (or before) holding the lock. *)
let lock_point cpu label =
  match cpu with Some cpu -> Cpu.charge ~label cpu 0.0 | None -> ()

let actor_of cpu = match cpu with Some cpu -> Cpu.id cpu | None -> -1

let with_mm_lock ?cpu t mode f =
  let actor = actor_of cpu in
  lock_point cpu "mm_lock";
  let lock = Vma.mm_lock t.vmas in
  Lock.acquire lock mode ~actor;
  Fun.protect ~finally:(fun () -> Lock.release lock mode ~actor) f

let with_write_lock t cpu f = with_mm_lock ~cpu t Lock.Exclusive f

(* Recycling-safe lookup (the lock_vma_under_rcu() shape, SNIPPETS.md
   §2): walk the area array with no lock, try to take the vma's read
   lock, then re-validate identity/liveness/range — the walk's result
   may have been unmapped and its record recycled (even into another
   address space) between the walk and the refcount bump.
   Any failure falls back to a walk under the mm read lock, which
   excludes writers. [f] runs with the vma read-held. *)
let find_vma_read t cpu ~vpn f =
  let actor = actor_of cpu in
  lock_point cpu "vma_walk";
  let fast =
    match Vma.find t.vmas vpn with
    | None -> `Fallback  (* racing unmap? only the mm lock can say *)
    | Some v ->
        lock_point cpu "vma_start_read";
        if not (Vma.start_read v ~actor) then `Fallback
        else begin
          lock_point cpu "vma_validate";
          if Vma.validate_read t.vmas v vpn then
            `Hit
              (Fun.protect
                 ~finally:(fun () -> Vma.end_read t.vmas v ~actor)
                 (fun () -> f v))
          else begin
            (* Lost the race: drop the reference (recycled-owner-safe)
               and retry under the lock. *)
            Vma.end_read t.vmas v ~actor;
            `Fallback
          end
        end
  in
  match fast with
  | `Hit r -> Some r
  | `Fallback ->
      with_mm_lock ?cpu t Lock.Shared (fun () ->
          match Vma.find t.vmas vpn with
          | None -> None
          | Some v -> Some (f v))

(* Demand paging's unit of work: materialize absent page [vpn] of [v] as
   a zeroed frame with the VMA's protection and key, charged as one page
   fault at [addr]. Raises [Out_of_memory] when no frame is free. *)
let fault_in t cpu (v : Vma.vma) ~vpn ~addr =
  (match cpu with
  | Some cpu ->
      Cpu.charge ~label:"page_fault" cpu (Cpu.costs cpu).page_fault;
      if Mpk_trace.Tracer.on () then
        Cpu.emit cpu (Mpk_trace.Event.Page_fault { addr; cause = "demand_paging" })
  | None -> ());
  let frame = Physmem.alloc_frame t.mem in
  Page_table.set t.table ~vpn
    (Pte.make ~frame ~perm:v.Vma.attrs.Vma.prot ~pkey:v.Vma.attrs.Vma.pkey)

(* A not-present fault inside a VMA is served by [fault_in]; anything
   else is a real segfault. Frame exhaustion refuses the fault with
   [No_memory], which the MMU delivers in place of the original (SIGBUS
   upstream). The VMA lookup takes the lock-free path: faults are the
   hot concurrent readers racing mmap/munmap. *)
let fault_handler t cpu (fault : Mmu.fault) =
  let vpn = Page_table.vpn_of_addr fault.Mmu.addr in
  let service v =
    try fault_in t cpu v ~vpn ~addr:fault.Mmu.addr
    with Out_of_memory -> raise (Mmu.Fault { fault with Mmu.cause = Mmu.No_memory })
  in
  match find_vma_read t cpu ~vpn service with
  | Some () -> true
  | None -> false

let create mem =
  let table = Page_table.create () in
  let t =
    {
      table;
      vmas = Vma.create ();
      mem;
      mmu = Mmu.create table mem;
      bump = bump_base_vpn;
    }
  in
  Mmu.set_fault_handler t.mmu (fault_handler t);
  t

let mmu t = t.mmu
let vmas t = t.vmas
let page_table t = t.table

let pages_of_len len = (len + Physmem.page_size - 1) / Physmem.page_size

let check_aligned addr =
  if addr land (Physmem.page_size - 1) <> 0 then
    Errno.fail EINVAL "address 0x%x is not page-aligned" addr

let check_range ~addr ~len =
  check_aligned addr;
  if len <= 0 then Errno.fail EINVAL "length must be positive"

let vpn_range ~addr ~len =
  check_range ~addr ~len;
  Page_table.vpn_of_addr addr, pages_of_len len

(* What [mmap] and [mmap_frames] share: pick the first page, then under
   the mm write lock refuse an overlap, charge the VMA work and add the
   area, and run [install start] last. Errors name the call [what].
   Returns the area's address. *)
let map_area t cpu ~what ?at ~pages ~prot install =
  if pages <= 0 then Errno.fail EINVAL "%s: empty mapping" what;
  let start =
    match at with
    | Some addr ->
        check_aligned addr;
        Page_table.vpn_of_addr addr
    | None ->
        let s = t.bump in
        (* Guard gap keeps distinct mmap calls in distinct VMAs. *)
        t.bump <- t.bump + pages + 1;
        s
  in
  with_write_lock t cpu @@ fun () ->
  if Vma.overlaps t.vmas ~start ~pages then
    Errno.fail ENOMEM "%s: range overlaps an existing mapping" what;
  let costs = Cpu.costs cpu in
  Cpu.charge ~label:"vma" cpu (costs.vma_find +. costs.vma_update);
  Vma.add ~actor:(Cpu.id cpu) t.vmas ~start ~pages { prot; pkey = Pkey.default };
  install start;
  Page_table.addr_of_vpn start

(* Lazy: no frames or PTEs until first touch. *)
let mmap t cpu ?at ~len ~prot () =
  map_area t cpu ~what:"mmap" ?at ~pages:(pages_of_len len) ~prot ignore

let free_present t cpu ~start ~pages =
  let costs = Cpu.costs cpu in
  let freed = ref 0 in
  for vpn = start to start + pages - 1 do
    let pte = Page_table.get t.table ~vpn in
    if Pte.is_present pte then begin
      Physmem.free_frame t.mem (Pte.frame pte);
      Page_table.set t.table ~vpn Pte.absent;
      Cpu.charge ~label:"pte_update" cpu costs.pte_update;
      incr freed
    end
  done;
  !freed

let munmap t cpu ~addr ~len =
  let start, pages = vpn_range ~addr ~len in
  with_write_lock t cpu @@ fun () ->
  let costs = Cpu.costs cpu in
  Cpu.charge ~label:"vma" cpu costs.vma_find;
  let removed = Vma.remove_range ~actor:(Cpu.id cpu) t.vmas ~start ~pages in
  if removed = [] then Errno.fail EINVAL "munmap: nothing mapped at 0x%x" addr;
  let freed = ref 0 in
  List.iter
    (fun (v : Vma.vma) ->
      Cpu.charge ~label:"vma" cpu costs.vma_update;
      freed := !freed + free_present t cpu ~start:v.Vma.start ~pages:v.Vma.pages)
    removed;
  (* Only now — frames freed, PTEs cleared — may the detached vmas hit
     the typesafe free-list and be recycled by a concurrent mmap. *)
  Vma.free_detached removed;
  if Mpk_trace.Tracer.on () then
    Cpu.emit cpu (Mpk_trace.Event.Pte_update { pages; present = !freed });
  Cpu.charge ~label:"tlb_flush" cpu (Costs.tlb_invalidate costs ~pages);
  Tlb.flush_all (Cpu.tlb cpu);
  if Mpk_trace.Tracer.on () then
    Cpu.emit cpu (Mpk_trace.Event.Tlb_flush { pages; all = true })

(* Charges [Costs.tlb_invalidate costs ~pages] for the [pages] >= 1 of a
   protection change, one branch per case so that the per-page sum is
   computed unboxed by [Cpu.charge_per]. *)
let flush_local cpu ~start ~pages =
  let costs = Cpu.costs cpu in
  if pages <= costs.tlb_flush_ceiling then begin
    Cpu.charge_per cpu ~label:"tlb_flush" pages costs.tlb_flush_page;
    for vpn = start to start + pages - 1 do
      Tlb.flush_page (Cpu.tlb cpu) ~vpn
    done;
    if Mpk_trace.Tracer.on () then
      Cpu.emit cpu (Mpk_trace.Event.Tlb_flush { pages; all = false })
  end
  else begin
    Cpu.charge ~label:"tlb_flush" cpu costs.tlb_flush_all;
    Tlb.flush_all (Cpu.tlb cpu);
    if Mpk_trace.Tracer.on () then
      Cpu.emit cpu (Mpk_trace.Event.Tlb_flush { pages; all = true })
  end

(* The body of every protection change, run under the mm write lock:
   [rw] rewrites the VMAs' attributes and the present PTEs alike. *)
let change_locked t cpu ~addr ~len ~start ~pages rw =
  if not (Vma.covered t.vmas ~start ~pages) then
    Errno.fail ENOMEM "mprotect: range 0x%x+%d not fully mapped" addr len;
  let costs = Cpu.costs cpu in
  Cpu.charge ~label:"vma" cpu costs.vma_find;
  let actor = Cpu.id cpu in
  let splits = Vma.split_edges ~actor t.vmas ~start ~pages in
  let vmas_touched = Vma.rewrite_range ~actor t.vmas ~start ~pages rw in
  let merges = Vma.merge_range ~actor t.vmas ~start ~pages in
  Cpu.charge_per2 cpu ~label:"vma_split_merge" (splits + merges) costs.vma_split_merge
    vmas_touched costs.vma_update;
  (* Rewrite present PTEs; absent slots cost only the scan and will
     materialize later from the updated VMA attributes. *)
  let ptes_touched = Page_table.update_range t.table ~vpn:start ~pages rw in
  Cpu.charge_per2 cpu ~label:"pte_update" pages costs.pte_scan ptes_touched costs.pte_update;
  if Mpk_trace.Tracer.on () then
    Cpu.emit cpu (Mpk_trace.Event.Pte_update { pages; present = ptes_touched });
  flush_local cpu ~start ~pages

(* [with_write_lock], written out so that a protection change builds no
   closure: the same zero-cycle [mm_lock] preemption point, then the
   exclusive hold around the body. *)
let change_range t cpu ~addr ~len rw =
  check_range ~addr ~len;
  let start = Page_table.vpn_of_addr addr and pages = pages_of_len len in
  let actor = Cpu.id cpu in
  Cpu.charge ~label:"mm_lock" cpu 0.0;
  let lock = Vma.mm_lock t.vmas in
  Lock.acquire lock Lock.Exclusive ~actor;
  match change_locked t cpu ~addr ~len ~start ~pages rw with
  | () -> Lock.release lock Lock.Exclusive ~actor
  | exception e ->
      Lock.release lock Lock.Exclusive ~actor;
      raise e

let change_protection t cpu ~addr ~len ~prot =
  change_range t cpu ~addr ~len (Pte.rewrite_perm prot)

let change_protection_pkey t cpu ~addr ~len ~prot ~pkey =
  change_range t cpu ~addr ~len (Pte.rewrite_perm_pkey prot pkey)


let show_maps t =
  let buf = Buffer.create 256 in
  List.iter
    (fun (v : Vma.vma) ->
      let resident = ref 0 in
      for vpn = v.Vma.start to v.Vma.start + v.Vma.pages - 1 do
        if Pte.is_present (Page_table.get t.table ~vpn) then incr resident
      done;
      Buffer.add_string buf
        (Printf.sprintf "%08x-%08x %s pkey=%-2d %d/%d pages resident\n"
           (Page_table.addr_of_vpn v.Vma.start)
           (Page_table.addr_of_vpn (v.Vma.start + v.Vma.pages))
           (Perm.to_string v.Vma.attrs.Vma.prot)
           (Pkey.to_int v.Vma.attrs.Vma.pkey)
           !resident v.Vma.pages))
    (Vma.to_list t.vmas);
  Buffer.contents buf

(* Shared mappings are installed eagerly: the frames already exist. *)
let mmap_frames t cpu ?at ~frames ~prot () =
  map_area t cpu ~what:"mmap_frames" ?at ~pages:(Array.length frames) ~prot (fun start ->
      let costs = Cpu.costs cpu in
      Array.iteri
        (fun i frame ->
          Physmem.ref_frame t.mem frame;
          Page_table.set t.table ~vpn:(start + i) (Pte.make ~frame ~perm:prot ~pkey:Pkey.default);
          Cpu.charge ~label:"pte_update" cpu costs.pte_update)
        frames)

(* Pre-fault a range, as a store touching its memory would. Like Linux's
   __mm_populate it walks the range one VMA at a time: one recycling-safe
   lookup per VMA that holds an absent page, then every absent page of
   the VMA's share of the range filled under that lookup's read lock, each
   charged as the demand fault it stands for. A hole fails at its first
   page, after the pages before it are filled. *)
let populate t cpu ~addr ~len =
  let start, pages = vpn_range ~addr ~len in
  let stop = start + pages in
  let cpu = Some cpu in  (* built once, so the per-page loop allocates nothing *)
  let rec next_absent vpn =
    if vpn < stop && Pte.is_present (Page_table.get t.table ~vpn) then next_absent (vpn + 1)
    else vpn
  in
  let fill first (v : Vma.vma) =
    let last = min stop (Vma.vend v) in
    for vpn = first to last - 1 do
      if not (Pte.is_present (Page_table.get t.table ~vpn)) then
        try fault_in t cpu v ~vpn ~addr:(Page_table.addr_of_vpn vpn)
        with Out_of_memory -> Errno.fail ENOMEM "populate: out of physical frames"
    done;
    last
  in
  let rec from vpn =
    let vpn = next_absent vpn in
    if vpn < stop then
      match find_vma_read t cpu ~vpn (fill vpn) with
      | Some last -> from last
      | None -> Errno.fail ENOMEM "populate: 0x%x not mapped" (Page_table.addr_of_vpn vpn)
  in
  from start

let frames_of_range t cpu ~addr ~len =
  populate t cpu ~addr ~len;
  let start, pages = vpn_range ~addr ~len in
  Array.init pages (fun i -> Pte.frame (Page_table.get t.table ~vpn:(start + i)))
