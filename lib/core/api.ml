open Mpk_hw
open Mpk_kernel

exception Key_exhausted
exception Unregistered_vkey of Vkey.t

(* Debug tracing of key-management events (attach/evict/exhaustion):
   set the "libmpk" source's level to Debug. *)
let log_src = Logs.Src.create "libmpk" ~doc:"libmpk key-management events"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Guards a [Log.debug] on a request path, whose message closure would
   otherwise be built on every call. *)
let debugging () = match Logs.Src.level log_src with Some Logs.Debug -> true | _ -> false

(* Groups by vkey. Hashing with [Hashtbl.hash] keeps the generic table's
   bucket order, so [vkey_of_pkey] and [group_of_addr], which answer with
   the first match of a fold, keep their answers. *)
module Groups = Hashtbl.Make (struct
  type t = Vkey.t

  let equal = Int.equal
  let hash = Vkey.hash
end)

(* A live group, its metadata slot and, once [mpk_malloc] made one, its
   heap: one lookup gives an entry point everything keyed by the vkey. *)
type entry = { group : Group.t; slot : int; mutable heap : Mpk_heap.t option }

type t = {
  proc : Proc.t;
  hw_keys : int;  (* keys handed to the cache at init — the conserved total *)
  evict_rate : float;
  prng : Mpk_util.Prng.t;
  cache : Key_cache.t;
  metadata : Metadata.t;
  groups : entry Groups.t;
  registry : (Vkey.t, unit) Hashtbl.t option;
  deferred : Task.Updates.t;  (* mpk_mprotect_many's unsynced PKRU updates; empty between calls *)
  default_heap_bytes : int;
  mutable xonly_reserved : Pkey.t option;
  mutable xonly_groups : int;
  counters : int array;  (* indexed by counter below *)
}

(* counter indices *)
let c_mmap = 0
and c_munmap = 1
and c_begin = 2
and c_end = 3
and c_mprotect = 4
and c_malloc = 5
and c_free = 6

let count t c = t.counters.(c) <- t.counters.(c) + 1

type stats = {
  mmap_calls : int;
  munmap_calls : int;
  begin_calls : int;
  end_calls : int;
  mprotect_calls : int;
  malloc_calls : int;
  free_calls : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  cache_invalidations : int;
  cache_full : int;
  cache_hit_rate : float;
  cache_reserved : int;
}

(* Userspace bookkeeping per API call: a fixed dispatch cost plus one
   hashmap probe per vkey-keyed lookup that real libmpk performs. Most
   of its entry points resolve the vkey three times (registry check,
   group map, slot sync) for the historical 60 cycles; mpk_begin/mpk_end
   reuse the (group, slot) pair from their first probe and charge two.
   These are modelled probes: the simulator itself resolves a vkey once
   per call ([lookup]) whatever it charges. With WRPKRU (23.3) the
   three-probe cost keeps the Fig 8 hit path near the paper's
   12.2x-faster-than-mprotect point. *)
let user_base_cycles = 15.0
let user_lookup_cycles = 15.0

(* Both costs are computed once: a float computed per call would be boxed
   on its way into [Cpu.charge]. *)
let user_cycles lookups = user_base_cycles +. (float_of_int lookups *. user_lookup_cycles)
let three_lookups = user_cycles 3
let two_lookups = user_cycles 2

let charge_user task cycles = Cpu.charge ~label:"libmpk_user" (Task.core task) cycles

(* Tracing shims: while [Cpu.observed], every public API call runs
   inside a span named after it; otherwise it runs its body directly,
   building neither the span nor a closure for the body. Key-cache
   traffic and heap ops emit typed events behind the tracer's one-branch
   disabled check. *)
let span task name f = Cpu.span (Task.core task) name f

let temit task ev = Cpu.emit (Task.core task) ev

let emit_acquire task vkey result =
  if Mpk_trace.Tracer.on () then
    match result with
    | Key_cache.Hit pkey ->
        temit task (Mpk_trace.Event.Cache_hit { vkey; pkey = Pkey.to_int pkey })
    | Key_cache.Fresh _ -> temit task (Mpk_trace.Event.Cache_miss { vkey })
    | Key_cache.Evicted { pkey; victim } ->
        temit task (Mpk_trace.Event.Cache_miss { vkey });
        temit task
          (Mpk_trace.Event.Cache_evict { vkey; victim; pkey = Pkey.to_int pkey })
    | Key_cache.Full -> temit task (Mpk_trace.Event.Cache_full { vkey })

let emit_group_op task op vkey =
  if Mpk_trace.Tracer.on () then temit task (Mpk_trace.Event.Group_op { op; vkey })

let init ?vkeys ?(default_heap_bytes = 1 lsl 20) ?(seed = 0xC0FFEEL)
    ?(policy = Key_cache.Lru) ?(hw_keys = 15) ~evict_rate proc task =
  if Float.is_nan evict_rate then invalid_arg "Libmpk.init: evict_rate is NaN";
  let evict_rate = if evict_rate < 0.0 then 1.0 else Float.min evict_rate 1.0 in
  let hw_keys = max 1 (min 15 hw_keys) in
  (* Take every hardware key away from the kernel so nothing else in the
     process can create groups behind libmpk's back; only the first
     [hw_keys] of them go into circulation. *)
  let keys =
    List.map
      (fun _ -> Syscall.pkey_alloc proc task ~init_rights:Pkru.No_access)
      Pkey.allocatable
    |> List.filteri (fun i _ -> i < hw_keys)
  in
  {
    proc;
    hw_keys;
    evict_rate;
    prng = Mpk_util.Prng.create ~seed;
    cache = Key_cache.create ~policy ~seed ~keys ();
    metadata = Metadata.create proc task;
    groups = Groups.create 64;
    registry =
      Option.map
        (fun vkeys ->
          let h = Hashtbl.create (List.length vkeys) in
          List.iter (fun v -> Hashtbl.replace h v ()) vkeys;
          h)
        vkeys;
    deferred = Task.Updates.create ();
    default_heap_bytes;
    xonly_reserved = None;
    xonly_groups = 0;
    counters = Array.make 7 0;
  }

let proc t = t.proc
let hw_keys t = t.hw_keys
let group_count t = Groups.length t.groups
let find_group t vkey = Option.map (fun e -> e.group) (Groups.find_opt t.groups vkey)
let cache t = t.cache
let metadata t = t.metadata
let xonly_key t = t.xonly_reserved
let xonly_group_count t = t.xonly_groups

let groups t =
  Groups.fold (fun vkey e acc -> (vkey, e.group, e.slot) :: acc) t.groups []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

let vkey_of_pkey t pkey =
  Groups.fold
    (fun vkey e acc ->
      match acc with
      | Some _ -> acc
      | None -> (
          match e.group.Group.state with
          | Group.Mapped k when k = pkey -> Some vkey
          | Group.Mapped _ | Group.Unmapped -> None))
    t.groups None

let group_of_addr t addr =
  Groups.fold
    (fun vkey { group = g; _ } acc ->
      match acc with
      | Some _ -> acc
      | None ->
          if addr >= g.Group.base && addr < g.Group.base + Group.len g then
            Some (vkey, g)
          else None)
    t.groups None

let stats t =
  {
    mmap_calls = t.counters.(c_mmap);
    munmap_calls = t.counters.(c_munmap);
    begin_calls = t.counters.(c_begin);
    end_calls = t.counters.(c_end);
    mprotect_calls = t.counters.(c_mprotect);
    malloc_calls = t.counters.(c_malloc);
    free_calls = t.counters.(c_free);
    cache_hits = Key_cache.hits t.cache;
    cache_misses = Key_cache.misses t.cache;
    cache_evictions = Key_cache.evictions t.cache;
    cache_invalidations = Key_cache.invalidations t.cache;
    cache_full = Key_cache.full_misses t.cache;
    cache_hit_rate = Key_cache.hit_rate t.cache;
    cache_reserved = Key_cache.reserved_count t.cache;
  }

let pp_stats fmt s =
  Format.fprintf fmt
    "mmap:%d munmap:%d begin:%d end:%d mprotect:%d malloc:%d free:%d | cache hit:%d \
     miss:%d evict:%d invalidate:%d full:%d hit-rate:%.2f reserved:%d"
    s.mmap_calls s.munmap_calls s.begin_calls s.end_calls s.mprotect_calls s.malloc_calls
    s.free_calls s.cache_hits s.cache_misses s.cache_evictions s.cache_invalidations
    s.cache_full s.cache_hit_rate s.cache_reserved

let check_vkey t vkey =
  match t.registry with
  | Some reg when not (Hashtbl.mem reg vkey) -> raise (Unregistered_vkey vkey)
  | Some _ | None -> ()

(* What [lookup] answers for a vkey without a group; never stored. *)
let absent =
  { group = Group.make ~vkey:(-1) ~base:0 ~pages:0 ~prot:Perm.none; slot = -1; heap = None }

(* [vkey]'s entry, or [absent]: every vkey-keyed entry point resolves its
   vkey once, here, before it charges anything. Only a vkey without a
   group meets the registry check: the registry is fixed at [init] and
   [mpk_mmap] checks it before a group exists, so a vkey with a group
   is registered. *)
let lookup t vkey =
  match Groups.find t.groups vkey with
  | e -> e
  | exception Not_found ->
      check_vkey t vkey;
      absent

(* The entry [lookup] found, or ENOENT after the caller's charge. *)
let found vkey e =
  if e == absent then Errno.fail ENOENT "libmpk: no page group for vkey %d" vkey;
  e

let update_slot t task e = Metadata.update_slot t.metadata task ~slot:e.slot e.group

(* Page-level permission used while a group is Mapped: data rights are
   carried by PKRU, so pages stay readable/writable; the execute bit
   cannot be expressed in PKRU and stays at page level. *)
let mapped_page_perm (prot : Perm.t) = if prot.exec then Perm.rwx else Perm.rw

let set_own_rights task pkey rights =
  let core = Task.core task in
  Cpu.wrpkru core (Pkru.set_rights (Cpu.pkru core) pkey rights)

let multi_threaded t = match Proc.tasks t.proc with [] | [ _ ] -> false | _ -> true

(* Memory-side work of evicting [victim] from hardware key [pkey]. An
   isolated (domain) group loses all data access, but keeps its execute
   bit: PKRU never gated instruction fetch, so revoking it would break
   running code (the JIT case) without adding protection. *)
let evict_group t task ~victim ~pkey =
  let e = Groups.find t.groups victim in  (* a key-cache mapping's group is live *)
  let group = e.group in
  let prot =
    if not group.Group.isolated then group.Group.prot
    else if group.Group.prot.Perm.exec then Perm.x_only
    else Perm.none
  in
  if debugging () then
    Log.debug (fun m ->
        m "evict vkey:%d from %a (isolated:%b)" victim Pkey.pp pkey group.Group.isolated);
  Syscall.pkey_unmap_group t.proc task ~addr:group.Group.base ~len:(Group.len group)
    ~prot ~old_pkey:pkey;
  group.Group.state <- Group.Unmapped;
  update_slot t task e

(* Map [group] onto hardware key [pkey]: tag its pages and set page-level
   permission for the target protection. *)
let attach_group t task group ~pkey ~page_prot =
  if debugging () then
    Log.debug (fun m ->
        m "attach vkey:%d -> %a (pages:%d prot:%a)" group.Group.vkey Pkey.pp pkey
          group.Group.pages Perm.pp page_prot);
  Syscall.pkey_mprotect t.proc task ~addr:group.Group.base ~len:(Group.len group)
    ~prot:page_prot ~pkey;
  group.Group.state <- Group.mapped pkey

let create_group t task ~vkey ~len ~prot =
  let e = lookup t vkey in
  charge_user task three_lookups;
  count t c_mmap;
  emit_group_op task "mmap" vkey;
  if e != absent then Errno.fail EINVAL "mpk_mmap: vkey %d already has a page group" vkey;
  let addr = Syscall.mmap t.proc task ~len ~prot () in
  let pages = Mm.pages_of_len len in
  let group = Group.make ~vkey ~base:addr ~pages ~prot in
  try
    (* Attach a hardware key when one is free so the group starts gated by
       PKRU (inaccessible: every thread's rights default to no-access).
       Without a free key, hold the pages at PROT_NONE instead. *)
    (let result = Key_cache.acquire t.cache ~may_evict:false vkey in
     emit_acquire task vkey result;
     match result with
    | Key_cache.Fresh pkey ->
        attach_group t task group ~pkey ~page_prot:(mapped_page_perm prot)
    | Key_cache.Hit _ -> assert false  (* group did not exist *)
    | Key_cache.Evicted _ -> assert false  (* may_evict:false *)
    | Key_cache.Full ->
        Syscall.mprotect t.proc task ~addr ~len ~prot:Perm.none;
        group.Group.state <- Group.Unmapped);
    let slot = Metadata.alloc_slot t.metadata task group in
    Groups.replace t.groups vkey { group; slot; heap = None };
    addr
  with e ->
    (* Roll back to the pre-call state: the mapping is destroyed (which
       also drops any freshly tagged PTEs) and the hardware key — never
       yet granted to anyone — returns to the cache's free list. The
       caller sees the failure with no half-created group behind it. *)
    let bt = Printexc.get_raw_backtrace () in
    Log.warn (fun m ->
        m "mpk_mmap vkey:%d failed (%s) — rolling back" vkey (Printexc.to_string e));
    Key_cache.release t.cache vkey;
    (try Syscall.munmap t.proc task ~addr ~len with _ -> ());
    Printexc.raise_with_backtrace e bt

let mpk_mmap t task ~vkey ~len ~prot =
  if Cpu.observed () then span task "mpk_mmap" (fun () -> create_group t task ~vkey ~len ~prot)
  else create_group t task ~vkey ~len ~prot

let reclaim_xonly_reserve t =
  if t.xonly_groups = 0 then (
    match t.xonly_reserved with
    | Some k ->
        Key_cache.add_key t.cache k;
        t.xonly_reserved <- None
    | None -> ())

(* Propagate [rights] for [pkey] to every thread: the caller by WRPKRU,
   the rest through the kernel's lazy do_pkey_sync. *)
let sync_rights t task pkey rights =
  set_own_rights task pkey rights;
  if multi_threaded t then Syscall.pkey_sync t.proc task ~pkey rights

(* A hardware key leaving circulation must carry no residual rights in
   any thread's PKRU, or its next owner inherits them — the very
   use-after-free class libmpk exists to close. *)
let scrub_rights t task pkey =
  set_own_rights task pkey Pkru.No_access;
  if multi_threaded t then Syscall.pkey_sync t.proc task ~pkey Pkru.No_access

let destroy_group t task ~vkey =
  let e = lookup t vkey in
  charge_user task three_lookups;
  count t c_munmap;
  emit_group_op task "munmap" vkey;
  let { group; slot; _ } = found vkey e in
  if group.Group.begin_depth > 0 then
    Errno.fail EINVAL "mpk_munmap: vkey %d still inside mpk_begin" vkey;
  (match group.Group.state with
  | Group.Mapped _ when group.Group.xonly ->
      t.xonly_groups <- t.xonly_groups - 1;
      reclaim_xonly_reserve t
  | Group.Mapped pkey ->
      scrub_rights t task pkey;
      Key_cache.release t.cache vkey
  | Group.Unmapped -> ());
  Syscall.munmap t.proc task ~addr:group.Group.base ~len:(Group.len group);
  Metadata.free_slot t.metadata task ~slot;
  Groups.remove t.groups vkey

let mpk_munmap t task ~vkey =
  if Cpu.observed () then span task "mpk_munmap" (fun () -> destroy_group t task ~vkey)
  else destroy_group t task ~vkey

(* A globally-unlocked group re-attached to a (possibly recycled) key
   must re-synchronize everyone's rights, or other threads would lose the
   global permission the moment a domain is opened on the group. *)
let restore_global_rights t task group pkey =
  if not group.Group.isolated then sync_rights t task pkey (Pkru.rights_of_perm group.Group.prot)

(* One attempt to guarantee [group] holds a hardware key, evicting if
   necessary; returns the key. When every key is pinned it fails fast,
   the paper's answer: "mpk_begin raises an exception and lets the
   calling thread handle it". *)
let try_map_for_begin t task group =
  match group.Group.state with
  | Group.Mapped pkey -> pkey
  | Group.Unmapped -> (
      let result = Key_cache.acquire t.cache ~may_evict:true group.Group.vkey in
      emit_acquire task group.Group.vkey result;
      match result with
      | Key_cache.Hit pkey | Key_cache.Fresh pkey ->
          attach_group t task group ~pkey ~page_prot:(mapped_page_perm group.Group.prot);
          restore_global_rights t task group pkey;
          pkey
      | Key_cache.Evicted { pkey; victim } ->
          evict_group t task ~victim ~pkey;
          attach_group t task group ~pkey ~page_prot:(mapped_page_perm group.Group.prot);
          restore_global_rights t task group pkey;
          pkey
      | Key_cache.Full ->
          Log.warn (fun m ->
              m "mpk_begin vkey:%d: every hardware key pinned — Key_exhausted"
                group.Group.vkey);
          raise Key_exhausted)

let begin_domain t task ~vkey ~prot =
  let e = lookup t vkey in
  charge_user task two_lookups;
  count t c_begin;
  let group = (found vkey e).group in
  if group.Group.xonly then
    Errno.fail EACCES "mpk_begin: vkey %d is execute-only" vkey;
  if not (Perm.subsumes group.Group.max_prot prot) then
    Errno.fail EACCES "mpk_begin: requested %s exceeds group permission %s"
      (Perm.to_string prot)
      (Perm.to_string group.Group.max_prot);
  let pkey = try_map_for_begin t task group in
  Key_cache.pin t.cache vkey;
  if Mpk_trace.Tracer.on () then temit task (Mpk_trace.Event.Cache_pin { vkey });
  group.Group.begin_depth <- group.Group.begin_depth + 1;
  let id = Task.id task in
  Group.set_begin_holds group id (1 + Group.begin_holds group id);
  (* note: [isolated] is not touched — a begin on a globally-unlocked
     group is a temporary elevation, not a switch of usage model *)
  set_own_rights task pkey (Pkru.rights_of_perm prot);
  update_slot t task e

let mpk_begin t task ~vkey ~prot =
  if Cpu.observed () then span task "mpk_begin" (fun () -> begin_domain t task ~vkey ~prot)
  else begin_domain t task ~vkey ~prot

let end_domain t task ~vkey =
  let e = lookup t vkey in
  charge_user task two_lookups;
  count t c_end;
  let group = (found vkey e).group in
  let id = Task.id task in
  let own_depth = Group.begin_holds group id in
  (match group.Group.state with
  | Group.Mapped pkey when own_depth > 0 ->
      group.Group.begin_depth <- group.Group.begin_depth - 1;
      if own_depth = 1 then begin
        Group.drop_begin_holder group id;
        (* this thread's outermost end: fall back to the group's global
           permission — no access for a domain group, the last
           mpk_mprotect grant otherwise *)
        let base_rights =
          if group.Group.isolated then Pkru.No_access
          else Pkru.rights_of_perm group.Group.prot
        in
        set_own_rights task pkey base_rights
      end
      else Group.set_begin_holds group id (own_depth - 1);
      Key_cache.unpin t.cache vkey;
      if Mpk_trace.Tracer.on () then temit task (Mpk_trace.Event.Cache_unpin { vkey })
  | Group.Mapped _ | Group.Unmapped ->
      Errno.fail EINVAL "mpk_end: calling thread is not inside mpk_begin for vkey %d" vkey);
  update_slot t task e

let mpk_end t task ~vkey =
  if Cpu.observed () then span task "mpk_end" (fun () -> end_domain t task ~vkey)
  else end_domain t task ~vkey

(* Reserve (lazily) the execute-only key; every execute-only group shares
   it and it is never evicted while such groups exist. *)
let reserve_xonly t task =
  match t.xonly_reserved with
  | Some k -> k
  | None -> (
      match Key_cache.reserve t.cache with
      | None -> raise Key_exhausted
      | Some (k, victim) ->
          (match victim with
          | Some v -> evict_group t task ~victim:v ~pkey:k
          | None -> ());
          t.xonly_reserved <- Some k;
          k)

(* Transition a group out of execute-only: untag its pages from the shared
   reserved key (keeping them rx at page level until the caller installs
   the new protection) and release the reserve when it was the last. *)
let leave_xonly t task group =
  if group.Group.xonly then begin
    (match group.Group.state with
    | Group.Mapped k ->
        Syscall.pkey_unmap_group t.proc task ~addr:group.Group.base
          ~len:(Group.len group) ~prot:Perm.rx ~old_pkey:k
    | Group.Unmapped -> ());
    group.Group.state <- Group.Unmapped;
    group.Group.xonly <- false;
    t.xonly_groups <- t.xonly_groups - 1;
    reclaim_xonly_reserve t
  end

let mprotect_xonly t task group =
  let pkey = reserve_xonly t task in
  (* The group leaves the ordinary cache: the reserved key is shared by
     all execute-only groups and pinned until they disappear. *)
  (match group.Group.state with
  | Group.Mapped old_pkey when not group.Group.xonly ->
      scrub_rights t task old_pkey;
      Key_cache.release t.cache group.Group.vkey
  | Group.Mapped _ | Group.Unmapped -> ());
  Syscall.pkey_mprotect t.proc task ~addr:group.Group.base ~len:(Group.len group)
    ~prot:Perm.rx ~pkey;
  if not group.Group.xonly then begin
    group.Group.xonly <- true;
    t.xonly_groups <- t.xonly_groups + 1
  end;
  group.Group.state <- Group.mapped pkey;
  group.Group.prot <- Perm.x_only;
  group.Group.isolated <- false;
  (* No thread may read an execute-only group: synchronize everyone. *)
  sync_rights t task pkey Pkru.No_access

let protect t task ~vkey ~prot =
  let e = lookup t vkey in
  charge_user task three_lookups;
  count t c_mprotect;
  emit_group_op task "mprotect" vkey;
  let group = (found vkey e).group in
  if group.Group.begin_depth > 0 then
    Errno.fail EINVAL "mpk_mprotect: vkey %d is inside mpk_begin" vkey;
  (if Perm.equal prot Perm.x_only then mprotect_xonly t task group
   else begin
     leave_xonly t task group;
     let rights = Pkru.rights_of_perm prot in
     match group.Group.state with
     | Group.Mapped pkey ->
         (* Cache hit: flip the exec bit at page level only if it changed;
            data rights travel by PKRU. *)
         emit_acquire task vkey (Key_cache.acquire t.cache vkey);  (* LRU bump + stats *)
         if group.Group.prot.Perm.exec <> prot.Perm.exec then
           Syscall.mprotect t.proc task ~addr:group.Group.base
             ~len:(Group.len group) ~prot:(mapped_page_perm prot);
         group.Group.prot <- prot;
         group.Group.isolated <- false;
         sync_rights t task pkey rights
     | Group.Unmapped -> (
         (* [~may_evict] as a constant: a variable would be boxed into
            the optional argument's [Some] *)
         let result =
           if Mpk_util.Prng.bool t.prng ~p:t.evict_rate then
             Key_cache.acquire t.cache ~may_evict:true vkey
           else Key_cache.acquire t.cache ~may_evict:false vkey
         in
         emit_acquire task vkey result;
         match result with
         | Key_cache.Hit pkey | Key_cache.Fresh pkey ->
             attach_group t task group ~pkey ~page_prot:(mapped_page_perm prot);
             group.Group.prot <- prot;
             group.Group.isolated <- false;
             sync_rights t task pkey rights
         | Key_cache.Evicted { pkey; victim } ->
             evict_group t task ~victim ~pkey;
             attach_group t task group ~pkey ~page_prot:(mapped_page_perm prot);
             group.Group.prot <- prot;
             group.Group.isolated <- false;
             sync_rights t task pkey rights
         | Key_cache.Full ->
             (* Eviction declined (or impossible): plain mprotect carries
                the permission at page level, synchronized by nature. *)
             Syscall.mprotect t.proc task ~addr:group.Group.base
               ~len:(Group.len group) ~prot;
             group.Group.prot <- prot;
             group.Group.isolated <- false)
   end);
  update_slot t task e

let mpk_mprotect t task ~vkey ~prot =
  if Cpu.observed () then span task "mpk_mprotect" (fun () -> protect t task ~vkey ~prot)
  else protect t task ~vkey ~prot

(* Batched protection change: apply every (vkey, prot) update, then
   propagate all the PKRU changes to other threads with one batched
   do_pkey_sync — one kernel entry and one IPI per target core — instead
   of one sync per update. Only the hot path ([batchable]) can defer its
   sync; anything else (unmapped groups, execute-only transitions,
   exec-bit flips, unknown vkeys) falls back to the full [mpk_mprotect],
   whose own synchronization is part of its semantics. *)
let batchable (group : Group.t) (prot : Perm.t) =
  (not (Perm.equal prot Perm.x_only))
  && (not group.xonly)
  && group.begin_depth = 0
  && group.prot.exec = prot.exec
  && match group.state with Group.Mapped _ -> true | Group.Unmapped -> false

(* Sync the deferred updates in one do_pkey_sync and empty the batch. *)
let sync_deferred t task =
  if Task.Updates.length t.deferred > 0 then begin
    if multi_threaded t then Syscall.pkey_sync_many t.proc task ~updates:t.deferred;
    Task.Updates.clear t.deferred
  end

(* The hot path of one update: [e]'s group holds a key, so the update is
   the caller's WRPKRU plus a deferred sync. *)
let protect_deferred t task ~vkey ~prot e =
  charge_user task three_lookups;
  count t c_mprotect;
  emit_group_op task "mprotect" vkey;
  let group = e.group in
  (match group.Group.state with
  | Group.Mapped pkey ->
      emit_acquire task vkey (Key_cache.acquire t.cache vkey);  (* LRU bump + stats *)
      group.Group.prot <- prot;
      group.Group.isolated <- false;
      let rights = Pkru.rights_of_perm prot in
      set_own_rights task pkey rights;
      Task.Updates.add t.deferred pkey rights
  | Group.Unmapped -> assert false);
  update_slot t task e

let rec protect_each t task = function
  | [] -> ()
  | ((vkey, prot) : int * Perm.t) :: rest ->
      (match Groups.find t.groups vkey with
      | e when batchable e.group prot -> protect_deferred t task ~vkey ~prot e
      | _ | (exception Not_found) ->
          (* What was deferred reaches the other threads first, as it
             would between sequential calls: the full path may release or
             recycle a key a deferred update names, and it is the only
             path that can fail, leaving the updates before it applied. *)
          sync_deferred t task;
          mpk_mprotect t task ~vkey ~prot);
      protect_each t task rest

let protect_many t task ~updates =
  protect_each t task updates;
  sync_deferred t task

let mpk_mprotect_many t task ~updates =
  if Cpu.observed () then span task "mpk_mprotect_many" (fun () -> protect_many t task ~updates)
  else protect_many t task ~updates

let malloc t task ~vkey ~size =
  let e = lookup t vkey in
  charge_user task three_lookups;
  count t c_malloc;
  let e =
    if e != absent then e
    else begin
      let len = max t.default_heap_bytes (Mm.pages_of_len size * Physmem.page_size) in
      ignore (mpk_mmap t task ~vkey ~len ~prot:Perm.rw);
      Groups.find t.groups vkey
    end
  in
  let heap =
    match e.heap with
    | Some h -> h
    | None ->
        let h = Mpk_heap.create ~base:e.group.Group.base ~len:(Group.len e.group) in
        e.heap <- Some h;
        h
  in
  match Mpk_heap.alloc heap ~size with
  | Some addr ->
      if Mpk_trace.Tracer.on () then
        temit task (Mpk_trace.Event.Heap_alloc { vkey; size; addr });
      addr
  | None -> Errno.fail ENOMEM "mpk_malloc: group %d heap exhausted" vkey

let mpk_malloc t task ~vkey ~size =
  if Cpu.observed () then span task "mpk_malloc" (fun () -> malloc t task ~vkey ~size)
  else malloc t task ~vkey ~size

let free t task ~vkey ~addr =
  let e = lookup t vkey in
  charge_user task three_lookups;
  count t c_free;
  match e.heap with
  | Some heap ->
      Mpk_heap.free heap ~addr;
      if Mpk_trace.Tracer.on () then temit task (Mpk_trace.Event.Heap_free { vkey; addr })
  | None -> Errno.fail EINVAL "mpk_free: vkey %d has no heap" vkey

let mpk_free t task ~vkey ~addr =
  if Cpu.observed () then span task "mpk_free" (fun () -> free t task ~vkey ~addr)
  else free t task ~vkey ~addr
