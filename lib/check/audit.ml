open Mpk_hw
open Mpk_kernel

type violation = { invariant : int; message : string }

let pp_violation fmt v = Format.fprintf fmt "I%d: %s" v.invariant v.message

(* A group interval in vpn space, for "which key should tag this page"
   lookups. Only Mapped groups claim a key; everything else is key 0. *)
type interval = { start : int; stop : int; pkey : Pkey.t; ivkey : Libmpk.Vkey.t }

let intervals_of_groups groups =
  List.filter_map
    (fun (vkey, g, _) ->
      match g.Libmpk.Group.state with
      | Libmpk.Group.Mapped k ->
          let start = Page_table.vpn_of_addr g.Libmpk.Group.base in
          Some { start; stop = start + g.Libmpk.Group.pages; pkey = k; ivkey = vkey }
      | Libmpk.Group.Unmapped -> None)
    groups
  |> List.sort (fun a b -> compare a.start b.start)

let expected_pkey intervals vpn =
  match List.find_opt (fun iv -> vpn >= iv.start && vpn < iv.stop) intervals with
  | Some iv -> iv.pkey
  | None -> Pkey.default

let run mpk =
  let viols = ref [] in
  let fail i fmt =
    Printf.ksprintf (fun message -> viols := { invariant = i; message } :: !viols) fmt
  in
  let proc = Libmpk.proc mpk in
  let cache = Libmpk.cache mpk in
  let mm = Proc.mm proc in
  let pt = Mm.page_table mm in
  let machine = Proc.machine proc in
  let tasks = Proc.tasks proc in
  let groups = Libmpk.groups mpk in
  let free = Libmpk.Key_cache.free_keys cache in
  let reserved = Libmpk.Key_cache.reserved_keys cache in
  let mappings = Libmpk.Key_cache.mappings cache in
  let intervals = intervals_of_groups groups in

  (* Distinct group ranges are a precondition for every tag check. *)
  let rec check_disjoint = function
    | a :: (b :: _ as rest) ->
        if a.stop > b.start then
          fail 2 "groups vkey:%d and vkey:%d overlap in the address space" a.ivkey b.ivkey;
        check_disjoint rest
    | _ -> ()
  in
  check_disjoint intervals;

  (* I1 — keys out of circulation carry no residual state. A task that is
     off CPU with queued task_work may still hold stale rights: the lazy
     do_pkey_sync scrubs it before it can run (paper Fig 7). *)
  let check_no_rights i k =
    List.iter
      (fun task ->
        match Pkru.rights (Task.pkru task) k with
        | Pkru.No_access -> ()
        | r ->
            if not (Task.state task = Task.Off_cpu && Task.work_pending task > 0) then
              fail i "task %d holds %s on out-of-circulation key %d" (Task.id task)
                (Pkru.rights_to_string r) (Pkey.to_int k))
      tasks
  in
  List.iter
    (fun k ->
      check_no_rights 1 k;
      let tagged = Page_table.count_with_pkey pt k in
      if tagged > 0 then fail 1 "free key %d still tags %d PTE(s)" (Pkey.to_int k) tagged;
      List.iter
        (fun (v : Vma.vma) ->
          if Pkey.equal v.Vma.attrs.Vma.pkey k then
            fail 1 "free key %d still tags VMA at vpn %#x" (Pkey.to_int k) v.Vma.start)
        (Vma.to_list (Mm.vmas mm)))
    free;
  (* The execute-only reserve legitimately tags pages, but no thread may
     hold data rights on it: execute-only means nobody reads. *)
  List.iter (fun k -> check_no_rights 1 k) reserved;

  (* I2 — per-group tag agreement across page table, VMA tree and cache. *)
  List.iter
    (fun (vkey, g, _) ->
      let base = g.Libmpk.Group.base in
      let pages = g.Libmpk.Group.pages in
      let start = Page_table.vpn_of_addr base in
      if not (Vma.covered (Mm.vmas mm) ~start ~pages) then
        fail 2 "group vkey:%d is not fully covered by VMAs" vkey;
      match g.Libmpk.Group.state with
      | Libmpk.Group.Mapped k ->
          List.iter
            (fun (v : Vma.vma) ->
              if not (Pkey.equal v.Vma.attrs.Vma.pkey k) then
                fail 2 "group vkey:%d mapped to key %d but VMA at vpn %#x carries key %d"
                  vkey (Pkey.to_int k) v.Vma.start (Pkey.to_int v.Vma.attrs.Vma.pkey))
            (Vma.overlapping (Mm.vmas mm) ~start ~pages);
          if g.Libmpk.Group.xonly then begin
            (match Libmpk.xonly_key mpk with
            | Some xk when Pkey.equal xk k -> ()
            | Some xk ->
                fail 2 "execute-only group vkey:%d uses key %d, reserve is %d" vkey
                  (Pkey.to_int k) (Pkey.to_int xk)
            | None -> fail 2 "execute-only group vkey:%d but no reserved key" vkey);
            if List.exists (fun (v, _, _) -> v = vkey) mappings then
              fail 2 "execute-only group vkey:%d must live outside the key cache" vkey
          end
          else begin
            match List.find_opt (fun (v, _, _) -> v = vkey) mappings with
            | Some (_, ck, _) when Pkey.equal ck k -> ()
            | Some (_, ck, _) ->
                fail 2 "group vkey:%d mapped to key %d but cache says %d" vkey
                  (Pkey.to_int k) (Pkey.to_int ck)
            | None -> fail 2 "group vkey:%d mapped to key %d but absent from cache" vkey
                        (Pkey.to_int k)
          end
      | Libmpk.Group.Unmapped ->
          if List.exists (fun (v, _, _) -> v = vkey) mappings then
            fail 2 "unmapped group vkey:%d still has a cache mapping" vkey)
    groups;
  (* Cache entries with no live group behind them (agreement for live
     groups is checked from the group side above). *)
  List.iter
    (fun (vkey, ck, _) ->
      if not (List.exists (fun (v, _, _) -> v = vkey) groups) then
        fail 2 "cache maps vkey:%d to key %d but no such group exists" vkey
          (Pkey.to_int ck))
    mappings;
  (* Global sweep: every present PTE and every VMA carries exactly the key
     its page's group (if any) owns — nothing outside a group is tagged. *)
  Page_table.fold pt
    (fun vpn pte () ->
      let got = Pte.pkey pte in
      let want = expected_pkey intervals vpn in
      if not (Pkey.equal got want) then
        fail 2 "PTE at vpn %#x tagged key %d, expected %d" vpn (Pkey.to_int got)
          (Pkey.to_int want))
    ();
  List.iter
    (fun (v : Vma.vma) ->
      for vpn = v.Vma.start to v.Vma.start + v.Vma.pages - 1 do
        let want = expected_pkey intervals vpn in
        if not (Pkey.equal v.Vma.attrs.Vma.pkey want) then
          fail 2 "VMA page vpn %#x carries key %d, expected %d" vpn
            (Pkey.to_int v.Vma.attrs.Vma.pkey) (Pkey.to_int want)
      done)
    (Vma.to_list (Mm.vmas mm));

  (* I3 — begin/pin accounting. *)
  List.iter
    (fun (vkey, g, _) ->
      let depth = g.Libmpk.Group.begin_depth in
      let holders = Libmpk.Group.begin_holders g in
      List.iter
        (fun (tid, d) ->
          if d <= 0 then fail 3 "group vkey:%d holder task %d at depth %d" vkey tid d)
        holders;
      let holders = List.fold_left (fun acc (_, d) -> acc + d) 0 holders in
      if depth < 0 then fail 3 "group vkey:%d has negative begin_depth %d" vkey depth;
      if depth <> holders then
        fail 3 "group vkey:%d begin_depth %d but holders sum to %d" vkey depth holders;
      let pins = Libmpk.Key_cache.pins cache vkey in
      if pins <> depth then
        fail 3 "group vkey:%d begin_depth %d but cache pin count %d" vkey depth pins;
      if depth > 0 && g.Libmpk.Group.state = Libmpk.Group.Unmapped then
        fail 3 "group vkey:%d inside mpk_begin but unmapped" vkey)
    groups;

  (* I4 — every cached translation matches the page table. *)
  Array.iter
    (fun core ->
      Tlb.fold (Cpu.tlb core)
        (fun vpn cached () ->
          let current = Page_table.get pt ~vpn in
          if cached <> current then
            fail 4 "core %d TLB entry for vpn %#x is stale (cached %x, table %x)"
              (Cpu.id core) vpn (cached :> int) (current :> int))
        ())
    (Machine.cores machine);

  (* I5 — key conservation and reserve agreement. *)
  let free_n = List.length free in
  let reserved_n = List.length reserved in
  let in_use = Libmpk.Key_cache.in_use cache in
  let hw = Libmpk.hw_keys mpk in
  if free_n + reserved_n + in_use <> hw then
    fail 5 "key conservation broken: %d free + %d reserved + %d mapped <> %d hw keys"
      free_n reserved_n in_use hw;
  if Libmpk.Key_cache.capacity cache <> hw then
    fail 5 "cache capacity %d drifted from %d hw keys" (Libmpk.Key_cache.capacity cache) hw;
  (* Counter conservation: every miss inserts a mapping or finds no usable
     key, and every inserted mapping is still present, was evicted, or was
     invalidated by a release. *)
  let misses = Libmpk.Key_cache.misses cache in
  let evictions = Libmpk.Key_cache.evictions cache in
  let invalidations = Libmpk.Key_cache.invalidations cache in
  let full = Libmpk.Key_cache.full_misses cache in
  if misses <> in_use + evictions + invalidations + full then
    fail 5
      "key-cache counters broken: %d misses <> %d mapped + %d evicted + %d invalidated \
       + %d full"
      misses in_use evictions invalidations full;
  let owned = free @ reserved @ List.map (fun (_, k, _) -> k) mappings in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun k ->
      let ki = Pkey.to_int k in
      if Hashtbl.mem seen ki then fail 5 "hardware key %d owned twice" ki;
      Hashtbl.replace seen ki ();
      if not (Pkey_bitmap.is_allocated (Proc.pkey_bitmap proc) k) then
        fail 5 "cache owns key %d but the kernel bitmap says it is free" ki)
    owned;
  let xonly_groups =
    List.length (List.filter (fun (_, g, _) -> g.Libmpk.Group.xonly) groups)
  in
  if xonly_groups <> Libmpk.xonly_group_count mpk then
    fail 5 "execute-only group count %d disagrees with live groups %d"
      (Libmpk.xonly_group_count mpk) xonly_groups;
  (match Libmpk.xonly_key mpk, reserved with
  | Some k, [ r ] when Pkey.equal k r ->
      if xonly_groups = 0 then
        fail 5 "key %d reserved for execute-only but no such group is live" (Pkey.to_int k)
  | Some k, _ ->
      fail 5 "execute-only key %d not matched by the cache reserve list" (Pkey.to_int k)
  | None, [] -> ()
  | None, _ :: _ ->
      fail 5 "cache holds %d reserved key(s) but no execute-only reserve exists" reserved_n);

  (* I6 — protected metadata mirrors the live groups. *)
  let md = Libmpk.metadata mpk in
  if Libmpk.Metadata.used_slots md <> List.length groups then
    fail 6 "metadata occupancy %d but %d live groups" (Libmpk.Metadata.used_slots md)
      (List.length groups);
  let slots_seen = Hashtbl.create 16 in
  List.iter
    (fun (vkey, g, slot) ->
      if slot < 0 || slot >= Libmpk.Metadata.capacity_slots md then
        fail 6 "group vkey:%d has out-of-range metadata slot %d" vkey slot
      else begin
        if Hashtbl.mem slots_seen slot then
          fail 6 "metadata slot %d referenced by two groups" slot;
        Hashtbl.replace slots_seen slot ();
        let record =
          Mmu.kernel_read_bytes (Proc.mmu proc)
            ~addr:(Libmpk.Metadata.slot_addr md ~slot)
            ~len:Libmpk.Group.metadata_bytes
        in
        match Libmpk.Group.deserialize record with
        | None -> fail 6 "metadata slot %d for vkey:%d does not deserialize" slot vkey
        | Some (mv, mbase, mpages, mprot, mpk) ->
            let want_pk =
              match g.Libmpk.Group.state with
              | Libmpk.Group.Unmapped -> 0
              | Libmpk.Group.Mapped k -> Pkey.to_int k
            in
            if
              mv <> vkey
              || mbase <> g.Libmpk.Group.base
              || mpages <> g.Libmpk.Group.pages
              || (not (Perm.equal mprot g.Libmpk.Group.prot))
              || mpk <> want_pk
            then
              fail 6
                "metadata slot %d stale for vkey:%d (slot: vkey=%d base=%#x pages=%d \
                 prot=%s pkey=%d; group: base=%#x pages=%d prot=%s pkey=%d)"
                slot vkey mv mbase mpages (Perm.to_string mprot) mpk
                g.Libmpk.Group.base g.Libmpk.Group.pages
                (Perm.to_string g.Libmpk.Group.prot) want_pk
      end)
    groups;

  (* I7 — lock discipline. Any finding the open lockdep recording has
     accumulated (ordering inversion, self-deadlock, release-not-held,
     leaked hold/refcount) is an audit violation: a run that survived
     despite one only got lucky with its schedule. *)
  List.iter (fun f -> fail 7 "%s" (Lockdep.to_string f)) (Lockdep.findings_so_far ());

  List.rev !viols
