(* Tests for mpk_kernel: VMA tree, pkey bitmap (use-after-free semantics),
   tasks/scheduler (lazy task_work), mm (mprotect semantics and cost
   shape), syscalls (Table 1 calibration, execute-only gap, pkey_sync). *)

open Mpk_hw
open Mpk_kernel

let qtest = QCheck_alcotest.to_alcotest

let attrs prot = { Vma.prot; pkey = Pkey.default }

(* A protection change over a covered range, as [Mm] runs it: returns
   [(vmas_touched, splits, merges)]. *)
let set_attrs t ~start ~pages rw =
  let splits = Vma.split_edges ~actor:(-1) t ~start ~pages in
  let touched = Vma.rewrite_range ~actor:(-1) t ~start ~pages rw in
  let merges = Vma.merge_range ~actor:(-1) t ~start ~pages in
  touched, splits, merges

(* --- Vma --- *)

let vma_count t = List.length (Vma.to_list t)

(* The present pages of an address space. *)
let mapped mm = Page_table.fold (Mm.page_table mm) (fun _ _ n -> n + 1) 0

let test_vma_add_find () =
  let t = Vma.create () in
  Vma.add t ~start:10 ~pages:5 (attrs Perm.rw);
  Alcotest.(check bool) "inside" true (Vma.find t 12 <> None);
  Alcotest.(check bool) "before" true (Vma.find t 9 = None);
  Alcotest.(check bool) "at end (exclusive)" true (Vma.find t 15 = None);
  Alcotest.(check int) "count" 1 (vma_count t)

let test_vma_add_overlap_rejected () =
  let t = Vma.create () in
  Vma.add t ~start:10 ~pages:5 (attrs Perm.rw);
  Alcotest.check_raises "overlap" (Invalid_argument "Vma.add: overlaps an existing area")
    (fun () -> Vma.add t ~start:12 ~pages:2 (attrs Perm.r))

let test_vma_merge_on_add () =
  let t = Vma.create () in
  Vma.add t ~start:10 ~pages:5 (attrs Perm.rw);
  Vma.add t ~start:15 ~pages:5 (attrs Perm.rw);
  Alcotest.(check int) "merged" 1 (vma_count t);
  Vma.add t ~start:20 ~pages:3 (attrs Perm.r);
  Alcotest.(check int) "different attrs not merged" 2 (vma_count t);
  Alcotest.(check bool) "invariant" true (Vma.invariant t)

let test_vma_guard_gap_no_merge () =
  let t = Vma.create () in
  Vma.add t ~start:10 ~pages:2 (attrs Perm.rw);
  Vma.add t ~start:13 ~pages:2 (attrs Perm.rw);
  Alcotest.(check int) "gap keeps them apart" 2 (vma_count t)

let test_vma_set_attrs_splits () =
  let t = Vma.create () in
  Vma.add t ~start:0 ~pages:10 (attrs Perm.rw);
  let touched, splits, _merges =
    set_attrs t ~start:3 ~pages:4 (Pte.rewrite_perm Perm.r)
  in
  Alcotest.(check int) "one vma touched" 1 touched;
  Alcotest.(check int) "two splits" 2 splits;
  Alcotest.(check int) "three areas now" 3 (vma_count t);
  (match Vma.find t 4 with
  | Some v -> Alcotest.(check string) "middle r" "r--" (Perm.to_string v.Vma.attrs.Vma.prot)
  | None -> Alcotest.fail "middle missing");
  Alcotest.(check bool) "invariant" true (Vma.invariant t)

let test_vma_set_attrs_merges_back () =
  let t = Vma.create () in
  Vma.add t ~start:0 ~pages:10 (attrs Perm.rw);
  ignore (set_attrs t ~start:3 ~pages:4 (Pte.rewrite_perm Perm.r));
  ignore (set_attrs t ~start:3 ~pages:4 (Pte.rewrite_perm Perm.rw));
  Alcotest.(check int) "merged back to one" 1 (vma_count t);
  Alcotest.(check bool) "invariant" true (Vma.invariant t)

let test_vma_set_attrs_uncovered () =
  (* a protection change over a range that runs past the mapping is
     rejected whole: no area splits or changes *)
  let mm = Mm.create (Physmem.create ~frames:16) in
  let cpu = Cpu.create ~id:0 () in
  let addr = Mm.mmap mm cpu ~len:(5 * 4096) ~prot:Perm.rw () in
  let start = Page_table.vpn_of_addr addr in
  Alcotest.(check bool) "not covered" false
    (Vma.covered (Mm.vmas mm) ~start:(start + 3) ~pages:5);
  (match
     Mm.change_protection mm cpu ~addr:(addr + (3 * 4096)) ~len:(5 * 4096) ~prot:Perm.r
   with
  | exception Errno.Error (Errno.ENOMEM, _) -> ()
  | () -> Alcotest.fail "hole accepted");
  Alcotest.(check (list (pair int string)))
    "the mapping is unchanged" [ (5, "rw-") ]
    (List.map (fun (v : Vma.vma) -> v.Vma.pages, Perm.to_string v.Vma.attrs.Vma.prot)
       (Vma.to_list (Mm.vmas mm)))

let test_vma_remove_range_splits () =
  let t = Vma.create () in
  Vma.add t ~start:0 ~pages:10 (attrs Perm.rw);
  let removed = Vma.remove_range t ~start:4 ~pages:2 in
  Alcotest.(check int) "one removed piece" 1 (List.length removed);
  Alcotest.(check int) "two remain" 2 (vma_count t);
  Alcotest.(check bool) "hole" true (Vma.find t 5 = None);
  Alcotest.(check bool) "left intact" true (Vma.find t 3 <> None);
  Alcotest.(check bool) "right intact" true (Vma.find t 6 <> None)

let test_vma_covered () =
  let t = Vma.create () in
  Vma.add t ~start:0 ~pages:5 (attrs Perm.rw);
  Vma.add t ~start:5 ~pages:5 (attrs Perm.r);
  Alcotest.(check bool) "covered across boundary" true (Vma.covered t ~start:3 ~pages:4);
  Alcotest.(check bool) "not covered past end" false (Vma.covered t ~start:8 ~pages:5)

let test_vma_overlapping () =
  let t = Vma.create () in
  Vma.add t ~start:0 ~pages:3 (attrs Perm.rw);
  Vma.add t ~start:5 ~pages:3 (attrs Perm.r);
  Vma.add t ~start:10 ~pages:3 (attrs Perm.rx);
  Alcotest.(check int) "two overlap" 2 (List.length (Vma.overlapping t ~start:2 ~pages:5))

let vma_ops = QCheck.(small_list (triple (int_bound 50) (int_range 1 8) (int_bound 3)))

(* Random add / remove_range / protection-change calls; a change picks
   one of two protections so that areas both split and merge back. *)
let run_vma_ops ops =
  let t = Vma.create () in
  List.iter
    (fun (start, pages, op) ->
      match op with
      | 0 -> ( try Vma.add t ~start ~pages (attrs Perm.rw) with Invalid_argument _ -> ())
      | 1 -> ignore (Vma.remove_range t ~start ~pages)
      | _ ->
          let prot = if op = 2 then Perm.r else Perm.rx in
          if Vma.covered t ~start ~pages then
            ignore (set_attrs t ~start ~pages (Pte.rewrite_perm prot)))
    ops;
  t

let vma_random_ops =
  QCheck.Test.make ~name:"vma invariant under random ops" ~count:300 vma_ops (fun ops ->
      Vma.invariant (run_vma_ops ops))

let vma_overlapping_model =
  QCheck.Test.make ~name:"vma overlapping = filter over to_list" ~count:300
    QCheck.(pair vma_ops (small_list (pair (int_bound 60) (int_range 1 16))))
    (fun (ops, queries) ->
      let t = run_vma_ops ops in
      List.for_all
        (fun (start, pages) ->
          let naive =
            List.filter
              (fun v -> v.Vma.start < start + pages && Vma.vend v > start)
              (Vma.to_list t)
          in
          List.equal ( == ) (Vma.overlapping t ~start ~pages) naive)
        queries)

(* A per-page reference model of [Vma] over the pages [run_vma_ops]
   touches: each page maps to its attributes or to nothing, and the areas
   are the maximal gap-free runs of equal attributes. A protection change
   splits where a run crosses the range's edge and merges wherever equal
   runs meet, so the model predicts every count [set_attrs] returns. *)
let model_size = 64

let model_at m vpn = if vpn >= 0 && vpn < model_size then m.(vpn) else None

(* Pages [a] and [b] are both mapped, with equal attributes. *)
let same_run m a b =
  match model_at m a, model_at m b with Some x, Some y -> x = y | _ -> false

let model_areas m =
  let rec from vpn acc =
    if vpn >= model_size then List.rev acc
    else
      match m.(vpn) with
      | None -> from (vpn + 1) acc
      | Some a ->
          let stop = ref (vpn + 1) in
          while same_run m vpn !stop do
            incr stop
          done;
          from !stop ((vpn, !stop - vpn, a) :: acc)
  in
  from 0 []

(* The model after [set_attrs ~start ~pages] gives [prot] to every page of
   the range, and the [(touched, splits, merges)] it must return. *)
let model_protect m ~start ~pages prot =
  let stop = start + pages in
  let m' = Array.copy m in
  for vpn = start to stop - 1 do
    m'.(vpn) <- Option.map (fun a -> { a with Vma.prot }) m.(vpn)
  done;
  let count m vpns = List.length (List.filter (fun vpn -> same_run m (vpn - 1) vpn) vpns) in
  let inner = List.init (pages - 1) (fun i -> start + 1 + i) in
  let edges = inner |> List.filter (fun vpn -> not (same_run m (vpn - 1) vpn)) in
  let touched = 1 + List.length edges in
  let splits = count m [ start; stop ] in
  let merges = count m' ((start :: edges) @ [ stop ]) in
  m', (touched, splits, merges)

let model_covered m ~start ~pages =
  List.for_all (fun vpn -> model_at m vpn <> None) (List.init pages (fun i -> start + i))

(* Every observation of [t] agrees with the model [m]. *)
let agrees t m =
  let view (v : Vma.vma) = v.Vma.start, v.Vma.pages, v.Vma.attrs in
  let areas = model_areas m in
  List.map view (Vma.to_list t) = areas
  && List.for_all
       (fun vpn ->
         Option.map view (Vma.find t vpn)
         = List.find_opt (fun (s, n, _) -> s <= vpn && vpn < s + n) areas)
       (List.init (model_size + 2) (fun i -> i - 1))
  && List.for_all
       (fun start ->
         (* the longest covered range from [start], and one page more *)
         let longest = ref 0 in
         while model_at m (start + !longest) <> None do
           incr longest
         done;
         (!longest = 0 || Vma.covered t ~start ~pages:!longest)
         && not (Vma.covered t ~start ~pages:(!longest + 1)))
       (List.init model_size Fun.id)

let vma_page_model =
  QCheck.Test.make ~name:"vma agrees with a per-page model" ~count:500 vma_ops (fun ops ->
      let t = Vma.create () in
      let m = Array.make model_size None in
      List.for_all
        (fun (start, pages, op) ->
          (* shrinking can step outside [vma_ops]'s ranges *)
          pages <= 0
          ||
          let range = List.init pages (fun i -> start + i) in
          let ok =
            match op with
            | 0 ->
                let free = List.for_all (fun vpn -> m.(vpn) = None) range in
                let added =
                  match Vma.add t ~start ~pages (attrs Perm.rw) with
                  | () -> true
                  | exception Invalid_argument _ -> false
                in
                if added then List.iter (fun vpn -> m.(vpn) <- Some (attrs Perm.rw)) range;
                added = free
            | 1 ->
                let cut = Array.init model_size (fun vpn -> if List.mem vpn range then m.(vpn) else None) in
                let removed = Vma.remove_range t ~start ~pages in
                List.iter (fun vpn -> m.(vpn) <- None) range;
                List.map (fun (v : Vma.vma) -> v.Vma.start, v.Vma.pages, v.Vma.attrs) removed
                = model_areas cut
            | _ ->
                let prot = if op = 2 then Perm.r else Perm.rx in
                (not (model_covered m ~start ~pages))
                ||
                let m', counts = model_protect m ~start ~pages prot in
                let got = set_attrs t ~start ~pages (Pte.rewrite_perm prot) in
                Array.blit m' 0 m 0 model_size;
                got = counts
          in
          ok && agrees t m)
        ops)

(* --- Pkey_bitmap --- *)

let test_bitmap_alloc_order () =
  let b = Pkey_bitmap.create () in
  (match Pkey_bitmap.alloc b with
  | Some k -> Alcotest.(check int) "first is 1" 1 (Pkey.to_int k)
  | None -> Alcotest.fail "alloc failed");
  match Pkey_bitmap.alloc b with
  | Some k -> Alcotest.(check int) "second is 2" 2 (Pkey.to_int k)
  | None -> Alcotest.fail "alloc failed"

let test_bitmap_exhaustion () =
  let b = Pkey_bitmap.create () in
  for _ = 1 to 15 do
    match Pkey_bitmap.alloc b with
    | Some _ -> ()
    | None -> Alcotest.fail "premature exhaustion"
  done;
  Alcotest.(check bool) "16th fails" true (Pkey_bitmap.alloc b = None);
  Alcotest.(check int) "count" 15
    (List.length (List.filter (Pkey_bitmap.is_allocated b) Pkey.allocatable))

let test_bitmap_free_reuse () =
  let b = Pkey_bitmap.create () in
  let k1 = Option.get (Pkey_bitmap.alloc b) in
  let _k2 = Option.get (Pkey_bitmap.alloc b) in
  Pkey_bitmap.free b k1;
  Alcotest.(check bool) "freed" false (Pkey_bitmap.is_allocated b k1);
  (* freed key is reused — the root of the use-after-free hazard *)
  let k3 = Option.get (Pkey_bitmap.alloc b) in
  Alcotest.(check int) "reused lowest" (Pkey.to_int k1) (Pkey.to_int k3)

let test_bitmap_free_errors () =
  let b = Pkey_bitmap.create () in
  (try
     Pkey_bitmap.free b Pkey.default;
     Alcotest.fail "key 0 freed"
   with Errno.Error (Errno.EINVAL, _) -> ());
  try
    Pkey_bitmap.free b (Pkey.of_int 5);
    Alcotest.fail "unallocated freed"
  with Errno.Error (Errno.EINVAL, _) -> ()

(* --- Task / Sched --- *)

let make_proc ?(cores = 4) ?ipi_batching () =
  let machine = Machine.create ~cores ~mem_mib:64 () in
  Proc.create ?ipi_batching machine

let test_task_pkru_save_restore () =
  let proc = make_proc () in
  let t0 = Proc.spawn proc ~core_id:0 () in
  let core = Task.core t0 in
  Cpu.wrpkru core (Pkru.of_int 0x1234);
  Sched.schedule_out (Proc.sched proc) t0;
  Alcotest.(check int) "saved" 0x1234 (Pkru.to_int (Task.saved_pkru t0));
  Cpu.set_pkru_direct core (Pkru.of_int 0xDEAD);  (* another task's value *)
  Sched.schedule_in (Proc.sched proc) t0;
  Alcotest.(check int) "restored" 0x1234 (Pkru.to_int (Cpu.pkru core))

(* The PKRU update the task_work tests queue, and its observable effect:
   key 1 starts access-disabled (Linux's initial PKRU). *)
let k1 = Pkey.of_int 1
let queue_rw t = Task.work_add t k1 Pkru.Read_write
let holds_rw t = Pkru.rights (Task.pkru t) k1 = Pkru.Read_write

let test_task_work_runs_on_kick () =
  let proc = make_proc () in
  let t0 = Proc.spawn proc ~core_id:0 () in
  let t1 = Proc.spawn proc ~core_id:1 () in
  queue_rw t1;
  Alcotest.(check bool) "not yet" false (holds_rw t1);
  Sched.kick (Proc.sched proc) ~from:t0 t1;
  Alcotest.(check bool) "ran after kick" true (holds_rw t1)

let test_task_work_lazy_when_off_cpu () =
  let proc = make_proc () in
  let t0 = Proc.spawn proc ~core_id:0 () in
  let t1 = Proc.spawn proc ~core_id:1 () in
  Sched.schedule_out (Proc.sched proc) t1;
  queue_rw t1;
  Sched.kick (Proc.sched proc) ~from:t0 t1;
  Alcotest.(check bool) "kick ignored off-cpu" false (holds_rw t1);
  Sched.schedule_in (Proc.sched proc) t1;
  Alcotest.(check bool) "ran at schedule-in" true (holds_rw t1)

let test_task_work_fifo () =
  let proc = make_proc () in
  let t0 = Proc.spawn proc ~core_id:0 () in
  let t1 = Proc.spawn proc ~core_id:1 () in
  (* more updates than the initial ring holds, with the ring wrapped:
     the last update to a key wins *)
  let rights i = if i mod 2 = 0 then Pkru.Read_only else Pkru.Read_write in
  Task.work_add t1 k1 Pkru.Read_only;
  Sched.kick (Proc.sched proc) ~from:t0 t1;
  for i = 1 to 9 do
    Task.work_add t1 (Pkey.of_int i) (rights i)
  done;
  Task.work_add t1 k1 Pkru.No_access;
  Alcotest.(check int) "ten pending" 10 (Task.work_pending t1);
  Sched.kick (Proc.sched proc) ~from:t0 t1;
  Alcotest.(check int) "drained" 0 (Task.work_pending t1);
  let want =
    List.fold_left
      (fun p i -> Pkru.set_rights p (Pkey.of_int i) (rights i))
      Pkru.init [ 2; 3; 4; 5; 6; 7; 8; 9 ]
  in
  Alcotest.(check int) "applied in order" (Pkru.to_int want) (Pkru.to_int (Task.pkru t1))

let test_task_pkru_helpers () =
  let proc = make_proc () in
  let t0 = Proc.spawn proc ~core_id:0 () in
  Task.set_pkru t0 (Pkru.of_int 0x42);
  Alcotest.(check int) "on-cpu write hits register" 0x42 (Pkru.to_int (Cpu.pkru (Task.core t0)));
  Sched.schedule_out (Proc.sched proc) t0;
  Task.set_pkru t0 (Pkru.of_int 0x43);
  Alcotest.(check int) "off-cpu write hits task struct" 0x43 (Pkru.to_int (Task.saved_pkru t0))

let test_shootdown_flushes_remote_tlb () =
  let proc = make_proc () in
  let t0 = Proc.spawn proc ~core_id:0 () in
  let t1 = Proc.spawn proc ~core_id:1 () in
  let tlb1 = Cpu.tlb (Task.core t1) in
  Tlb.insert tlb1 ~vpn:42 (Pte.make ~frame:1 ~perm:Perm.rw ~pkey:Pkey.default);
  Sched.shootdown (Proc.sched proc) ~from:t0 t1;
  Alcotest.(check bool) "remote tlb flushed" true (Tlb.lookup tlb1 ~vpn:42 = Pte.absent)

(* --- IPI accounting regressions ---

   Hand-counted against the cost table: every handshake is charged
   exactly once, on the side that actually does the work. An IPI that is
   never sent (off-CPU target) charges nobody and emits nothing. *)

let cycles_on proc core_id = Cpu.cycles (Machine.core (Proc.machine proc) core_id)

let ipi_counters = Alcotest.(list (triple int int int))

let test_kick_off_cpu_charges_nothing () =
  let proc = make_proc () in
  let t0 = Proc.spawn proc ~core_id:0 () in
  let t1 = Proc.spawn proc ~core_id:1 () in
  Sched.schedule_out (Proc.sched proc) t1;
  queue_rw t1;
  let c0 = cycles_on proc 0 and c1 = cycles_on proc 1 in
  Sched.kick (Proc.sched proc) ~from:t0 t1;
  Alcotest.(check (float 0.0)) "sender charged nothing" c0 (cycles_on proc 0);
  Alcotest.(check (float 0.0)) "target charged nothing" c1 (cycles_on proc 1);
  Alcotest.(check int) "no IPI recorded" 0 (Sched.ipis_sent (Proc.sched proc));
  Alcotest.(check bool) "PKRU update still parked" false (holds_rw t1)

let test_kick_on_cpu_hand_model () =
  let proc = make_proc () in
  let t0 = Proc.spawn proc ~core_id:0 () in
  let t1 = Proc.spawn proc ~core_id:1 () in
  let costs = Cpu.costs (Task.core t0) in
  queue_rw t1;
  let c0 = cycles_on proc 0 and c1 = cycles_on proc 1 in
  Sched.kick (Proc.sched proc) ~from:t0 t1;
  Alcotest.(check (float 0.0)) "sender pays one ipi_send"
    (c0 +. costs.Costs.ipi_send) (cycles_on proc 0);
  Alcotest.(check (float 0.0)) "target pays one receive + the work"
    (c1 +. costs.Costs.ipi_receive +. costs.Costs.task_work_run)
    (cycles_on proc 1);
  Alcotest.check ipi_counters "counters" [ (0, 1, 0); (1, 0, 1) ]
    (Sched.ipis_per_core (Proc.sched proc));
  Alcotest.(check bool) "PKRU updated" true (holds_rw t1)

let test_kick_batch_one_ipi_per_core () =
  let proc = make_proc () in
  let t0 = Proc.spawn proc ~core_id:0 () in
  let t1 = Proc.spawn proc ~core_id:1 () in
  let t2 = Proc.spawn proc ~core_id:1 () in (* shares t1's core *)
  let t3 = Proc.spawn proc ~core_id:2 () in
  let t4 = Proc.spawn proc ~core_id:3 () in
  Sched.schedule_out (Proc.sched proc) t4;
  List.iter queue_rw [ t1; t2; t3; t4 ];
  let costs = Cpu.costs (Task.core t0) in
  let c0 = cycles_on proc 0 and c1 = cycles_on proc 1 in
  let c2 = cycles_on proc 2 and c3 = cycles_on proc 3 in
  Sched.kick_batch (Proc.sched proc) ~from:t0 ();
  Alcotest.(check int) "two cores kicked" 2 (Sched.ipis_sent (Proc.sched proc));
  Alcotest.(check (list bool)) "three tasks reached, PKRU updated"
    [ true; true; true; false ]
    (List.map holds_rw [ t1; t2; t3; t4 ]);
  Alcotest.(check (float 0.0)) "sender: one send per distinct core"
    (c0 +. (2.0 *. costs.Costs.ipi_send)) (cycles_on proc 0);
  Alcotest.(check (float 0.0)) "core 1: one receive drains both tasks"
    (c1 +. costs.Costs.ipi_receive +. (2.0 *. costs.Costs.task_work_run))
    (cycles_on proc 1);
  Alcotest.(check (float 0.0)) "core 2: one receive, one work item"
    (c2 +. costs.Costs.ipi_receive +. costs.Costs.task_work_run)
    (cycles_on proc 2);
  Alcotest.(check (float 0.0)) "off-cpu core untouched" c3 (cycles_on proc 3);
  Alcotest.(check int) "sleeper keeps its work parked" 1 (Task.work_pending t4);
  Alcotest.check ipi_counters "one IPI per distinct on-cpu core"
    [ (0, 2, 0); (1, 0, 1); (2, 0, 1) ]
    (Sched.ipis_per_core (Proc.sched proc))

let test_shootdown_lazy_idle_core () =
  let proc = make_proc () in
  let t0 = Proc.spawn proc ~core_id:0 () in
  let t1 = Proc.spawn proc ~core_id:1 () in
  let tlb1 = Cpu.tlb (Task.core t1) in
  Sched.schedule_out (Proc.sched proc) t1;
  Tlb.insert tlb1 ~vpn:42 (Pte.make ~frame:1 ~perm:Perm.rw ~pkey:Pkey.default);
  let costs = Cpu.costs (Task.core t1) in
  let c0 = cycles_on proc 0 and c1 = cycles_on proc 1 in
  Sched.shootdown (Proc.sched proc) ~from:t0 t1;
  Alcotest.(check (float 0.0)) "lazy: sender pays nothing" c0 (cycles_on proc 0);
  Alcotest.(check (float 0.0)) "lazy: target pays nothing yet" c1 (cycles_on proc 1);
  Alcotest.(check int) "no IPI sent" 0 (Sched.ipis_sent (Proc.sched proc));
  Alcotest.(check bool) "idle core's stale entry dropped now" true
    (Tlb.lookup tlb1 ~vpn:42 = Pte.absent);
  Alcotest.(check bool) "flush still owed" true (Task.tlb_flush_pending t1);
  Sched.schedule_in (Proc.sched proc) t1;
  Alcotest.(check (float 0.0)) "switch-in pays the switch + deferred flush"
    (c1 +. costs.Costs.context_switch +. costs.Costs.tlb_flush_all)
    (cycles_on proc 1);
  Alcotest.(check bool) "debt cleared" false (Task.tlb_flush_pending t1)

let test_shootdown_lazy_busy_core () =
  (* The target's core is running another task: its live translations
     must survive a shootdown aimed at the off-CPU task; the flush lands
     when the shot-down task is next scheduled in. *)
  let proc = make_proc () in
  let t0 = Proc.spawn proc ~core_id:0 () in
  let t1 = Proc.spawn proc ~core_id:1 () in
  Sched.schedule_out (Proc.sched proc) t1;
  let t2 = Proc.spawn proc ~core_id:1 () in (* now holds the core *)
  let tlb1 = Cpu.tlb (Task.core t1) in
  Tlb.insert tlb1 ~vpn:42 (Pte.make ~frame:1 ~perm:Perm.rw ~pkey:Pkey.default);
  Sched.shootdown (Proc.sched proc) ~from:t0 t1;
  Alcotest.(check bool) "busy core keeps its entries" true
    (Tlb.lookup tlb1 ~vpn:42 <> Pte.absent);
  Alcotest.(check bool) "flush owed at switch-in" true (Task.tlb_flush_pending t1);
  Sched.schedule_out (Proc.sched proc) t2;
  Sched.schedule_in (Proc.sched proc) t1;
  Alcotest.(check bool) "flushed once the task runs" true
    (Tlb.lookup tlb1 ~vpn:42 = Pte.absent);
  Alcotest.(check bool) "debt cleared" false (Task.tlb_flush_pending t1)

(* --- Mm --- *)

let test_mm_mmap_read_write () =
  let proc = make_proc () in
  let task = Proc.spawn proc ~core_id:0 () in
  let core = Task.core task in
  let addr = Mm.mmap (Proc.mm proc) core ~len:8192 ~prot:Perm.rw () in
  let mmu = Proc.mmu proc in
  Mmu.write_bytes mmu core ~addr (Bytes.of_string "hello");
  Alcotest.(check string) "rw works" "hello"
    (Bytes.to_string (Mmu.read_bytes mmu core ~addr ~len:5));
  (* Demand paging: only the touched page is populated. *)
  Alcotest.(check int) "one page present after touching one" 1
    (mapped (Proc.mm proc));
  Mmu.write_byte mmu core ~addr:(addr + 4096) 'x';
  Alcotest.(check int) "both present after touching both" 2
    (mapped (Proc.mm proc))

let test_mm_mmap_zeroed () =
  let proc = make_proc () in
  let task = Proc.spawn proc ~core_id:0 () in
  let core = Task.core task in
  let addr = Mm.mmap (Proc.mm proc) core ~len:4096 ~prot:Perm.rw () in
  Alcotest.(check char) "zeroed" '\000' (Mmu.read_byte (Proc.mmu proc) core ~addr)

let test_mm_munmap () =
  let proc = make_proc () in
  let task = Proc.spawn proc ~core_id:0 () in
  let core = Task.core task in
  let addr = Mm.mmap (Proc.mm proc) core ~len:4096 ~prot:Perm.rw () in
  Mm.munmap (Proc.mm proc) core ~addr ~len:4096;
  (match Mmu.read_byte (Proc.mmu proc) core ~addr with
  | exception Signal.Killed { Signal.code = Signal.Segv_maperr; _ } -> ()
  | _ -> Alcotest.fail "expected not-present fault");
  Alcotest.(check int) "frames released" 0 (Physmem.frames_in_use (Machine.mem (Proc.machine proc)))

let test_mm_sparse_vs_contiguous_vmas () =
  let proc = make_proc () in
  let task = Proc.spawn proc ~core_id:0 () in
  let core = Task.core task in
  let mm = Proc.mm proc in
  let before = vma_count (Mm.vmas mm) in
  ignore (Mm.mmap mm core ~len:(10 * 4096) ~prot:Perm.rw ());
  Alcotest.(check int) "contiguous = 1 vma" (before + 1) (vma_count (Mm.vmas mm));
  for _ = 1 to 10 do
    ignore (Mm.mmap mm core ~len:4096 ~prot:Perm.rw ())
  done;
  Alcotest.(check int) "sparse = 10 more vmas" (before + 11) (vma_count (Mm.vmas mm))

let test_mm_change_protection () =
  let proc = make_proc () in
  let task = Proc.spawn proc ~core_id:0 () in
  let core = Task.core task in
  let mm = Proc.mm proc in
  let addr = Mm.mmap mm core ~len:(4 * 4096) ~prot:Perm.rw () in
  Mm.populate mm core ~addr ~len:(4 * 4096);
  let vmas = vma_count (Mm.vmas mm) in
  Mm.change_protection mm core ~addr ~len:(4 * 4096) ~prot:Perm.r;
  let vpn = Page_table.vpn_of_addr addr in
  for i = 0 to 3 do
    Alcotest.(check string)
      (Printf.sprintf "pte %d rewritten" i)
      "r--"
      (Perm.to_string (Pte.perm (Page_table.get (Mm.page_table mm) ~vpn:(vpn + i))))
  done;
  Alcotest.(check int) "one vma, no splits" vmas (vma_count (Mm.vmas mm));
  match Mmu.write_byte (Proc.mmu proc) core ~addr 'x' with
  | exception Signal.Killed { Signal.code = Signal.Segv_accerr; _ } -> ()
  | _ -> Alcotest.fail "write should fault after mprotect(r)"

let test_mm_change_protection_partial () =
  let proc = make_proc () in
  let task = Proc.spawn proc ~core_id:0 () in
  let core = Task.core task in
  let mm = Proc.mm proc in
  let addr = Mm.mmap mm core ~len:(8 * 4096) ~prot:Perm.rw () in
  let vmas = vma_count (Mm.vmas mm) in
  Mm.change_protection mm core ~addr:(addr + 8192) ~len:8192 ~prot:Perm.r;
  Alcotest.(check int) "splits at both edges" (vmas + 2) (vma_count (Mm.vmas mm));
  Alcotest.(check bool) "vma invariant" true (Vma.invariant (Mm.vmas mm))

let test_mm_change_protection_flushes_tlb () =
  let proc = make_proc () in
  let task = Proc.spawn proc ~core_id:0 () in
  let core = Task.core task in
  let mm = Proc.mm proc in
  let addr = Mm.mmap mm core ~len:4096 ~prot:Perm.rw () in
  ignore (Mmu.read_byte (Proc.mmu proc) core ~addr);  (* fill TLB *)
  Mm.change_protection mm core ~addr ~len:4096 ~prot:Perm.none;
  (* Without the flush the stale TLB entry would still allow the read. *)
  match Mmu.read_byte (Proc.mmu proc) core ~addr with
  | exception Signal.Killed { Signal.code = Signal.Segv_accerr; _ } -> ()
  | _ -> Alcotest.fail "stale TLB entry allowed a revoked access"

let test_mm_unmapped_mprotect_fails () =
  let proc = make_proc () in
  let task = Proc.spawn proc ~core_id:0 () in
  let core = Task.core task in
  match Mm.change_protection (Proc.mm proc) core ~addr:0x999000 ~len:4096 ~prot:Perm.r with
  | exception Errno.Error (Errno.ENOMEM, _) -> ()
  | _ -> Alcotest.fail "expected ENOMEM"

(* --- range populate: one VMA lookup per VMA, the same pages, cycles and
   faults as populating page by page --- *)

(* From [base]: back-to-back segments, each a mapping or a guard-gap
   hole, all mapped rw- with key 0; [splits] re-protect page ranges (each
   fully mapped one splits VMAs into neighbours with other prot and
   pkey); [touched] pages are populated before the range. [base] sits up
   to 300 pages below a 512-page leaf boundary, so ranges cross leaves,
   and a small [frames] runs out mid-range. *)
type populate_case = {
  base : int;
  segs : (bool * int) list;  (* (mapped, pages) *)
  splits : (int * int * bool * int) list;  (* (first, pages, read-only, pkey) *)
  touched : int list;
  first : int;  (* the populated range, in pages from [base] *)
  pages : int;
  frames : int;
}

let populate_case_gen =
  let open QCheck.Gen in
  let* lead = int_bound 300 in
  let* segs =
    list_size (int_range 1 8) (pair (frequency [ (4, return true); (1, return false) ]) (int_range 1 64))
  in
  let span = List.fold_left (fun acc (_, n) -> acc + n) 0 segs in
  let* splits = list_size (int_bound 4) (quad (int_bound (span - 1)) (int_range 1 32) bool (int_bound 15)) in
  let* touched = list_size (int_bound 8) (int_bound (span - 1)) in
  let* first = int_bound (span - 1) in
  let* pages = int_range 1 (span - first) in
  let* frames = oneof [ int_range 1 64; return 4096 ] in
  return { base = 0x20000 - lead; segs; splits; touched; first; pages; frames }

let print_populate_case c =
  let ints l = String.concat ";" (List.map string_of_int l) in
  Printf.sprintf "base %#x segs [%s] splits [%s] touched [%s] range %d+%d frames %d" c.base
    (String.concat ";" (List.map (fun (m, n) -> Printf.sprintf "%s%d" (if m then "map" else "hole") n) c.segs))
    (String.concat ";"
       (List.map (fun (f, n, ro, k) -> Printf.sprintf "%d+%d %s k%d" f n (if ro then "r" else "rw") k) c.splits))
    (ints c.touched) c.first c.pages c.frames

type populate_outcome = {
  result : string;
  ptes : int list;  (* every vpn of the layout *)
  in_use : int;
  cycles : int64;
  faults : (int * int64 * int * string) list;  (* Page_fault: core, ts, addr, cause *)
}

(* Build [c]'s layout on a fresh machine, run [populate] on it inside a
   trace recording, and report everything the range could have changed. *)
let populate_outcome c populate =
  let page = Physmem.page_size in
  let mem = Physmem.create ~frames:c.frames in
  let mm = Mm.create mem in
  let cpu = Cpu.create ~id:0 () in
  let addr off = Page_table.addr_of_vpn (c.base + off) in
  let ignore_errno f = try f () with Errno.Error _ -> () in
  ignore
    (List.fold_left
       (fun off (mapped, n) ->
         if mapped then ignore (Mm.mmap mm cpu ~at:(addr off) ~len:(n * page) ~prot:Perm.rw ());
         off + n)
       0 c.segs);
  List.iter
    (fun (off, n, ro, k) ->
      ignore_errno (fun () ->
          Mm.change_protection_pkey mm cpu ~addr:(addr off) ~len:(n * page)
            ~prot:(if ro then Perm.r else Perm.rw) ~pkey:(Pkey.of_int k)))
    c.splits;
  List.iter (fun off -> ignore_errno (fun () -> Mm.populate mm cpu ~addr:(addr off) ~len:page)) c.touched;
  let result, trace =
    Mpk_trace.Tracer.record (fun () ->
        match populate mm cpu ~addr:(addr c.first) with
        | () -> "ok"
        | exception Errno.Error (e, msg) -> Errno.to_string e ^ " " ^ msg)
  in
  let faults =
    List.filter_map
      (fun e ->
        match e.Mpk_trace.Event.ev with
        | Mpk_trace.Event.Page_fault { addr; cause } ->
            Some (e.Mpk_trace.Event.core, Int64.bits_of_float e.Mpk_trace.Event.ts, addr, cause)
        | _ -> None)
      (Mpk_trace.Tracer.events trace)
  in
  let span = List.fold_left (fun acc (_, n) -> acc + n) 0 c.segs in
  {
    result;
    ptes = List.init span (fun i -> (Page_table.get (Mm.page_table mm) ~vpn:(c.base + i) :> int));
    in_use = Physmem.frames_in_use mem;
    cycles = Int64.bits_of_float (Cpu.cycles cpu);
    faults;
  }

let populate_range_matches_pages =
  QCheck.Test.make ~name:"range populate = page-at-a-time populate" ~count:300
    (QCheck.make ~print:print_populate_case populate_case_gen)
    (fun c ->
      let page = Physmem.page_size in
      let range mm cpu ~addr = Mm.populate mm cpu ~addr ~len:(c.pages * page) in
      let by_page mm cpu ~addr =
        for i = 0 to c.pages - 1 do
          Mm.populate mm cpu ~addr:(addr + (i * page)) ~len:page
        done
      in
      let got = populate_outcome c range and want = populate_outcome c by_page in
      let differs =
        List.filter_map
          (fun (what, same) -> if same then None else Some what)
          [
            ("result", got.result = want.result);
            ("PTEs", got.ptes = want.ptes);
            ("frames in use", got.in_use = want.in_use);
            ("cycles", got.cycles = want.cycles);
            ("page faults", got.faults = want.faults);
          ]
      in
      if differs <> [] then
        QCheck.Test.fail_reportf "differs in %s (range: %s; page by page: %s)"
          (String.concat ", " differs) got.result want.result;
      true)

(* Once Physmem's arrays and the page-table leaves exist (a munmap keeps
   both), populate allocates only per call and per VMA, whatever the
   number of pages. *)
let test_populate_allocation () =
  let words pages =
    let mm = Mm.create (Physmem.create ~frames:8192) in
    let cpu = Cpu.create ~id:0 () in
    let len = pages * Physmem.page_size in
    let addr = Mm.mmap mm cpu ~len ~prot:Perm.rw () in
    Mm.populate mm cpu ~addr ~len;
    Mm.munmap mm cpu ~addr ~len;
    ignore (Mm.mmap mm cpu ~at:addr ~len ~prot:Perm.rw ());
    let w = Alloc_budget.allocated (fun () -> Mm.populate mm cpu ~addr ~len) in
    Alcotest.(check int) "every page present" pages (mapped mm);
    w
  in
  let eight = words 8 in
  Alcotest.(check (float 0.)) (Printf.sprintf "4088 pages allocate as 8 do (%.0f words)" eight) eight
    (words 4088)

(* A protection change that neither splits nor merges allocates nothing,
   whatever the range's size and however many VMAs the address space
   holds: it returns no counts, and its computed charges are summed
   unboxed inside [Cpu]. [change] flips one fully populated VMA between
   two settings, in both the per-page and the full TLB-flush regime. *)
let test_change_range_allocation () =
  let page = Physmem.page_size in
  let words ~vmas ~pages change =
    let mm = Mm.create (Physmem.create ~frames:(pages + 8)) in
    let cpu = Cpu.create ~id:0 () in
    let other () = ignore (Mm.mmap mm cpu ~len:page ~prot:Perm.rw ()) in
    for _ = 1 to (vmas - 1) / 2 do other () done;
    let addr = Mm.mmap mm cpu ~len:(pages * page) ~prot:Perm.rw () in
    for _ = 1 to vmas / 2 do other () done;
    Mm.populate mm cpu ~addr ~len:(pages * page);
    let flip i = change mm cpu ~addr ~len:(pages * page) (i land 1 = 0) in
    flip 0;
    flip 1;
    let w = Alloc_budget.allocated (fun () -> for i = 0 to 49 do flip i done) /. 50.0 in
    Alcotest.(check int) "VMA count" vmas (vma_count (Mm.vmas mm));
    Alcotest.(check int) "every page present" pages (mapped mm);
    w
  in
  let k = Pkey.of_int 3 in
  List.iter
    (fun (name, change) ->
      List.iter
        (fun (vmas, pages) ->
          Alcotest.(check (float 0.))
            (Printf.sprintf "%s, %d VMAs, %d pages allocates nothing" name vmas pages)
            0. (words ~vmas ~pages change))
        [ (1, 1); (1, 8); (1, 16384); (1000, 1); (1000, 8); (1000, 16384) ])
    [
      ( "change_protection",
        fun mm cpu ~addr ~len even ->
          Mm.change_protection mm cpu ~addr ~len ~prot:(if even then Perm.r else Perm.rw) );
      ( "change_protection_pkey",
        fun mm cpu ~addr ~len even ->
          Mm.change_protection_pkey mm cpu ~addr ~len ~prot:(if even then Perm.r else Perm.rw)
            ~pkey:(if even then k else Pkey.default) );
    ]

(* --- shared memory across processes --- *)

let test_shared_mapping_visibility () =
  let machine = Machine.create ~cores:2 ~mem_mib:64 () in
  let p1 = Proc.create machine in
  let p2 = Proc.create machine in
  let t1 = Proc.spawn p1 ~core_id:0 () in
  let t2 = Proc.spawn p2 ~core_id:1 () in
  let a1 = Mm.mmap (Proc.mm p1) (Task.core t1) ~len:8192 ~prot:Perm.rw () in
  let frames = Mm.frames_of_range (Proc.mm p1) (Task.core t1) ~addr:a1 ~len:8192 in
  let a2 = Mm.mmap_frames (Proc.mm p2) (Task.core t2) ~frames ~prot:Perm.rw () in
  (* a write in p1 is visible in p2 — same physical frames *)
  Mmu.write_bytes (Proc.mmu p1) (Task.core t1) ~addr:a1 (Bytes.of_string "shared!");
  Alcotest.(check string) "cross-process visibility" "shared!"
    (Bytes.to_string (Mmu.read_bytes (Proc.mmu p2) (Task.core t2) ~addr:a2 ~len:7));
  (* and the other direction *)
  Mmu.write_byte (Proc.mmu p2) (Task.core t2) ~addr:a2 'S';
  Alcotest.(check char) "reverse direction" 'S' (Mmu.read_byte (Proc.mmu p1) (Task.core t1) ~addr:a1)

let test_shared_mapping_asymmetric_perms () =
  (* the SDCG pattern: writable in one process, read/execute-only in the
     other *)
  let machine = Machine.create ~cores:2 ~mem_mib:64 () in
  let writer = Proc.create machine in
  let executor = Proc.create machine in
  let tw = Proc.spawn writer ~core_id:0 () in
  let tx = Proc.spawn executor ~core_id:1 () in
  let aw = Mm.mmap (Proc.mm writer) (Task.core tw) ~len:4096 ~prot:Perm.rw () in
  let frames = Mm.frames_of_range (Proc.mm writer) (Task.core tw) ~addr:aw ~len:4096 in
  let ax = Mm.mmap_frames (Proc.mm executor) (Task.core tx) ~frames ~prot:Perm.rx () in
  Mmu.write_byte (Proc.mmu writer) (Task.core tw) ~addr:aw '\x90';
  ignore (Mmu.fetch (Proc.mmu executor) (Task.core tx) ~addr:ax ~len:1);
  match Mmu.write_byte (Proc.mmu executor) (Task.core tx) ~addr:ax 'x' with
  | exception Signal.Killed { Signal.code = Signal.Segv_accerr; _ } -> ()
  | _ -> Alcotest.fail "executor wrote a read-only shared mapping"

let test_shared_frames_refcounted () =
  let machine = Machine.create ~cores:2 ~mem_mib:64 () in
  let p1 = Proc.create machine in
  let p2 = Proc.create machine in
  let t1 = Proc.spawn p1 ~core_id:0 () in
  let t2 = Proc.spawn p2 ~core_id:1 () in
  let mem = Machine.mem machine in
  let a1 = Mm.mmap (Proc.mm p1) (Task.core t1) ~len:4096 ~prot:Perm.rw () in
  let frames = Mm.frames_of_range (Proc.mm p1) (Task.core t1) ~addr:a1 ~len:4096 in
  Alcotest.(check int) "one ref after alloc" 1 (Physmem.refcount mem frames.(0));
  let a2 = Mm.mmap_frames (Proc.mm p2) (Task.core t2) ~frames ~prot:Perm.r () in
  Alcotest.(check int) "two refs when shared" 2 (Physmem.refcount mem frames.(0));
  (* unmapping one side keeps the frame alive for the other *)
  Mm.munmap (Proc.mm p1) (Task.core t1) ~addr:a1 ~len:4096;
  Alcotest.(check int) "one ref left" 1 (Physmem.refcount mem frames.(0));
  Alcotest.(check int) "still in use" 1 (Physmem.frames_in_use mem);
  Mm.munmap (Proc.mm p2) (Task.core t2) ~addr:a2 ~len:4096;
  Alcotest.(check int) "freed at zero" 0 (Physmem.frames_in_use mem)

(* --- Syscall: Table 1 calibration --- *)

let calibrated name expected f =
  Alcotest.test_case name `Quick (fun () ->
      let proc = make_proc () in
      let task = Proc.spawn proc ~core_id:0 () in
      let cycles = f proc task in
      let tolerance = expected *. 0.02 in
      if Float.abs (cycles -. expected) > tolerance then
        Alcotest.failf "%s: got %.1f cycles, want %.1f (±2%%)" name cycles expected)

let measure_task task f = snd (Cpu.measure (Task.core task) f)

let table1_pkey_alloc proc task =
  measure_task task (fun () ->
      ignore (Syscall.pkey_alloc proc task ~init_rights:Pkru.Read_write))

let table1_pkey_free proc task =
  let k = Syscall.pkey_alloc proc task ~init_rights:Pkru.Read_write in
  measure_task task (fun () -> Syscall.pkey_free proc task k)

let table1_mprotect proc task =
  let addr = Syscall.mmap proc task ~len:4096 ~prot:Perm.rw () in
  Mm.populate (Proc.mm proc) (Task.core task) ~addr ~len:4096;
  measure_task task (fun () -> Syscall.mprotect proc task ~addr ~len:4096 ~prot:Perm.r)

let table1_pkey_mprotect proc task =
  let addr = Syscall.mmap proc task ~len:4096 ~prot:Perm.rw () in
  Mm.populate (Proc.mm proc) (Task.core task) ~addr ~len:4096;
  let k = Syscall.pkey_alloc proc task ~init_rights:Pkru.Read_write in
  measure_task task (fun () ->
      Syscall.pkey_mprotect proc task ~addr ~len:4096 ~prot:Perm.rw ~pkey:k)

(* --- Syscall semantics --- *)

let test_pkey_alloc_grants_rights () =
  let proc = make_proc () in
  let task = Proc.spawn proc ~core_id:0 () in
  let k = Syscall.pkey_alloc proc task ~init_rights:Pkru.Read_write in
  Alcotest.(check bool) "caller has rights" true
    (Pkru.rights (Task.pkru task) k = Pkru.Read_write)

let test_pkey_mprotect_gates_access () =
  let proc = make_proc () in
  let task = Proc.spawn proc ~core_id:0 () in
  let core = Task.core task in
  let mmu = Proc.mmu proc in
  let addr = Syscall.mmap proc task ~len:4096 ~prot:Perm.rw () in
  let k = Syscall.pkey_alloc proc task ~init_rights:Pkru.No_access in
  Syscall.pkey_mprotect proc task ~addr ~len:4096 ~prot:Perm.rw ~pkey:k;
  (match Mmu.read_byte mmu core ~addr with
  | exception Signal.Killed { Signal.code = Signal.Segv_pkuerr; _ } -> ()
  | _ -> Alcotest.fail "pkey should deny");
  Cpu.wrpkru core (Pkru.set_rights (Cpu.pkru core) k Pkru.Read_write);
  Mmu.write_byte mmu core ~addr 'y'

let test_pkey_mprotect_rejects_key0 () =
  let proc = make_proc () in
  let task = Proc.spawn proc ~core_id:0 () in
  let addr = Syscall.mmap proc task ~len:4096 ~prot:Perm.rw () in
  match Syscall.pkey_mprotect proc task ~addr ~len:4096 ~prot:Perm.rw ~pkey:Pkey.default with
  | exception Errno.Error (Errno.EINVAL, _) -> ()
  | _ -> Alcotest.fail "key 0 must be rejected"

let test_pkey_mprotect_rejects_unallocated () =
  let proc = make_proc () in
  let task = Proc.spawn proc ~core_id:0 () in
  let addr = Syscall.mmap proc task ~len:4096 ~prot:Perm.rw () in
  match
    Syscall.pkey_mprotect proc task ~addr ~len:4096 ~prot:Perm.rw ~pkey:(Pkey.of_int 9)
  with
  | exception Errno.Error (Errno.EINVAL, _) -> ()
  | _ -> Alcotest.fail "unallocated key must be rejected"

let test_pkey_use_after_free_reproduced () =
  (* The paper §3.1: pkey_free leaves PTEs tagged; a reallocated key
     inherits the old group's pages. *)
  let proc = make_proc () in
  let task = Proc.spawn proc ~core_id:0 () in
  let addr = Syscall.mmap proc task ~len:4096 ~prot:Perm.rw () in
  (* touch the page while it still carries the default key *)
  Mmu.write_byte (Proc.mmu proc) (Task.core task) ~addr 'v';
  let k = Syscall.pkey_alloc proc task ~init_rights:Pkru.No_access in
  Syscall.pkey_mprotect proc task ~addr ~len:4096 ~prot:Perm.rw ~pkey:k;
  Syscall.pkey_free proc task k;
  let pte = Page_table.get (Mm.page_table (Proc.mm proc)) ~vpn:(Page_table.vpn_of_addr addr) in
  Alcotest.(check int) "stale key in PTE" (Pkey.to_int k) (Pkey.to_int (Pte.pkey pte));
  (* Reallocation hands the same key back: the new owner's rights now
     govern the *old* pages too. *)
  let k' = Syscall.pkey_alloc proc task ~init_rights:Pkru.Read_write in
  Alcotest.(check int) "key reused" (Pkey.to_int k) (Pkey.to_int k');
  Mmu.write_byte (Proc.mmu proc) (Task.core task) ~addr 'x'  (* unintended access works *)

let test_exec_only_memory () =
  let proc = make_proc () in
  let task = Proc.spawn proc ~core_id:0 () in
  let core = Task.core task in
  let mmu = Proc.mmu proc in
  let addr = Syscall.mmap proc task ~len:4096 ~prot:Perm.rw () in
  Mmu.write_bytes mmu core ~addr (Bytes.of_string "\x90\x90\xc3");
  Syscall.mprotect proc task ~addr ~len:4096 ~prot:Perm.x_only;
  ignore (Mmu.fetch mmu core ~addr ~len:3);
  match Mmu.read_byte mmu core ~addr with
  | exception Signal.Killed { Signal.code = Signal.Segv_pkuerr; _ } -> ()
  | _ -> Alcotest.fail "exec-only page readable by owner"

let test_exec_only_gap_other_thread () =
  (* §3.3: no inter-thread synchronization — a thread holding stale
     rights for the (recycled) execute-only key can still read. *)
  let proc = make_proc () in
  let t0 = Proc.spawn proc ~core_id:0 () in
  let t1 = Proc.spawn proc ~core_id:1 () in
  (* t1 once allocated the key that will become the exec-only key. *)
  let k = Syscall.pkey_alloc proc t1 ~init_rights:Pkru.Read_write in
  Syscall.pkey_free proc t1 k;
  let addr = Syscall.mmap proc t0 ~len:4096 ~prot:Perm.rw () in
  Mmu.write_bytes (Proc.mmu proc) (Task.core t0) ~addr (Bytes.of_string "secret code");
  Syscall.mprotect proc t0 ~addr ~len:4096 ~prot:Perm.x_only;
  (* Owner cannot read... *)
  (match Mmu.read_byte (Proc.mmu proc) (Task.core t0) ~addr with
  | exception Signal.Killed _ -> ()
  | _ -> Alcotest.fail "owner read should fault");
  (* ...but t1 still can: the gap. *)
  Alcotest.(check char) "other thread reads exec-only memory" 's'
    (Mmu.read_byte (Proc.mmu proc) (Task.core t1) ~addr)

let test_pkey_sync_updates_all_threads () =
  let proc = make_proc () in
  let t0 = Proc.spawn proc ~core_id:0 () in
  let t1 = Proc.spawn proc ~core_id:1 () in
  let t2 = Proc.spawn proc ~core_id:2 () in
  let k = Syscall.pkey_alloc proc t0 ~init_rights:Pkru.Read_write in
  Syscall.pkey_sync proc t0 ~pkey:k Pkru.Read_only;
  Alcotest.(check bool) "t1 synced" true (Pkru.rights (Task.pkru t1) k = Pkru.Read_only);
  Alcotest.(check bool) "t2 synced" true (Pkru.rights (Task.pkru t2) k = Pkru.Read_only)

let test_pkey_sync_lazy_for_descheduled () =
  let proc = make_proc () in
  let t0 = Proc.spawn proc ~core_id:0 () in
  let t1 = Proc.spawn proc ~core_id:1 () in
  Sched.schedule_out (Proc.sched proc) t1;
  let k = Syscall.pkey_alloc proc t0 ~init_rights:Pkru.Read_write in
  Syscall.pkey_sync proc t0 ~pkey:k Pkru.Read_only;
  (* t1 is off-CPU: the update is queued, not applied... *)
  Alcotest.(check int) "work queued" 1 (Task.work_pending t1);
  (* ...and lands before t1 can touch memory again. *)
  Sched.schedule_in (Proc.sched proc) t1;
  Alcotest.(check bool) "applied at schedule-in" true
    (Pkru.rights (Task.pkru t1) k = Pkru.Read_only)

let test_pkey_sync_cost_independent_of_pages () =
  let proc = make_proc () in
  let t0 = Proc.spawn proc ~core_id:0 () in
  let _t1 = Proc.spawn proc ~core_id:1 () in
  let k = Syscall.pkey_alloc proc t0 ~init_rights:Pkru.Read_write in
  let c1 = measure_task t0 (fun () -> Syscall.pkey_sync proc t0 ~pkey:k Pkru.Read_only) in
  let c2 = measure_task t0 (fun () -> Syscall.pkey_sync proc t0 ~pkey:k Pkru.Read_write) in
  Alcotest.(check (float 1e-9)) "constant cost" c1 c2

let test_mprotect_cost_grows_with_pages () =
  let proc = make_proc () in
  let task = Proc.spawn proc ~core_id:0 () in
  let cost ~populate pages =
    let addr = Syscall.mmap proc task ~len:(pages * 4096) ~prot:Perm.rw () in
    if populate then Mm.populate (Proc.mm proc) (Task.core task) ~addr ~len:(pages * 4096);
    measure_task task (fun () ->
        Syscall.mprotect proc task ~addr ~len:(pages * 4096) ~prot:Perm.r)
  in
  let c1 = cost ~populate:true 1 in
  let c100 = cost ~populate:true 100 in
  let c1000 = cost ~populate:true 1000 in
  Alcotest.(check bool) "100 > 1" true (c100 > c1);
  Alcotest.(check bool) "1000 > 100" true (c1000 > c100)

let test_mprotect_untouched_vs_populated () =
  (* The Fig 10 / Fig 14 reconciliation: change_protection pays per
     present PTE, so mprotect over an untouched GB-scale mapping is
     orders cheaper than over a populated one. *)
  let proc = make_proc () in
  let task = Proc.spawn proc ~core_id:0 () in
  let pages = 10_000 in
  let cost ~populate =
    let addr = Syscall.mmap proc task ~len:(pages * 4096) ~prot:Perm.rw () in
    if populate then Mm.populate (Proc.mm proc) (Task.core task) ~addr ~len:(pages * 4096);
    measure_task task (fun () ->
        Syscall.mprotect proc task ~addr ~len:(pages * 4096) ~prot:Perm.r)
  in
  let untouched = cost ~populate:false in
  let populated = cost ~populate:true in
  Alcotest.(check bool)
    (Printf.sprintf "populated (%.0f) >> untouched (%.0f)" populated untouched)
    true
    (populated > 10.0 *. untouched)

let test_demand_paging_fault_cost () =
  let proc = make_proc () in
  let task = Proc.spawn proc ~core_id:0 () in
  let core = Task.core task in
  let addr = Syscall.mmap proc task ~len:4096 ~prot:Perm.rw () in
  let costs = Cpu.costs core in
  let first = measure_task task (fun () -> ignore (Mmu.read_byte (Proc.mmu proc) core ~addr)) in
  let second = measure_task task (fun () -> ignore (Mmu.read_byte (Proc.mmu proc) core ~addr)) in
  Alcotest.(check bool) "first touch pays the page fault" true
    (first >= costs.Costs.page_fault);
  Alcotest.(check bool) "second touch does not" true (second < 10.0)

let test_syscall_counter () =
  let proc = make_proc () in
  let task = Proc.spawn proc ~core_id:0 () in
  let before = Syscall.count () in
  ignore (Syscall.mmap proc task ~len:4096 ~prot:Perm.rw ());
  ignore (Syscall.pkey_alloc proc task ~init_rights:Pkru.No_access);
  Alcotest.(check int) "two syscalls" 2 (Syscall.count () - before)

(* --- pkey_sync cycle conservation (the double-charge regressions) ---

   The sum of per-core cycle deltas across a sync must equal the
   hand-counted model exactly: kernel entry on the initiator, one
   task_work_add per queued update, and each IPI handshake charged once
   — ipi_send on the sender, ipi_receive on the target, the spin-wait
   (eager only) on the initiator. *)

let sync_env ?ipi_batching () =
  (* initiator on core 0, an on-CPU sibling on core 1, a descheduled one
     on core 2 *)
  let proc = make_proc ?ipi_batching () in
  let t0 = Proc.spawn proc ~core_id:0 () in
  let t1 = Proc.spawn proc ~core_id:1 () in
  let t2 = Proc.spawn proc ~core_id:2 () in
  Sched.schedule_out (Proc.sched proc) t2;
  (proc, t0, t1, t2)

let test_eager_pkey_sync_cycle_conservation () =
  let proc, t0, _t1, _t2 = sync_env () in
  let costs = Cpu.costs (Task.core t0) in
  let c0 = cycles_on proc 0 and c1 = cycles_on proc 1 and c2 = cycles_on proc 2 in
  Syscall.pkey_sync proc t0 ~eager:true ~pkey:(Pkey.of_int 1) Pkru.Read_write;
  Alcotest.(check (float 0.0))
    "initiator: entry + 2 queues + 2 sends + 2 spin-waits, nothing twice"
    (c0 +. costs.Costs.kernel_entry_exit
    +. (2.0 *. costs.Costs.task_work_add)
    +. (2.0 *. costs.Costs.ipi_send)
    +. (2.0 *. costs.Costs.ipi_receive))
    (cycles_on proc 0);
  Alcotest.(check (float 0.0)) "on-cpu target: one receive + the work"
    (c1 +. costs.Costs.ipi_receive +. costs.Costs.task_work_run)
    (cycles_on proc 1);
  Alcotest.(check (float 0.0)) "woken target: its own switch + the work, no receive"
    (c2 +. costs.Costs.context_switch +. costs.Costs.task_work_run)
    (cycles_on proc 2)

let test_lazy_pkey_sync_batched_model () =
  let proc, t0, _t1, t2 = sync_env () in
  let costs = Cpu.costs (Task.core t0) in
  let c0 = cycles_on proc 0 and c1 = cycles_on proc 1 and c2 = cycles_on proc 2 in
  Syscall.pkey_sync proc t0 ~pkey:(Pkey.of_int 1) Pkru.Read_write;
  Alcotest.(check (float 0.0)) "initiator: entry + 2 queues + 1 send"
    (c0 +. costs.Costs.kernel_entry_exit
    +. (2.0 *. costs.Costs.task_work_add)
    +. costs.Costs.ipi_send)
    (cycles_on proc 0);
  Alcotest.(check (float 0.0)) "on-cpu core: one receive + the work"
    (c1 +. costs.Costs.ipi_receive +. costs.Costs.task_work_run)
    (cycles_on proc 1);
  Alcotest.(check (float 0.0)) "off-cpu target untouched" c2 (cycles_on proc 2);
  Alcotest.(check int) "work parked for the sleeper" 1 (Task.work_pending t2)

let updates_of pairs =
  let u = Task.Updates.create () in
  List.iter (fun (pkey, rights) -> Task.Updates.add u pkey rights) pairs;
  u

let test_pkey_sync_many_one_ipi_per_core () =
  let proc = make_proc () in
  let t0 = Proc.spawn proc ~core_id:0 () in
  let _t1 = Proc.spawn proc ~core_id:1 () in
  let _t2 = Proc.spawn proc ~core_id:2 () in
  let updates =
    updates_of [ (Pkey.of_int 1, Pkru.Read_write); (Pkey.of_int 2, Pkru.No_access) ]
  in
  let costs = Cpu.costs (Task.core t0) in
  let c0 = cycles_on proc 0 and c1 = cycles_on proc 1 and c2 = cycles_on proc 2 in
  Syscall.pkey_sync_many proc t0 ~updates;
  Alcotest.(check (float 0.0)) "initiator: entry + 4 queues, still 1 send per core"
    (c0 +. costs.Costs.kernel_entry_exit
    +. (4.0 *. costs.Costs.task_work_add)
    +. (2.0 *. costs.Costs.ipi_send))
    (cycles_on proc 0);
  let per_target = costs.Costs.ipi_receive +. (2.0 *. costs.Costs.task_work_run) in
  Alcotest.(check (float 0.0)) "core 1: one receive drains both updates"
    (c1 +. per_target) (cycles_on proc 1);
  Alcotest.(check (float 0.0)) "core 2: one receive drains both updates"
    (c2 +. per_target) (cycles_on proc 2);
  Alcotest.check ipi_counters "one IPI per core for the whole batch"
    [ (0, 2, 0); (1, 0, 1); (2, 0, 1) ]
    (Sched.ipis_per_core (Proc.sched proc))

(* --- trace-based sync-batch accounting --- *)

(* The events [f] emits, in order. *)
let traced f = Mpk_trace.Tracer.events (snd (Mpk_trace.Tracer.record f))

let ipi_targets evs =
  List.filter_map
    (fun e ->
      match e.Mpk_trace.Event.ev with
      | Mpk_trace.Event.Ipi { target_core; _ } -> Some target_core
      | _ -> None)
    evs

let count_ev pred evs = List.length (List.filter (fun e -> pred e.Mpk_trace.Event.ev) evs)

let deferred_count =
  count_ev (function Mpk_trace.Event.Pkey_sync_deferred _ -> true | _ -> false)

let executed_count =
  count_ev (function Mpk_trace.Event.Pkey_sync_executed _ -> true | _ -> false)

let test_trace_one_ipi_per_core_per_batch () =
  (* Four sibling tasks on two cores, two PKRU updates in the batch: the
     trace must show exactly one Ipi per target core — not one per task,
     and not one per update. *)
  let proc = make_proc () in
  let t0 = Proc.spawn proc ~core_id:0 () in
  let _t1 = Proc.spawn proc ~core_id:1 () in
  let _t2 = Proc.spawn proc ~core_id:1 () in
  let _t3 = Proc.spawn proc ~core_id:2 () in
  let evs =
    traced (fun () ->
        let updates =
          updates_of [ (Pkey.of_int 1, Pkru.Read_write); (Pkey.of_int 2, Pkru.Read_write) ]
        in
        Syscall.pkey_sync_many proc t0 ~updates)
  in
  Alcotest.(check (list int)) "one Ipi event per target core"
    [ 1; 2 ]
    (List.sort compare (ipi_targets evs));
  Alcotest.(check int) "deferred = 3 targets x 2 updates" 6 (deferred_count evs);
  Alcotest.(check int) "every deferred update executed" 6 (executed_count evs)

let test_trace_batching_conserves_sync_counts () =
  (* The same sync executed batched and per-update: identical
     deferred/executed conservation, strictly fewer Ipi events batched. *)
  let run ~batch =
    let proc, t0, _t1, t2 = sync_env ~ipi_batching:batch () in
    let evs =
      traced (fun () ->
          let updates =
            updates_of [ (Pkey.of_int 1, Pkru.Read_write); (Pkey.of_int 2, Pkru.No_access) ]
          in
          Syscall.pkey_sync_many proc t0 ~updates;
          Sched.schedule_in (Proc.sched proc) t2)
    in
    (List.length (ipi_targets evs), deferred_count evs, executed_count evs)
  in
  let ib, db, eb = run ~batch:true in
  let iu, du, eu = run ~batch:false in
  Alcotest.(check int) "batched: deferred = 2 targets x 2 updates" 4 db;
  Alcotest.(check int) "batched: all executed after the sleeper runs" 4 eb;
  Alcotest.(check int) "per-update: same deferred count" db du;
  Alcotest.(check int) "per-update: same executed count" eb eu;
  Alcotest.(check int) "batched: one Ipi for the on-cpu core" 1 ib;
  Alcotest.(check int) "per-update: one Ipi per update" 2 iu;
  Alcotest.(check bool) "batching emits strictly fewer Ipis" true (ib < iu)

(* --- allocation budget: with tracing, profiling and lock hooks off, the
   lazy-sync request path allocates nothing, whatever the number of
   updates or targets --- *)

(* The initiator on core 0 and two on-CPU siblings on cores 1 and 2. *)
let two_on_cpu_targets () =
  let proc = make_proc () in
  let t0 = Proc.spawn proc ~core_id:0 () in
  let t1 = Proc.spawn proc ~core_id:1 () in
  let t2 = Proc.spawn proc ~core_id:2 () in
  (proc, t0, [ t1; t2 ])

let test_pkey_sync_many_allocation () =
  let words n =
    let proc, t0, _ = two_on_cpu_targets () in
    let updates = updates_of (List.init n (fun i -> (Pkey.of_int (i + 1), Pkru.Read_only))) in
    (* the first call grows the targets' task_work rings *)
    Syscall.pkey_sync_many proc t0 ~updates;
    Alloc_budget.allocated (fun () -> Syscall.pkey_sync_many proc t0 ~updates)
  in
  Alcotest.(check (float 0.)) "1 update: nothing" 0. (words 1);
  Alcotest.(check (float 0.)) "8 updates: nothing" 0. (words 8)

(* A single-update [pkey_sync] allocates nothing, whatever the number of
   targets: it builds no update queue, and while nothing records it runs
   its body directly, with neither the span nor the body closure that
   [Syscall.sys] builds for an observed call. *)
let test_pkey_sync_allocation () =
  let words ~targets =
    let proc = make_proc () in
    let t0 = Proc.spawn proc ~core_id:0 () in
    let others = List.init targets (fun i -> Proc.spawn proc ~core_id:(i + 1) ()) in
    let pkey = Pkey.of_int 1 in
    Syscall.pkey_sync proc t0 ~pkey Pkru.Read_only;  (* grow the targets' rings *)
    let w = Alloc_budget.allocated (fun () -> Syscall.pkey_sync proc t0 ~pkey Pkru.Read_only) in
    Alcotest.(check int) "every target drained" 0
      (List.fold_left (fun acc t -> acc + Task.work_pending t) 0 others);
    w
  in
  Alcotest.(check (float 0.)) "1 target: nothing" 0. (words ~targets:1);
  Alcotest.(check (float 0.)) "3 targets: nothing" 0. (words ~targets:3)

let test_kick_batch_allocation () =
  let proc, t0, targets = two_on_cpu_targets () in
  let sleeper = Proc.spawn proc ~core_id:3 () in
  Sched.schedule_out (Proc.sched proc) sleeper;
  let sched = Proc.sched proc in
  let queue () = List.iter queue_rw targets in
  let each name kick =
    queue ();
    kick ();  (* first IPIs create the per-core counters *)
    Alcotest.(check (float 0.)) (name ^ " allocates nothing") 0.
      (Alloc_budget.allocated (fun () ->
           for _ = 1 to 100 do
             queue ();
             kick ()
           done))
  in
  each "queue, kick and drain" (fun () -> Sched.kick_batch sched ~from:t0 ());
  each "shootdown batch" (fun () ->
      Sched.kick_batch sched ~from:t0 ~kind:"pkey_sync_shootdown" ~flush_tlb:true ~sync:true ());
  Alcotest.(check (list bool)) "every on-CPU target drained" [ true; true ]
    (List.map holds_rw targets);
  Alcotest.(check int) "no work left behind" 0
    (List.fold_left (fun acc t -> acc + Task.work_pending t) 0 targets)

let test_lock_unobserved_allocation () =
  let lock = Lock.make ~cls:"mm_lock" in
  let round () =
    Lock.acquire lock Lock.Exclusive ~actor:0;
    Lock.release lock Lock.Exclusive ~actor:0
  in
  round ();
  (* an exclusive hold records its owner as an int; no hook event is
     built while no hook is installed *)
  let w = Alloc_budget.allocated (fun () -> for _ = 1 to 100 do round () done) /. 100.0 in
  Alcotest.(check (float 0.)) "words per acquire/release" 0.0 w;
  let seen = ref [] in
  Lock.with_hook
    (fun ev ->
      let name =
        match ev with
        | Lock.Attempt _ -> "attempt"
        | Lock.Acquired _ -> "acquired"
        | Lock.Contended _ -> "contended"
        | Lock.Released _ -> "released"
      in
      seen := name :: !seen)
    round;
  Alcotest.(check (list string)) "a hook still sees every transition"
    [ "attempt"; "acquired"; "released" ] (List.rev !seen)

let test_kick_batch_order () =
  let proc = make_proc () in
  (* tasks in descending core order *)
  let on2 = Proc.spawn proc ~core_id:2 () in
  let on1 = Proc.spawn proc ~core_id:1 () in
  let t0 = Proc.spawn proc ~core_id:0 () in
  let also_on1 = Proc.spawn proc ~core_id:1 () in
  List.iter queue_rw [ on1; also_on1; on2 ];
  let evs = traced (fun () -> Sched.kick_batch (Proc.sched proc) ~from:t0 ()) in
  let drained =
    List.filter_map
      (fun e ->
        match e.Mpk_trace.Event.ev with
        | Mpk_trace.Event.Pkey_sync_executed { target; _ } -> Some target
        | _ -> None)
      evs
  in
  Alcotest.(check (list int)) "IPIs in ascending core order" [ 1; 2 ] (ipi_targets evs);
  Alcotest.(check (list int)) "a core's tasks drain in task order"
    (List.map Task.id [ on1; also_on1; on2 ])
    drained;
  Alcotest.check ipi_counters "one IPI per core"
    [ (0, 2, 0); (1, 0, 1); (2, 0, 1) ]
    (Sched.ipis_per_core (Proc.sched proc))

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "mpk_kernel"
    [
      ( "vma",
        [
          tc "add/find" `Quick test_vma_add_find;
          tc "overlap rejected" `Quick test_vma_add_overlap_rejected;
          tc "merge on add" `Quick test_vma_merge_on_add;
          tc "guard gap" `Quick test_vma_guard_gap_no_merge;
          tc "set_attrs splits" `Quick test_vma_set_attrs_splits;
          tc "set_attrs merges back" `Quick test_vma_set_attrs_merges_back;
          tc "set_attrs uncovered" `Quick test_vma_set_attrs_uncovered;
          tc "remove_range splits" `Quick test_vma_remove_range_splits;
          tc "covered" `Quick test_vma_covered;
          tc "overlapping" `Quick test_vma_overlapping;
          qtest vma_random_ops;
          qtest vma_overlapping_model;
          qtest vma_page_model;
        ] );
      ( "pkey_bitmap",
        [
          tc "alloc order" `Quick test_bitmap_alloc_order;
          tc "exhaustion" `Quick test_bitmap_exhaustion;
          tc "free/reuse" `Quick test_bitmap_free_reuse;
          tc "free errors" `Quick test_bitmap_free_errors;
        ] );
      ( "task_sched",
        [
          tc "pkru save/restore" `Quick test_task_pkru_save_restore;
          tc "task_work on kick" `Quick test_task_work_runs_on_kick;
          tc "task_work lazy off-cpu" `Quick test_task_work_lazy_when_off_cpu;
          tc "task_work fifo" `Quick test_task_work_fifo;
          tc "set_pkru placement" `Quick test_task_pkru_helpers;
          tc "shootdown flushes tlb" `Quick test_shootdown_flushes_remote_tlb;
          tc "kick off-cpu is free" `Quick test_kick_off_cpu_charges_nothing;
          tc "kick on-cpu hand model" `Quick test_kick_on_cpu_hand_model;
          tc "kick_batch one IPI per core" `Quick test_kick_batch_one_ipi_per_core;
          tc "lazy shootdown, idle core" `Quick test_shootdown_lazy_idle_core;
          tc "lazy shootdown, busy core" `Quick test_shootdown_lazy_busy_core;
        ] );
      ( "mm",
        [
          tc "mmap rw" `Quick test_mm_mmap_read_write;
          tc "mmap zeroed" `Quick test_mm_mmap_zeroed;
          tc "munmap" `Quick test_mm_munmap;
          tc "sparse vs contiguous" `Quick test_mm_sparse_vs_contiguous_vmas;
          tc "change_protection" `Quick test_mm_change_protection;
          tc "partial split" `Quick test_mm_change_protection_partial;
          tc "tlb flushed" `Quick test_mm_change_protection_flushes_tlb;
          tc "unmapped fails" `Quick test_mm_unmapped_mprotect_fails;
          qtest populate_range_matches_pages;
        ] );
      ( "shared_memory",
        [
          tc "cross-process visibility" `Quick test_shared_mapping_visibility;
          tc "asymmetric permissions" `Quick test_shared_mapping_asymmetric_perms;
          tc "refcounted frames" `Quick test_shared_frames_refcounted;
        ] );
      ( "table1_calibration",
        [
          calibrated "pkey_alloc = 186.3" 186.3 table1_pkey_alloc;
          calibrated "pkey_free = 137.2" 137.2 table1_pkey_free;
          calibrated "mprotect = 1094.0" 1094.0 table1_mprotect;
          calibrated "pkey_mprotect = 1104.9" 1104.9 table1_pkey_mprotect;
        ] );
      ( "syscalls",
        [
          tc "pkey_alloc rights" `Quick test_pkey_alloc_grants_rights;
          tc "pkey_mprotect gates" `Quick test_pkey_mprotect_gates_access;
          tc "rejects key 0" `Quick test_pkey_mprotect_rejects_key0;
          tc "rejects unallocated" `Quick test_pkey_mprotect_rejects_unallocated;
          tc "use-after-free reproduced" `Quick test_pkey_use_after_free_reproduced;
          tc "exec-only memory" `Quick test_exec_only_memory;
          tc "exec-only gap" `Quick test_exec_only_gap_other_thread;
          tc "pkey_sync all threads" `Quick test_pkey_sync_updates_all_threads;
          tc "pkey_sync lazy" `Quick test_pkey_sync_lazy_for_descheduled;
          tc "pkey_sync page-independent" `Quick test_pkey_sync_cost_independent_of_pages;
          tc "mprotect grows with pages" `Quick test_mprotect_cost_grows_with_pages;
          tc "untouched vs populated" `Quick test_mprotect_untouched_vs_populated;
          tc "demand paging fault cost" `Quick test_demand_paging_fault_cost;
          tc "syscall counter" `Quick test_syscall_counter;
          tc "eager sync charged once" `Quick test_eager_pkey_sync_cycle_conservation;
          tc "lazy sync batched model" `Quick test_lazy_pkey_sync_batched_model;
          tc "sync_many one IPI per core" `Quick test_pkey_sync_many_one_ipi_per_core;
          tc "trace: Ipi per core per batch" `Quick test_trace_one_ipi_per_core_per_batch;
          tc "trace: batching conserves syncs" `Quick test_trace_batching_conserves_sync_counts;
        ] );
      ( "alloc_budget",
        [
          tc "pkey_sync_many" `Quick test_pkey_sync_many_allocation;
          tc "pkey_sync" `Quick test_pkey_sync_allocation;
          tc "kick_batch" `Quick test_kick_batch_allocation;
          tc "kick_batch order" `Quick test_kick_batch_order;
          tc "lock without hook" `Quick test_lock_unobserved_allocation;
          tc "populate" `Quick test_populate_allocation;
          tc "change_range" `Quick test_change_range_allocation;
        ] );
    ]
