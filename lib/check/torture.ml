open Mpk_hw
open Mpk_kernel

(* Deterministic interleaving torture harness (DESIGN.md §13).

   N fibers of mmap/munmap/lookup/protect traffic run against one shared
   address space, interleaved by a seeded schedule of preemption
   decisions. The harness borrows the simulator's single preemption
   mechanism: it arms the existing ["sched.preempt"] fault-injection
   point (evaluated by [Cpu.charge], i.e. between any two charged
   events) with [Every 1] and installs its own action on the cores of
   the machine it builds ([Cpu.set_preempt]) — exactly where
   [Sched.preempt] would bounce a task, the torture scheduler may switch
   fibers instead. Fibers are OCaml effect handlers: a switch performs
   [Yield], the trampoline parks the continuation and resumes the
   schedule's target. A fiber that blocks on a contended kernel lock
   parks the same way, through [Lock.with_wait_hook], and retries when
   next resumed.

   A schedule is a sparse list of [(at, target)] pairs — "at the [at]-th
   preemption point of the run, switch to fiber [target]" — so a run is
   a pure function of [(seed, schedule)]: the op mix derives from the
   seed, the interleaving from the schedule, and everything else
   (addresses, cycle charges, the op log) is deterministic. That is what
   lets [sweep] shrink a failing schedule with ddmin and replay the
   shrunk reproducer byte-identically.

   Failures come from three oracles: a per-lookup assertion that the vma
   handed out by [Mm.find_vma_read] really covers the looked-up page
   ([Vma.read_valid] — the planted [--plant recycle] bug disables the
   protocol's own recycle check and this oracle catches what it misses);
   the lockdep validator's findings at quiescence; and a stall detector
   for schedules that deadlock. *)

(* --- configuration --- *)

type plant = No_plant | Plant_recycle | Plant_lock_order | Plant_release_held

let plant_of_string = function
  | "none" -> Some No_plant
  | "recycle" -> Some Plant_recycle
  | "lock-order" | "lock_order" -> Some Plant_lock_order
  | "release-held" | "release_held" -> Some Plant_release_held
  | _ -> None

let plant_to_string = function
  | No_plant -> "none"
  | Plant_recycle -> "recycle"
  | Plant_lock_order -> "lock-order"
  | Plant_release_held -> "release-held"

type config = { tasks : int; ops : int; slots : int; seed : int64; plant : plant }

let default_config = { tasks = 4; ops = 48; slots = 4; seed = 1L; plant = No_plant }

(* --- schedules --- *)

type schedule = (int * int) list

let schedule_to_string s =
  String.concat "," (List.map (fun (at, t) -> Printf.sprintf "%d:%d" at t) s)

let schedule_of_string str =
  if String.trim str = "" then Ok []
  else
    try
      Ok
        (String.split_on_char ',' str
        |> List.map (fun entry ->
               match String.split_on_char ':' (String.trim entry) with
               | [ at; t ] -> (int_of_string at, int_of_string t)
               | _ -> failwith entry))
    with _ -> Error (Printf.sprintf "bad schedule %S (want AT:TARGET,AT:TARGET,...)" str)

(* --- per-fiber op traffic --- *)

type op =
  | Op_mmap of { slot : int; pages : int; ro : bool }
  | Op_munmap of { slot : int }
  | Op_lookup of { slot : int; off : int }
  | Op_protect of { slot : int; ro : bool }
  | Op_plant_lock_order
  | Op_plant_release_held

let gen_ops prng ~ops ~slots =
  List.init ops (fun _ ->
      let slot = Mpk_util.Prng.int prng slots in
      let r = Mpk_util.Prng.int prng 100 in
      if r < 30 then
        Op_mmap
          {
            slot;
            pages = 1 + Mpk_util.Prng.int prng 3;
            ro = Mpk_util.Prng.int prng 4 = 0;
          }
      else if r < 50 then Op_munmap { slot }
      else if r < 80 then Op_lookup { slot; off = Mpk_util.Prng.int prng 4 }
      else Op_protect { slot; ro = Mpk_util.Prng.int prng 2 = 0 })

let insert_mid l x =
  let n = List.length l / 2 in
  List.filteri (fun i _ -> i < n) l @ (x :: List.filteri (fun i _ -> i >= n) l)

(* --- fibers --- *)

type _ Effect.t += Yield : unit Effect.t

type fstate =
  | Start of (unit -> unit)
  | Paused of (unit, unit) Effect.Deep.continuation
  | Running
  | Done

type fiber = { mutable state : fstate }

let handler (f : fiber) =
  {
    Effect.Deep.retc = (fun () -> f.state <- Done);
    exnc =
      (fun e ->
        f.state <- Done;
        raise e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Yield ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) -> f.state <- Paused k)
        | _ -> None);
  }

(* Run the fiber until it yields, finishes, or raises. *)
let exec (f : fiber) =
  match f.state with
  | Start thunk ->
      f.state <- Running;
      Effect.Deep.match_with thunk () (handler f)
  | Paused k ->
      f.state <- Running;
      Effect.Deep.continue k ()
  | Running | Done -> ()

(* --- one run --- *)

type outcome = {
  ok : bool;
  reason : string option;
  findings : string list;
  ops_applied : int;
  benign : int;
  points : int;
  cycles : float;
  log : string list;
  order_edges : (string * string) list;
}

exception Torture_failure of string

(* The run itself, with the harness's own verdict; [run_once] adds
   lockdep's. *)
let run_fibers ?fiber_ops cfg ~schedule () =
  let tasks =
    match fiber_ops with
    | Some a -> max 1 (Array.length a)
    | None -> max 1 cfg.tasks
  in
  let op_count = max 1 cfg.ops in
  let slot_count = max 1 cfg.slots in
  (* A fresh slab makes the run a pure function of (seed, schedule):
     which record gets recycled must not depend on what earlier runs —
     possibly in another process — left on the free-list. *)
  Vma.slab_reset ();
  let machine = Machine.create ~cores:tasks ~mem_mib:64 () in
  let proc = Proc.create machine in
  let mm = Proc.mm proc in
  let vmas = Mm.vmas mm in
  let cores = Array.init tasks (Machine.core machine) in
  let cycles0 = Cpu.total_charged () in
  let unbalanced0 = Lock.unbalanced () in
  (* Shared slot table: the ops of different fibers collide on these
     slots, which is where the mmap/munmap/lookup races come from. *)
  let slots = Array.make slot_count None in
  let fiber_ops =
    (* An explicit per-fiber op list (witness replay) takes the ops as
       given — no seed-derived traffic, no plant-op insertion; the only
       plant effect that still applies is Plant_recycle's disabled
       re-validation below. *)
    match fiber_ops with
    | Some a -> a
    | None ->
        let base = Mpk_util.Prng.create ~seed:cfg.seed in
        let a =
          Array.init tasks (fun _ ->
              gen_ops (Mpk_util.Prng.split base) ~ops:op_count ~slots:slot_count)
        in
        (match cfg.plant with
        | Plant_lock_order -> a.(0) <- insert_mid a.(0) Op_plant_lock_order
        | Plant_release_held -> a.(0) <- insert_mid a.(0) Op_plant_release_held
        | No_plant | Plant_recycle -> ());
        a
  in
  (* The planted protocol bug: lookups skip the recycle re-validation. *)
  if cfg.plant = Plant_recycle then Vma.skip_recycle_check vmas;
  let switches : (int, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (at, target) ->
      if not (Hashtbl.mem switches at) then Hashtbl.add switches at target)
    schedule;
  let point = ref 0 in
  let current = ref 0 in
  let switch_to = ref None in
  let ops_applied = ref 0 in
  let benign_count = ref 0 in
  let log_rev = ref [] in
  let logf fi fmt =
    Printf.ksprintf (fun s -> log_rev := Printf.sprintf "t%d %s" fi s :: !log_rev) fmt
  in
  let benign fi what e =
    incr benign_count;
    logf fi "%s: %s" what (Errno.to_string e)
  in
  let page = Physmem.page_size in
  let exec_op fi op =
    let core = cores.(fi) in
    match op with
    | Op_mmap { slot; pages; ro } -> (
        (* Remap semantics on an occupied slot: maximal unmap/map churn
           is what feeds the typesafe free-list. *)
        (match slots.(slot) with
        | Some (addr, p) -> (
            slots.(slot) <- None;
            match Mm.munmap mm core ~addr ~len:(p * page) with
            | () -> logf fi "remap slot%d: unmapped 0x%x" slot addr
            | exception Errno.Error (e, _) -> benign fi "remap-unmap" e)
        | None -> ());
        let prot = if ro then Perm.r else Perm.rw in
        match Mm.mmap mm core ~len:(pages * page) ~prot () with
        | addr -> (
            slots.(slot) <- Some (addr, pages);
            logf fi "mmap slot%d %dp %s -> 0x%x" slot pages (Perm.to_string prot) addr;
            match Mm.populate mm core ~addr ~len:(pages * page) with
            | () -> ()
            | exception Errno.Error (e, _) -> benign fi "populate" e)
        | exception Errno.Error (e, _) -> benign fi "mmap" e)
    | Op_munmap { slot } -> (
        match slots.(slot) with
        | None -> logf fi "munmap slot%d: empty" slot
        | Some (addr, p) -> (
            slots.(slot) <- None;
            match Mm.munmap mm core ~addr ~len:(p * page) with
            | () -> logf fi "munmap slot%d 0x%x" slot addr
            | exception Errno.Error (e, _) -> benign fi "munmap" e))
    | Op_lookup { slot; off } -> (
        match slots.(slot) with
        | None -> logf fi "lookup slot%d: empty" slot
        | Some (addr, p) -> (
            let vpn = Page_table.vpn_of_addr addr + (off mod p) in
            (* The oracle: whatever vma the lookup protocol hands us must
               really cover the page. With the protocol intact this holds
               by construction; with [--plant recycle] the skipped
               re-validation lets a recycled (or detached) record through
               and the oracle catches the use-after-recycle. *)
            match
              Mm.find_vma_read mm (Some core) ~vpn (fun v ->
                  if not (Vma.read_valid vmas v vpn) then
                    raise
                      (Torture_failure
                         (Printf.sprintf
                            "use-after-recycle: t%d looked up vpn %#x but was handed \
                             vma [%#x,+%d)%s"
                            fi vpn v.Vma.start v.Vma.pages
                            (if v.Vma.detached then " (detached)" else ""))))
            with
            | Some () -> logf fi "lookup slot%d vpn %#x: hit" slot vpn
            | None -> logf fi "lookup slot%d vpn %#x: unmapped" slot vpn))
    | Op_protect { slot; ro } -> (
        match slots.(slot) with
        | None -> logf fi "protect slot%d: empty" slot
        | Some (addr, p) -> (
            let prot = if ro then Perm.r else Perm.rw in
            match Mm.change_protection mm core ~addr ~len:(p * page) ~prot with
            | () ->
                logf fi "protect slot%d %s" slot (Perm.to_string prot)
            | exception Errno.Error (e, _) -> benign fi "protect" e))
    | Op_plant_lock_order -> (
        (* Deterministically witness the legitimate mm_lock → vma_lock
           order (munmap detaches under the mm lock), then acquire in
           the reverse order: vma read lock held across an mm-lock
           attempt. [try_acquire] keeps the inversion from actually
           deadlocking this run — lockdep flags the Attempt either
           way, which is the point. *)
        let actor = Cpu.id core in
        (match Mm.mmap mm core ~len:page ~prot:Perm.rw () with
        | addr -> (
            try Mm.munmap mm core ~addr ~len:page with Errno.Error _ -> ())
        | exception Errno.Error _ -> ());
        match Mm.mmap mm core ~len:page ~prot:Perm.rw () with
        | addr -> (
            (match Vma.find vmas (Page_table.vpn_of_addr addr) with
            | Some v when Vma.start_read v ~actor ->
                let ml = Vma.mm_lock vmas in
                if Lock.try_acquire ml Lock.Shared ~actor then
                  Lock.release ml Lock.Shared ~actor;
                Vma.end_read vmas v ~actor;
                logf fi "planted lock-order inversion"
            | Some _ | None -> logf fi "plant lock-order: vma lost");
            try Mm.munmap mm core ~addr ~len:page with Errno.Error _ -> ())
        | exception Errno.Error _ -> logf fi "plant lock-order: mmap failed")
    | Op_plant_release_held ->
        Lock.release (Vma.mm_lock vmas) Lock.Exclusive ~actor:(Cpu.id core);
        logf fi "planted release-not-held"
  in
  let fibers =
    Array.init tasks (fun fi ->
        {
          state =
            Start
              (fun () ->
                List.iter
                  (fun op ->
                    exec_op fi op;
                    incr ops_applied)
                  fiber_ops.(fi));
        })
  in
  (* The single preemption mechanism: the same ["sched.preempt"] firing
     that lets fault injection bounce a task through Sched.preempt is,
     under torture, the only place a fiber switch can happen. *)
  let on_preempt _core_id =
    let p = !point in
    point := p + 1;
    match Hashtbl.find_opt switches p with
    | Some target
      when target <> !current
           && target >= 0
           && target < tasks
           && fibers.(target).state <> Done ->
        switch_to := Some target;
        Effect.perform Yield
    | Some _ | None -> ()
  in
  let all_done () = Array.for_all (fun f -> f.state = Done) fibers in
  let next_runnable from =
    let rec go i tries =
      if tries >= tasks then None
      else if fibers.(i mod tasks).state <> Done then Some (i mod tasks)
      else go (i + 1) (tries + 1)
    in
    go from 0
  in
  (* Deadlock/livelock detector: dispatches that advance neither the
     preemption-point counter nor the op counter are fibers bouncing off
     locks nobody will release. *)
  let stall = ref 0 in
  let last_progress = ref (-1) in
  let stall_budget = (16 * tasks) + 64 in
  let rec drive idx =
    let progress = !point + !ops_applied in
    if progress = !last_progress then begin
      incr stall;
      if !stall > stall_budget then
        raise
          (Torture_failure
             "deadlock: every live task is parked on a lock and none can make \
              progress")
    end
    else begin
      last_progress := progress;
      stall := 0
    end;
    current := idx;
    switch_to := None;
    exec fibers.(idx);
    if not (all_done ()) then
      let next =
        match !switch_to with
        | Some t when fibers.(t).state <> Done -> t
        | Some _ | None -> (
            match next_runnable ((idx + 1) mod tasks) with
            | Some i -> i
            | None -> idx (* unreachable: not all_done *))
      in
      drive next
  in
  Array.iter (fun cpu -> Cpu.set_preempt cpu on_preempt) cores;
  let failure =
    fst @@ Mpk_faultinj.inject ~seed:cfg.seed [ ("sched.preempt", Mpk_faultinj.Every 1) ]
    @@ fun () ->
    Lock.with_wait_hook (fun _lock ~actor:_ -> Effect.perform Yield) @@ fun () ->
    match drive 0 with
    | () -> None
    | exception Torture_failure msg -> Some msg
    | exception e -> Some ("crash: " ^ Printexc.to_string e)
  in
  (* Abandoned fibers still hold locks: after a failure, quiescent leak
     checks would only echo the abort, so lockdep reports what it saw up
     to it. *)
  let quiescence =
    match failure with
    | Some _ -> []
    | None ->
        Lockdep.check_quiescent ();
        let fs =
          if Vma.invariant vmas then [] else [ "vma tree invariant violated at quiescence" ]
        in
        let unbalanced = Lock.unbalanced () - unbalanced0 in
        if unbalanced > 0 then
          fs @ [ Printf.sprintf "%d unbalanced lock release(s)" unbalanced ]
        else fs
  in
  {
    ok = failure = None;
    reason = failure;
    findings = quiescence;
    ops_applied = !ops_applied;
    benign = !benign_count;
    points = !point;
    cycles = Cpu.total_charged () -. cycles0;
    log = List.rev !log_rev;
    order_edges = [];
  }

(* Lockdep records the run; inside a caller's recording the run records
   there, and reports that recording's findings. *)
let run_once ?fiber_ops cfg ~schedule () =
  let run, locks = Lockdep.record (run_fibers ?fiber_ops cfg ~schedule) in
  let findings = List.map Lockdep.to_string (Lockdep.findings locks) @ run.findings in
  let reason =
    match run.reason, findings with
    | Some r, _ -> Some r
    | None, f :: _ -> Some f
    | None, [] -> None
  in
  { run with ok = reason = None; reason; findings; order_edges = Lockdep.order_edges locks }

(* --- sweep: explore, shrink, replay --- *)

type report = {
  cfg : config;
  schedule : schedule;
  shrunk : schedule;
  reason : string;
  replay_identical : bool;
  log_tail : string list;
}

type stats = {
  runs : int;
  failures : int;
  ops_applied : int;
  benign : int;
  max_points : int;
  recycled : int;
}

type sweep_result = { stats : stats; failure : report option }

let gen_schedule prng ~horizon ~tasks ~entries =
  List.init entries (fun _ ->
      (Mpk_util.Prng.int prng (max 1 horizon), Mpk_util.Prng.int prng (max 1 tasks)))
  |> List.sort_uniq compare

let last n l =
  let len = List.length l in
  if len <= n then l else List.filteri (fun i _ -> i >= len - n) l

let sweep ?(entries = 48) ?(rounds = 16) ~seeds cfg =
  let recycled0 = Vma.slab_recycled () in
  let runs = ref 0 in
  let failures = ref 0 in
  let ops_total = ref 0 in
  let benign_total = ref 0 in
  let max_points = ref 0 in
  let found = ref None in
  let note o =
    incr runs;
    if not o.ok then incr failures;
    ops_total := !ops_total + o.ops_applied;
    benign_total := !benign_total + o.benign;
    max_points := max !max_points o.points
  in
  let fails cfg_s sched = not (run_once cfg_s ~schedule:sched ()).ok in
  let mk_report cfg_s schedule (o : outcome) =
    (* Switch decisions past the failure point never fired; drop them
       before ddmin so the minimizer starts from the relevant prefix. *)
    let relevant = List.filter (fun (at, _) -> at <= o.points) schedule in
    let shrunk = Ddmin.minimize ~fails:(fails cfg_s) relevant in
    (* The reproducer must replay byte-identically from (seed, schedule):
       same verdict, same op log, same cycle total — twice. *)
    let a = run_once cfg_s ~schedule:shrunk () in
    let b = run_once cfg_s ~schedule:shrunk () in
    let replay_identical =
      (not a.ok) && a.reason = b.reason && a.log = b.log && a.cycles = b.cycles
    in
    (* Describe the shrunk reproducer — the failure the replay line
       reproduces — not the original schedule's manifestation, which may
       be a different instance of the same bug. *)
    let reason =
      match a.reason, o.reason with
      | Some r, _ | None, Some r -> r
      | None, None -> "failed"
    in
    {
      cfg = cfg_s;
      schedule;
      shrunk;
      reason;
      replay_identical;
      log_tail = last 12 a.log;
    }
  in
  (try
     for s = 0 to max 1 seeds - 1 do
       let seed = Int64.add cfg.seed (Int64.of_int s) in
       let cfg_s = { cfg with seed } in
       (* Dry run: measures this seed's preemption-point horizon so
          schedule entries land on points that exist. Plants that need no
          interleaving (lock-order, release-not-held) already fail here,
          with the empty schedule as their reproducer. *)
       let dry = run_once cfg_s ~schedule:[] () in
       note dry;
       if not dry.ok then begin
         found := Some (mk_report cfg_s [] dry);
         raise Exit
       end;
       let horizon = dry.points in
       for round = 1 to max 1 rounds do
         let prng =
           Mpk_util.Prng.create
             ~seed:
               (Int64.logxor seed
                  (Int64.mul (Int64.of_int round) 0x9E3779B97F4A7C15L))
         in
         let schedule = gen_schedule prng ~horizon ~tasks:cfg.tasks ~entries in
         let o = run_once cfg_s ~schedule () in
         note o;
         if not o.ok then begin
           found := Some (mk_report cfg_s schedule o);
           raise Exit
         end
       done
     done
   with Exit -> ());
  {
    stats =
      {
        runs = !runs;
        failures = !failures;
        ops_applied = !ops_total;
        benign = !benign_total;
        max_points = !max_points;
        recycled = Vma.slab_recycled () - recycled0;
      };
    failure = !found;
  }

let render_report r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "torture FAILURE (seed %Ld, plant %s)\n" r.cfg.seed
       (plant_to_string r.cfg.plant));
  Buffer.add_string buf (Printf.sprintf "  reason: %s\n" r.reason);
  Buffer.add_string buf
    (Printf.sprintf "  schedule: %d switch(es), shrunk to %d: %s\n"
       (List.length r.schedule) (List.length r.shrunk)
       (match r.shrunk with [] -> "(none needed)" | s -> schedule_to_string s));
  Buffer.add_string buf
    (Printf.sprintf "  replay byte-identical: %b\n" r.replay_identical);
  Buffer.add_string buf
    (Printf.sprintf
       "  replay: mpkctl torture --tasks %d --ops %d --slots %d --seed %Ld --plant %s \
        --schedule '%s'\n"
       r.cfg.tasks r.cfg.ops r.cfg.slots r.cfg.seed (plant_to_string r.cfg.plant)
       (schedule_to_string r.shrunk));
  if r.log_tail <> [] then begin
    Buffer.add_string buf
      (Printf.sprintf "  op log (last %d before the failure):\n"
         (List.length r.log_tail));
    List.iter (fun l -> Buffer.add_string buf ("    " ^ l ^ "\n")) r.log_tail
  end;
  Buffer.contents buf
