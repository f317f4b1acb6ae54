open Mpk_analysis

(* Concurrency-witness replay: compile a static race/deadlock/atomicity
   witness (Lint) into a torture-harness run and search for the
   adversarial schedule the finding claims exists.

   The compilation is per-fiber: the witness's steps are grouped by
   thread, each thread's Load/Store ops on a mapping slot become the
   harness ops that exercise the same protocol paths —

     victim thread     Load (vma s)  -> Op_lookup   (find_vma_read walk)
                       Store (vma s) -> Op_protect  (locked mutation)
     all other threads Store (vma s) -> Op_mmap     (remap = unmap+map,
                                                     the recycle churn)
                       Load (vma s)  -> Op_lookup

   with cfg.plant = Plant_recycle so the harness's lookup protocol skips
   re-validation, exactly the discipline hole the static finding
   describes. The harness's own oracle (Vma.read_valid inside every
   lookup) is then the judge: if some schedule makes it fire, the
   static finding is Confirmed by a concrete interleaving; the schedule
   is returned so `mpkctl torture --schedule` can replay it.

   Deadlock witnesses compile to the harness's lock-order plant op,
   which performs the inverted acquisition natively; dynamic lockdep is
   the judge there.

   The search itself is the simplest one that can work: a dry run
   (empty schedule = run-to-completion per fiber), then every
   single-switch schedule [(p, t)] up to the dry run's preemption-point
   horizon. One preemption inside the victim's lookup window is all
   these races need — the same reason the torture sweep's random
   schedules find them. *)

type outcome = {
  verdict : Replay.verdict;
  schedule : Torture.schedule option;  (* the confirming schedule, when Confirmed *)
  runs : int;  (* harness runs spent searching *)
  note : string;
}

let pp_outcome fmt (o : outcome) =
  Format.fprintf fmt "%s (%d run%s)%s%s"
    (Replay.verdict_to_string o.verdict)
    o.runs
    (if o.runs = 1 then "" else "s")
    (match o.schedule with
    | Some s -> Printf.sprintf " schedule=[%s]" (Torture.schedule_to_string s)
    | None -> "")
    (if o.note = "" then "" else ": " ^ o.note)

(* --- compilation --- *)

let slot_of_loc = function Ir.L_vma s -> Some s | _ -> None

let op_of_step ~victim (s : Lint.step) =
  match s.Lint.sop with
  | Ir.Load { loc } ->
      Option.map (fun slot -> Torture.Op_lookup { slot; off = 0 }) (slot_of_loc loc)
  | Ir.Store { loc } ->
      Option.map
        (fun slot ->
          if s.Lint.stid = victim then Torture.Op_protect { slot; ro = true }
          else Torture.Op_mmap { slot; pages = 1; ro = false })
        (slot_of_loc loc)
  | _ -> None

(* Group the witness by thread into per-fiber op lists. Fiber 0 is
   always main (tid 0): it runs first under the empty schedule, so its
   Op_mmap installs the mapping before anyone looks it up. *)
let fibers_of_witness ~victim (witness : Lint.step list) =
  let tids =
    List.sort_uniq compare (0 :: List.map (fun s -> s.Lint.stid) witness)
  in
  let ops_of tid =
    List.filter_map
      (fun s -> if s.Lint.stid = tid then op_of_step ~victim s else None)
      witness
  in
  Array.of_list (List.map ops_of tids)

let has_adversary_store ~victim (witness : Lint.step list) =
  List.exists
    (fun (s : Lint.step) ->
      s.Lint.stid <> victim
      && s.Lint.stid <> 0
      && match s.Lint.sop with Ir.Store _ -> true | _ -> false)
    witness

(* --- schedule search --- *)

let reason_mentions (o : Torture.outcome) needles =
  let mentions hay =
    List.exists
      (fun needle ->
        let nl = String.length needle and hl = String.length hay in
        let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
        at 0)
      needles
  in
  (match o.Torture.reason with Some r -> mentions r | None -> false)
  || List.exists mentions o.Torture.findings

let max_horizon = 2048

(* Dry run first, then every single-switch schedule [(p, t)] for p up to
   the dry run's point count. Returns (outcome, runs). *)
let search ~fiber_ops ~cfg ~matches =
  let run schedule =
    Torture.run_once ~fiber_ops cfg ~schedule ()
  in
  let runs = ref 1 in
  let dry = run [] in
  if matches dry then Replay.Confirmed, Some [], !runs
  else begin
    let horizon = min (dry.Torture.points + 8) max_horizon in
    let tasks = Array.length fiber_ops in
    let found = ref None in
    let p = ref 0 in
    while !found = None && !p < horizon do
      let t = ref 1 in
      while !found = None && !t < tasks do
        let schedule = [ !p, !t ] in
        incr runs;
        if matches (run schedule) then found := Some schedule;
        incr t
      done;
      incr p
    done;
    match !found with
    | Some s -> Replay.Confirmed, Some s, !runs
    | None -> Replay.Unreproduced, None, !runs
  end

let unreproduced note = { verdict = Replay.Unreproduced; schedule = None; runs = 0; note }

let confirm_recycle_race ~loc ~witness ~victim ~note_confirmed =
  match slot_of_loc loc with
  | None ->
      unreproduced
        (Printf.sprintf "no harness mapping for shared location %s"
           (Ir.loc_to_string loc))
  | Some slot ->
      let fiber_ops = fibers_of_witness ~victim witness in
      (* An atomicity witness carries only main + the victim; give it
         the adversary the finding postulates — remap churn on the
         contended slot. *)
      let fiber_ops =
        if has_adversary_store ~victim witness then fiber_ops
        else
          Array.append fiber_ops
            [| [ Torture.Op_mmap { slot; pages = 1; ro = false } ] |]
      in
      let cfg =
        {
          Torture.default_config with
          Torture.slots = slot + 1;
          seed = 1L;
          plant = Torture.Plant_recycle;
        }
      in
      let matches o = reason_mentions o [ "use-after-recycle" ] in
      let verdict, schedule, runs = search ~fiber_ops ~cfg ~matches in
      {
        verdict;
        schedule;
        runs;
        note =
          (match verdict with
          | Replay.Confirmed -> note_confirmed
          | Replay.Unreproduced ->
              "no single-switch schedule fired the lookup oracle");
      }

let confirm (f : Lint.finding) : outcome =
  match f.Lint.detail with
  | Lint.Race { loc; _ } ->
      confirm_recycle_race ~loc ~witness:f.Lint.witness ~victim:f.Lint.tid
        ~note_confirmed:
          "the schedule preempts the victim's lookup, the adversary recycles \
           the record, and the harness oracle catches the stale use"
  | Lint.Atomicity { loc; _ } ->
      confirm_recycle_race ~loc ~witness:f.Lint.witness ~victim:f.Lint.tid
        ~note_confirmed:
          "the schedule lands in the dropped-lock window and invalidates the \
           checked record before the mutation"
  | Lint.Deadlock { cycle } ->
      if List.mem "mm_lock" cycle && List.mem "vma_lock" cycle then begin
        let fiber_ops = [| [ Torture.Op_plant_lock_order ] |] in
        let cfg = { Torture.default_config with Torture.plant = Torture.Plant_lock_order } in
        let matches o =
          reason_mentions o [ "inversion"; "lock-order cycle"; "deadlock" ]
        in
        let verdict, schedule, runs = search ~fiber_ops ~cfg ~matches in
        {
          verdict;
          schedule;
          runs;
          note =
            (match verdict with
            | Replay.Confirmed ->
                "dynamic lockdep flags the same inverted acquisition order"
            | Replay.Unreproduced -> "lockdep did not flag the inversion");
        }
      end
      else
        unreproduced
          (Printf.sprintf "no harness mapping for cycle %s"
             (String.concat " -> " cycle))
  | Lint.Unlock_unheld { lk } ->
      if lk.Ir.lcls = "mm_lock" then begin
        let fiber_ops = [| [ Torture.Op_plant_release_held ] |] in
        let cfg = Torture.default_config in
        let matches o = reason_mentions o [ "release" ] in
        let verdict, schedule, runs = search ~fiber_ops ~cfg ~matches in
        {
          verdict;
          schedule;
          runs;
          note =
            (match verdict with
            | Replay.Confirmed -> "the kernel lock layer rejects the release"
            | Replay.Unreproduced -> "the release was not flagged");
        }
      end
      else
        unreproduced
          (Printf.sprintf "no harness mapping for lock class %s" lk.Ir.lcls)
  | _ ->
      (* Sequential findings replay straight-line, in one run. *)
      let verdict, note = Replay.confirm f in
      { verdict; schedule = None; runs = 1; note }
