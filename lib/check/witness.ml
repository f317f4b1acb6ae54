(* The one confirm module: replay a static finding's witness on the live
   simulator and ask whether the violation is real.

   The static analyzer (Mpk_analysis.Lint) works on an abstract protocol
   model; this module closes the static/dynamic gap. Sequential findings
   carry a concrete entry-to-violation path; we build a fresh machine
   (Stress.make_env), drive the libmpk API along that path
   (Stress.exec_step), and judge the outcome with an oracle specific to
   the violation class — the invariant auditor (Audit) where the damage is
   internal-state corruption, API errors / MMU faults where the
   simulator itself rejects the operation, and direct kernel-state
   probes (pinned keys, queued task_work, stale PKRU) for the rest. A
   finding the simulator cannot be made to exhibit is reported
   [Unreproduced] — static noise, not a bug.

   Concurrency findings need an interleaving instead: a static
   race/deadlock/atomicity witness compiles into a torture-harness run
   and we search for the adversarial schedule the finding claims
   exists. The compilation is per-fiber: the witness's steps are grouped
   by thread, each thread's Load/Store ops on a mapping slot become the
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
   static finding is Confirmed by a concrete interleaving, and the
   schedule is returned. It replays against these compiled fibers,
   which is what `mpkctl lint --confirm` runs; `mpkctl torture
   --schedule` runs seed-generated traffic instead, so it does not
   reproduce a witness.

   Deadlock witnesses compile to the harness's lock-order plant op,
   which performs the inverted acquisition natively; dynamic lockdep is
   the judge there.

   The search itself is the simplest one that can work: a dry run
   (empty schedule = run-to-completion per fiber), then every
   single-switch schedule [(p, t)] up to the dry run's preemption-point
   horizon. One preemption inside the victim's lookup window is all
   these races need — the same reason the torture sweep's random
   schedules find them. *)

open Mpk_hw
open Mpk_kernel
open Mpk_analysis

type verdict = Confirmed | Unreproduced

let verdict_to_string = function
  | Confirmed -> "CONFIRMED"
  | Unreproduced -> "UNREPRODUCED"

type outcome = {
  verdict : verdict;
  schedule : Torture.schedule option;  (* the confirming schedule, when Confirmed *)
  runs : int;  (* harness runs spent searching *)
  note : string;
}

let pp_outcome fmt (o : outcome) =
  Format.fprintf fmt "%s (%d run%s)%s%s"
    (verdict_to_string o.verdict)
    o.runs
    (if o.runs = 1 then "" else "s")
    (match o.schedule with
    | Some s -> Printf.sprintf " schedule=[%s]" (Torture.schedule_to_string s)
    | None -> "")
    (if o.note = "" then "" else ": " ^ o.note)

(* --- sequential findings: one straight-line run --- *)

(* The one witness machine: main on core 0, one core per thread the
   witness names, and the stress driver's default libmpk setup. *)
let make_env (witness : Ir.step list) =
  let max_tid =
    List.fold_left
      (fun acc (s : Ir.step) ->
        match s.Ir.sop with
        | Ir.Spawn { tid } | Ir.Join { tid } -> max acc (max s.Ir.stid tid)
        | _ -> max acc s.Ir.stid)
      0 witness
  in
  Stress.make_env { Stress.default_config with tasks = 1 } ~cores:(max_tid + 1)

exception Diverged of int * Ir.step * exn

let replay_prefix env steps =
  List.iteri
    (fun i s -> try Stress.exec_step env s with exn -> raise (Diverged (i, s, exn)))
    steps

let diverged_note (i, (s : Ir.step), exn) =
  Printf.sprintf "witness diverged at step %d: %s raised %s" i
    (Ir.op_to_string s.Ir.sop) (Printexc.to_string exn)

(* The violating op itself must be rejected by the live system: the API
   errors out or the MMU faults. *)
let expect_rejection env final =
  match Stress.exec_step env final with
  | () ->
      ( Unreproduced,
        Printf.sprintf "final op '%s' succeeded on the simulator"
          (Ir.op_to_string final.Ir.sop) )
  | exception Errno.Error (e, m) ->
      (Confirmed, Printf.sprintf "API rejected it: %s (%s)" (Errno.to_string e) m)
  | exception Libmpk.Unregistered_vkey v ->
      (Confirmed, Printf.sprintf "API rejected vkey %d" v)
  | exception Mmu.Fault f ->
      (Confirmed, Printf.sprintf "MMU fault: %s" (Mmu.fault_to_string f))
  | exception Signal.Killed s ->
      (Confirmed, Printf.sprintf "delivered fatal signal %s" (Signal.to_string s))
  | exception Invalid_argument m -> (Confirmed, m)

let audit_clean (env : Stress.env) = Audit.run env.Stress.mpk = []

let group (env : Stress.env) vkey = Libmpk.find_group env.Stress.mpk vkey

(* Trailing structural steps (the exit label) carry no behaviour; the
   last *operational* step is the one the oracle cares about. *)
let split_last_op steps =
  let rec strip = function
    | { Ir.sop = Ir.Label _; _ } :: rest -> strip rest
    | steps -> steps
  in
  match strip (List.rev steps) with
  | [] -> invalid_arg "witness has no operations"
  | last :: rev_prefix -> (List.rev rev_prefix, last)

let confirm_sequential (f : Lint.finding) =
  let env = make_env f.Lint.witness in
  try
    match f.Lint.detail with
    (* -- the simulator itself must reject the violating call -- *)
    | Lint.Use_after_free _ | Lint.Use_unmapped _ | Lint.Double_free _
    | Lint.Free_unmapped _ | Lint.Mmap_live _ | Lint.End_underflow _
    | Lint.Free_inside_begin _ -> (
        let prefix, final = split_last_op f.Lint.witness in
        try
          replay_prefix env prefix;
          expect_rejection env final
        with
        (* An earlier op on the same witness already got rejected: the
           path holds several lifecycle violations and the simulator
           refuses at the first one — still a real, confirmed path. *)
        | Diverged (i, s, (Errno.Error _ | Libmpk.Unregistered_vkey _ as exn)) ->
          ( Confirmed,
            Printf.sprintf
              "an earlier violation on this witness was already rejected (step %d: \
               %s raised %s)"
              i
              (Ir.op_to_string s.Ir.sop)
              (Printexc.to_string exn) ))
    (* -- leak: the group outlives the program -- *)
    | Lint.Leak_on_exit { vkey } ->
        replay_prefix env f.Lint.witness;
        if group env vkey <> None && audit_clean env then
          (Confirmed, Printf.sprintf "vkey %d still holds a live page group at exit" vkey)
        else (Unreproduced, "group was gone at program exit")
    (* -- leaked begin: the hardware key stays pinned forever -- *)
    | Lint.Unbalanced { vkey; _ } ->
        replay_prefix env f.Lint.witness;
        let pins = Libmpk.Key_cache.pins (Libmpk.cache env.Stress.mpk) vkey in
        let depth =
          match group env vkey with Some g -> g.Libmpk.Group.begin_depth | None -> 0
        in
        if pins > 0 || depth > 0 then
          ( Confirmed,
            Printf.sprintf
              "thread exited with vkey %d still pinned (pins=%d, begin_depth=%d): \
               the hardware key can never be recycled"
              vkey pins depth )
        else (Unreproduced, "no pin survived the replayed path")
    (* -- W^X on the mapping: both rights globally live at once -- *)
    | Lint.Wx_mapping { vkey } ->
        replay_prefix env f.Lint.witness;
        let wx =
          match group env vkey with
          | Some g -> g.Libmpk.Group.prot.Perm.write && g.Libmpk.Group.prot.Perm.exec
          | None -> false
        in
        if wx then
          (Confirmed, Printf.sprintf "group vkey %d is globally writable and executable" vkey)
        else (Unreproduced, "group never held write+exec together")
    (* -- W^X on the fetch: instruction fetch out of writable memory -- *)
    | Lint.Wx_exec_writable { vkey; _ } ->
        let prefix, final = split_last_op f.Lint.witness in
        replay_prefix env prefix;
        let t = Stress.task env final.Ir.stid in
        let writable =
          match group env vkey with
          | None -> false
          | Some g -> (
              g.Libmpk.Group.prot.Perm.write
              ||
              match g.Libmpk.Group.state with
              | Libmpk.Group.Mapped k ->
                  Pkru.allows (Pkru.rights (Task.pkru t) k) ~write:true
              | Libmpk.Group.Unmapped -> false)
        in
        (match Stress.exec_step env final with
        | () when writable ->
            ( Confirmed,
              Printf.sprintf
                "fetch from vkey %d succeeded while the region was writable \
                 (PKRU never gates instruction fetch)"
                vkey )
        | () -> (Unreproduced, "region was not writable at the fetch")
        | exception _ -> (Unreproduced, "the fetch itself faulted"))
    (* -- WRPKRU gadget: jumping to it rewrites PKRU behind libmpk -- *)
    | Lint.Unsafe_wrpkru { vkey; offset } ->
        replay_prefix env f.Lint.witness;
        let t = Stress.task env 0 in
        (match Libmpk.Key_cache.free_keys (Libmpk.cache env.Stress.mpk) with
        | [] -> (Unreproduced, "no free hardware key to attack with")
        | k :: _ ->
            (* The attacker jumps to the unchecked WRPKRU with a chosen
               eax: model the effect as a direct PKRU write granting
               rights on a key libmpk believes is out of circulation.
               The invariant auditor must notice. *)
            let before = Task.pkru t in
            Cpu.set_pkru_direct (Task.core t)
              (Pkru.set_rights before k Pkru.Read_write);
            let caught = not (audit_clean env) in
            Cpu.set_pkru_direct (Task.core t) before;
            if caught then
              ( Confirmed,
                Printf.sprintf
                  "gadget at offset %d of vkey %d's stream grants rights on free \
                   key %d; auditor flags the corrupted PKRU (I1)"
                  offset vkey (Pkey.to_int k) )
            else (Unreproduced, "auditor did not object to the forged PKRU"))
    (* -- TOCTOU: revocation vs a descheduled thread's lazy sync -- *)
    | Lint.Toctou { vkey; victim; access } ->
        let prefix, final = split_last_op f.Lint.witness in
        replay_prefix env prefix;
        let vt = Stress.task env victim in
        let pkey_before =
          match group env vkey with
          | Some { Libmpk.Group.state = Libmpk.Group.Mapped k; _ } -> Some k
          | _ -> None
        in
        (* Deschedule the victim; the revocation can then only queue lazy
           task_work for it (paper Fig 7). *)
        Sched.schedule_out (Proc.sched env.Stress.proc) vt;
        Stress.exec_step env final;
        let stale =
          match pkey_before with
          | None -> false
          | Some k ->
              Pkru.allows
                (Pkru.rights (Task.pkru vt) k)
                ~write:(access = Lint.A_write)
        in
        if Task.work_pending vt > 0 && stale && audit_clean env then
          ( Confirmed,
            Printf.sprintf
              "after the revocation, descheduled thread %d still holds the revoked \
               %s right on vkey %d's key with %d task_work item(s) queued — the \
               window the auditor legally tolerates (I1) and the thread can use \
               until its lazy do_pkey_sync runs"
              victim
              (Lint.access_to_string access)
              vkey (Task.work_pending vt) )
        else
          ( Unreproduced,
            Printf.sprintf "no stale-rights window (work_pending=%d, stale=%b)"
              (Task.work_pending vt) stale )
    (* -- concurrency findings get a schedule search in [confirm] -- *)
    | Lint.Race _ | Lint.Deadlock _ | Lint.Atomicity _ | Lint.Unlock_unheld _ ->
        assert false
    (* -- imprecision findings have no single concrete failure -- *)
    | Lint.Maybe _ ->
        (Unreproduced, "imprecision finding (joined paths): nothing concrete to replay")
  with
  | Diverged (i, s, exn) -> (Unreproduced, diverged_note (i, s, exn))
  | Invalid_argument msg -> (Unreproduced, Printf.sprintf "replay setup failed: %s" msg)

(* --- concurrency findings: compilation to torture fibers --- *)

let slot_of_loc = function Ir.L_vma s -> Some s | _ -> None

let op_of_step ~victim (s : Ir.step) =
  match s.Ir.sop with
  | Ir.Load { loc } ->
      Option.map (fun slot -> Torture.Op_lookup { slot; off = 0 }) (slot_of_loc loc)
  | Ir.Store { loc } ->
      Option.map
        (fun slot ->
          if s.Ir.stid = victim then Torture.Op_protect { slot; ro = true }
          else Torture.Op_mmap { slot; pages = 1; ro = false })
        (slot_of_loc loc)
  | _ -> None

(* Group the witness by thread into per-fiber op lists. Fiber 0 is
   always main (tid 0): it runs first under the empty schedule, so its
   Op_mmap installs the mapping before anyone looks it up. *)
let fibers_of_witness ~victim (witness : Ir.step list) =
  let tids =
    List.sort_uniq compare (0 :: List.map (fun s -> s.Ir.stid) witness)
  in
  let ops_of tid =
    List.filter_map
      (fun s -> if s.Ir.stid = tid then op_of_step ~victim s else None)
      witness
  in
  Array.of_list (List.map ops_of tids)

let has_adversary_store ~victim (witness : Ir.step list) =
  List.exists
    (fun (s : Ir.step) ->
      s.Ir.stid <> victim
      && s.Ir.stid <> 0
      && match s.Ir.sop with Ir.Store _ -> true | _ -> false)
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
   the dry run's point count, until a run [matches]. The outcome's note
   is [confirmed] or [unconfirmed]. *)
let search ~fiber_ops ~cfg ~matches ~confirmed ~unconfirmed =
  let run schedule =
    Torture.run_once ~fiber_ops cfg ~schedule ()
  in
  let runs = ref 1 in
  let dry = run [] in
  let found = ref (if matches dry then Some [] else None) in
  let horizon = min (dry.Torture.points + 8) max_horizon in
  let tasks = Array.length fiber_ops in
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
  | Some _ as schedule -> { verdict = Confirmed; schedule; runs = !runs; note = confirmed }
  | None -> { verdict = Unreproduced; schedule = None; runs = !runs; note = unconfirmed }

let unreproduced note = { verdict = Unreproduced; schedule = None; runs = 0; note }

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
      search ~fiber_ops ~cfg
        ~matches:(fun o -> reason_mentions o [ "use-after-recycle" ])
        ~confirmed:note_confirmed
        ~unconfirmed:"no single-switch schedule fired the lookup oracle"

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
        search ~fiber_ops ~cfg
          ~matches:(fun o -> reason_mentions o [ "inversion"; "lock-order cycle"; "deadlock" ])
          ~confirmed:"dynamic lockdep flags the same inverted acquisition order"
          ~unconfirmed:"lockdep did not flag the inversion"
      end
      else
        unreproduced
          (Printf.sprintf "no harness mapping for cycle %s"
             (String.concat " -> " cycle))
  | Lint.Unlock_unheld { lk } ->
      if lk.Ir.lcls = "mm_lock" then begin
        let fiber_ops = [| [ Torture.Op_plant_release_held ] |] in
        search ~fiber_ops ~cfg:Torture.default_config
          ~matches:(fun o -> reason_mentions o [ "release" ])
          ~confirmed:"the kernel lock layer rejects the release"
          ~unconfirmed:"the release was not flagged"
      end
      else
        unreproduced
          (Printf.sprintf "no harness mapping for lock class %s" lk.Ir.lcls)
  | _ ->
      let verdict, note = confirm_sequential f in
      { verdict; schedule = None; runs = 1; note }

type crosscheck = {
  edges : (string * string) list;
  inversions : (string * string) list;
  cycles : string list list;
  unknown_classes : string list;
  uncovered : (string * string) list;
  ok : bool;
}

(* One torture run with the plant matching the model's, so dynamic
   lockdep observes the same protocol; then every dynamic inversion (both
   directions of a class pair in the observed order graph) must lie
   inside some static lock-order cycle. *)
let crosscheck ?plant program =
  let plant =
    match plant with
    | Some `Lock_order -> Torture.Plant_lock_order
    | Some (`Recycle | `Window) -> Torture.Plant_recycle
    | None -> Torture.No_plant
  in
  let cfg = { Torture.tasks = 2; ops = 16; slots = 2; seed = 1L; plant } in
  let edges = (Torture.run_once cfg ~schedule:[] ()).Torture.order_edges in
  let known = Lock.known_classes () in
  let unknown_classes = List.filter (fun c -> not (List.mem c known)) Mm_model.lock_classes in
  let inversions = List.filter (fun (a, b) -> a < b && List.mem (b, a) edges) edges in
  let cycles = Lint.static_lock_cycles program in
  let uncovered =
    List.filter
      (fun (a, b) -> not (List.exists (fun c -> List.mem a c && List.mem b c) cycles))
      inversions
  in
  let ok = uncovered = [] && unknown_classes = [] in
  { edges; inversions; cycles; unknown_classes; uncovered; ok }
