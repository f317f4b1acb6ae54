(* Witness replay: execute a static finding's path witness on the live
   simulator and ask whether the violation is real.

   The static analyzer (Mpk_analysis.Lint) works on an abstract protocol
   model; this module closes the static/dynamic gap. Each finding carries
   a concrete entry-to-violation path; we build a fresh machine, drive the
   libmpk API along that path, and judge the outcome with an oracle
   specific to the violation class — the PR 2 invariant auditor where the
   damage is internal-state corruption, API errors / MMU faults where the
   simulator itself rejects the operation, and direct kernel-state probes
   (pinned keys, queued task_work, stale PKRU) for the rest. A finding
   the simulator cannot be made to exhibit is reported [Unreproduced] —
   static noise, not a bug. *)

open Mpk_hw
open Mpk_kernel
open Mpk_analysis

type verdict = Confirmed | Unreproduced

let verdict_to_string = function
  | Confirmed -> "CONFIRMED"
  | Unreproduced -> "UNREPRODUCED"

(* --- replay environment --- *)

type env = {
  mpk : Libmpk.t;
  proc : Proc.t;
  mmu : Mmu.t;
  tasks : (int, Task.t) Hashtbl.t;  (* IR tid -> simulated task *)
  main : Task.t;
}

let task env tid =
  match Hashtbl.find_opt env.tasks tid with
  | Some t -> t
  | None -> invalid_arg (Printf.sprintf "Replay: thread %d never spawned" tid)

let make_env (witness : Lint.step list) =
  let max_tid =
    List.fold_left
      (fun acc (s : Lint.step) ->
        let t =
          match s.Lint.sop with
          | Ir.Spawn { tid } | Ir.Join { tid } -> max s.Lint.stid tid
          | _ -> s.Lint.stid
        in
        max acc t)
      0 witness
  in
  let machine = Machine.create ~cores:(max_tid + 1) ~mem_mib:128 () in
  let proc = Proc.create machine in
  let main = Proc.spawn proc ~core_id:0 () in
  let mpk = Libmpk.init ~evict_rate:1.0 ~seed:1L proc main in
  let tasks = Hashtbl.create 4 in
  Hashtbl.replace tasks 0 main;
  { mpk; proc; mmu = Proc.mmu proc; tasks; main }

let group_base env vkey =
  match Libmpk.find_group env.mpk vkey with
  | Some g -> g.Libmpk.Group.base
  | None -> invalid_arg (Printf.sprintf "Replay: vkey %d has no group" vkey)

(* Execute one witness step. Steps that the IR treats as structural
   (labels, joins) are no-ops; spawned threads inherit the spawner's PKRU
   like a real clone(2) does, which is what makes the TOCTOU scenario
   replayable. *)
let exec_step env (s : Lint.step) =
  let t = task env s.Lint.stid in
  match s.Lint.sop with
  | Ir.Mmap { vkey; pages; prot } ->
      ignore
        (Libmpk.mpk_mmap env.mpk t ~vkey ~len:(pages * Physmem.page_size) ~prot)
  | Ir.Free { vkey } -> Libmpk.mpk_munmap env.mpk t ~vkey
  | Ir.Begin { vkey; prot } -> Libmpk.mpk_begin env.mpk t ~vkey ~prot
  | Ir.End { vkey } -> Libmpk.mpk_end env.mpk t ~vkey
  | Ir.Mprotect { vkey; prot } -> Libmpk.mpk_mprotect env.mpk t ~vkey ~prot
  | Ir.Read { vkey } ->
      ignore (Mmu.read_byte env.mmu (Task.core t) ~addr:(group_base env vkey))
  | Ir.Write { vkey } ->
      Mmu.write_byte env.mmu (Task.core t) ~addr:(group_base env vkey) 'w'
  | Ir.Emit { vkey; code } ->
      (* one placeholder byte per instruction, through the MMU so the
         write obeys (and exercises) the current PKRU state *)
      let base = group_base env vkey in
      List.iteri
        (fun i (_ : Ir.insn) ->
          Mmu.write_byte env.mmu (Task.core t) ~addr:(base + i) 'e')
        code
  | Ir.Exec { vkey } ->
      ignore (Mmu.fetch env.mmu (Task.core t) ~addr:(group_base env vkey) ~len:1)
  | Ir.Spawn { tid } ->
      if not (Hashtbl.mem env.tasks tid) then
        Hashtbl.replace env.tasks tid
          (Proc.spawn env.proc ~inherit_from:t ~core_id:tid ())
  | Ir.Join { tid = _ } | Ir.Label _ -> ()
  | Ir.Lock _ | Ir.Unlock _ | Ir.Load _ | Ir.Store _ ->
      (* kernel-internal protocol steps: the live API takes its own
         locks around its own shared state, so a witness can't drive
         them individually — Witness compiles these to torture fibers
         instead *)
      ()

(* --- oracles --- *)

exception Diverged of int * Lint.step * exn

let replay_prefix env steps =
  List.iteri
    (fun i s -> try exec_step env s with exn -> raise (Diverged (i, s, exn)))
    steps

let diverged_note (i, (s : Lint.step), exn) =
  Printf.sprintf "witness diverged at step %d: %s raised %s" i
    (Ir.op_to_string s.Lint.sop) (Printexc.to_string exn)

(* The violating op itself must be rejected by the live system: the API
   errors out or the MMU faults. *)
let expect_rejection env final =
  match exec_step env final with
  | () ->
      ( Unreproduced,
        Printf.sprintf "final op '%s' succeeded on the simulator"
          (Ir.op_to_string final.Lint.sop) )
  | exception Errno.Error (e, m) ->
      (Confirmed, Printf.sprintf "API rejected it: %s (%s)" (Errno.to_string e) m)
  | exception Libmpk.Unregistered_vkey v ->
      (Confirmed, Printf.sprintf "API rejected vkey %d" v)
  | exception Mmu.Fault f ->
      (Confirmed, Printf.sprintf "MMU fault: %s" (Mmu.fault_to_string f))
  | exception Signal.Killed s ->
      (Confirmed, Printf.sprintf "delivered fatal signal %s" (Signal.to_string s))
  | exception Invalid_argument m -> (Confirmed, m)

let audit_clean env = Audit.run env.mpk = []

let split_last steps =
  match List.rev steps with
  | [] -> invalid_arg "Replay: empty witness"
  | last :: rev_prefix -> (List.rev rev_prefix, last)

(* Trailing structural steps (the exit label) carry no behaviour; the
   last *operational* step is the one the oracle cares about. *)
let split_last_op steps =
  let rec strip = function
    | { Lint.sop = Ir.Label _; _ } :: rest -> strip rest
    | steps -> steps
  in
  match strip (List.rev steps) with
  | [] -> invalid_arg "Replay: witness has no operations"
  | last :: rev_prefix -> (List.rev rev_prefix, last)

let confirm (f : Lint.finding) =
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
              (Ir.op_to_string s.Lint.sop)
              (Printexc.to_string exn) ))
    (* -- leak: the group outlives the program -- *)
    | Lint.Leak_on_exit { vkey } ->
        replay_prefix env f.Lint.witness;
        if Libmpk.find_group env.mpk vkey <> None && audit_clean env then
          (Confirmed, Printf.sprintf "vkey %d still holds a live page group at exit" vkey)
        else (Unreproduced, "group was gone at program exit")
    (* -- leaked begin: the hardware key stays pinned forever -- *)
    | Lint.Unbalanced { vkey; _ } ->
        replay_prefix env f.Lint.witness;
        let pins = Libmpk.Key_cache.pins (Libmpk.cache env.mpk) vkey in
        let depth =
          match Libmpk.find_group env.mpk vkey with
          | Some g -> g.Libmpk.Group.begin_depth
          | None -> 0
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
          match Libmpk.find_group env.mpk vkey with
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
        let t = task env final.Lint.stid in
        let writable =
          match Libmpk.find_group env.mpk vkey with
          | None -> false
          | Some g -> (
              g.Libmpk.Group.prot.Perm.write
              ||
              match g.Libmpk.Group.state with
              | Libmpk.Group.Mapped k ->
                  Pkru.allows (Pkru.rights (Task.pkru t) k) ~write:true
              | Libmpk.Group.Unmapped -> false)
        in
        (match exec_step env final with
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
        let t = env.main in
        (match Libmpk.Key_cache.free_keys (Libmpk.cache env.mpk) with
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
        let vt = task env victim in
        let pkey_before =
          match Libmpk.find_group env.mpk vkey with
          | Some { Libmpk.Group.state = Libmpk.Group.Mapped k; _ } -> Some k
          | _ -> None
        in
        (* Deschedule the victim; the revocation can then only queue lazy
           task_work for it (paper Fig 7). *)
        Sched.schedule_out (Proc.sched env.proc) vt;
        exec_step env final;
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
    (* -- concurrency findings need an interleaving: Witness.confirm
       searches for one and never hands them here -- *)
    | Lint.Race _ | Lint.Deadlock _ | Lint.Atomicity _ | Lint.Unlock_unheld _ ->
        assert false
    (* -- imprecision findings have no single concrete failure -- *)
    | Lint.Maybe _ ->
        ignore (split_last f.Lint.witness);
        (Unreproduced, "imprecision finding (joined paths): nothing concrete to replay")
  with
  | Diverged (i, s, exn) -> (Unreproduced, diverged_note (i, s, exn))
  | Invalid_argument msg -> (Unreproduced, Printf.sprintf "replay setup failed: %s" msg)
