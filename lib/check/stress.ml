open Mpk_hw
open Mpk_kernel
open Mpk_analysis

type config = {
  hw_keys : int;
  tasks : int;
  evict_rate : float;
  seed : int64;
  faults : (string * Mpk_faultinj.plan) list;
}

let default_config = { hw_keys = 15; tasks = 2; evict_rate = 1.0; seed = 1L; faults = [] }

(* --- one machine builder, one executor --- *)

type env = {
  mpk : Libmpk.t;
  proc : Proc.t;
  tasks : (int, Task.t) Hashtbl.t;
  allocs : (int, int list) Hashtbl.t;
}

let make_env (cfg : config) ~cores =
  let machine = Machine.create ~cores ~mem_mib:128 () in
  let proc = Proc.create machine in
  let tasks = Hashtbl.create 4 in
  for i = 0 to max 1 cfg.tasks - 1 do
    Hashtbl.replace tasks i (Proc.spawn proc ~core_id:i ())
  done;
  let mpk =
    Libmpk.init ~hw_keys:cfg.hw_keys ~evict_rate:cfg.evict_rate
      ~default_heap_bytes:(16 * Physmem.page_size) ~seed:cfg.seed proc
      (Hashtbl.find tasks 0)
  in
  { mpk; proc; tasks; allocs = Hashtbl.create 16 }

let task env tid =
  match Hashtbl.find_opt env.tasks tid with
  | Some t -> t
  | None -> invalid_arg (Printf.sprintf "thread %d never spawned" tid)

let group_base env vkey =
  match Libmpk.find_group env.mpk vkey with
  | Some g -> g.Libmpk.Group.base
  | None -> invalid_arg (Printf.sprintf "vkey %d has no group" vkey)

let live_allocs env vkey = Option.value ~default:[] (Hashtbl.find_opt env.allocs vkey)

(* Labels and joins are structural no-ops; spawned threads inherit the
   spawner's PKRU like a real clone(2) does, which is what makes the
   TOCTOU witness replayable. *)
let exec_step env (s : Ir.step) =
  let t = task env s.Ir.stid in
  let mmu = Proc.mmu env.proc in
  match s.Ir.sop with
  | Ir.Mmap { vkey; pages; prot } ->
      ignore (Libmpk.mpk_mmap env.mpk t ~vkey ~len:(pages * Physmem.page_size) ~prot)
  | Ir.Free { vkey } ->
      Libmpk.mpk_munmap env.mpk t ~vkey;
      Hashtbl.remove env.allocs vkey
  | Ir.Begin { vkey; prot } -> Libmpk.mpk_begin env.mpk t ~vkey ~prot
  | Ir.End { vkey } -> Libmpk.mpk_end env.mpk t ~vkey
  | Ir.Mprotect { vkey; prot } -> Libmpk.mpk_mprotect env.mpk t ~vkey ~prot
  | Ir.Malloc { vkey; size } ->
      let addr = Libmpk.mpk_malloc env.mpk t ~vkey ~size in
      Hashtbl.replace env.allocs vkey (addr :: live_allocs env vkey)
  | Ir.Mfree { vkey; nth } -> (
      match live_allocs env vkey with
      | [] -> ()  (* nothing recorded to free *)
      | live ->
          let addr = List.nth live (nth mod List.length live) in
          Hashtbl.replace env.allocs vkey (List.filter (fun a -> a <> addr) live);
          Libmpk.mpk_free env.mpk t ~vkey ~addr)
  | Ir.Read { vkey } -> ignore (Mmu.read_byte mmu (Task.core t) ~addr:(group_base env vkey))
  | Ir.Write { vkey } -> Mmu.write_byte mmu (Task.core t) ~addr:(group_base env vkey) 'w'
  | Ir.Emit { vkey; code } ->
      (* one placeholder byte per instruction, through the MMU so the
         write obeys (and exercises) the current PKRU state *)
      let base = group_base env vkey in
      List.iteri (fun i (_ : Ir.insn) -> Mmu.write_byte mmu (Task.core t) ~addr:(base + i) 'e') code
  | Ir.Exec { vkey } -> ignore (Mmu.fetch mmu (Task.core t) ~addr:(group_base env vkey) ~len:1)
  | Ir.Spawn { tid } ->
      if not (Hashtbl.mem env.tasks tid) then
        Hashtbl.replace env.tasks tid (Proc.spawn env.proc ~inherit_from:t ~core_id:tid ())
  | Ir.Join { tid = _ } | Ir.Label _ -> ()
  | Ir.Lock _ | Ir.Unlock _ | Ir.Load _ | Ir.Store _ ->
      (* kernel-internal protocol steps: the live API takes its own
         locks around its own shared state, so a step can't drive them
         individually — Witness compiles these to torture fibers
         instead *)
      ()

(* --- random traffic --- *)

(* Generated steps draw vkeys from 1..8 and group sizes from 1..4 pages. *)
let vkeys = 8
let max_pages = 4
let mmap_prots = [| Perm.rw; Perm.r; Perm.rwx |]
let begin_prots = [| Perm.r; Perm.rw; Perm.rx |]

(* The last one is the execute-only transition (served by the reserved key). *)
let mprotect_prots = [| Perm.none; Perm.r; Perm.rw; Perm.rx; Perm.x_only |]

let gen_ops (cfg : config) n =
  let prng = Mpk_util.Prng.create ~seed:cfg.seed in
  let int bound = Mpk_util.Prng.int prng bound in
  let pick prots = prots.(int (Array.length prots)) in
  (* Each step draws its operands, then its task, then its vkey. Any
     other order makes every seed name a different trace. *)
  let step sop =
    let stid = int (max 1 cfg.tasks) in
    let vkey = 1 + int vkeys in
    { Ir.stid; sop = sop vkey }
  in
  List.init n (fun _ ->
      let r = int 100 in
      if r < 14 then (
        let prot = pick mmap_prots in
        let pages = 1 + int max_pages in
        step (fun vkey -> Ir.Mmap { vkey; pages; prot }))
      else if r < 22 then step (fun vkey -> Ir.Free { vkey })
      else if r < 42 then (
        let prot = pick begin_prots in
        step (fun vkey -> Ir.Begin { vkey; prot }))
      else if r < 62 then step (fun vkey -> Ir.End { vkey })
      else if r < 74 then (
        let prot = pick mprotect_prots in
        step (fun vkey -> Ir.Mprotect { vkey; prot }))
      else if r < 82 then (
        let size = 16 + int 2048 in
        step (fun vkey -> Ir.Malloc { vkey; size }))
      else if r < 88 then (
        let nth = int 8 in
        step (fun vkey -> Ir.Mfree { vkey; nth }))
      else step (fun vkey -> Ir.Read { vkey }))

(* --- the audited run --- *)

type kind = Violations of Audit.violation list | Crash of string

type failure = { index : int; step : Ir.step; kind : kind; blackbox : string list }

type passed = { applied : int; benign_errors : int; fired : Mpk_faultinj.stats list }

type outcome = Passed of passed | Failed of failure

exception Stop of failure

let run (cfg : config) steps =
  (* Fresh vma slab: replayability from (cfg, steps) must not depend on
     what earlier runs left on the process-global free-list. *)
  Vma.slab_reset ();
  (* Flight recorder: a failure dumps the events leading up to it (the
     black box reads the open recording). Event emission charges no
     cycles, so tracing cannot perturb the (deterministic) run itself.
     Lock-discipline watchdog: the post-op audit folds lockdep findings
     in as I7, so a stress run also vets lock ordering on every path it
     exercises. Inside a caller's own recording, the run records there. *)
  fst @@ Lockdep.record @@ fun () ->
  fst @@ Mpk_trace.Tracer.record @@ fun () ->
  let env = make_env cfg ~cores:(max 1 cfg.tasks) in
  let benign = ref 0 in
  (* The black box is rendered while the failing run's recording is open. *)
  let stop index step kind = Stop { index; step; kind; blackbox = Signal.blackbox () } in
  let audit index step =
    match Audit.run env.mpk with
    | [] -> ()
    | violations -> raise (stop index step (Violations violations))
  in
  (* A read is a benign touch: with no group there is nothing to read,
     and a denial is a legal outcome, not an API error. *)
  let apply (s : Ir.step) =
    match s.Ir.sop with
    | Ir.Read { vkey } when Libmpk.find_group env.mpk vkey = None -> ()
    | Ir.Read _ -> ( try exec_step env s with Mmu.Fault _ | Signal.Killed _ -> ())
    | _ -> exec_step env s
  in
  (* Injection must not perturb setup, so the plans are armed after
     init; every run arms them afresh from the config, so a given
     (cfg, steps) pair is fully deterministic — which is what lets
     [minimize] replay candidate traces meaningfully. *)
  match
    Mpk_faultinj.inject ~seed:cfg.seed cfg.faults @@ fun () ->
    (* initial state must be clean *)
    audit (-1) { Ir.stid = 0; sop = Ir.Read { vkey = 0 } };
    List.iteri
      (fun index step ->
        (match apply step with
        | () -> ()
        | exception Libmpk.Key_exhausted -> incr benign
        | exception Errno.Error _ -> incr benign
        | exception Libmpk.Unregistered_vkey _ -> incr benign
        (* Injected faults surface as signals (pkey/OOM kills) or raw
           OOM from the allocator; the API must stay consistent after
           them — which the post-op audit checks — but the errors
           themselves are expected. *)
        | exception Signal.Killed _ -> incr benign
        | exception Out_of_memory -> incr benign
        | exception exn -> raise (stop index step (Crash (Printexc.to_string exn))));
        audit index step)
      steps
  with
  | (), fired -> Passed { applied = List.length steps; benign_errors = !benign; fired }
  | exception Stop f -> Failed f

(* Everything after the failing step is irrelevant; ddmin does the rest. *)
let minimize cfg steps failure =
  let fails steps = match run cfg steps with Failed _ -> true | Passed _ -> false in
  Ddmin.minimize ~fails (List.filteri (fun i _ -> i <= failure.index) steps)

let report cfg ~ops_total failure minimized =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "audit FAILED at op %d: %s\n" failure.index (Ir.step_to_string failure.step));
  (match failure.kind with
  | Violations vs ->
      List.iter
        (fun v -> Buffer.add_string buf (Format.asprintf "  %a\n" Audit.pp_violation v))
        vs
  | Crash msg -> Buffer.add_string buf (Printf.sprintf "  unexpected exception: %s\n" msg));
  let spec =
    match cfg.faults with
    | [] -> ""
    | faults ->
        Printf.sprintf " --spec '%s'"
          (String.concat ","
             (List.map (fun (n, p) -> n ^ Mpk_faultinj.plan_to_string p) faults))
  in
  Buffer.add_string buf
    (Printf.sprintf
       "replay: mpkctl %s --ops %d --seed %Ld --hw-keys %d --tasks %d --evict-rate %g%s\n"
       (if cfg.faults = [] then "audit" else "faults")
       ops_total cfg.seed cfg.hw_keys cfg.tasks cfg.evict_rate spec);
  Buffer.add_string buf
    (Printf.sprintf "minimized trace (%d ops):\n" (List.length minimized));
  List.iteri
    (fun i s -> Buffer.add_string buf (Printf.sprintf "  %3d: %s\n" i (Ir.step_to_string s)))
    minimized;
  Buffer.add_string buf "as analyzer IR (mpkctl lint vocabulary):\n";
  Buffer.add_string buf
    (Format.asprintf "%a" Ir.pp_program
       (Ir.of_trace ~name:"minimized-stress-trace" minimized));
  (match failure.blackbox with
  | [] -> ()
  | lines ->
      Buffer.add_string buf
        (Printf.sprintf "black box (last %d trace events before the failure):\n"
           (List.length lines));
      List.iter (fun l -> Buffer.add_string buf ("  " ^ l ^ "\n")) lines);
  Buffer.contents buf

let check cfg ~ops =
  let steps = gen_ops cfg ops in
  match run cfg steps with
  | Passed p -> Ok p
  | Failed f -> Error (report cfg ~ops_total:ops f (minimize cfg steps f))
