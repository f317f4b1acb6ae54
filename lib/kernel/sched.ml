open Mpk_hw

type t = {
  machine : Machine.t;
  mutable tasks : Task.t list;
  mutable by_core : Task.t array;  (* [tasks] by ascending core id, in task order within a core *)
  mutable next_id : int;
  sent : int array;  (* IPIs sent, by core id *)
  received : int array;  (* IPIs received, by core id *)
  mutable preempting : bool;  (* reentrancy guard for [preempt] *)
}

let create machine =
  let cores = Machine.core_count machine in
  {
    machine;
    tasks = [];
    by_core = [||];
    next_id = 0;
    sent = Array.make cores 0;
    received = Array.make cores 0;
    preempting = false;
  }


let note_ipi t ~sender_id ~target_id =
  t.sent.(sender_id) <- t.sent.(sender_id) + 1;
  t.received.(target_id) <- t.received.(target_id) + 1

let ipis_sent t = Array.fold_left ( + ) 0 t.sent

let ipis_per_core t =
  List.init (Array.length t.sent) (fun id -> (id, t.sent.(id), t.received.(id)))
  |> List.filter (fun (_, sent, received) -> sent > 0 || received > 0)

let return_to_user task = Task.work_run task

let schedule_in _t task =
  match Task.state task with
  | Task.On_cpu -> ()
  | Task.Off_cpu ->
      let core = Task.core task in
      Cpu.charge ~label:"context_switch" core (Cpu.costs core).context_switch;
      Cpu.set_pkru_direct core (Task.saved_pkru task);
      Task.set_state task On_cpu;
      (* Deferred TLB shootdown: a lazy shootdown aimed at this task while
         it was off-CPU marked it instead of sending an IPI; the flush is
         paid for here, where the eager path would have charged the
         target. *)
      if Task.tlb_flush_pending task then begin
        Cpu.charge ~label:"tlb_flush_deferred" core (Cpu.costs core).tlb_flush_all;
        Tlb.flush_all (Cpu.tlb core);
        Task.clear_tlb_flush task;
        if Mpk_trace.Tracer.on () then
          Cpu.emit core (Mpk_trace.Event.Tlb_flush { pages = 0; all = true })
      end;
      Cpu.set_task core (Task.id task);
      if Mpk_trace.Tracer.on () then
        Cpu.emit core (Mpk_trace.Event.Context_switch { task = Task.id task; onto = true });
      return_to_user task

let schedule_out _t task =
  match Task.state task with
  | Task.Off_cpu -> ()
  | Task.On_cpu ->
      let core = Task.core task in
      Cpu.charge ~label:"context_switch" core (Cpu.costs core).context_switch;
      Task.set_saved_pkru task (Cpu.pkru core);
      Task.set_state task Off_cpu;
      if Mpk_trace.Tracer.on () then
        Cpu.emit core (Mpk_trace.Event.Context_switch { task = Task.id task; onto = false });
      Cpu.set_task core (-1)

let spawn t ~core_id =
  let core = Machine.core t.machine core_id in
  let task = Task.create ~id:t.next_id ~core () in
  t.next_id <- t.next_id + 1;
  t.tasks <- t.tasks @ [ task ];
  t.by_core <- Array.of_list t.tasks;
  Array.stable_sort (fun a b -> Int.compare (Cpu.id (Task.core a)) (Cpu.id (Task.core b))) t.by_core;
  schedule_in t task;
  task

let tasks t = t.tasks

let on_cpu_at task ~core_id = Task.state task = Task.On_cpu && Cpu.id (Task.core task) = core_id

let task_on t ~core_id = List.find_opt (fun task -> on_cpu_at task ~core_id) t.tasks

let rec busy tasks ~core_id =
  match tasks with
  | [] -> false
  | task :: rest -> on_cpu_at task ~core_id || busy rest ~core_id

(* An off-CPU task's stale TLB entries: if no task runs on its core,
   nothing can touch them before the flush its next [schedule_in] pays
   for, so they are dropped now, for free, matching the eager path's
   visible TLB state. *)
let drop_if_idle t task =
  let core = Task.core task in
  if not (busy t.tasks ~core_id:(Cpu.id core)) then Tlb.flush_all (Cpu.tlb core)

(* Forced preemption (fault injection): bounce the on-CPU task through a
   schedule_out/schedule_in pair. Context switches themselves charge
   cycles — and charged events are where forced preemption fires — so a
   reentrancy guard keeps the bounce from recursing. The guard is
   per-scheduler: a nested simulated machine (stress runs, torture
   harnesses) preempting must not suppress preemption on this one. *)
let preempt t ~core_id =
  if not t.preempting then
    match task_on t ~core_id with
    | None -> ()
    | Some task ->
        t.preempting <- true;
        Fun.protect
          ~finally:(fun () -> t.preempting <- false)
          (fun () ->
            schedule_out t task;
            schedule_in t task)

let kick t ~from target =
  match Task.state target with
  | Task.Off_cpu -> ()
      (* lazy: no IPI is sent at all — the queued work runs at the
         target's next [schedule_in], so neither side pays anything here *)
  | Task.On_cpu ->
      let sender = Task.core from in
      let core = Task.core target in
      Cpu.charge ~label:"ipi_send" sender (Cpu.costs sender).ipi_send;
      note_ipi t ~sender_id:(Cpu.id sender) ~target_id:(Cpu.id core);
      if Mpk_trace.Tracer.on () then
        Cpu.emit sender (Mpk_trace.Event.Ipi { kind = "resched_kick"; target_core = Cpu.id core });
      Cpu.charge ~label:"ipi_receive" core (Cpu.costs core).ipi_receive;
      return_to_user target

(* [kick_batch] targets every task but the sender. *)
let is_target ~from tk = Task.id tk <> Task.id from

let rec mark_off_cpu t ~from = function
  | [] -> ()
  | tk :: rest ->
      if Task.state tk = Task.Off_cpu && is_target ~from tk then begin
        Task.mark_tlb_flush tk;
        drop_if_idle t tk
      end;
      mark_off_cpu t ~from rest

(* The IPI that kicks [core]. *)
let ipi t ~from ~kind ~flush_tlb core =
  let sender = Task.core from in
  let id = Cpu.id core in
  Cpu.charge ~label:"ipi_send" sender (Cpu.costs sender).ipi_send;
  note_ipi t ~sender_id:(Cpu.id sender) ~target_id:id;
  if Mpk_trace.Tracer.on () then Cpu.emit sender (Mpk_trace.Event.Ipi { kind; target_core = id });
  Cpu.charge ~label:"ipi_receive" core (Cpu.costs core).ipi_receive;
  if flush_tlb then begin
    Tlb.flush_all (Cpu.tlb core);
    if Mpk_trace.Tracer.on () then
      Cpu.emit core (Mpk_trace.Event.Tlb_flush { pages = 0; all = true })
  end

(* One pass over [by_core] from index [i]: the first on-CPU target of
   each core takes that core's IPI, and every on-CPU target drains under
   it, so cores are kicked in ascending order and a core's targets drain
   in task order. [last] is the core kicked last; returns the cores
   kicked. *)
let rec kick_cores t ~from ~kind ~flush_tlb ~last kicked i =
  if i = Array.length t.by_core then kicked
  else
    let tk = t.by_core.(i) in
    if Task.state tk = Task.On_cpu && is_target ~from tk then begin
      let core = Task.core tk in
      let fresh = Cpu.id core <> last in
      if fresh then ipi t ~from ~kind ~flush_tlb core;
      return_to_user tk;
      kick_cores t ~from ~kind ~flush_tlb ~last:(Cpu.id core)
        (if fresh then kicked + 1 else kicked)
        (i + 1)
    end
    else kick_cores t ~from ~kind ~flush_tlb ~last kicked (i + 1)

let kick_batch t ~from ?(kind = "pkey_sync_batch") ?(flush_tlb = false) ?(sync = false) () =
  (* Off-CPU targets never see an IPI: their queued work runs at the next
     [schedule_in], which (for shootdown batches) also performs the
     deferred flush. *)
  if flush_tlb then mark_off_cpu t ~from t.tasks;
  (* One IPI per distinct core holding at least one on-CPU target: every
     pending update queued on every task of that core drains under a
     single interrupt. *)
  let kicked = kick_cores t ~from ~kind ~flush_tlb ~last:(-1) 0 0 in
  (* A synchronous batch spin-waits for the acks; the sends overlap, so
     the initiator pays a single receive-latency wait regardless of
     fan-out. *)
  if sync && kicked > 0 then begin
    let sender = Task.core from in
    Cpu.charge ~label:"ipi_spin" sender (Cpu.costs sender).ipi_receive
  end

let shootdown t ~from target =
  match Task.state target with
  | Task.Off_cpu ->
      (* Lazy shootdown: no IPI. The task is marked so its next
         [schedule_in] charges for and performs the flush. *)
      Task.mark_tlb_flush target;
      drop_if_idle t target
  | Task.On_cpu ->
      let sender = Task.core from in
      let costs = Cpu.costs sender in
      (* The initiator spin-waits for the acknowledgement. *)
      Cpu.charge_sum sender ~label:"ipi_send" costs.ipi_send costs.ipi_receive;
      let core = Task.core target in
      note_ipi t ~sender_id:(Cpu.id sender) ~target_id:(Cpu.id core);
      if Mpk_trace.Tracer.on () then
        Cpu.emit sender
          (Mpk_trace.Event.Ipi { kind = "tlb_shootdown"; target_core = Cpu.id core });
      Cpu.charge ~label:"ipi_receive" core (Cpu.costs core).ipi_receive;
      Tlb.flush_all (Cpu.tlb core);
      if Mpk_trace.Tracer.on () then
        Cpu.emit core (Mpk_trace.Event.Tlb_flush { pages = 0; all = true })
