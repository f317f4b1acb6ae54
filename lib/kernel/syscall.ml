open Mpk_hw

let syscalls = ref 0

let count () = !syscalls

let enter task =
  incr syscalls;
  let core = Task.core task in
  Cpu.charge ~label:"kernel_entry" core (Cpu.costs core).kernel_entry_exit

(* A syscall's name and its span label, both built once rather than on
   every call. *)
type name = { name : string; span : string }

let named name = { name; span = "sys_" ^ name }
let sys_mmap = named "mmap"
let sys_munmap = named "munmap"
let sys_mprotect = named "mprotect"
let sys_pkey_alloc = named "pkey_alloc"
let sys_pkey_free = named "pkey_free"
let sys_pkey_mprotect = named "pkey_mprotect"
let sys_pkey_unmap_group = named "pkey_unmap_group"
let sys_pkey_sync = named "pkey_sync"

(* Each syscall below is a [do_] body, which starts with [enter], and a
   wrapper that runs it directly unless [Cpu.observed], so that an
   unobserved syscall builds neither a span nor a body closure. Observed,
   the body runs inside [sys]: a per-syscall tracing span plus
   Syscall_enter/Syscall_exit events, the exit carrying the errno when
   the body failed. [sys] itself charges nothing. *)
let sys task { name; span } f =
  let core = Task.core task in
  Cpu.span core span (fun () ->
      if Mpk_trace.Tracer.on () then
        Cpu.emit core (Mpk_trace.Event.Syscall_enter { name });
      match f () with
      | v ->
          if Mpk_trace.Tracer.on () then
            Cpu.emit core (Mpk_trace.Event.Syscall_exit { name; errno = None });
          v
      | exception (Errno.Error (e, _) as exn) ->
          if Mpk_trace.Tracer.on () then
            Cpu.emit core
              (Mpk_trace.Event.Syscall_exit { name; errno = Some (Errno.to_string e) });
          raise exn)

(* Charged on top of the plain mprotect path by pkey_mprotect: the bitmap
   validity check (Table 1: 1104.9 vs 1094.0 cycles). *)
let pkey_check_cost = 10.9

(* The caller's siblings are reached by walking [Proc.tasks] and skipping
   the caller, never through a filtered copy of the list. *)
let other task t = Task.id t <> Task.id task

let rec shootdown_each sched task = function
  | [] -> ()
  | t :: rest ->
      if other task t then Sched.shootdown sched ~from:task t;
      shootdown_each sched task rest

let shootdown_others proc task = shootdown_each (Proc.sched proc) task (Proc.tasks proc)

(* Lazy per-update notification: [count] kicks for every sibling. *)
let rec kick_each sched task ~count = function
  | [] -> ()
  | t :: rest ->
      if other task t then
        for _ = 1 to count do
          Sched.kick sched ~from:task t
        done;
      kick_each sched task ~count rest

let do_mmap proc task ?at ~len ~prot () =
  enter task;
  Mm.mmap (Proc.mm proc) (Task.core task) ?at ~len ~prot ()

let mmap proc task ?at ~len ~prot () =
  if Cpu.observed () then sys task sys_mmap (fun () -> do_mmap proc task ?at ~len ~prot ())
  else do_mmap proc task ?at ~len ~prot ()

let do_munmap proc task ~addr ~len =
  enter task;
  Mm.munmap (Proc.mm proc) (Task.core task) ~addr ~len;
  shootdown_others proc task

let munmap proc task ~addr ~len =
  if Cpu.observed () then sys task sys_munmap (fun () -> do_munmap proc task ~addr ~len)
  else do_munmap proc task ~addr ~len

(* Fault injection: a pkey_alloc that fails with ENOSPC even though the
   bitmap has free keys (e.g. another process raced us to them). *)
let fp_pkey_alloc = "syscall.pkey_alloc"
let () = Mpk_faultinj.declare fp_pkey_alloc

let alloc_key proc =
  if Mpk_faultinj.fire fp_pkey_alloc then
    Errno.fail ENOSPC "no free protection key (injected)";
  match Pkey_bitmap.alloc (Proc.pkey_bitmap proc) with
  | Some k -> k
  | None -> Errno.fail ENOSPC "no free protection key"

let is_exec_only (prot : Perm.t) = prot.exec && (not prot.read) && not prot.write

let mprotect_exec_only proc task ~addr ~len =
  (* Linux's execute-only memory: allocate (once) the process's
     execute-only key, map the range readable+executable at the PTE level
     but tagged with that key, and disable access in the caller's PKRU.
     Crucially, *other* threads' PKRUs are not synchronized. *)
  let core = Task.core task in
  let key =
    match Proc.xonly_key proc with
    | Some k -> k
    | None ->
        Cpu.charge ~label:"pkey_alloc_work" core (Cpu.costs core).pkey_alloc_work;
        let k = alloc_key proc in
        Proc.set_xonly_key proc k;
        k
  in
  Mm.change_protection_pkey (Proc.mm proc) core ~addr ~len ~prot:Perm.rx ~pkey:key;
  Task.set_pkru task (Pkru.set_rights (Task.pkru task) key Pkru.No_access);
  shootdown_others proc task

let do_mprotect proc task ~addr ~len ~prot =
  enter task;
  if is_exec_only prot then mprotect_exec_only proc task ~addr ~len
  else begin
    Mm.change_protection (Proc.mm proc) (Task.core task) ~addr ~len ~prot;
    shootdown_others proc task
  end

let mprotect proc task ~addr ~len ~prot =
  if Cpu.observed () then sys task sys_mprotect (fun () -> do_mprotect proc task ~addr ~len ~prot)
  else do_mprotect proc task ~addr ~len ~prot

let do_pkey_alloc proc task ~init_rights =
  enter task;
  let core = Task.core task in
  Cpu.charge ~label:"pkey_alloc_work" core (Cpu.costs core).pkey_alloc_work;
  let key = alloc_key proc in
  Task.set_pkru task (Pkru.set_rights (Task.pkru task) key init_rights);
  key

let pkey_alloc proc task ~init_rights =
  if Cpu.observed () then sys task sys_pkey_alloc (fun () -> do_pkey_alloc proc task ~init_rights)
  else do_pkey_alloc proc task ~init_rights

let do_pkey_free proc task key =
  enter task;
  let core = Task.core task in
  Cpu.charge ~label:"pkey_free_work" core (Cpu.costs core).pkey_free_work;
  (* Only the bitmap is updated: PTEs keep the stale key and every
     thread's PKRU keeps its stale rights — the paper's §3.1 hazard. *)
  Pkey_bitmap.free (Proc.pkey_bitmap proc) key

let pkey_free proc task key =
  if Cpu.observed () then sys task sys_pkey_free (fun () -> do_pkey_free proc task key)
  else do_pkey_free proc task key

let do_pkey_mprotect proc task ~addr ~len ~prot ~pkey =
  enter task;
  let core = Task.core task in
  Cpu.charge ~label:"pkey_bitmap_check" core pkey_check_cost;
  if Pkey.to_int pkey = 0 then
    Errno.fail EINVAL "pkey_mprotect: userspace may not assign the default key";
  if not (Pkey_bitmap.is_allocated (Proc.pkey_bitmap proc) pkey) then
    Errno.fail EINVAL "pkey_mprotect: key %d not allocated" (Pkey.to_int pkey);
  Mm.change_protection_pkey (Proc.mm proc) core ~addr ~len ~prot ~pkey;
  shootdown_others proc task

let pkey_mprotect proc task ~addr ~len ~prot ~pkey =
  if Cpu.observed () then
    sys task sys_pkey_mprotect (fun () -> do_pkey_mprotect proc task ~addr ~len ~prot ~pkey)
  else do_pkey_mprotect proc task ~addr ~len ~prot ~pkey

(* Deferred PKRU scrub/update, the paper's lazy do_pkey_sync: queueing the
   task_work is the "deferred" trace event; the update being applied on
   the target (at its next return to user) is the "executed" one. *)
let emit_deferred ~core target pkey =
  Cpu.emit core
    (Mpk_trace.Event.Pkey_sync_deferred { target = Task.id target; pkey = Pkey.to_int pkey })

let queue_pkru_update ~core target pkey rights =
  Cpu.charge ~label:"task_work_add" core (Cpu.costs core).task_work_add;
  if Mpk_trace.Tracer.on () then emit_deferred ~core target pkey;
  Task.work_add target pkey rights

(* Queue one update on every task but the caller. *)
let rec queue_on_others ~core task pkey rights = function
  | [] -> ()
  | t :: rest ->
      if other task t then queue_pkru_update ~core t pkey rights;
      queue_on_others ~core task pkey rights rest

(* Queue every update, in order, on every task but the caller, each
   copied in its packed form: it is decoded only for a trace event. *)
let rec queue_all_on_others ~core task updates = function
  | [] -> ()
  | t :: rest ->
      if other task t then
        for i = 0 to Task.Updates.length updates - 1 do
          Cpu.charge ~label:"task_work_add" core (Cpu.costs core).task_work_add;
          if Mpk_trace.Tracer.on () then emit_deferred ~core t (Task.Updates.pkey updates i);
          Task.work_add_nth t updates i
        done;
      queue_all_on_others ~core task updates rest

(* Shared tail of pkey_sync / pkey_sync_many, once [count] updates are
   queued on every other thread: notify them. Each handshake is charged
   exactly once:
   - lazy, batched: one IPI per distinct core with an on-CPU target
     (sender pays ipi_send per core, the core pays ipi_receive once);
   - lazy, per-update: one kick per target per update — [Sched.kick]
     itself carries the whole charge and is free for off-CPU targets;
   - eager, on-CPU target: the kick pays send (sender) + receive
     (target); the initiator additionally spin-waits one receive latency
     for the ack;
   - eager, off-CPU target: the sender pays the wakeup IPI + spin; the
     target pays its own context switch inside [schedule_in]. *)
let notify_others proc task ~eager ~count =
  let core = Task.core task in
  let costs = Cpu.costs core in
  let sched = Proc.sched proc in
  let tasks = Proc.tasks proc in
  if eager then
    List.iter
      (fun t ->
        if other task t then
          match Task.state t with
          | Task.On_cpu ->
              Sched.kick sched ~from:task t;
              Cpu.charge ~label:"ipi_spin" core costs.ipi_receive
          | Task.Off_cpu ->
              Cpu.charge ~label:"ipi_send" core costs.ipi_send;
              Cpu.charge ~label:"ipi_spin" core costs.ipi_receive;
              Sched.schedule_in sched t)
      tasks
  else if Proc.ipi_batching proc then Sched.kick_batch sched ~from:task ()
  else kick_each sched task ~count tasks

let do_pkey_unmap_group proc task ~addr ~len ~prot ~old_pkey =
  enter task;
  let core = Task.core task in
  Mm.change_protection_pkey (Proc.mm proc) core ~addr ~len ~prot ~pkey:Pkey.default;
  (* Scrub stale rights for the recycled key everywhere, caller included. *)
  Task.set_pkru task (Pkru.set_rights (Task.pkru task) old_pkey Pkru.No_access);
  let tasks = Proc.tasks proc in
  queue_on_others ~core task old_pkey Pkru.No_access tasks;
  if Proc.ipi_batching proc then
    (* One synchronous IPI per target core both drains the PKRU scrub
       and flushes the TLB — the per-update path below sends two. *)
    Sched.kick_batch (Proc.sched proc) ~from:task ~kind:"pkey_sync_shootdown" ~flush_tlb:true
      ~sync:true ()
  else begin
    List.iter (fun t -> if other task t then Sched.kick (Proc.sched proc) ~from:task t) tasks;
    shootdown_others proc task
  end

let pkey_unmap_group proc task ~addr ~len ~prot ~old_pkey =
  if Cpu.observed () then
    sys task sys_pkey_unmap_group (fun () ->
        do_pkey_unmap_group proc task ~addr ~len ~prot ~old_pkey)
  else do_pkey_unmap_group proc task ~addr ~len ~prot ~old_pkey

let do_pkey_sync proc task ~eager ~pkey rights =
  enter task;
  queue_on_others ~core:(Task.core task) task pkey rights (Proc.tasks proc);
  notify_others proc task ~eager ~count:1

let pkey_sync proc task ?(eager = false) ~pkey rights =
  if Cpu.observed () then
    sys task sys_pkey_sync (fun () -> do_pkey_sync proc task ~eager ~pkey rights)
  else do_pkey_sync proc task ~eager ~pkey rights

let do_pkey_sync_many proc task ~updates =
  enter task;
  queue_all_on_others ~core:(Task.core task) task updates (Proc.tasks proc);
  notify_others proc task ~eager:false ~count:(Task.Updates.length updates)

let pkey_sync_many proc task ~updates =
  if Cpu.observed () then sys task sys_pkey_sync (fun () -> do_pkey_sync_many proc task ~updates)
  else do_pkey_sync_many proc task ~updates
