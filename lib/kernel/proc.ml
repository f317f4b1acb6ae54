open Mpk_hw

type t = {
  machine : Machine.t;
  mm : Mm.t;
  sched : Sched.t;
  pkeys : Pkey_bitmap.t;
  ipi_batching : bool;
  mutable xonly : Pkey.t option;
}

let create ?(ipi_batching = true) machine =
  let mm = Mm.create (Machine.mem machine) in
  let sched = Sched.create machine in
  (* Signal delivery: an unresolved user fault traps to the kernel, which
     classifies it into a siginfo (SEGV_PKUERR carries the page's key)
     and delivers it to the task on the faulting core. Cores with no task
     (bare-hardware use) fall back to the raw [Mmu.Fault]. *)
  Mmu.set_fault_sink (Mm.mmu mm) (fun cpu (fault : Mmu.fault) ->
      match Sched.task_on sched ~core_id:(Cpu.id cpu) with
      | None -> ()
      | Some task ->
          Cpu.charge ~label:"kernel_entry" cpu (Cpu.costs cpu).kernel_entry_exit;
          let pkey =
            match fault.Mmu.cause with
            | Mmu.Pkey_denied ->
                let vpn = Page_table.vpn_of_addr fault.Mmu.addr in
                Pkey.to_int (Pte.pkey (Page_table.get (Mm.page_table mm) ~vpn))
            | _ -> 0
          in
          Task.deliver_signal task (Signal.of_fault fault ~pkey));
  (* Injected preemption ("sched.preempt") on this machine's cores
     bounces the current task through a real schedule_out/in pair. On a
     core where this process has no task the replaced hook runs, so an
     earlier process on the machine (the JIT beside SDCG's emitter)
     still preempts its own. *)
  Array.iter
    (fun cpu ->
      let outer = Cpu.preempt_hook cpu in
      Cpu.set_preempt cpu (fun core_id ->
          match Sched.task_on sched ~core_id with
          | Some _ -> Sched.preempt sched ~core_id
          | None -> outer core_id))
    (Machine.cores machine);
  { machine; mm; sched; pkeys = Pkey_bitmap.create (); ipi_batching; xonly = None }

let machine t = t.machine
let mm t = t.mm
let mmu t = Mm.mmu t.mm
let sched t = t.sched
let pkey_bitmap t = t.pkeys
let ipi_batching t = t.ipi_batching
let tasks t = Sched.tasks t.sched

let spawn t ?inherit_from ~core_id () =
  let task = Sched.spawn t.sched ~core_id in
  (match inherit_from with
  | Some parent -> Task.set_pkru task (Task.pkru parent)
  | None -> ());
  task

let xonly_key t = t.xonly
let set_xonly_key t k = t.xonly <- Some k
