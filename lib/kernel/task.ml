open Mpk_hw

(* A FIFO of PKRU updates, each (pkey, rights) pair packed into one int
   of a ring. The ring doubles when full and never shrinks, so once it
   has grown to the deepest backlog, adding and taking allocate nothing;
   its capacity stays a power of two, so [slot] masks instead of
   dividing. *)
module Updates = struct
  type t = { mutable ring : int array; mutable head : int; mutable len : int }

  let create () = { ring = Array.make 4 0; head = 0; len = 0 }
  let length q = q.len

  let clear q =
    q.head <- 0;
    q.len <- 0

  let code = function Pkru.No_access -> 0 | Pkru.Read_only -> 1 | Pkru.Read_write -> 2
  let pkey_of packed = Pkey.of_int (packed lsr 2)

  let rights_of packed =
    match packed land 3 with 0 -> Pkru.No_access | 1 -> Pkru.Read_only | _ -> Pkru.Read_write

  let slot q i = (q.head + i) land (Array.length q.ring - 1)

  let push q packed =
    let cap = Array.length q.ring in
    if q.len = cap then begin
      let ring = Array.make (2 * cap) 0 in
      for i = 0 to q.len - 1 do
        ring.(i) <- q.ring.(slot q i)
      done;
      q.ring <- ring;
      q.head <- 0
    end;
    q.ring.(slot q q.len) <- packed;
    q.len <- q.len + 1

  let add q pkey rights = push q ((Pkey.to_int pkey lsl 2) lor code rights)

  let nth q i =
    if i < 0 || i >= q.len then invalid_arg "Task.Updates: index out of range";
    q.ring.(slot q i)

  let pkey q i = pkey_of (nth q i)

  let drop_first q =
    if q.len = 0 then invalid_arg "Task.Updates.drop_first: empty";
    q.head <- slot q 1;
    q.len <- q.len - 1
end

type state = On_cpu | Off_cpu

type t = {
  id : int;
  core : Cpu.t;
  mutable state : state;
  mutable saved_pkru : Pkru.t;
  work : Updates.t;  (* task_work: the PKRU updates pending for this task *)
  mutable tlb_flush_pending : bool;
  mutable sig_handler : Signal.handler option;
  mutable last_kill : Signal.crash option;
}

let create ~id ~core () =
  {
    id;
    core;
    state = Off_cpu;
    saved_pkru = Pkru.init;
    work = Updates.create ();
    tlb_flush_pending = false;
    sig_handler = None;
    last_kill = None;
  }

let id t = t.id
let core t = t.core
let state t = t.state
let set_state t s = t.state <- s

let pkru t =
  match t.state with
  | On_cpu -> Cpu.pkru t.core
  | Off_cpu -> t.saved_pkru

let set_pkru t v =
  match t.state with
  | On_cpu -> Cpu.set_pkru_direct t.core v
  | Off_cpu -> t.saved_pkru <- v

let saved_pkru t = t.saved_pkru
let set_saved_pkru t v = t.saved_pkru <- v

let mark_tlb_flush t = t.tlb_flush_pending <- true
let clear_tlb_flush t = t.tlb_flush_pending <- false
let tlb_flush_pending t = t.tlb_flush_pending

let last_kill t = t.last_kill

let with_signal_handler t h f =
  let prev = t.sig_handler in
  t.sig_handler <- Some h;
  Fun.protect ~finally:(fun () -> t.sig_handler <- prev) f

let deliver_signal t (si : Signal.siginfo) =
  if Mpk_trace.Tracer.on () then
    Cpu.emit t.core
      (Mpk_trace.Event.Signal_delivered
         { task = t.id; signo = si.signo; code = Signal.code_to_string si.code });
  (match t.sig_handler with
  | Some handler -> handler si  (* escape by raising = siglongjmp idiom *)
  | None -> ());
  (* No handler, or the handler returned: the access would refault
     forever, so the default disposition kills the task. Record the
     crash first, snapshotting the flight recorder now: the core-dump
     capturer reads it after the unwind, when the recording may have
     closed or moved on. *)
  t.last_kill <- Some { Signal.si; blackbox = Signal.blackbox () };
  raise (Signal.Killed si)

let work_add t pkey rights = Updates.add t.work pkey rights
let work_add_nth t updates i = Updates.push t.work (Updates.nth updates i)

let work_pending t = Updates.length t.work

(* Each update leaves the queue before its charge, which is a preemption
   point: a preemption drains the rest at its [schedule_in], and this
   update is applied after them. *)
let work_run t =
  let costs = Cpu.costs t.core in
  while Updates.length t.work > 0 do
    let packed = Updates.nth t.work 0 in
    let pkey = Updates.pkey_of packed and rights = Updates.rights_of packed in
    Updates.drop_first t.work;
    Cpu.charge ~label:"task_work_run" t.core costs.task_work_run;
    set_pkru t (Pkru.set_rights (pkru t) pkey rights);
    if Mpk_trace.Tracer.on () then
      Cpu.emit t.core
        (Mpk_trace.Event.Pkey_sync_executed { target = t.id; pkey = Pkey.to_int pkey })
  done
