(* A small CFG-based IR for libmpk *client protocols*.

   A client program is the shape of an application's use of the libmpk
   API — which vkeys it maps, where it opens and closes domains, which
   regions it reads/writes/executes, what code its JIT emits, which
   threads it spawns — with the data computation abstracted away. The
   static analyzer (Lint) proves protocol properties over this IR before
   a single simulated cycle runs. The dynamic tools speak it too: the
   stress driver generates its random traffic as IR steps, and
   Mpk_check.Stress.exec_step runs both those steps and the analyzer's
   finding witnesses on the simulator, so static and dynamic checking
   share one vocabulary.

   Control flow is explicit: branch/merge, loop back edges, and
   signal-escape edges (an op that can fault may transfer control to a
   handler block *before* completing — the siglongjmp idiom from the
   PR 3 signal layer, which is how an mpk_end gets skipped in real
   code). *)

open Mpk_hw

(* --- simulated instruction stream (for the ERIM-style gadget scan) --- *)

(* The JIT case study emits instruction streams into its code cache. For
   the WRPKRU gadget scan we only care which instructions occur, not
   their encodings: a WRPKRU occurrence is *safe* (ERIM §3.1) only when
   it is immediately followed by a check that the loaded PKRU value is
   the intended one, with a branch to a trusted error path otherwise. *)
type insn =
  | I_op of string  (* ordinary computation, opaque to the scan *)
  | I_wrpkru  (* writes PKRU from a register *)
  | I_cmp_pkru  (* compares PKRU against the expected constant *)
  | I_br_trusted  (* branches to the trusted mediation path on mismatch *)
  | I_ret

let insn_to_string = function
  | I_op s -> s
  | I_wrpkru -> "wrpkru"
  | I_cmp_pkru -> "cmp-pkru"
  | I_br_trusted -> "br-trusted"
  | I_ret -> "ret"

(* --- locks and shared kernel locations (concurrency analysis) --- *)

(* Lock identity is class + instance, mirroring lib/kernel/lock.ml: the
   classes are the kernel's ("mm_lock", "vma_lock"), and the instance
   distinguishes e.g. the per-VMA locks of different slots. The lockset
   pass works over full lockrefs; the lock-order pass projects onto
   classes, exactly like lockdep. *)
type lockref = { lcls : string; linst : int }

let lockref_to_string l =
  if l.linst = 0 then l.lcls else Printf.sprintf "%s#%d" l.lcls l.linst

type lmode = Lk_shared | Lk_excl

let lmode_to_string = function Lk_shared -> "shared" | Lk_excl -> "excl"

(* Shared kernel state the concurrency passes track accesses to. These
   are *kernel-internal* locations (protected by locks), as opposed to
   Read/Write's client data accesses (protected by MPK domains). *)
type loc = L_vma of int | L_pkey_bitmap | L_key_cache of int

let loc_to_string = function
  | L_vma s -> Printf.sprintf "vma[%d]" s
  | L_pkey_bitmap -> "pkey_bitmap"
  | L_key_cache i -> Printf.sprintf "key_cache[%d]" i

(* --- operations --- *)

type op =
  | Mmap of { vkey : int; pages : int; prot : Perm.t }  (* mpk_mmap *)
  | Free of { vkey : int }  (* mpk_munmap: vkey leaves circulation *)
  | Begin of { vkey : int; prot : Perm.t }  (* mpk_begin *)
  | End of { vkey : int }  (* mpk_end *)
  | Mprotect of { vkey : int; prot : Perm.t }  (* mpk_mprotect: global, synchronized *)
  | Read of { vkey : int }  (* data read of the region *)
  | Write of { vkey : int }  (* data write into the region *)
  | Exec of { vkey : int }  (* instruction fetch from the region *)
  | Emit of { vkey : int; code : insn list }  (* JIT: write an instruction stream *)
  | Spawn of { tid : int }  (* start thread [tid] (its CFG is in the program) *)
  | Join of { tid : int }  (* wait for thread [tid] *)
  | Lock of { lk : lockref; lmode : lmode }  (* kernel lock acquire *)
  | Unlock of { lk : lockref; lmode : lmode }  (* kernel lock release *)
  | Load of { loc : loc }  (* read of shared kernel state *)
  | Store of { loc : loc }  (* write of shared kernel state *)
  | Malloc of { vkey : int; size : int }  (* mpk_malloc from the group's heap *)
  | Mfree of { vkey : int; nth : int }
      (* mpk_free of the [nth] (mod live count) block the trace allocated *)
  | Label of string  (* structural no-op: branch points, loop heads, comments *)

let op_to_string = function
  | Mmap { vkey; pages; prot } ->
      Printf.sprintf "mmap v%d %dp %s" vkey pages (Perm.to_string prot)
  | Free { vkey } -> Printf.sprintf "free v%d" vkey
  | Begin { vkey; prot } -> Printf.sprintf "begin v%d %s" vkey (Perm.to_string prot)
  | End { vkey } -> Printf.sprintf "end v%d" vkey
  | Mprotect { vkey; prot } -> Printf.sprintf "mprotect v%d %s" vkey (Perm.to_string prot)
  | Read { vkey } -> Printf.sprintf "read v%d" vkey
  | Write { vkey } -> Printf.sprintf "write v%d" vkey
  | Exec { vkey } -> Printf.sprintf "exec v%d" vkey
  | Emit { vkey; code } ->
      Printf.sprintf "emit v%d [%s]" vkey
        (String.concat "; " (List.map insn_to_string code))
  | Spawn { tid } -> Printf.sprintf "spawn t%d" tid
  | Join { tid } -> Printf.sprintf "join t%d" tid
  | Lock { lk; lmode } ->
      Printf.sprintf "lock %s %s" (lockref_to_string lk) (lmode_to_string lmode)
  | Unlock { lk; lmode } ->
      Printf.sprintf "unlock %s %s" (lockref_to_string lk) (lmode_to_string lmode)
  | Load { loc } -> Printf.sprintf "load %s" (loc_to_string loc)
  | Store { loc } -> Printf.sprintf "store %s" (loc_to_string loc)
  | Malloc { vkey; size } -> Printf.sprintf "malloc v%d %dB" vkey size
  | Mfree { vkey; nth } -> Printf.sprintf "mfree v%d #%d" vkey nth
  | Label s -> Printf.sprintf "# %s" s

(* --- control-flow graph --- *)

type edge =
  | Seq  (* fall-through *)
  | Branch  (* one arm of a conditional, or a loop head decision *)
  | Back  (* loop back edge *)
  | Escape  (* signal escape: taken *during* the source op, before it completes *)

let edge_to_string = function
  | Seq -> "seq"
  | Branch -> "branch"
  | Back -> "back"
  | Escape -> "escape"

type node = {
  id : int;
  tid : int;
  op : op;
  mutable succs : (edge * int) list;  (* empty = thread exit *)
}

type thread = { tid : int; entry : int }

type program = {
  pname : string;
  nodes : node array;  (* indexed by node id *)
  threads : thread list;  (* head = main (tid 0) *)
}

let node p id = p.nodes.(id)

let thread_nodes p tid =
  Array.to_list p.nodes |> List.filter (fun (n : node) -> n.tid = tid)

let main_thread p =
  match p.threads with
  | t :: _ -> t
  | [] -> invalid_arg "Ir.main_thread: empty program"

let find_thread p tid = List.find_opt (fun t -> t.tid = tid) p.threads

(* --- structured builder --- *)

(* App models are written as structured statements; lowering produces the
   CFG. [Guard] models a per-request signal guard: every op in its body
   gets an escape edge into the handler (control leaves the op before it
   completes — the balance pass sees the pre-op state on that edge). *)
type stmt =
  | Op of op
  | If of string * stmt list * stmt list
  | Loop of string * stmt list
  | Guard of stmt list * stmt list  (* body, signal handler *)

let op o = Op o
let label s = Op (Label s)

type builder = { mutable rev_nodes : node list; mutable next : int }

let add_node b tid o succs =
  let n = { id = b.next; tid; op = o; succs } in
  b.next <- b.next + 1;
  b.rev_nodes <- n :: b.rev_nodes;
  n

(* Lower [stmts] so that execution continues at node [k]; returns the
   entry node id of the lowered chain. Built back-to-front: every
   statement knows its continuation. *)
let rec lower_seq b tid stmts k =
  List.fold_right (fun s k -> lower_stmt b tid s k) stmts k

and lower_stmt b tid s k =
  match s with
  | Op o -> (add_node b tid o [ Seq, k ]).id
  | If (lbl, a, bb) ->
      let ka = lower_seq b tid a k in
      let kb = lower_seq b tid bb k in
      (add_node b tid (Label lbl) [ Branch, ka; Branch, kb ]).id
  | Loop (lbl, body) ->
      (* The head decides: iterate (into the body, whose continuation is
         the head again — the back edge) or leave (to [k]). *)
      let head = add_node b tid (Label lbl) [] in
      let kb = lower_seq b tid body head.id in
      (* mark the edge returning to the head as the back edge *)
      List.iter
        (fun n ->
          n.succs <-
            List.map
              (fun (e, t) -> if t = head.id && e = Seq then Back, t else e, t)
              n.succs)
        b.rev_nodes;
      head.succs <- [ Branch, kb; Branch, k ];
      head.id
  | Guard (body, handler) ->
      let kh = lower_seq b tid handler k in
      let before = b.next in
      let kb = lower_seq b tid body k in
      (* Memory accesses lowered for the body can escape into the
         handler mid-op (a pkey fault delivered as a signal). API calls
         report failure by exception, not signal, so they get no escape
         edge. *)
      let faultable n =
        match n.op with
        | Read _ | Write _ | Exec _ | Emit _ -> true
        | _ -> false
      in
      List.iter
        (fun n ->
          if n.id >= before && faultable n && not (List.mem (Escape, kh) n.succs) then
            n.succs <- n.succs @ [ Escape, kh ])
        b.rev_nodes;
      kb

let build ~name ~main ?(threads = []) () =
  let b = { rev_nodes = []; next = 0 } in
  let lower tid stmts =
    let exit_node = add_node b tid (Label "exit") [] in
    let entry = lower_seq b tid stmts exit_node.id in
    { tid; entry }
  in
  let main_t = lower 0 main in
  let rest = List.map (fun (tid, stmts) -> lower tid stmts) threads in
  let nodes =
    List.sort (fun a b -> compare a.id b.id) b.rev_nodes |> Array.of_list
  in
  Array.iteri
    (fun i n -> if n.id <> i then invalid_arg "Ir.build: node ids not dense")
    nodes;
  { pname = name; nodes; threads = main_t :: rest }

(* A straight-line program from a flat (tid, op) trace: each thread's ops
   in order, the main thread spawning every other thread up front and
   joining them at the end. This is how minimized stress traces are
   re-emitted as IR programs. *)
let of_trace ~name steps =
  let tids =
    List.filter_map (fun (tid, _) -> if tid <> 0 then Some tid else None) steps
    |> List.sort_uniq compare
  in
  let ops_of tid = List.filter_map (fun (t, o) -> if t = tid then Some (Op o) else None) steps in
  let main =
    List.map (fun tid -> Op (Spawn { tid })) tids
    @ ops_of 0
    @ List.map (fun tid -> Op (Join { tid })) tids
  in
  build ~name ~main ~threads:(List.map (fun tid -> tid, ops_of tid) tids) ()

(* --- lifting lock traces into analyzable programs --- *)

(* Trace events carry the lock *class* but deliberately no instance id
   (event.ml: instance ids come from a process-global counter and would
   make trace bytes depend on process history), so lifted locks collapse
   to instance 0 of their class. That is exactly the granularity the
   lock-order pass needs — its graph is built over classes, like
   lockdep's — and a sound coarsening for the lockset pass: distinct
   instances of one class become one abstract lock, so a lifted lockset
   only ever over-approximates the consistently-held set. Lock actors
   are core ids in practice; an event with no core context (actor -1,
   kernel metadata walks) is attributed to the main thread. *)
let lift_lock_events (events : Mpk_trace.Event.t list) =
  List.filter_map
    (fun (e : Mpk_trace.Event.t) ->
      let lift ctor cls excl actor =
        let lk = { lcls = cls; linst = 0 } in
        let lmode = if excl then Lk_excl else Lk_shared in
        Some (max actor 0, ctor lk lmode)
      in
      match e.Mpk_trace.Event.ev with
      | Mpk_trace.Event.Lock_acquire { cls; excl; actor } ->
          lift (fun lk lmode -> Lock { lk; lmode }) cls excl actor
      | Mpk_trace.Event.Lock_release { cls; excl; actor } ->
          lift (fun lk lmode -> Unlock { lk; lmode }) cls excl actor
      | _ -> None)
    events

(* A real execution's lock trace as a straight-line program: what
   `mpkctl torture --trace`-style runs feed the static passes. *)
let of_trace_events ~name events = of_trace ~name (lift_lock_events events)

(* --- pretty-printing --- *)

let pp_node fmt n =
  let succs =
    n.succs
    |> List.map (fun (e, t) ->
           match e with Seq -> string_of_int t | _ -> Printf.sprintf "%s:%d" (edge_to_string e) t)
    |> String.concat ","
  in
  Format.fprintf fmt "%3d: %-28s -> %s" n.id (op_to_string n.op)
    (if succs = "" then "exit" else succs)

let pp_program fmt p =
  Format.fprintf fmt "program %s@." p.pname;
  List.iter
    (fun t ->
      Format.fprintf fmt " thread %d (entry %d):@." t.tid t.entry;
      List.iter
        (fun n -> Format.fprintf fmt "  %a@." pp_node n)
        (List.sort (fun a b -> compare a.id b.id) (thread_nodes p t.tid)))
    p.threads
