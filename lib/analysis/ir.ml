open Mpk_hw

(* --- simulated instruction stream (for the ERIM-style gadget scan) --- *)

type insn = I_op of string | I_wrpkru | I_cmp_pkru | I_br_trusted | I_ret

let insn_to_string = function
  | I_op s -> s
  | I_wrpkru -> "wrpkru"
  | I_cmp_pkru -> "cmp-pkru"
  | I_br_trusted -> "br-trusted"
  | I_ret -> "ret"

(* --- locks and shared kernel locations (concurrency analysis) --- *)

type lockref = { lcls : string; linst : int }

let lockref_to_string l =
  if l.linst = 0 then l.lcls else Printf.sprintf "%s#%d" l.lcls l.linst

type lmode = Lk_shared | Lk_excl

let lmode_to_string = function Lk_shared -> "shared" | Lk_excl -> "excl"

type loc = L_vma of int | L_pkey_bitmap

let loc_to_string = function
  | L_vma s -> Printf.sprintf "vma[%d]" s
  | L_pkey_bitmap -> "pkey_bitmap"

(* --- operations --- *)

type op =
  | Mmap of { vkey : int; pages : int; prot : Perm.t }
  | Free of { vkey : int }
  | Begin of { vkey : int; prot : Perm.t }
  | End of { vkey : int }
  | Mprotect of { vkey : int; prot : Perm.t }
  | Read of { vkey : int }
  | Write of { vkey : int }
  | Exec of { vkey : int }
  | Emit of { vkey : int; code : insn list }
  | Spawn of { tid : int }
  | Join of { tid : int }
  | Lock of { lk : lockref; lmode : lmode }
  | Unlock of { lk : lockref; lmode : lmode }
  | Load of { loc : loc }
  | Store of { loc : loc }
  | Malloc of { vkey : int; size : int }
  | Mfree of { vkey : int; nth : int }
  | Label of string

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

type step = { stid : int; sop : op }

let step_to_string s = Printf.sprintf "%s @t%d" (op_to_string s.sop) s.stid

(* --- control-flow graph --- *)

type edge = Seq | Branch | Back | Escape

let edge_to_string = function
  | Seq -> "seq"
  | Branch -> "branch"
  | Back -> "back"
  | Escape -> "escape"

type node = { id : int; tid : int; op : op; mutable succs : (edge * int) list }

type thread = { tid : int; entry : int }

type program = { pname : string; nodes : node array; threads : thread list }

let node p id = p.nodes.(id)

let thread_nodes p tid =
  Array.to_list p.nodes |> List.filter (fun (n : node) -> n.tid = tid)

let main_thread p =
  match p.threads with
  | t :: _ -> t
  | [] -> invalid_arg "Ir.main_thread: empty program"

(* --- structured builder --- *)

type stmt =
  | Op of op
  | If of string * stmt list * stmt list
  | Loop of string * stmt list
  | Guard of stmt list * stmt list

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

let of_trace ~name steps =
  let tids =
    List.filter_map (fun s -> if s.stid <> 0 then Some s.stid else None) steps
    |> List.sort_uniq compare
  in
  let ops_of tid =
    List.filter_map (fun s -> if s.stid = tid then Some (Op s.sop) else None) steps
  in
  let main =
    List.map (fun tid -> Op (Spawn { tid })) tids
    @ ops_of 0
    @ List.map (fun tid -> Op (Join { tid })) tids
  in
  build ~name ~main ~threads:(List.map (fun tid -> tid, ops_of tid) tids) ()

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
