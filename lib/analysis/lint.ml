(* Static domain-safety lints over libmpk client IR programs.

   Five passes, each a forward abstract interpretation (Dataflow.forward)
   over every thread CFG:

   - typestate   key lifecycle: use-after-free, double-free, mmap of a
                 live vkey, leak-on-exit (libmpk §4.1 lifecycle)
   - balance     mpk_begin/mpk_end pairing on *all* paths, including
                 early returns and signal-escape edges (§4.2; a leaked
                 begin pins its hardware key forever)
   - wx          W^X: no abstract state in which a page group is both
                 writable and executable, and no instruction fetch while
                 the group is writable (§6.1 JIT case study)
   - gadget      ERIM-style unsafe-WRPKRU scan over the instruction
                 streams the JIT emits (ERIM §3.1: every WRPKRU must be
                 followed by a check of the loaded value)
   - toctou      lazy do_pkey_sync hazard: a global revocation
                 (mpk_mprotect) races a concurrently live thread whose
                 access is not covered by its own mpk_begin — until the
                 victim's deferred task_work runs, its PKRU still grants
                 the revoked right (§4.2, Fig 7)

   Findings carry a severity and a concrete path witness; Mpk_check.Witness
   executes witnesses on the simulator with the invariant auditor as oracle. *)

open Mpk_hw

type severity = Error | Warning | Info

let severity_to_string = function
  | Error -> "ERROR"
  | Warning -> "WARNING"
  | Info -> "INFO"

type access = A_read | A_write

let access_to_string = function A_read -> "read" | A_write -> "write"

type detail =
  | Use_after_free of { vkey : int }
  | Use_unmapped of { vkey : int }
  | Double_free of { vkey : int }
  | Free_unmapped of { vkey : int }
  | Mmap_live of { vkey : int }
  | Leak_on_exit of { vkey : int }
  | Unbalanced of { vkey : int; definite : bool }
  | End_underflow of { vkey : int }
  | Free_inside_begin of { vkey : int }
  | Wx_mapping of { vkey : int }
  | Wx_exec_writable of { vkey : int; window : bool }
  | Unsafe_wrpkru of { vkey : int; offset : int }
  | Toctou of { vkey : int; victim : int; access : access }
  | Race of { loc : Ir.loc; t1 : int; t2 : int; write : bool }
  | Deadlock of { cycle : string list }  (* lock classes, cyclically ordered *)
  | Atomicity of { loc : Ir.loc; dropped : Ir.lockref }
  | Unlock_unheld of { lk : Ir.lockref }
  | Maybe of string  (* imprecision-only findings (joined states) *)

type step = { stid : int; sop : Ir.op }

let step_to_string s = Printf.sprintf "%s @t%d" (Ir.op_to_string s.sop) s.stid

type finding = {
  pass : string;
  severity : severity;
  detail : detail;
  tid : int;  (* thread of the violating node *)
  node : int;
  message : string;
  witness : step list;  (* program-start-to-violation path *)
}

let pp_finding fmt f =
  Format.fprintf fmt "[%s] %s (t%d, node %d): %s" (severity_to_string f.severity)
    f.pass f.tid f.node f.message

let pp_witness fmt f =
  List.iter
    (fun s ->
      match s.sop with
      | Ir.Label _ -> ()
      | o -> Format.fprintf fmt "    t%d: %s@." s.stid (Ir.op_to_string o))
    f.witness

let has_errors findings = List.exists (fun f -> f.severity = Error) findings

(* --- shared per-thread analysis driver --- *)

(* Run one pass over every thread. The main thread starts from
   [init_main]; a spawned thread starts from [derive_init] applied to the
   main state at its (first reached) Spawn node, and its witnesses are
   prefixed with the main path to that spawn. Threads never spawned are
   dead code and are skipped. *)
let thread_runs (p : Ir.program) ~init_main ~derive_init ~equal ~join ~transfer =
  let main = Ir.main_thread p in
  let rmain =
    Dataflow.forward p ~entry:main.Ir.entry ~init:init_main ~equal ~join ~transfer
  in
  let steps_of tid ids =
    List.map (fun id -> { stid = tid; sop = (Ir.node p id).Ir.op }) ids
  in
  let spawn_node tid =
    Dataflow.reached p rmain 0
    |> List.find_opt (fun n ->
           match n.Ir.op with Ir.Spawn { tid = t } -> t = tid | _ -> false)
  in
  let others =
    List.filter_map
      (fun (t : Ir.thread) ->
        if t.Ir.tid = 0 then None
        else
          match spawn_node t.Ir.tid with
          | None -> None
          | Some sn -> (
              match Dataflow.state rmain sn.Ir.id with
              | None -> None
              | Some st ->
                  let r =
                    Dataflow.forward p ~entry:t.Ir.entry ~init:(derive_init st)
                      ~equal ~join ~transfer
                  in
                  Some (t.Ir.tid, r, steps_of 0 (Dataflow.path_to rmain sn.Ir.id))))
      p.Ir.threads
  in
  (0, rmain, []) :: others

(* Evaluate [check] on the final abstract state of every reached node. *)
let collect p runs ~check =
  List.concat_map
    (fun (tid, r, prefix) ->
      Dataflow.reached p r tid
      |> List.concat_map (fun n ->
             match Dataflow.state r n.Ir.id with
             | None -> []
             | Some st ->
                 let witness path_tid =
                   prefix
                   @ List.map
                       (fun id -> { stid = path_tid; sop = (Ir.node p id).Ir.op })
                       (Dataflow.path_to r n.Ir.id)
                 in
                 check ~tid ~node:n ~state:st ~witness:(fun () -> witness tid)))
    runs

let mk ~pass ~severity ~detail ~tid ~node ~message ~witness =
  { pass; severity; detail; tid; node = node.Ir.id; message; witness = witness () }

(* --- pass 1: key-lifecycle typestate --- *)

module Typestate = struct
  type ts = Unmapped | Mapped | Freed | Top

  let ts_to_string = function
    | Unmapped -> "unmapped"
    | Mapped -> "mapped"
    | Freed -> "freed"
    | Top -> "unknown"

  let join_ts a b = if a = b then a else Top

  let default = Unmapped
  let equal = Dataflow.VMap.equal_d ~default ( = )
  let join = Dataflow.VMap.join_d ~default join_ts

  let transfer (n : Ir.node) st =
    match n.Ir.op with
    | Ir.Mmap { vkey; _ } -> Dataflow.VMap.add vkey Mapped st
    | Ir.Free { vkey } -> Dataflow.VMap.add vkey Freed st
    | _ -> st

  let run p =
    let runs =
      thread_runs p ~init_main:Dataflow.VMap.empty ~derive_init:Fun.id ~equal ~join
        ~transfer
    in
    let pass = "typestate" in
    let check ~tid ~node ~state ~witness =
      let ts v = Dataflow.VMap.find_d ~default v state in
      let use v what =
        match ts v with
        | Freed ->
            [
              mk ~pass ~severity:Error ~detail:(Use_after_free { vkey = v }) ~tid ~node
                ~message:(Printf.sprintf "%s of freed vkey %d (use-after-free)" what v)
                ~witness;
            ]
        | Unmapped ->
            [
              mk ~pass ~severity:Error ~detail:(Use_unmapped { vkey = v }) ~tid ~node
                ~message:(Printf.sprintf "%s of vkey %d before mpk_mmap" what v)
                ~witness;
            ]
        | Top ->
            [
              mk ~pass ~severity:Warning ~detail:(Maybe "use of possibly-freed vkey")
                ~tid ~node
                ~message:
                  (Printf.sprintf "%s of vkey %d whose lifecycle state depends on the path"
                     what v)
                ~witness;
            ]
        | Mapped -> []
      in
      match node.Ir.op with
      | Ir.Mmap { vkey; _ } -> (
          match ts vkey with
          | Mapped ->
              [
                mk ~pass ~severity:Error ~detail:(Mmap_live { vkey }) ~tid ~node
                  ~message:
                    (Printf.sprintf "mpk_mmap of vkey %d which already has a page group"
                       vkey)
                  ~witness;
              ]
          | Top ->
              [
                mk ~pass ~severity:Warning ~detail:(Maybe "mmap of possibly-live vkey")
                  ~tid ~node
                  ~message:(Printf.sprintf "mpk_mmap of vkey %d may already be mapped" vkey)
                  ~witness;
              ]
          | Unmapped | Freed -> [])
      | Ir.Free { vkey } -> (
          match ts vkey with
          | Freed ->
              [
                mk ~pass ~severity:Error ~detail:(Double_free { vkey }) ~tid ~node
                  ~message:(Printf.sprintf "double free of vkey %d" vkey) ~witness;
              ]
          | Unmapped ->
              [
                mk ~pass ~severity:Error ~detail:(Free_unmapped { vkey }) ~tid ~node
                  ~message:(Printf.sprintf "free of vkey %d which was never mapped" vkey)
                  ~witness;
              ]
          | Top ->
              [
                mk ~pass ~severity:Warning ~detail:(Maybe "free of possibly-freed vkey")
                  ~tid ~node
                  ~message:
                    (Printf.sprintf "free of vkey %d in %s state" vkey
                       (ts_to_string Top))
                  ~witness;
              ]
          | Mapped -> [])
      | Ir.Begin { vkey; _ } -> use vkey "mpk_begin"
      | Ir.End { vkey } -> use vkey "mpk_end"
      | Ir.Mprotect { vkey; _ } -> use vkey "mpk_mprotect"
      | Ir.Read { vkey } -> use vkey "read"
      | Ir.Write { vkey } -> use vkey "write"
      | Ir.Exec { vkey } -> use vkey "exec"
      | Ir.Emit { vkey; _ } -> use vkey "emit"
      | Ir.Label _ when node.Ir.succs = [] && tid = 0 ->
          (* main exit: everything still mapped leaks its group (and,
             transitively, a hardware key's worth of cache pressure) *)
          Dataflow.VMap.fold
            (fun v ts acc ->
              match ts with
              | Mapped | Top ->
                  mk ~pass ~severity:Warning ~detail:(Leak_on_exit { vkey = v }) ~tid
                    ~node
                    ~message:
                      (Printf.sprintf "vkey %d still mapped at program exit (leak)" v)
                    ~witness
                  :: acc
              | Unmapped | Freed -> acc)
            state []
      | _ -> []
    in
    collect p runs ~check
end

(* --- pass 2: begin/end balance --- *)

module Balance = struct
  let default = Dataflow.Interval.zero
  let equal = Dataflow.VMap.equal_d ~default Dataflow.Interval.equal
  let join = Dataflow.VMap.join_d ~default Dataflow.Interval.join

  let transfer (n : Ir.node) st =
    match n.Ir.op with
    | Ir.Begin { vkey; _ } ->
        Dataflow.VMap.add vkey
          (Dataflow.Interval.incr (Dataflow.VMap.find_d ~default vkey st))
          st
    | Ir.End { vkey } ->
        Dataflow.VMap.add vkey
          (Dataflow.Interval.decr (Dataflow.VMap.find_d ~default vkey st))
          st
    | _ -> st

  (* Spawned threads hold no begins at birth: pins are per-thread. *)
  let run p =
    let runs =
      thread_runs p ~init_main:Dataflow.VMap.empty
        ~derive_init:(fun _ -> Dataflow.VMap.empty)
        ~equal ~join ~transfer
    in
    let pass = "balance" in
    let check ~tid ~node ~state ~witness =
      let depth v = Dataflow.VMap.find_d ~default v state in
      match node.Ir.op with
      | Ir.End { vkey } -> (
          match depth vkey with
          | 0, 0 ->
              [
                mk ~pass ~severity:Error ~detail:(End_underflow { vkey }) ~tid ~node
                  ~message:
                    (Printf.sprintf "mpk_end of vkey %d without a matching mpk_begin" vkey)
                  ~witness;
              ]
          | 0, _ ->
              [
                mk ~pass ~severity:Warning ~detail:(Maybe "possible end underflow") ~tid
                  ~node
                  ~message:
                    (Printf.sprintf "mpk_end of vkey %d may lack a matching begin on \
                                     some path"
                       vkey)
                  ~witness;
              ]
          | _ -> [])
      | Ir.Free { vkey } -> (
          match depth vkey with
          | lo, _ when lo > 0 ->
              [
                mk ~pass ~severity:Error ~detail:(Free_inside_begin { vkey }) ~tid ~node
                  ~message:
                    (Printf.sprintf "mpk_free of vkey %d while inside mpk_begin" vkey)
                  ~witness;
              ]
          | 0, hi when hi > 0 ->
              [
                mk ~pass ~severity:Warning ~detail:(Maybe "free possibly inside begin")
                  ~tid ~node
                  ~message:
                    (Printf.sprintf "mpk_free of vkey %d may still be inside mpk_begin"
                       vkey)
                  ~witness;
              ]
          | _ -> [])
      | Ir.Begin { vkey; _ } when snd (depth vkey) >= Dataflow.Interval.cap ->
          [
            mk ~pass ~severity:Warning ~detail:(Maybe "unbounded begin nesting") ~tid
              ~node
              ~message:
                (Printf.sprintf
                   "mpk_begin of vkey %d nests without bound (begin inside a loop \
                    with no end?)"
                   vkey)
              ~witness;
          ]
      | Ir.Label _ when node.Ir.succs = [] ->
          (* thread exit: every vkey must be back to depth 0 on every
             path — a leaked begin pins its hardware key forever *)
          Dataflow.VMap.fold
            (fun v iv acc ->
              match iv with
              | lo, _ when lo > 0 ->
                  mk ~pass ~severity:Error ~detail:(Unbalanced { vkey = v; definite = true })
                    ~tid ~node
                    ~message:
                      (Printf.sprintf
                         "thread exits with mpk_begin of vkey %d unmatched on every path \
                          (depth %s)"
                         v
                         (Dataflow.Interval.to_string iv))
                    ~witness
                  :: acc
              | 0, hi when hi > 0 ->
                  mk ~pass ~severity:Error
                    ~detail:(Unbalanced { vkey = v; definite = false }) ~tid ~node
                    ~message:
                      (Printf.sprintf
                         "thread exits with mpk_begin of vkey %d unmatched on some path \
                          (early return or signal escape skips mpk_end)"
                         v)
                    ~witness
                  :: acc
              | _ -> acc)
            state []
      | _ -> []
    in
    collect p runs ~check
end

(* --- pass 3: W^X --- *)

module Wx = struct
  type vstate = {
    xp_must : bool;  (* page-level exec bit definitely set *)
    xp_may : bool;
    gw_must : bool;  (* global (synchronized) write rights definitely granted *)
    gw_may : bool;
    win : Dataflow.Interval.t;  (* this thread's open write-window depth *)
  }

  let default =
    { xp_must = false; xp_may = false; gw_must = false; gw_may = false;
      win = Dataflow.Interval.zero }

  let equal_v a b =
    a.xp_must = b.xp_must && a.xp_may = b.xp_may && a.gw_must = b.gw_must
    && a.gw_may = b.gw_may
    && Dataflow.Interval.equal a.win b.win

  let join_v a b =
    {
      xp_must = a.xp_must && b.xp_must;
      xp_may = a.xp_may || b.xp_may;
      gw_must = a.gw_must && b.gw_must;
      gw_may = a.gw_may || b.gw_may;
      win = Dataflow.Interval.join a.win b.win;
    }

  let equal = Dataflow.VMap.equal_d ~default equal_v
  let join = Dataflow.VMap.join_d ~default join_v

  let transfer (n : Ir.node) st =
    let get v = Dataflow.VMap.find_d ~default v st in
    match n.Ir.op with
    | Ir.Mmap { vkey; prot; _ } ->
        (* declared prot is max_prot: the group starts with no data
           access granted (PKRU defaults to no-access), only the
           page-level exec bit is live *)
        Dataflow.VMap.add vkey
          { default with xp_must = prot.Perm.exec; xp_may = prot.Perm.exec }
          st
    | Ir.Mprotect { vkey; prot } ->
        let v = get vkey in
        Dataflow.VMap.add vkey
          {
            v with
            xp_must = prot.Perm.exec;
            xp_may = prot.Perm.exec;
            gw_must = prot.Perm.write;
            gw_may = prot.Perm.write;
          }
          st
    | Ir.Begin { vkey; prot } when prot.Perm.write ->
        let v = get vkey in
        Dataflow.VMap.add vkey { v with win = Dataflow.Interval.incr v.win } st
    | Ir.End { vkey } ->
        let v = get vkey in
        Dataflow.VMap.add vkey { v with win = Dataflow.Interval.decr v.win } st
    | Ir.Free { vkey } -> Dataflow.VMap.add vkey default st
    | _ -> st

  let run p =
    let runs =
      thread_runs p ~init_main:Dataflow.VMap.empty
        ~derive_init:
          (Dataflow.VMap.map (fun v -> { v with win = Dataflow.Interval.zero }))
        ~equal ~join ~transfer
    in
    let pass = "wx" in
    let check ~tid ~node ~state ~witness =
      let get v = Dataflow.VMap.find_d ~default v state in
      match node.Ir.op with
      | Ir.Mprotect { vkey; prot } when prot.Perm.write && prot.Perm.exec ->
          [
            mk ~pass ~severity:Error ~detail:(Wx_mapping { vkey }) ~tid ~node
              ~message:
                (Printf.sprintf
                   "mpk_mprotect makes vkey %d globally writable AND executable (W^X \
                    violated for every thread)"
                   vkey)
              ~witness;
          ]
      | Ir.Exec { vkey } -> (
          let v = get vkey in
          if v.gw_must then
            [
              mk ~pass ~severity:Error
                ~detail:(Wx_exec_writable { vkey; window = false }) ~tid ~node
                ~message:
                  (Printf.sprintf
                     "instruction fetch from vkey %d while it is globally writable" vkey)
                ~witness;
            ]
          else if fst v.win > 0 then
            [
              mk ~pass ~severity:Error ~detail:(Wx_exec_writable { vkey; window = true })
                ~tid ~node
                ~message:
                  (Printf.sprintf
                     "instruction fetch from vkey %d inside this thread's own write \
                      window (mpk_begin rw not yet ended)"
                     vkey)
                ~witness;
            ]
          else if v.gw_may || snd v.win > 0 then
            [
              mk ~pass ~severity:Warning ~detail:(Maybe "exec of possibly-writable region")
                ~tid ~node
                ~message:
                  (Printf.sprintf
                     "instruction fetch from vkey %d which may be writable on some path"
                     vkey)
                ~witness;
            ]
          else [])
      | _ -> []
    in
    collect p runs ~check
end

(* --- pass 4: ERIM-style WRPKRU gadget scan --- *)

module Gadget = struct
  (* An occurrence of WRPKRU in an emitted stream is safe only when the
     next two instructions validate the loaded value and divert to the
     trusted path on mismatch; anything else is a gadget an attacker can
     jump to with a chosen eax (ERIM §3.1, which libmpk §6 relies on). *)
  let unsafe_offsets code =
    let arr = Array.of_list code in
    let n = Array.length arr in
    let bad = ref [] in
    Array.iteri
      (fun i insn ->
        match insn with
        | Ir.I_wrpkru ->
            let checked =
              i + 2 < n && arr.(i + 1) = Ir.I_cmp_pkru && arr.(i + 2) = Ir.I_br_trusted
            in
            if not checked then bad := i :: !bad
        | _ -> ())
      arr;
    List.rev !bad

  let run p =
    let runs =
      thread_runs p ~init_main:() ~derive_init:Fun.id ~equal:( = ) ~join:(fun _ _ -> ())
        ~transfer:(fun _ st -> st)
    in
    let pass = "gadget" in
    let check ~tid ~node ~state:_ ~witness =
      match node.Ir.op with
      | Ir.Emit { vkey; code } ->
          List.map
            (fun offset ->
              mk ~pass ~severity:Error ~detail:(Unsafe_wrpkru { vkey; offset }) ~tid
                ~node
                ~message:
                  (Printf.sprintf
                     "emitted stream for vkey %d contains an unchecked WRPKRU at \
                      offset %d (exploitable gadget: a jump here with chosen eax \
                      rewrites PKRU)"
                     vkey offset)
                ~witness)
            (unsafe_offsets code)
      | _ -> []
    in
    collect p runs ~check
end

(* --- pass 5: lazy do_pkey_sync TOCTOU across spawned threads --- *)

module Toctou = struct
  module ISet = Set.Make (Int)

  type granted = { gr_must : bool; gw_must : bool }

  let g_default = { gr_must = false; gw_must = false }

  type state = {
    live_must : ISet.t;
    live_may : ISet.t;
    rights : granted Dataflow.VMap.t;  (* per-vkey global rights from mpk_mprotect *)
  }

  let init = { live_must = ISet.empty; live_may = ISet.empty; rights = Dataflow.VMap.empty }

  let equal a b =
    ISet.equal a.live_must b.live_must
    && ISet.equal a.live_may b.live_may
    && Dataflow.VMap.equal_d ~default:g_default ( = ) a.rights b.rights

  let join a b =
    {
      live_must = ISet.inter a.live_must b.live_must;
      live_may = ISet.union a.live_may b.live_may;
      rights =
        Dataflow.VMap.join_d ~default:g_default
          (fun x y -> { gr_must = x.gr_must && y.gr_must; gw_must = x.gw_must && y.gw_must })
          a.rights b.rights;
    }

  let transfer (n : Ir.node) st =
    match n.Ir.op with
    | Ir.Spawn { tid } ->
        { st with live_must = ISet.add tid st.live_must; live_may = ISet.add tid st.live_may }
    | Ir.Join { tid } ->
        { st with live_must = ISet.remove tid st.live_must; live_may = ISet.remove tid st.live_may }
    | Ir.Mmap { vkey; _ } | Ir.Free { vkey } ->
        (* a fresh group starts with no global rights; a freed one has none *)
        { st with rights = Dataflow.VMap.add vkey g_default st.rights }
    | Ir.Mprotect { vkey; prot } ->
        {
          st with
          rights =
            Dataflow.VMap.add vkey
              { gr_must = prot.Perm.read; gw_must = prot.Perm.write }
              st.rights;
        }
    | _ -> st

  (* Accesses a thread performs while *not* inside its own mpk_begin for
     that vkey ("bare" accesses: they rely entirely on the global rights
     and therefore race a revocation's lazy sync). Computed with the
     balance domain per thread. *)
  type bare = { rd_def : bool; rd_may : bool; wr_def : bool; wr_may : bool }

  let bare_default = { rd_def = false; rd_may = false; wr_def = false; wr_may = false }

  let bare_accesses p (t : Ir.thread) =
    let r =
      Dataflow.forward p ~entry:t.Ir.entry ~init:Dataflow.VMap.empty
        ~equal:Balance.equal ~join:Balance.join ~transfer:Balance.transfer
    in
    List.fold_left
      (fun acc (n : Ir.node) ->
        let upd vkey kind =
          match Dataflow.state r n.Ir.id with
          | None -> acc
          | Some st ->
              let lo, hi =
                Dataflow.VMap.find_d ~default:Dataflow.Interval.zero vkey st
              in
              let b = Dataflow.VMap.find_d ~default:bare_default vkey acc in
              let b =
                match kind with
                | A_read ->
                    { b with rd_def = b.rd_def || hi = 0; rd_may = b.rd_may || lo = 0 }
                | A_write ->
                    { b with wr_def = b.wr_def || hi = 0; wr_may = b.wr_may || lo = 0 }
              in
              Dataflow.VMap.add vkey b acc
        in
        match n.Ir.op with
        | Ir.Read { vkey } -> upd vkey A_read
        | Ir.Write { vkey } | Ir.Emit { vkey; _ } -> upd vkey A_write
        | _ -> acc)
      Dataflow.VMap.empty (Ir.thread_nodes p t.Ir.tid)

  let run p =
    let main = Ir.main_thread p in
    let bare =
      List.filter_map
        (fun (t : Ir.thread) ->
          if t.Ir.tid = 0 then None else Some (t.Ir.tid, bare_accesses p t))
        p.Ir.threads
    in
    let r = Dataflow.forward p ~entry:main.Ir.entry ~init ~equal ~join ~transfer in
    let pass = "toctou" in
    List.concat_map
      (fun (n : Ir.node) ->
        match n.Ir.op, Dataflow.state r n.Ir.id with
        | Ir.Mprotect { vkey; prot }, Some st ->
            let prev = Dataflow.VMap.find_d ~default:g_default vkey st.rights in
            let revoked =
              (if prev.gr_must && not prot.Perm.read then [ A_read ] else [])
              @ if prev.gw_must && not prot.Perm.write then [ A_write ] else []
            in
            List.concat_map
              (fun (victim, accesses) ->
                let b = Dataflow.VMap.find_d ~default:bare_default vkey accesses in
                List.filter_map
                  (fun acc_kind ->
                    let def, may =
                      match acc_kind with
                      | A_read -> b.rd_def, b.rd_may
                      | A_write -> b.wr_def, b.wr_may
                    in
                    let witness () =
                      List.map
                        (fun id -> { stid = 0; sop = (Ir.node p id).Ir.op })
                        (Dataflow.path_to r n.Ir.id)
                    in
                    if ISet.mem victim st.live_must && def then
                      Some
                        (mk ~pass ~severity:Error
                           ~detail:(Toctou { vkey; victim; access = acc_kind })
                           ~tid:0 ~node:n
                           ~message:
                             (Printf.sprintf
                                "mpk_mprotect revokes %s on vkey %d while thread %d is \
                                 live and %ss it outside mpk_begin — until the \
                                 victim's lazy do_pkey_sync task_work runs, its PKRU \
                                 still grants the revoked right (TOCTOU)"
                                (access_to_string acc_kind) vkey victim
                                (access_to_string acc_kind))
                           ~witness)
                    else if ISet.mem victim st.live_may && may then
                      Some
                        (mk ~pass ~severity:Warning
                           ~detail:(Toctou { vkey; victim; access = acc_kind })
                           ~tid:0 ~node:n
                           ~message:
                             (Printf.sprintf
                                "mpk_mprotect may revoke %s on vkey %d while thread %d \
                                 can access it outside mpk_begin on some path"
                                (access_to_string acc_kind) vkey victim)
                           ~witness)
                    else None)
                  revoked)
              bare
        | _ -> [])
      (Dataflow.reached p r 0)
end

(* --- passes 6–8: concurrency (lockset, lock order, atomicity) --- *)

module Concurrency = struct
  (* One shared per-thread abstract interpretation feeds three passes:

     - lockset ("lockset"): Eraser's discipline — for every shared
       kernel location, the set of locks held at *every* access must be
       non-empty across all tasks reachable from Spawn. Two accesses
       from may-concurrent threads with disjoint locksets, at least one
       a Store, are a race; the finding carries a two-task witness (one
       entry-to-access path per thread).

     - lock order ("lockorder"): the may-happen lock graph — at each
       Lock node, every class that *may* be held on some CFG path to it
       contributes a held→acquired edge, so the graph covers all paths,
       not just executed ones. Cycles are potential deadlocks; the
       dynamic lockdep order graph (Lockdep.order_edges) must be covered
       by this analysis on the same program.

     - atomicity ("atomicity"): read–check–act windows — a Load made
       under locks is an observation; releasing any of those locks makes
       it stale; a Store to the location while the observation is stale
       mutates on the strength of a check another task may have
       invalidated in between (the static generalization of the PR 4
       TOCTOU lint, at lock rather than domain granularity). *)

  module Held = Dataflow.MustMay (struct
    type t = Ir.lockref

    let compare = compare
  end)

  module LSet = Held.S
  module LocMap = Map.Make (struct
    type t = Ir.loc

    let compare = compare
  end)

  let lset_to_string s =
    if LSet.is_empty s then "{}"
    else
      "{" ^ String.concat "," (List.map Ir.lockref_to_string (LSet.elements s)) ^ "}"

  (* Read–check–act status per location. *)
  type obs = Clean | Observed of LSet.t | Stale of Ir.lockref

  type cstate = { held : Held.t; obs : obs LocMap.t }

  let init = { held = Held.empty; obs = LocMap.empty }
  let obs_d loc m = Option.value ~default:Clean (LocMap.find_opt loc m)

  let obs_join a b =
    match a, b with
    | Stale l, _ | _, Stale l -> Stale l
    | Observed x, Observed y ->
        let i = LSet.inter x y in
        if LSet.is_empty i then Clean else Observed i
    | (Observed _ as o), Clean | Clean, (Observed _ as o) -> o
    | Clean, Clean -> Clean

  let equal a b =
    Held.equal a.held b.held
    &&
    let keys m = LocMap.fold (fun k _ acc -> k :: acc) m [] in
    List.for_all
      (fun k -> obs_d k a.obs = obs_d k b.obs)
      (List.sort_uniq compare (keys a.obs @ keys b.obs))

  let join a b =
    {
      held = Held.join a.held b.held;
      obs =
        LocMap.merge
          (fun _ x y ->
            Some
              (obs_join
                 (Option.value ~default:Clean x)
                 (Option.value ~default:Clean y)))
          a.obs b.obs;
    }

  let transfer (n : Ir.node) st =
    match n.Ir.op with
    | Ir.Lock { lk; _ } -> { st with held = Held.add lk st.held }
    | Ir.Unlock { lk; _ } ->
        let obs =
          LocMap.map
            (function Observed s when LSet.mem lk s -> Stale lk | o -> o)
            st.obs
        in
        { held = Held.remove lk st.held; obs }
    | Ir.Load { loc } ->
        let o =
          if LSet.is_empty st.held.Held.must then Clean
          else Observed st.held.Held.must
        in
        { st with obs = LocMap.add loc o st.obs }
    | Ir.Store { loc } -> { st with obs = LocMap.add loc Clean st.obs }
    | _ -> st

  (* -- may-concurrency between threads, from main's Spawn/Join shape -- *)

  module ISet = Set.Make (Int)

  type conc = {
    live_may_at : int -> ISet.t;  (* main node id -> threads possibly live *)
    spawn_nodes : (int * int) list;  (* tid, main node id *)
  }

  let concurrency p =
    let main = Ir.main_thread p in
    let equal (am, aM) (bm, bM) = ISet.equal am bm && ISet.equal aM bM in
    let join (am, aM) (bm, bM) = ISet.inter am bm, ISet.union aM bM in
    let transfer (n : Ir.node) (must, may) =
      match n.Ir.op with
      | Ir.Spawn { tid } -> ISet.add tid must, ISet.add tid may
      | Ir.Join { tid } -> ISet.remove tid must, ISet.remove tid may
      | _ -> must, may
    in
    let r =
      Dataflow.forward p ~entry:main.Ir.entry
        ~init:(ISet.empty, ISet.empty)
        ~equal ~join ~transfer
    in
    {
      live_may_at =
        (fun id ->
          match Dataflow.state r id with Some (_, may) -> may | None -> ISet.empty);
      spawn_nodes =
        Dataflow.reached p r 0
        |> List.filter_map (fun (n : Ir.node) ->
               match n.Ir.op with
               | Ir.Spawn { tid } -> Some (tid, n.Ir.id)
               | _ -> None);
    }

  (* May thread [a]'s access at [anode] run concurrently with thread
     [b]'s access at [bnode]? A main (tid 0) access overlaps exactly the
     threads possibly live at that main node — pre-spawn and post-join
     accesses race with nobody; two spawned threads overlap when either
     is possibly live at the other's spawn point. *)
  let may_overlap conc ~a ~anode ~b ~bnode =
    if a = b then false
    else if a = 0 then ISet.mem b (conc.live_may_at anode)
    else if b = 0 then ISet.mem a (conc.live_may_at bnode)
    else
      List.exists
        (fun (tid, id) ->
          (tid = a && ISet.mem b (conc.live_may_at id))
          || (tid = b && ISet.mem a (conc.live_may_at id)))
        conc.spawn_nodes

  (* -- the shared sweep -- *)

  type acc = {
    a_tid : int;
    a_node : int;
    a_loc : Ir.loc;
    a_kind : access;
    a_must : LSet.t;
    a_may : LSet.t;
    a_witness : step list;  (* prefix + path, ready for a finding *)
    a_path : step list;  (* this thread's path only (for 2nd witness half) *)
  }

  type sweep = {
    accesses : acc list;
    edges : ((string * string) * (int * int * step list)) list;
        (* class edge -> representative (tid, node, witness) *)
    findings : finding list;  (* same-class nesting, atomicity, unlock-unheld *)
  }

  let sweep p =
    let runs =
      thread_runs p ~init_main:init ~derive_init:(fun _ -> init) ~equal ~join
        ~transfer
    in
    let accesses = ref [] in
    let edges = ref [] in
    let findings = ref [] in
    List.iter
      (fun (tid, r, prefix) ->
        Dataflow.reached p r tid
        |> List.iter (fun (n : Ir.node) ->
               match Dataflow.state r n.Ir.id with
               | None -> ()
               | Some st ->
                   let path =
                     List.map
                       (fun id -> { stid = tid; sop = (Ir.node p id).Ir.op })
                       (Dataflow.path_to r n.Ir.id)
                   in
                   let witness () = prefix @ path in
                   let access kind loc =
                     accesses :=
                       {
                         a_tid = tid;
                         a_node = n.Ir.id;
                         a_loc = loc;
                         a_kind = kind;
                         a_must = st.held.Held.must;
                         a_may = st.held.Held.may;
                         a_witness = witness ();
                         a_path = path;
                       }
                       :: !accesses
                   in
                   (match n.Ir.op with
                   | Ir.Load { loc } -> access A_read loc
                   | Ir.Store { loc } -> (
                       access A_write loc;
                       match obs_d loc st.obs with
                       | Stale dropped ->
                           findings :=
                             mk ~pass:"atomicity" ~severity:Error
                               ~detail:(Atomicity { loc; dropped })
                               ~tid ~node:n
                               ~message:
                                 (Printf.sprintf
                                    "read–check–act window: %s was read under %s, \
                                     the lock was dropped, and this store still \
                                     acts on that check — another task can \
                                     invalidate it in the window"
                                    (Ir.loc_to_string loc)
                                    (Ir.lockref_to_string dropped))
                               ~witness
                             :: !findings
                       | Clean | Observed _ -> ())
                   | Ir.Lock { lk; _ } ->
                       LSet.iter
                         (fun h ->
                           if h.Ir.lcls = lk.Ir.lcls then begin
                             if h <> lk then
                               findings :=
                                 mk ~pass:"lockorder" ~severity:Warning
                                   ~detail:
                                     (Maybe "same-class nesting needs annotation")
                                   ~tid ~node:n
                                   ~message:
                                     (Printf.sprintf
                                        "acquire of %s while already holding %s: \
                                         same-class nesting (lockdep would demand \
                                         an ordering annotation)"
                                        (Ir.lockref_to_string lk)
                                        (Ir.lockref_to_string h))
                                   ~witness
                                 :: !findings
                           end
                           else if
                             not
                               (List.mem_assoc
                                  (h.Ir.lcls, lk.Ir.lcls)
                                  !edges)
                           then
                             edges :=
                               ((h.Ir.lcls, lk.Ir.lcls), (tid, n.Ir.id, witness ()))
                               :: !edges)
                         st.held.Held.may
                   | Ir.Unlock { lk; _ } ->
                       if not (LSet.mem lk st.held.Held.may) then
                         findings :=
                           mk ~pass:"lockset" ~severity:Warning
                             ~detail:(Unlock_unheld { lk }) ~tid ~node:n
                             ~message:
                               (Printf.sprintf
                                  "release of %s which is not held on any path here"
                                  (Ir.lockref_to_string lk))
                             ~witness
                           :: !findings
                   | _ -> ())))
      runs;
    { accesses = List.rev !accesses; edges = List.rev !edges; findings = List.rev !findings }

  (* -- lockset races -- *)

  let severity_rank' = function Error -> 0 | Warning -> 1 | Info -> 2

  let races p sw =
    let conc = concurrency p in
    let pairs = ref [] in
    List.iter
      (fun x ->
        List.iter
          (fun y ->
            if
              x.a_loc = y.a_loc
              && x.a_tid < y.a_tid
              && (x.a_kind = A_write || y.a_kind = A_write)
              && LSet.is_empty (LSet.inter x.a_must y.a_must)
              && may_overlap conc ~a:x.a_tid ~anode:x.a_node ~b:y.a_tid
                   ~bnode:y.a_node
            then pairs := (x, y) :: !pairs)
          sw.accesses)
      sw.accesses;
    (* The victim (fewer locks held) anchors the finding; the second
       thread's path is appended so the witness covers both tasks. *)
    let to_finding (x, y) =
      let victim, other =
        if LSet.cardinal x.a_must <= LSet.cardinal y.a_must then x, y else y, x
      in
      let definite = LSet.is_empty (LSet.inter x.a_may y.a_may) in
      let severity = if definite then Error else Warning in
      let detail =
        if definite then
          Race
            {
              loc = x.a_loc;
              t1 = victim.a_tid;
              t2 = other.a_tid;
              write = victim.a_kind = A_write || other.a_kind = A_write;
            }
        else Maybe "path-dependent locking discipline"
      in
      {
        pass = "lockset";
        severity;
        detail;
        tid = victim.a_tid;
        node = victim.a_node;
        message =
          Printf.sprintf
            "%s race on %s: t%d %ss it holding %s while t%d %ss it holding %s — \
             no common lock%s, so an adversarial schedule interleaves them \
             (Eraser lockset empty)"
            (if definite then "data" else "possible")
            (Ir.loc_to_string x.a_loc) victim.a_tid
            (access_to_string victim.a_kind)
            (lset_to_string victim.a_must)
            other.a_tid
            (access_to_string other.a_kind)
            (lset_to_string other.a_must)
            (if definite then "" else " on some path");
        witness = victim.a_witness @ other.a_path;
      }
    in
    (* one finding per (loc, thread pair), most severe first *)
    let all = List.map to_finding !pairs in
    let key f =
      match f.detail with
      | Race { loc; t1; t2; _ } -> Some (loc, min t1 t2, max t1 t2)
      | _ -> None
    in
    let seen = Hashtbl.create 8 in
    List.filter
      (fun f ->
        match key f with
        | None ->
            (* keep at most one Maybe per (loc, pair) too, keyed by message *)
            if Hashtbl.mem seen (`Msg f.message) then false
            else begin
              Hashtbl.replace seen (`Msg f.message) ();
              true
            end
        | Some k ->
            if Hashtbl.mem seen (`Race k) then false
            else begin
              Hashtbl.replace seen (`Race k) ();
              true
            end)
      (List.stable_sort
         (fun a b -> compare (severity_rank' a.severity) (severity_rank' b.severity))
         all)

  (* -- static lock-order cycles -- *)

  (* DFS over the class graph; cycles are canonicalized (rotated so the
     least class leads) and deduplicated. *)
  let find_cycles edges =
    let succs a =
      List.filter_map (fun ((x, y), _) -> if x = a then Some y else None) edges
      |> List.sort compare
    in
    let nodes =
      List.concat_map (fun ((a, b), _) -> [ a; b ]) edges |> List.sort_uniq compare
    in
    let cycles = ref [] in
    let canon c =
      let m = List.fold_left min (List.hd c) c in
      let rec rot = function
        | x :: rest when x <> m -> rot (rest @ [ x ])
        | l -> l
      in
      rot c
    in
    let color = Hashtbl.create 8 in
    let rec visit path a =
      match Hashtbl.find_opt color a with
      | Some 2 -> ()
      | Some 1 ->
          let rec suffix = function
            | [] -> []
            | x :: _ when x = a -> [ x ]
            | x :: rest -> x :: suffix rest
          in
          let c = canon (List.rev (suffix path)) in
          if not (List.mem c !cycles) then cycles := c :: !cycles
      | _ ->
          Hashtbl.replace color a 1;
          List.iter (visit (a :: path)) (succs a);
          Hashtbl.replace color a 2
    in
    List.iter (visit []) nodes;
    List.rev !cycles

  let deadlocks sw =
    find_cycles sw.edges
    |> List.map (fun cycle ->
           (* witness: one representative acquisition path per edge of
              the cycle, typically from different threads *)
           let edge_wits =
             let rec arcs = function
               | a :: (b :: _ as rest) -> (a, b) :: arcs rest
               | [ last ] -> [ last, List.hd cycle ]
               | [] -> []
             in
             List.filter_map (fun e -> List.assoc_opt e sw.edges) (arcs cycle)
           in
           let tid, node =
             match edge_wits with (t, n, _) :: _ -> t, n | [] -> 0, 0
           in
           {
             pass = "lockorder";
             severity = Error;
             detail = Deadlock { cycle };
             tid;
             node;
             message =
               Printf.sprintf
                 "lock-order cycle %s exists across CFG paths: two tasks taking \
                  the classes in opposite order deadlock under an adversarial \
                  schedule"
                 (String.concat " -> " (cycle @ [ List.hd cycle ]));
             witness = List.concat_map (fun (_, _, w) -> w) edge_wits;
           })

  let run p =
    let sw = sweep p in
    races p sw @ deadlocks sw @ sw.findings

  (* The class-level order graph and its cycles, for cross-checking
     against dynamic lockdep observations (Mpk_check.Lockdep). *)
  let order_edges p = List.map fst (sweep p).edges |> List.sort compare
  let cycles p = find_cycles (sweep p).edges
end

(* --- driver --- *)

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let classic_passes =
  [
    "typestate", Typestate.run;
    "balance", Balance.run;
    "wx", Wx.run;
    "gadget", Gadget.run;
    "toctou", Toctou.run;
  ]

let concurrency_passes = [ "lockset"; "lockorder"; "atomicity" ]
let pass_names = List.map fst classic_passes @ concurrency_passes

(* Stable order — severity, then tid, then node (then pass/message as
   final tie-breaks) — so CI diffs of lint output are deterministic. *)
let sort_findings fs =
  List.sort
    (fun a b ->
      compare
        (severity_rank a.severity, a.tid, a.node, a.pass, a.message)
        (severity_rank b.severity, b.tid, b.node, b.pass, b.message))
    fs

let analyze_with ~passes p =
  let wanted n = List.mem n passes in
  let classic =
    List.concat_map (fun (n, f) -> if wanted n then f p else []) classic_passes
  in
  let conc =
    if List.exists wanted concurrency_passes then
      Concurrency.run p |> List.filter (fun f -> wanted f.pass)
    else []
  in
  sort_findings (classic @ conc)

let analyze p = analyze_with ~passes:pass_names p
let analyze_concurrency p = analyze_with ~passes:concurrency_passes p
let static_lock_edges = Concurrency.order_edges
let static_lock_cycles = Concurrency.cycles
