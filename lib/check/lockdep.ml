open Mpk_kernel

(* Lockdep-style lock-discipline validator (DESIGN.md §13).

   Installs itself as the kernel Lock module's event hook and tracks,
   per actor, the stack of held locks. From the held-sets it builds the
   class-level lock-order graph ("while holding A, acquired B"); an
   edge whose reverse is also witnessed — or any longer cycle found at
   the quiescent sweep — is an ordering inversion that could deadlock
   under an adversarial schedule even if this run survived. Attempts
   that would wait on the acquiring actor's own holds (shared→exclusive
   upgrades) are self-deadlocks; releases with no matching hold and
   holds outliving quiescence (leaked vm_refcnt references) round out
   the findings. Wired into the auditor as invariant I7. *)

type finding =
  | Inversion of { first : string * string; second : string * string; actor : int }
  | Cycle of { classes : string list }
  | Same_class_nesting of { cls : string; actor : int }
  | Self_deadlock of { cls : string; actor : int }
  | Release_not_held of { cls : string; actor : int }
  | Leak of { cls : string; actor : int; count : int }

let to_string = function
  | Inversion { first = a1, b1; second = a2, b2; actor } ->
      Printf.sprintf
        "lock-order inversion: %s -> %s contradicts established %s -> %s (actor %d)"
        a2 b2 a1 b1 actor
  | Cycle { classes } ->
      Printf.sprintf "lock-order cycle: %s" (String.concat " -> " classes)
  | Same_class_nesting { cls; actor } ->
      Printf.sprintf "unannotated same-class nesting of %s by actor %d" cls actor
  | Self_deadlock { cls; actor } ->
      Printf.sprintf "self-deadlock: actor %d waits on its own hold of %s" actor cls
  | Release_not_held { cls; actor } ->
      Printf.sprintf "release of %s not held by actor %d" cls actor
  | Leak { cls; actor; count } ->
      Printf.sprintf "%d %s reference(s) held by actor %d at quiescence" count cls
        actor

(* --- state --- *)

type hold = { lock_id : int; hcls : string; hmode : Lock.mode }

(* A recording, open or closed. *)
type capture = {
  held : (int, hold list ref) Hashtbl.t;
  edges : (string * string, unit) Hashtbl.t;
  mutable findings_rev : finding list;
}

let opened : capture option ref = ref None

let held_of r actor =
  match Hashtbl.find_opt r.held actor with
  | Some l -> l
  | None ->
      let l = ref [] in
      Hashtbl.replace r.held actor l;
      l

(* Findings are deduplicated: a buggy loop shouldn't bury the report
   under thousands of copies of the same inversion. *)
let add_finding r f =
  if not (List.mem f r.findings_rev) then r.findings_rev <- f :: r.findings_rev

let on_event r = function
  | Lock.Attempt { lock; mode; actor } ->
      let h = !(held_of r actor) in
      let lid = Lock.id lock in
      let cls = Lock.cls lock in
      (* A shared→exclusive upgrade waits for the refcount it holds
         itself; reentrant exclusive (and shared-under-own-exclusive)
         are granted by the lock and are fine. *)
      (match mode with
      | Lock.Exclusive ->
          if
            List.exists (fun hd -> hd.lock_id = lid && hd.hmode = Lock.Shared) h
            && not
                 (List.exists
                    (fun hd -> hd.lock_id = lid && hd.hmode = Lock.Exclusive)
                    h)
          then add_finding r (Self_deadlock { cls; actor })
      | Lock.Shared -> ());
      List.iter
        (fun hd ->
          if hd.lock_id <> lid then
            if hd.hcls = cls then
              (* Same-class nesting needs an ordering annotation real
                 lockdep would demand; we simply forbid it. *)
              add_finding r (Same_class_nesting { cls; actor })
            else begin
              Hashtbl.replace r.edges (hd.hcls, cls) ();
              if Hashtbl.mem r.edges (cls, hd.hcls) then
                add_finding r
                  (Inversion
                     { first = (cls, hd.hcls); second = (hd.hcls, cls); actor })
            end)
        h
  | Lock.Acquired { lock; mode; actor } ->
      let h = held_of r actor in
      h := { lock_id = Lock.id lock; hcls = Lock.cls lock; hmode = mode } :: !h
  | Lock.Contended _ -> ()
  | Lock.Released { lock; mode; actor } ->
      let h = held_of r actor in
      let lid = Lock.id lock in
      let rec drop = function
        | [] -> None
        | hd :: rest when hd.lock_id = lid && hd.hmode = mode -> Some rest
        | hd :: rest -> Option.map (fun tl -> hd :: tl) (drop rest)
      in
      (match drop !h with
      | Some rest -> h := rest
      | None -> add_finding r (Release_not_held { cls = Lock.cls lock; actor }))

(* --- recording --- *)

(* A fresh recording is the open one for [f]'s nested [record]. *)
let rec record f =
  match !opened with
  | Some r -> (f (), r)
  | None ->
      let r = { held = Hashtbl.create 16; edges = Hashtbl.create 16; findings_rev = [] } in
      opened := Some r;
      Lock.set_hook (on_event r);
      Fun.protect
        ~finally:(fun () ->
          Lock.clear_hook ();
          opened := None)
        (fun () -> record f)

let findings c = List.rev c.findings_rev

let order_edges c = Hashtbl.fold (fun e () acc -> e :: acc) c.edges [] |> List.sort compare

let findings_so_far () = match !opened with None -> [] | Some r -> findings r

(* --- quiescent checks --- *)

(* Full-graph cycle sweep: pairwise detection above only catches
   2-cycles as they form; longer cycles surface here. *)
let cycle_sweep r =
  let nodes = Hashtbl.create 8 in
  Hashtbl.iter
    (fun (a, b) () ->
      Hashtbl.replace nodes a ();
      Hashtbl.replace nodes b ())
    r.edges;
  let succs a =
    Hashtbl.fold (fun (x, y) () acc -> if x = a then y :: acc else acc) r.edges []
  in
  let color = Hashtbl.create 8 in
  (* 0 = unvisited (absent), 1 = on stack, 2 = done *)
  let rec visit path a =
    match Hashtbl.find_opt color a with
    | Some 2 -> ()
    | Some 1 ->
        (* [path] holds the DFS stack newest-first; the cycle is the
           suffix from the repeated node. *)
        let rec suffix = function
          | [] -> []
          | x :: _ when x = a -> [ x ]
          | x :: rest -> x :: suffix rest
        in
        add_finding r (Cycle { classes = List.rev (suffix path) @ [ a ] })
    | _ ->
        Hashtbl.replace color a 1;
        List.iter (visit (a :: path)) (List.sort compare (succs a));
        Hashtbl.replace color a 2
  in
  Hashtbl.iter (fun a () -> visit [] a) nodes

let check_quiescent () =
  match !opened with
  | None -> ()
  | Some r ->
      Hashtbl.iter
        (fun actor holds ->
          let by_cls = Hashtbl.create 4 in
          List.iter
            (fun hd ->
              let prev = Option.value (Hashtbl.find_opt by_cls hd.hcls) ~default:0 in
              Hashtbl.replace by_cls hd.hcls (prev + 1))
            !holds;
          Hashtbl.iter
            (fun cls count -> add_finding r (Leak { cls; actor; count }))
            by_cls)
        r.held;
      (* vm_refcnt puts against a recycled vma must have pinned (and then
         dropped) the foreign owner; a nonzero net grab count means a drop
         went missing. *)
      let grabs = Vma.grabs_outstanding () in
      if grabs <> 0 then
        add_finding r (Leak { cls = "mm_grab"; actor = -1; count = grabs });
      cycle_sweep r
