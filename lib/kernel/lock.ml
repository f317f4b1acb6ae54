(* Kernel locking primitive: a reader/writer lock with per-actor hold
   counts, used for the mm-wide lock and the per-VMA locks (where the
   shared side doubles as Linux's vm_refcnt).

   The simulator is single-threaded, so the lock does not need atomics;
   what it needs is *observability* and *schedulability*:
   - every transition is reported through an event hook so the lockdep
     validator (lib/check/lockdep.ml) can track held-sets and ordering
     without the kernel depending on the check layer;
   - a contended acquire calls the wait hook instead of spinning, so the
     torture scheduler can park the acquiring fiber until the holder
     runs again. Outside torture nothing can release a lock behind the
     caller's back, so the default wait hook raises [Would_block]:
     contention in sequential mode is by definition a self-deadlock. *)

type mode = Shared | Exclusive

type t = {
  id : int;
  cls : string;
  mutable writer : int;  (* actor holding exclusively, while [write_depth > 0] *)
  mutable write_depth : int;  (* reentrant exclusive holds; 0 when not write-held *)
  mutable readers : (int * int) list;  (* actor -> shared hold count *)
}

type event =
  | Attempt of { lock : t; mode : mode; actor : int }
  | Acquired of { lock : t; mode : mode; actor : int }
  | Contended of { lock : t; mode : mode; actor : int }
  | Released of { lock : t; mode : mode; actor : int }

exception Would_block of string

let next_id = ref 0

(* Class registry: every class ever constructed. Tools that model the
   lock hierarchy (the static concurrency analyzer's protocol programs)
   validate their class names against this, so a model can't silently
   drift from the kernel's real classes. *)
let classes : (string, unit) Hashtbl.t = Hashtbl.create 8

let known_classes () =
  Hashtbl.fold (fun c () acc -> c :: acc) classes [] |> List.sort compare

let make ~cls =
  incr next_id;
  Hashtbl.replace classes cls ();
  { id = !next_id; cls; writer = -1; write_depth = 0; readers = [] }

let id t = t.id
let cls t = t.cls

(* --- observation hooks --- *)

let hook : (event -> unit) option ref = ref None

(* Install [v] in [r] for [f]'s extent. *)
let scoped r v f =
  let outer = !r in
  r := v;
  Fun.protect ~finally:(fun () -> r := outer) f

let with_hook h f = scoped hook (Some h) f

(* An event is built only while a hook is installed: with none, a
   transition allocates nothing for it. *)
let observe event t mode ~actor =
  match !hook with None -> () | Some h -> h (event t mode actor)

let attempt lock mode actor = Attempt { lock; mode; actor }
let acquired lock mode actor = Acquired { lock; mode; actor }
let contended lock mode actor = Contended { lock; mode; actor }
let released lock mode actor = Released { lock; mode; actor }

let default_wait t ~actor =
  raise
    (Would_block
       (Printf.sprintf "%s#%d: actor %d blocked with no scheduler installed" t.cls
          t.id actor))

let wait_hook : (t -> actor:int -> unit) ref = ref default_wait
let with_wait_hook w f = scoped wait_hook w f

(* Releases of locks not held: counted rather than fatal (real lockdep
   WARNs); the validator turns the event into a finding. *)
let unbalanced_releases = ref 0
let unbalanced () = !unbalanced_releases

let mode_excl = function Shared -> false | Exclusive -> true

let emit_ev ctor t mode ~actor =
  if Mpk_trace.Tracer.on () then
    Mpk_trace.Tracer.emit_floating (ctor ~cls:t.cls ~excl:(mode_excl mode) ~actor)

let emit_acquire =
  emit_ev (fun ~cls ~excl ~actor -> Mpk_trace.Event.Lock_acquire { cls; excl; actor })

let emit_release =
  emit_ev (fun ~cls ~excl ~actor -> Mpk_trace.Event.Lock_release { cls; excl; actor })

let emit_contended =
  emit_ev (fun ~cls ~excl ~actor ->
      Mpk_trace.Event.Lock_contended { cls; excl; actor })

(* --- state queries --- *)

let reader_count t = List.fold_left (fun acc (_, c) -> acc + c) 0 t.readers

let reader_count_of t ~actor =
  match List.assoc_opt actor t.readers with Some c -> c | None -> 0

let write_locked t = t.write_depth > 0

(* --- transitions --- *)

let bump_reader t actor delta =
  let current = reader_count_of t ~actor in
  let next = current + delta in
  let rest = List.remove_assoc actor t.readers in
  t.readers <- (if next > 0 then (actor, next) :: rest else rest)

let try_transition t mode ~actor =
  match mode with
  | Shared ->
      if write_locked t && t.writer <> actor then false
      else begin
        bump_reader t actor 1;
        true
      end
  | Exclusive ->
      if write_locked t then begin
        let reentrant = t.writer = actor in
        if reentrant then t.write_depth <- t.write_depth + 1;
        reentrant
      end
      else if reader_count t > 0 then
        (* Readers (including our own: an upgrade would wait on itself)
           must drain first. *)
        false
      else begin
        t.writer <- actor;
        t.write_depth <- 1;
        true
      end

let try_acquire t mode ~actor =
  observe attempt t mode ~actor;
  if try_transition t mode ~actor then begin
    observe acquired t mode ~actor;
    emit_acquire t mode ~actor;
    true
  end
  else false

let acquire t mode ~actor =
  observe attempt t mode ~actor;
  if not (try_transition t mode ~actor) then begin
    observe contended t mode ~actor;
    emit_contended t mode ~actor;
    while not (try_transition t mode ~actor) do
      !wait_hook t ~actor
    done
  end;
  observe acquired t mode ~actor;
  emit_acquire t mode ~actor

let release t mode ~actor =
  observe released t mode ~actor;
  emit_release t mode ~actor;
  match mode with
  | Shared ->
      if reader_count_of t ~actor > 0 then bump_reader t actor (-1)
      else incr unbalanced_releases
  | Exclusive ->
      if write_locked t && t.writer = actor then t.write_depth <- t.write_depth - 1
      else incr unbalanced_releases
