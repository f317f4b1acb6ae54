type plan =
  | Once of int
  | Every of int
  | Prob of float

type stats = { name : string; hits : int; fired : int }

type point = { plan : plan; mutable hits : int; mutable fired : int }

(* An injection: the points it armed, with their counters, and the PRNG
   behind its [Prob] plans. *)
type injection = { armed : (string, point) Hashtbl.t; prng : Mpk_util.Prng.t }

let declared : string list ref = ref []  (* registration order, reversed *)

(* The open injection, [None] while nothing is armed. *)
let current : injection option ref = ref None

let declare name = if not (List.mem name !declared) then declared := name :: !declared
let points () = List.rev !declared

let check_plan = function
  | Every n when n < 1 -> invalid_arg "Mpk_faultinj.inject: Every requires n >= 1"
  | Once n when n < 0 -> invalid_arg "Mpk_faultinj.inject: Once requires n >= 0"
  | Prob p when not (p >= 0.0 && p <= 1.0) ->
      invalid_arg "Mpk_faultinj.inject: Prob requires p in [0, 1]"
  | Once _ | Every _ | Prob _ -> ()

let inject ~seed plans f =
  let armed = Hashtbl.create 8 in
  List.iter
    (fun (name, plan) ->
      check_plan plan;
      declare name;
      Hashtbl.replace armed name { plan; hits = 0; fired = 0 })
    plans;
  let outer = !current in
  current :=
    if Hashtbl.length armed = 0 then None
    else Some { armed; prng = Mpk_util.Prng.create ~seed };
  let result = Fun.protect ~finally:(fun () -> current := outer) f in
  let stats_of name =
    Option.map (fun p -> { name; hits = p.hits; fired = p.fired }) (Hashtbl.find_opt armed name)
  in
  (result, List.filter_map stats_of (points ()))

(* The armed path, kept out of line so that [fire] inlines into every
   caller as one load and one compare. *)
let fire_armed inj name =
  match Hashtbl.find inj.armed name with
  | exception Not_found -> false
  | p ->
      let n = p.hits in
      p.hits <- n + 1;
      let hit =
        match p.plan with
        | Once k -> n = k
        | Every k -> (n + 1) mod k = 0
        | Prob pr -> Mpk_util.Prng.bool inj.prng ~p:pr
      in
      if hit then begin
        p.fired <- p.fired + 1;
        (* Fault firings have no core context of their own; the tracer
           stamps them with the newest cycle time seen anywhere. *)
        if Mpk_trace.Tracer.on () then
          Mpk_trace.Tracer.emit_floating (Mpk_trace.Event.Fault_point_fired { point = name })
      end;
      hit

let[@inline] fire name = match !current with None -> false | Some inj -> fire_armed inj name

let plan_to_string = function
  | Once n -> Printf.sprintf "@%d" n
  | Every n -> Printf.sprintf "%%%d" n
  | Prob p -> Printf.sprintf "~%g" p

let spec_grammar =
  "comma-separated failure points: NAME (fire on first hit), NAME@N (fire once on the \
   N-th hit, 0-based), NAME%N (fire every N-th hit), NAME~P (fire with probability P)"

let parse_one s =
  let split c =
    match String.index_opt s c with
    | Some i -> Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    | None -> None
  in
  let with_name name plan =
    if name = "" then Error (Printf.sprintf "empty point name in %S" s) else plan name
  in
  match split '@' with
  | Some (name, n) ->
      with_name name (fun name ->
          match int_of_string_opt n with
          | Some n when n >= 0 -> Ok (name, Once n)
          | Some _ | None -> Error (Printf.sprintf "bad hit index in %S" s))
  | None -> (
      match split '%' with
      | Some (name, n) ->
          with_name name (fun name ->
              match int_of_string_opt n with
              | Some n when n >= 1 -> Ok (name, Every n)
              | Some _ | None -> Error (Printf.sprintf "bad period in %S" s))
      | None -> (
          match split '~' with
          | Some (name, p) ->
              with_name name (fun name ->
                  match float_of_string_opt p with
                  | Some p when p >= 0.0 && p <= 1.0 -> Ok (name, Prob p)
                  | Some _ | None -> Error (Printf.sprintf "bad probability in %S" s))
          | None -> with_name s (fun name -> Ok (name, Once 0))))

let parse_spec spec =
  let items =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  if items = [] then Error "empty failure spec"
  else
    List.fold_left
      (fun acc item ->
        match acc, parse_one item with
        | Error _, _ -> acc
        | _, Error e -> Error e
        | Ok l, Ok kv -> Ok (kv :: l))
      (Ok []) items
    |> Result.map List.rev
