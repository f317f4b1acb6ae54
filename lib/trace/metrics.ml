(* Process-wide metrics registry: counters and gauges, exported as JSON. *)

type counter = float ref
type gauge = float ref

type kind = Counter | Gauge

type metric = { name : string; help : string; kind : kind; value : float ref }

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

(* Registration order, for stable export output. *)
let order : string list ref = ref []

let kind_to_string = function Counter -> "counter" | Gauge -> "gauge"

let find_or_register ~name ~help ~kind =
  match Hashtbl.find_opt registry name with
  | Some m ->
      if m.kind <> kind then
        invalid_arg
          (Printf.sprintf "Metrics: %s already registered as a %s" name
             (kind_to_string m.kind));
      m.value
  | None ->
      let value = ref 0.0 in
      Hashtbl.replace registry name { name; help; kind; value };
      order := name :: !order;
      value

let counter ?(help = "") name = find_or_register ~name ~help ~kind:Counter
let gauge ?(help = "") name = find_or_register ~name ~help ~kind:Gauge

let inc ?(by = 1.0) c = c := !c +. by
let set g v = g := v

(* Bumped on every [reset] so callers caching metric handles (the
   tracer's per-kind counter memo) can notice their handles went stale. *)
let generation_counter = ref 0

let generation () = !generation_counter

let reset () =
  Hashtbl.reset registry;
  order := [];
  incr generation_counter

let export_json () =
  let metric_json m =
    let common = [ "name", Json.String m.name; "type", Json.String (kind_to_string m.kind) ] in
    let help = if m.help = "" then [] else [ "help", Json.String m.help ] in
    Json.Obj (common @ help @ [ "value", Json.Float !(m.value) ])
  in
  Json.List
    (List.filter_map
       (fun name -> Option.map metric_json (Hashtbl.find_opt registry name))
       (List.rev !order))
