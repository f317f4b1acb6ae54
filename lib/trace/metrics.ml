(* Process-wide metrics registry: counters, gauges, and fixed-bucket
   histograms (Util.Stats.Histogram), exported as JSON. *)

module Stats = Mpk_util.Stats

type counter = float ref
type gauge = float ref

type value = Scalar of float ref | Hist of Stats.Histogram.h
type kind = Counter | Gauge | Histogram

type metric = { name : string; help : string; kind : kind; value : value }

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

(* Registration order, for stable export output. *)
let order : string list ref = ref []

let kind_to_string = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"

let find_or_register ~name ~help ~kind make =
  match Hashtbl.find_opt registry name with
  | Some m ->
      if m.kind <> kind then
        invalid_arg
          (Printf.sprintf "Metrics: %s already registered as a %s" name
             (kind_to_string m.kind));
      m.value
  | None ->
      let value = make () in
      Hashtbl.replace registry name { name; help; kind; value };
      order := name :: !order;
      value

let counter ?(help = "") name =
  match find_or_register ~name ~help ~kind:Counter (fun () -> Scalar (ref 0.0)) with
  | Scalar r -> r
  | Hist _ -> assert false

let gauge ?(help = "") name =
  match find_or_register ~name ~help ~kind:Gauge (fun () -> Scalar (ref 0.0)) with
  | Scalar r -> r
  | Hist _ -> assert false

let histogram ?(help = "") ?lo ?growth ?buckets name =
  match
    find_or_register ~name ~help ~kind:Histogram (fun () ->
        Hist (Stats.Histogram.create ?lo ?growth ?buckets ()))
  with
  | Hist h -> h
  | Scalar _ -> assert false

let inc ?(by = 1.0) c = c := !c +. by
let set g v = g := v
let observe = Stats.Histogram.add

(* Bumped on every [reset] so callers caching metric handles (the
   tracer's per-kind counter memo) can notice their handles went stale. *)
let generation_counter = ref 0

let generation () = !generation_counter

let reset () =
  Hashtbl.reset registry;
  order := [];
  incr generation_counter

let is_empty () = Hashtbl.length registry = 0

let registered () = List.rev !order

let export_json () =
  let metric_json m =
    let common = [ "name", Json.String m.name; "type", Json.String (kind_to_string m.kind) ] in
    let help = if m.help = "" then [] else [ "help", Json.String m.help ] in
    let payload =
      match m.value with
      | Scalar r -> [ "value", Json.Float !r ]
      | Hist h ->
          let n = Stats.Histogram.count h in
          let buckets =
            Array.to_list (Stats.Histogram.buckets h)
            |> List.map (fun (ub, c) ->
                   Json.Obj
                     [
                       ("le", if ub = infinity then Json.String "+Inf" else Json.Float ub);
                       "count", Json.Int c;
                     ])
          in
          [
            "count", Json.Int n;
            "sum", Json.Float (Stats.Histogram.total h);
            ( "p50",
              if n = 0 then Json.Null else Json.Float (Stats.Histogram.p50 h) );
            ( "p95",
              if n = 0 then Json.Null else Json.Float (Stats.Histogram.p95 h) );
            ( "p99",
              if n = 0 then Json.Null else Json.Float (Stats.Histogram.p99 h) );
            "buckets", Json.List buckets;
          ]
    in
    Json.Obj (common @ help @ payload)
  in
  Json.List
    (List.filter_map
       (fun name -> Option.map metric_json (Hashtbl.find_opt registry name))
       (registered ()))
