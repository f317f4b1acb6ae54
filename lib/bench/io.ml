module J = Mpk_trace.Json

type kind = Bench | Bench_diff | Profile | Scale_report | Perfetto

let kind_name = function
  | Bench -> "bench report"
  | Bench_diff -> "bench diff report"
  | Profile -> "profile export"
  | Scale_report -> "scale report"
  | Perfetto -> "perfetto trace"

let ( let* ) = Result.bind

let require name shape check j =
  match J.member name j with
  | None -> Error (Printf.sprintf "missing member %S" name)
  | Some v ->
      if check v then Ok v
      else Error (Printf.sprintf "member %S is not %s" name shape)

let is_string = function J.String _ -> true | _ -> false
let is_bool = function J.Bool _ -> true | _ -> false
let is_number j = J.to_number j <> None
let is_obj = function J.Obj _ -> true | _ -> false
let is_list = function J.List _ -> true | _ -> false
let is_nonempty_list = function J.List (_ :: _) -> true | _ -> false

let unit_of r = Result.map ignore r

let each_of_list name check j =
  match J.member name j with
  | Some (J.List items) ->
      let rec go i = function
        | [] -> Ok ()
        | item :: rest -> (
            match check item with
            | Ok () -> go (i + 1) rest
            | Error e -> Error (Printf.sprintf "%s[%d]: %s" name i e))
      in
      go 0 items
  | Some _ | None -> Error (Printf.sprintf "missing list member %S" name)

let check_verdict j =
  let* _ = require "name" "a string" is_string j in
  let* v = require "verdict" "a string" is_string j in
  let* () =
    match v with
    | J.String ("improved" | "unchanged" | "regressed") -> Ok ()
    | J.String s -> Error (Printf.sprintf "unknown verdict %S" s)
    | _ -> Ok ()
  in
  unit_of (require "worst" "an object" is_obj j)

let validate kind j =
  let result =
    match kind with
    | Perfetto -> unit_of (require "traceEvents" "a non-empty list" is_nonempty_list j)
    | Profile ->
        let* _ = require "experiment" "a string" is_string j in
        let* _ = require "cycles_charged" "a number" is_number j in
        let* _ = require "cycles_attributed" "a number" is_number j in
        let* _ = require "attribution_exact" "a bool" is_bool j in
        let* _ = require "profile" "an object" is_obj j in
        unit_of (require "metrics" "a list" is_list j)
    | Scale_report ->
        let* b = require "bench" "a string" is_string j in
        let* () =
          match b with
          | J.String "scale" -> Ok ()
          | _ -> Error "member \"bench\" is not \"scale\""
        in
        let* _ = require "points" "a non-empty list" is_nonempty_list j in
        unit_of (require "valid" "a bool" is_bool j)
    | Bench -> unit_of (Runner.of_json j)
    | Bench_diff ->
        let* s = require "schema" "a string" is_string j in
        let* () =
          match s with
          | J.String "bench-diff/2" -> Ok ()
          | _ -> Error "member \"schema\" is not \"bench-diff/2\""
        in
        let* _ = require "regressed" "a bool" is_bool j in
        let* () =
          each_of_list "results"
            (fun r ->
              let* _ = require "experiment" "a string" is_string r in
              let* () = each_of_list "verdicts" check_verdict r in
              unit_of (require "regressed" "a bool" is_bool r))
            j
        in
        unit_of (require "attribution" "a list" is_list j)
  in
  Result.map_error (fun e -> Printf.sprintf "%s: %s" (kind_name kind) e) result

let write_file path content =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc content)

let write_string ~path kind content =
  match J.parse content with
  | Error e -> Error (Printf.sprintf "%s does not re-parse: %s" (kind_name kind) e)
  | Ok j ->
      let* () = validate kind j in
      (match write_file path content with
      | () -> Ok ()
      | exception Sys_error e -> Error e)

let write ~path kind j =
  match J.to_string ~indent:1 j with
  | content -> write_string ~path kind content
  | exception Invalid_argument e ->
      Error (Printf.sprintf "%s does not serialize: %s" (kind_name kind) e)

let read_baseline ~id ~path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | content ->
      let in_file e = Printf.sprintf "%s: %s: %s" path (kind_name Bench) e in
      let* j = Result.map_error in_file (J.parse content) in
      let* r = Result.map_error in_file (Runner.of_json j) in
      if r.Runner.r_id = id then Ok r
      else
        Error
          (Printf.sprintf "%s: baseline of experiment %S, not %S" path r.Runner.r_id id)
