(* Hierarchical cycle attribution.

   Every [Cpu.charge] carries an optional label; while a profile is
   recording, each charge is recorded as "self" cycles on a node whose
   path is (open span names ++ label). The tree answers "where did this
   run's cycles go" — e.g. mpk_begin/wrpkru vs mprotect/tlb_flush — and
   exports as an indented table or folded stacks for flamegraph tools.

   Exactness contract (checked by `mpkctl profile`): a recording's
   [total] is advanced by the same float additions, in the same order,
   as [Cpu.total_charged], both starting from 0.0 — so their final
   values are bit-identical, with no FP-reassociation slack. *)

type node = {
  mutable self : float;  (* cycles charged directly at this path *)
  mutable calls : int;  (* span entries, or charge events on leaves *)
  children : (string, node) Hashtbl.t;
  order : string list ref;  (* child insertion order, for stable output *)
}

let fresh () = { self = 0.0; calls = 0; children = Hashtbl.create 8; order = ref [] }

(* A recording, open or closed. *)
type capture = {
  mutable root : node;
  mutable cursor : node list;  (* innermost first; [] = root *)
  mutable total : float;
}

let blank () = { root = fresh (); cursor = []; total = 0.0 }

let opened : capture option ref = ref None

let unattributed = "(unattributed)"

let on () = match !opened with Some _ -> true | None -> false

let child n label =
  match Hashtbl.find_opt n.children label with
  | Some c -> c
  | None ->
      let c = fresh () in
      Hashtbl.replace n.children label c;
      n.order := label :: !(n.order);
      c

let innermost r = match r.cursor with n :: _ -> n | [] -> r.root

let enter label =
  match !opened with
  | None -> ()
  | Some r ->
      let c = child (innermost r) label in
      c.calls <- c.calls + 1;
      r.cursor <- c :: r.cursor

let exit_ () =
  match !opened with
  | Some ({ cursor = _ :: tl; _ } as r) -> r.cursor <- tl
  | Some _ | None -> ()

let charge ?label cycles =
  match !opened with
  | None -> ()
  | Some r ->
      r.total <- r.total +. cycles;
      let label = match label with Some l -> l | None -> unattributed in
      let n = child (innermost r) label in
      n.self <- n.self +. cycles;
      n.calls <- n.calls + 1

(* A fresh profile is the open one for [f]'s nested [record]. *)
let rec record f =
  match !opened with
  | Some r -> (f (), r)
  | None ->
      opened := Some (blank ());
      Fun.protect ~finally:(fun () -> opened := None) (fun () -> record f)

let current () = !opened
let total c = c.total

(* ---------- queries / export ---------- *)

type snapshot = {
  label : string;
  self : float;
  calls : int;
  total : float;  (* self + all descendants *)
  children : snapshot list;
}

let rec snap label (n : node) =
  let children =
    List.rev_map (fun l -> snap l (Hashtbl.find n.children l)) !(n.order)
  in
  (* Largest subtrees first makes the rendered tree scannable. *)
  let children =
    List.stable_sort (fun a b -> Float.compare b.total a.total) children
  in
  let total = List.fold_left (fun acc c -> acc +. c.total) n.self children in
  { label; self = n.self; calls = n.calls; total; children }

let tree (c : capture) = snap "root" c.root

let folded c =
  let buf = Buffer.create 1024 in
  let rec walk path s =
    let path = if s.label = "root" then path else path @ [ s.label ] in
    if s.self > 0.0 && path <> [] then
      Buffer.add_string buf
        (Printf.sprintf "%s %.1f\n" (String.concat ";" path) s.self);
    List.iter (walk path) s.children
  in
  walk [] (tree c);
  Buffer.contents buf

let render c =
  let buf = Buffer.create 1024 in
  let s = tree c in
  let rec walk depth s =
    Buffer.add_string buf
      (Printf.sprintf "%-44s %14.1f %14.1f %10d\n"
         (String.make (2 * depth) ' ' ^ s.label)
         s.total s.self s.calls);
    List.iter (walk (depth + 1)) s.children
  in
  Buffer.add_string buf
    (Printf.sprintf "%-44s %14s %14s %10s\n" "span/label" "total cy" "self cy" "calls");
  if s.children = [] then Buffer.add_string buf "(no cycles attributed)\n"
  else List.iter (walk 0) s.children;
  Buffer.contents buf

let rec json_of_snapshot s =
  Json.Obj
    [
      "label", Json.String s.label;
      "self_cycles", Json.Float s.self;
      "total_cycles", Json.Float s.total;
      "calls", Json.Int s.calls;
      "children", Json.List (List.map json_of_snapshot s.children);
    ]

(* Inverse of [json_of_snapshot], for reloading committed BENCH_*.json
   profiles so `mpkctl profile diff` / `bench diff` can align a fresh
   tree against them. Strict: a malformed node names itself in the
   error rather than collapsing to a partial tree. *)
let snapshot_of_json j =
  let ( let* ) = Result.bind in
  let num name j =
    match Option.bind (Json.member name j) Json.to_number with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "profile node: missing or non-numeric %S" name)
  in
  let rec node j =
    let* label =
      match Option.bind (Json.member "label" j) Json.to_string_opt with
      | Some l -> Ok l
      | None -> Error "profile node: missing string \"label\""
    in
    let ctx = Result.map_error (fun e -> Printf.sprintf "%s (under %S)" e label) in
    let* self = ctx (num "self_cycles" j) in
    let* total = ctx (num "total_cycles" j) in
    let* calls = ctx (num "calls" j) in
    let* children =
      match Option.bind (Json.member "children" j) Json.to_list with
      | None -> Error (Printf.sprintf "profile node %S: missing children array" label)
      | Some l ->
          List.fold_left
            (fun acc c ->
              let* acc = acc in
              let* c = node c in
              Ok (c :: acc))
            (Ok []) l
          |> Result.map List.rev
    in
    Ok { label; self; calls = int_of_float calls; total; children }
  in
  node j

(* The profile the controls steer. *)
let controlled = blank ()

let enable () = opened := Some controlled
let disable () = opened := None

let reset () =
  controlled.root <- fresh ();
  controlled.cursor <- [];
  controlled.total <- 0.0

let total_recorded () = controlled.total
let snapshot () = tree controlled
