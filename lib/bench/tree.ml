module P = Mpk_trace.Prof

type status = Matched | Added | Removed | Renamed of string

type delta = {
  path : string list;
  status : status;
  base_self : float;
  cur_self : float;
  base_total : float;
  cur_total : float;
  base_calls : int;
  cur_calls : int;
}

(* Relative tolerance for "these two nodes carry identical cycles" in
   rename detection. The simulator is deterministic, so true renames
   agree bit-for-bit; the epsilon only absorbs FP-reassociation slack in
   [total]. *)
let feq a b =
  Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let pair_delta path status (b : P.snapshot) (c : P.snapshot) =
  {
    path;
    status;
    base_self = b.P.self;
    cur_self = c.P.self;
    base_total = b.P.total;
    cur_total = c.P.total;
    base_calls = b.P.calls;
    cur_calls = c.P.calls;
  }

let added_delta path (c : P.snapshot) =
  {
    path;
    status = Added;
    base_self = 0.0;
    cur_self = c.P.self;
    base_total = 0.0;
    cur_total = c.P.total;
    base_calls = 0;
    cur_calls = c.P.calls;
  }

let removed_delta path (b : P.snapshot) =
  {
    path;
    status = Removed;
    base_self = b.P.self;
    cur_self = 0.0;
    base_total = b.P.total;
    cur_total = 0.0;
    base_calls = b.P.calls;
    cur_calls = 0;
  }

let diff ~base ~cur =
  let acc = ref [] in
  let emit d = acc := d :: !acc in
  (* Diff the child lists of an aligned pair; [path] addresses the pair. *)
  let rec children path (b : P.snapshot) (c : P.snapshot) =
    let b_matched =
      List.filter
        (fun (bc : P.snapshot) ->
          List.exists (fun (cc : P.snapshot) -> cc.P.label = bc.P.label) c.P.children)
        b.P.children
    in
    let b_unmatched =
      List.filter (fun (bc : P.snapshot) -> not (List.memq bc b_matched)) b.P.children
    in
    (* Renames: pair leftovers whose cycle/call signature is identical.
       Greedy first-match — signatures are exact, so ambiguity would
       need two identical siblings, in which case either pairing reads
       the same. *)
    let renamed = ref [] in
    let claimed = ref [] in
    List.iter
      (fun (bc : P.snapshot) ->
        match
          List.find_opt
            (fun (cc : P.snapshot) ->
              (not (List.memq cc !claimed))
              && (not
                    (List.exists
                       (fun (bc' : P.snapshot) -> bc'.P.label = cc.P.label)
                       b.P.children))
              && bc.P.calls = cc.P.calls && feq bc.P.self cc.P.self
              && feq bc.P.total cc.P.total)
            c.P.children
        with
        | Some cc ->
            claimed := cc :: !claimed;
            renamed := (bc, cc) :: !renamed
        | None -> ())
      b_unmatched;
    let renamed = List.rev !renamed in
    (* Walk current children in their (descending-total) order. *)
    List.iter
      (fun (cc : P.snapshot) ->
        let cpath = path @ [ cc.P.label ] in
        match
          List.find_opt (fun (bc : P.snapshot) -> bc.P.label = cc.P.label) b.P.children
        with
        | Some bc ->
            emit (pair_delta cpath Matched bc cc);
            children cpath bc cc
        | None -> (
            match List.find_opt (fun (_, cc') -> cc' == cc) renamed with
            | Some (bc, _) ->
                emit (pair_delta cpath (Renamed bc.P.label) bc cc);
                children cpath bc cc
            | None -> emit (added_delta cpath cc)))
      c.P.children;
    (* Baseline children with no current counterpart at all. *)
    List.iter
      (fun (bc : P.snapshot) ->
        if
          (not (List.memq bc b_matched))
          && not (List.exists (fun (bc', _) -> bc' == bc) renamed)
        then emit (removed_delta (path @ [ bc.P.label ]) bc))
      b.P.children
  in
  children [] base cur;
  List.rev !acc

let pct_change ~base ~cur = if base = 0.0 then None else Some ((cur -. base) /. base *. 100.0)

let path_string d = String.concat "/" d.path

let self_regressions ~min_cycles deltas =
  List.filter
    (fun d ->
      (match d.status with Removed -> false | Matched | Added | Renamed _ -> true)
      && d.cur_self -. d.base_self > min_cycles)
    deltas
  |> List.stable_sort (fun a b ->
         Float.compare (b.cur_self -. b.base_self) (a.cur_self -. a.base_self))
  |> List.filteri (fun i _ -> i < 8)

let status_string = function
  | Matched -> ""
  | Added -> "+added"
  | Removed -> "-removed"
  | Renamed old -> Printf.sprintf "~renamed:%s" old

let render deltas =
  let cy = Mpk_util.Table.float_cell in
  let pct d =
    match pct_change ~base:d.base_total ~cur:d.cur_total with
    | None -> "-"
    | Some p -> Printf.sprintf "%+.1f%%" p
  in
  let rows =
    List.map
      (fun d ->
        [
          String.make (2 * (List.length d.path - 1)) ' '
          ^ List.nth d.path (List.length d.path - 1);
          status_string d.status;
          cy d.base_total;
          cy d.cur_total;
          cy (d.cur_total -. d.base_total);
          pct d;
          cy (d.cur_self -. d.base_self);
          Printf.sprintf "%+d" (d.cur_calls - d.base_calls);
        ])
      deltas
  in
  Mpk_util.Table.render
    ~aligns:
      Mpk_util.Table.[ Left; Left; Right; Right; Right; Right; Right; Right ]
    ~header:
      [
        "span/label"; "status"; "base total"; "cur total"; "d total"; "d%"; "d self";
        "d calls";
      ]
    rows
