(* In-memory span recorder for the traced run.

   The driver opens one span around every call it makes into the program
   ([Server.get]/[Server.set], [Libmpk.mpk_begin]/[mpk_end]/[mpk_mprotect],
   [Mmu.read_bytes]) and one root span per operation. Each span keeps its
   name, parent, operation id, host start/end (monotonic ns), simulated
   start/end (cycles of the serving core) and the minor-heap words
   allocated inside it. Nothing is written until the
   run ends; [write] dumps the whole table as one JSON document. *)

let names = [| "op"; "kvstore.get"; "kvstore.set"; "core.begin"; "core.end"; "core.mprotect"; "hw.read" |]

let op = 0
let kv_get = 1
let kv_set = 2
let core_begin = 3
let core_end = 4
let core_mprotect = 5
let hw_read = 6

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type t = {
  mutable n : int;
  mutable name : int array;
  mutable parent : int array;
  mutable op_id : int array;
  mutable t0 : int array;
  mutable t1 : int array;
  mutable c0 : float array;
  mutable c1 : float array;
  mutable a0 : float array;
  mutable a1 : float array;
  mutable stack : int list;  (* open spans, innermost first *)
  mutable cur_op : int;
}

let create () =
  let cap = 1024 in
  {
    n = 0;
    name = Array.make cap 0;
    parent = Array.make cap 0;
    op_id = Array.make cap 0;
    t0 = Array.make cap 0;
    t1 = Array.make cap 0;
    c0 = Array.make cap 0.0;
    c1 = Array.make cap 0.0;
    a0 = Array.make cap 0.0;
    a1 = Array.make cap 0.0;
    stack = [];
    cur_op = 0;
  }

let grow t =
  let cap = 2 * Array.length t.name in
  let gi a = Array.append a (Array.make (cap - Array.length a) 0) in
  let gf a = Array.append a (Array.make (cap - Array.length a) 0.0) in
  t.name <- gi t.name;
  t.parent <- gi t.parent;
  t.op_id <- gi t.op_id;
  t.t0 <- gi t.t0;
  t.t1 <- gi t.t1;
  t.c0 <- gf t.c0;
  t.c1 <- gf t.c1;
  t.a0 <- gf t.a0;
  t.a1 <- gf t.a1

let open_ t name ~cycles =
  if t.n = Array.length t.name then grow t;
  let i = t.n in
  t.n <- i + 1;
  t.name.(i) <- name;
  t.parent.(i) <- (match t.stack with p :: _ -> p | [] -> -1);
  if name = op then t.cur_op <- t.cur_op + 1;
  t.op_id.(i) <- t.cur_op;
  t.c0.(i) <- cycles;
  t.stack <- i :: t.stack;
  t.a0.(i) <- Gc.minor_words ();
  t.t0.(i) <- now_ns ();
  i

let close t i ~cycles =
  t.t1.(i) <- now_ns ();
  t.a1.(i) <- Gc.minor_words ();
  t.c1.(i) <- cycles;
  match t.stack with _ :: rest -> t.stack <- rest | [] -> ()

(* [call sp name core f] runs [f] inside a span clocked by [core]; a no-op
   wrapper when [sp] is [None] (the untraced run). *)
let call sp name core f =
  match sp with
  | None -> f ()
  | Some t -> (
      let i = open_ t name ~cycles:(Mpk_hw.Cpu.cycles core) in
      match f () with
      | v ->
          close t i ~cycles:(Mpk_hw.Cpu.cycles core);
          v
      | exception e ->
          close t i ~cycles:(Mpk_hw.Cpu.cycles core);
          raise e)

type agg = {
  calls : int;
  host_ns : float;
  self_ns : float;
  sim_cycles : float;
  alloc_words : float;
}

(* Per-name totals. A span's self time is its duration minus the
   durations of its direct children (children never overlap: the driver
   is single-threaded and calls are nested, not concurrent). *)
let aggregate t =
  let child_ns = Array.make t.n 0 in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then child_ns.(p) <- child_ns.(p) + (t.t1.(i) - t.t0.(i))
  done;
  Array.mapi
    (fun k _ ->
      let calls = ref 0 and host = ref 0 and self = ref 0 in
      let cyc = ref 0.0 and words = ref 0.0 in
      for i = 0 to t.n - 1 do
        if t.name.(i) = k then begin
          incr calls;
          let d = t.t1.(i) - t.t0.(i) in
          host := !host + d;
          self := !self + d - child_ns.(i);
          cyc := !cyc +. (t.c1.(i) -. t.c0.(i));
          words := !words +. (t.a1.(i) -. t.a0.(i))
        end
      done;
      {
        calls = !calls;
        host_ns = float_of_int !host;
        self_ns = float_of_int !self;
        sim_cycles = !cyc;
        alloc_words = !words;
      })
    names

let write t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc "{\"names\":[";
  Array.iteri (fun k s -> Printf.fprintf oc "%s%S" (if k = 0 then "" else ",") s) names;
  output_string oc
    "],\"columns\":[\"name\",\"parent\",\"op\",\"host_t0_ns\",\"host_t1_ns\",\"sim_c0\",\"sim_c1\",\"minor_words\"],\"spans\":[";
  for i = 0 to t.n - 1 do
    Printf.fprintf oc "%s\n[%d,%d,%d,%d,%d,%.17g,%.17g,%.17g]"
      (if i = 0 then "" else ",")
      t.name.(i) t.parent.(i) t.op_id.(i) t.t0.(i) t.t1.(i) t.c0.(i) t.c1.(i)
      (t.a1.(i) -. t.a0.(i))
  done;
  output_string oc "]}\n"
