open Mpk_hw
open Mpk_kernel

type program = {
  name : string;
  hot_functions : int;
  patches_per_function : int;
  execs_per_function : int;
  ops : int;
  script_cycles : float;
}

let programs =
  [
    { name = "Richards"; hot_functions = 8; patches_per_function = 3; execs_per_function = 100; ops = 40; script_cycles = 2.0e6 };
    { name = "DeltaBlue"; hot_functions = 10; patches_per_function = 3; execs_per_function = 100; ops = 40; script_cycles = 2.0e6 };
    { name = "Crypto"; hot_functions = 6; patches_per_function = 2; execs_per_function = 150; ops = 50; script_cycles = 3.0e6 };
    { name = "RayTrace"; hot_functions = 12; patches_per_function = 3; execs_per_function = 120; ops = 40; script_cycles = 2.5e6 };
    { name = "EarleyBoyer"; hot_functions = 14; patches_per_function = 4; execs_per_function = 100; ops = 45; script_cycles = 3.0e6 };
    { name = "RegExp"; hot_functions = 6; patches_per_function = 2; execs_per_function = 80; ops = 30; script_cycles = 4.0e6 };
    { name = "Splay"; hot_functions = 10; patches_per_function = 4; execs_per_function = 100; ops = 35; script_cycles = 2.0e6 };
    (* many fresh pages, almost never patched: hostile to key-per-page *)
    { name = "SplayLatency"; hot_functions = 40; patches_per_function = 1; execs_per_function = 30; ops = 35; script_cycles = 1.2e6 };
    { name = "NavierStokes"; hot_functions = 5; patches_per_function = 2; execs_per_function = 200; ops = 50; script_cycles = 3.0e6 };
    { name = "PdfJS"; hot_functions = 25; patches_per_function = 2; execs_per_function = 80; ops = 40; script_cycles = 8.0e6 };
    { name = "Mandreel"; hot_functions = 30; patches_per_function = 2; execs_per_function = 60; ops = 40; script_cycles = 8.0e6 };
    { name = "MandreelLatency"; hot_functions = 30; patches_per_function = 1; execs_per_function = 40; ops = 35; script_cycles = 4.0e6 };
    { name = "Gameboy"; hot_functions = 20; patches_per_function = 3; execs_per_function = 100; ops = 40; script_cycles = 3.0e6 };
    (* loads heaps of code, runs it briefly *)
    { name = "CodeLoad"; hot_functions = 35; patches_per_function = 1; execs_per_function = 20; ops = 30; script_cycles = 6.0e6 };
    (* small working set patched intensively: libmpk's best case *)
    { name = "Box2D"; hot_functions = 8; patches_per_function = 21; execs_per_function = 150; ops = 45; script_cycles = 2.0e6 };
    (* asm.js: many pages committed once *)
    { name = "zlib"; hot_functions = 45; patches_per_function = 0; execs_per_function = 100; ops = 50; script_cycles = 3.0e6 };
    { name = "Typescript"; hot_functions = 30; patches_per_function = 3; execs_per_function = 80; ops = 45; script_cycles = 10.0e6 };
  ]


type run = { program : string; cycles : float; score : float }

let needs_mpk = function
  | Wx.Key_per_page | Wx.Key_per_process -> true
  | Wx.No_wx | Wx.Mprotect | Wx.Sdcg -> false

(* Execute one program under (profile, strategy) on a fresh machine and
   return the cycles consumed by the engine's core. *)
let measure profile strategy prog =
  let machine = Machine.create ~cores:2 ~mem_mib:256 () in
  let proc = Proc.create machine in
  let task = Proc.spawn proc ~core_id:0 () in
  let mpk =
    if needs_mpk strategy then Some (Libmpk.init ~evict_rate:1.0 proc task) else None
  in
  let cache_pages = prog.hot_functions + 2 in
  let engine = Engine.create profile strategy proc task ?mpk ~cache_pages () in
  let core = Task.core task in
  let start = Cpu.cycles core in
  Cpu.charge ~label:"script" core prog.script_cycles;
  let names =
    List.init prog.hot_functions (fun i ->
        Engine.compile engine task ~ops:prog.ops ~seed:i ~pad_to:3900 ())
  in
  (* interleave patch and execution rounds, as a JIT does *)
  for round = 1 to prog.patches_per_function do
    ignore round;
    List.iter (fun n -> Engine.patch engine task n) names
  done;
  for _ = 1 to prog.execs_per_function do
    List.iter
      (fun n ->
        let v = Engine.run engine task n in
        assert (v = Engine.expected engine n))
      names
  done;
  Cpu.cycles core -. start

let run_program profile strategy ?reference prog =
  let cycles = measure profile strategy prog in
  let reference =
    match reference with Some r -> r | None -> measure profile Wx.No_wx prog
  in
  { program = prog.name; cycles; score = 10_000.0 *. reference /. cycles }

let total_score runs =
  (* Octane reports the geometric mean of per-program scores. *)
  match runs with
  | [] -> 0.0
  | _ ->
      let log_sum = List.fold_left (fun acc r -> acc +. log r.score) 0.0 runs in
      exp (log_sum /. float_of_int (List.length runs))
