open Mpk_hw
open Mpk_kernel


type t = { proc : Proc.t; tasks : Task.t array }

let make ?(threads = 1) ?(mem_mib = 2048) () =
  let machine = Machine.create ~cores:(threads + 1) ~mem_mib () in
  let proc = Proc.create machine in
  let tasks = Array.init threads (fun i -> Proc.spawn proc ~core_id:i ()) in
  { proc; tasks }

let main t = t.tasks.(0)

(* Attribution span on the task's core: groups everything [f] charges
   under [name] in the cycle-attribution profile (and the event trace). *)
let span task name f = Cpu.span (Task.core task) name f

let mean_cycles ~reps task f =
  let core = Task.core task in
  let before = Cpu.cycles core in
  for i = 0 to reps - 1 do
    f i
  done;
  (Cpu.cycles core -. before) /. float_of_int reps

type direction = Lower_better | Higher_better

let direction_to_string = function
  | Lower_better -> "lower_better"
  | Higher_better -> "higher_better"

let direction_of_string = function
  | "lower_better" -> Ok Lower_better
  | "higher_better" -> Ok Higher_better
  | s -> Error (Printf.sprintf "unknown metric direction %S" s)

type metric = { name : string; value : float; direction : direction }

let metric name direction value = { name; value; direction }
let mix seed k base = Int64.of_int (base + (seed * k))
