open Mpk_hw
open Mpk_kernel

type result = {
  requests : int;
  makespan_cycles : float;
  throughput_rps : float;
  mb_per_s : float;
}

let run server workers ~requests ~size =
  (match workers with [] -> invalid_arg "Loadgen.run: no workers" | _ -> ());
  let workers = Array.of_list workers in
  let nworkers = Array.length workers in
  let start = Array.map (fun w -> Cpu.cycles (Task.core w)) workers in
  let prng = Mpk_util.Prng.create ~seed:0x10adL in
  for _ = 1 to requests do
    (* Least-loaded worker picks up the next connection. *)
    let w = ref 0 in
    for i = 1 to nworkers - 1 do
      if
        Cpu.cycles (Task.core workers.(i)) -. start.(i)
        < Cpu.cycles (Task.core workers.(!w)) -. start.(!w)
      then w := i
    done;
    let task = workers.(!w) in
    let blob, _ckey = Tls_server.client_hello server prng in
    let session = Tls_server.accept server task blob in
    ignore (Tls_server.serve task session ~size)
  done;
  let makespan =
    Array.to_list workers
    |> List.mapi (fun i w -> Cpu.cycles (Task.core w) -. start.(i))
    |> List.fold_left Float.max 0.0
  in
  let seconds = makespan /. 2.4e9 in
  {
    requests;
    makespan_cycles = makespan;
    throughput_rps = (if seconds > 0.0 then float_of_int requests /. seconds else 0.0);
    mb_per_s =
      (if seconds > 0.0 then float_of_int requests *. float_of_int size /. (seconds *. 1e6)
       else 0.0);
  }
