open Mpk_hw
open Mpk_kernel

type loop =
  | Open_loop of int  (* offered connections per second; late arrivals drop *)
  | Closed_loop of int  (* total connections, issued back-to-back (saturation) *)

type result = {
  loop : loop;
  offered_conns : int;
  handled_conns : int;
  dropped_conns : int;
  requests : int;
  gets : int;
  sets : int;
  data_bytes : int;
  duration_s : float;
  throughput_rps : float;
  p50_cycles : float;
  p95_cycles : float;
  p99_cycles : float;
  ipis : int;  (* IPIs sent during the run (sync kicks + shootdowns) *)
  per_core_busy_s : float array;  (* per-worker busy time, seconds *)
}

let run server ~loop ?(reqs_per_conn = 10) ?(value_size = 1024)
    ?(working_set = 10_000) ?(theta = 0.99) ?(get_ratio = 0.9)
    ?(conn_setup_cycles = 3_000.0) ?(duration_s = 1.0) ?(max_delay_s = 0.1) ?(ghz = 2.4)
    ?(seed = 0xC0FEL) () =
  let workers = Server.workers server in
  let n = Array.length workers in
  let cycles_per_s = ghz *. 1e9 in
  let prng = Mpk_util.Prng.create ~seed in
  let zipf = Mpk_util.Zipf.create ~theta ~n:working_set () in
  let start = Array.map (fun w -> Cpu.cycles (Task.core w)) workers in
  let clock i = Cpu.cycles (Task.core workers.(i)) -. start.(i) in
  let sched = Proc.sched (Server.proc server) in
  let ipis0 = Sched.ipis_sent sched in
  let lat = Mpk_util.Stats.Histogram.create ~lo:1024.0 ~growth:2.0 ~buckets:24 () in
  let handled = ref 0 and dropped = ref 0 and requests = ref 0 in
  let gets = ref 0 and sets = ref 0 and data = ref 0 in
  (* With a sharded store, requests run on the shard's owning worker
     (key-affine routing: the connection hands the request over); an
     unsharded store serves on the connection's worker. *)
  let sharded = Server.shard_count server > 1 in
  (* [queue_delay] is the time the connection spent waiting for an
     accept (open loop only): every request on a queued connection
     experiences it, so it counts toward the recorded sojourn latency —
     without it the tail stays flat past saturation and the knee is
     invisible. *)
  let exec_request ~queue_delay conn_worker =
    incr requests;
    let key = Printf.sprintf "key-%d" (Mpk_util.Zipf.sample zipf prng) in
    let w = if sharded then Server.shard_of_key server key mod n else conn_worker in
    let core = Task.core workers.(w) in
    let t0 = Cpu.cycles core in
    (if Mpk_util.Prng.float prng < get_ratio then begin
       incr gets;
       match Server.get server ~worker:w ~key with
       | Some v -> data := !data + Bytes.length v
       | None -> ()
     end
     else begin
       incr sets;
       match Server.set server ~worker:w ~key ~value:(Bytes.make value_size 'w') with
       | Ok () -> data := !data + value_size
       | Error _ -> ()
     end);
    Mpk_util.Stats.Histogram.add lat (Cpu.cycles core -. t0 +. queue_delay)
  in
  let run_conn ?(queue_delay = 0.0) w =
    incr handled;
    (* connection churn: accept + session setup + teardown; a churn-free
       load (Fig 14) charges nothing rather than a zero-cycle frame *)
    if conn_setup_cycles > 0.0 then
      Cpu.charge ~label:"conn_churn" (Task.core workers.(w)) conn_setup_cycles;
    for _ = 1 to reqs_per_conn do
      exec_request ~queue_delay w
    done
  in
  let offered =
    match loop with
    | Closed_loop conns ->
        for c = 0 to conns - 1 do
          run_conn (c mod n)
        done;
        conns
    | Open_loop rate ->
        let offered = int_of_float (float_of_int rate *. duration_s) in
        let interval = cycles_per_s /. float_of_int rate in
        let max_delay = max_delay_s *. cycles_per_s in
        for c = 0 to offered - 1 do
          let arrival = float_of_int c *. interval in
          (* least-loaded worker accepts *)
          let w = ref 0 in
          for i = 1 to n - 1 do
            if clock i < clock !w then w := i
          done;
          let queue_delay = clock !w -. arrival in
          if queue_delay > max_delay then incr dropped
          else begin
            if queue_delay < 0.0 then
              Cpu.charge ~label:"idle_wait" (Task.core workers.(!w)) (-.queue_delay);
            run_conn ~queue_delay:(Float.max 0.0 queue_delay) !w
          end
        done;
        offered
  in
  (* An open loop is measured over at least its arrival window: load
     offered over the whole window and served early still took the
     window, so throughput never exceeds the offered load. *)
  let makespan =
    ref (match loop with Open_loop _ -> duration_s *. cycles_per_s | Closed_loop _ -> 0.0)
  in
  for i = 0 to n - 1 do
    makespan := Float.max !makespan (clock i)
  done;
  let seconds = !makespan /. cycles_per_s in
  let pct p = Mpk_util.Stats.Histogram.percentile lat p in
  {
    loop;
    offered_conns = offered;
    handled_conns = !handled;
    dropped_conns = !dropped;
    requests = !requests;
    gets = !gets;
    sets = !sets;
    data_bytes = !data;
    duration_s = seconds;
    throughput_rps = (if seconds > 0.0 then float_of_int !requests /. seconds else 0.0);
    p50_cycles = pct 50.0;
    p95_cycles = pct 95.0;
    p99_cycles = pct 99.0;
    ipis = Sched.ipis_sent sched - ipis0;
    per_core_busy_s = Array.init n clock |> Array.map (fun c -> c /. cycles_per_s);
  }
