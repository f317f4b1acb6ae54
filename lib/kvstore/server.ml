open Mpk_hw
open Mpk_kernel

type mode = Baseline | Domain | Sync | Mprotect_sys

let mode_name = function
  | Baseline -> "original"
  | Domain -> "mpk_begin"
  | Sync -> "mpk_mprotect"
  | Mprotect_sys -> "mprotect"

let slab_vkey = 200
let hash_vkey = 201

(* parse the request line, build the response header, socket bookkeeping *)
let request_overhead_cycles = 8_000.0

(* One shard: its own slice of the slab arena and of the bucket region,
   its own recency queue. Sharding partitions the store per core so
   workers touch disjoint state; the protection discipline (the two
   vkeys) still covers the whole region — libmpk keys protect address
   ranges, not shards. *)
type shard = {
  table : Shash.t;
  shard_slab : Slab.t;
  lru : string Queue.t;  (* key recency for item eviction (lazy) *)
  mutable evicted : int;
}

type t = {
  mode : mode;
  proc : Proc.t;
  workers : Task.t array;
  attacker : Task.t;
  mpk : Libmpk.t option;
  sync_batch : bool;  (* Sync mode: batch the per-request mprotect pairs *)
  slab_base : int;
  slab_len : int;
  hash_base : int;
  hash_len : int;
  shards : shard array;
  mutable protocol_requests : int;
  latency : Mpk_util.Stats.Histogram.h;  (* per-request cycles, all entry points *)
  sample : Mpk_util.Stats.sample;  (* the latency being recorded *)
}

let create ~mode ?(workers = 4) ?(shards = 1) ?(sync_batch = true) ?(slab_mib = 1024)
    ?(buckets = 1 lsl 16) () =
  if shards < 1 then invalid_arg "Server.create: shards must be >= 1";
  let machine = Machine.create ~cores:(workers + 1) ~mem_mib:(slab_mib + 256) () in
  let proc = Proc.create ~ipi_batching:sync_batch machine in
  let tasks = Array.init workers (fun i -> Proc.spawn proc ~core_id:i ()) in
  let attacker = Proc.spawn proc ~core_id:workers () in
  let main = tasks.(0) in
  let slab_len = slab_mib * 1024 * 1024 in
  let hash_len = buckets * 8 in
  let mpk, slab_base, hash_base =
    match mode with
    | Domain | Sync ->
        let mpk = Libmpk.init ~vkeys:[ slab_vkey; hash_vkey ] ~evict_rate:1.0 proc main in
        let slab_base = Libmpk.mpk_mmap mpk main ~vkey:slab_vkey ~len:slab_len ~prot:Perm.rw in
        let hash_base = Libmpk.mpk_mmap mpk main ~vkey:hash_vkey ~len:hash_len ~prot:Perm.rw in
        Some mpk, slab_base, hash_base
    | Baseline | Mprotect_sys ->
        let slab_base = Syscall.mmap proc main ~len:slab_len ~prot:Perm.rw () in
        let hash_base = Syscall.mmap proc main ~len:hash_len ~prot:Perm.rw () in
        (* Mprotect_sys keeps the regions sealed between requests. *)
        if mode = Mprotect_sys then begin
          Syscall.mprotect proc main ~addr:slab_base ~len:slab_len ~prot:Perm.none;
          Syscall.mprotect proc main ~addr:hash_base ~len:hash_len ~prot:Perm.none
        end;
        None, slab_base, hash_base
  in
  (* Partition the arena into per-shard slices: each needs at least one
     whole slab, and each shard's bucket strip at least one bucket. *)
  let shard_slab_len = slab_len / shards / Slab.slab_bytes * Slab.slab_bytes in
  if shard_slab_len < Slab.slab_bytes then
    invalid_arg "Server.create: slab region too small for this many shards";
  let shard_buckets = max 1 (buckets / shards) in
  if shards * shard_buckets > buckets then
    invalid_arg "Server.create: more shards than hash buckets";
  let shard_arr =
    Array.init shards (fun i ->
        let slab =
          Slab.create ~base:(slab_base + (i * shard_slab_len)) ~len:shard_slab_len
        in
        let table =
          Shash.create proc ~buckets:shard_buckets
            ~bucket_base:(hash_base + (i * shard_buckets * 8))
            slab
        in
        { table; shard_slab = slab; lru = Queue.create (); evicted = 0 })
  in
  {
    mode;
    proc;
    workers = tasks;
    attacker;
    mpk;
    sync_batch;
    slab_base;
    slab_len;
    hash_base;
    hash_len;
    shards = shard_arr;
    protocol_requests = 0;
    (* Requests span ~10k cycles (Baseline) to ~10M (Mprotect_sys over a
       populated gigabyte); log-spaced buckets cover the whole range. *)
    latency = Mpk_util.Stats.Histogram.create ~lo:1024.0 ~growth:2.0 ~buckets:20 ();
    sample = { Mpk_util.Stats.value = 0.0 };
  }

let mode t = t.mode
let workers t = t.workers
let proc t = t.proc
let attacker_task t = t.attacker
let slab_base t = t.slab_base

let shard_count t = Array.length t.shards
let shard_of_key t key = Shash.hash key mod Array.length t.shards
let shard_for t key = t.shards.(shard_of_key t key)
let entry_count t = Array.fold_left (fun acc s -> acc + Shash.entry_count s.table) 0 t.shards
let slab_invariants t = Array.for_all (fun s -> Slab.invariant s.shard_slab) t.shards

let mpk t = t.mpk
let mpk_exn t = match t.mpk with Some m -> m | None -> assert false

(* The batched Sync mode's open and seal, built once. *)
let open_both = [ (slab_vkey, Perm.rw); (hash_vkey, Perm.rw) ]
let seal_both = [ (hash_vkey, Perm.none); (slab_vkey, Perm.none) ]

(* Seal the regions [open_store] opened, in reverse order; [~slab_only]
   undoes a Domain open whose second mpk_begin raised. *)
let seal t task ~slab_only =
  match t.mode with
  | Baseline -> ()
  | Domain ->
      let mpk = mpk_exn t in
      if not slab_only then Libmpk.mpk_end mpk task ~vkey:hash_vkey;
      Libmpk.mpk_end mpk task ~vkey:slab_vkey
  | Sync when t.sync_batch -> Libmpk.mpk_mprotect_many (mpk_exn t) task ~updates:seal_both
  | Sync ->
      let mpk = mpk_exn t in
      Libmpk.mpk_mprotect mpk task ~vkey:hash_vkey ~prot:Perm.none;
      Libmpk.mpk_mprotect mpk task ~vkey:slab_vkey ~prot:Perm.none
  | Mprotect_sys ->
      Syscall.mprotect t.proc task ~addr:t.hash_base ~len:t.hash_len ~prot:Perm.none;
      Syscall.mprotect t.proc task ~addr:t.slab_base ~len:t.slab_len ~prot:Perm.none

(* Sealing follows [Fun.protect]'s rules for its [finally], without its
   closures: a seal that raises becomes [Fun.Finally_raised], and a
   request that raised is sealed and then raised again with its own
   backtrace. A worker must never leave the store open, and a leaked
   mpk_begin pin would block key recycling forever. *)
let seal_no_exn t task ~slab_only =
  try seal t task ~slab_only
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    Printexc.raise_with_backtrace (Fun.Finally_raised e) bt

let seal_store t task = seal_no_exn t task ~slab_only:false

let raise_sealed t task ~slab_only e =
  let bt = Printexc.get_raw_backtrace () in
  seal_no_exn t task ~slab_only;
  Printexc.raise_with_backtrace e bt

(* Open both regions for the calling worker (or globally). When the
   second step raises, the first is sealed again before the exception
   goes on. *)
let open_store t task =
  match t.mode with
  | Baseline -> ()
  | Domain -> (
      let mpk = mpk_exn t in
      Libmpk.mpk_begin mpk task ~vkey:slab_vkey ~prot:Perm.rw;
      try Libmpk.mpk_begin mpk task ~vkey:hash_vkey ~prot:Perm.rw
      with e -> raise_sealed t task ~slab_only:true e)
  | Sync when t.sync_batch ->
      (* Both open and both seal travel as one batched mprotect each: a
         single do_pkey_sync per pair, so one IPI per remote core instead
         of one per vkey update. *)
      Libmpk.mpk_mprotect_many (mpk_exn t) task ~updates:open_both
  | Sync -> (
      let mpk = mpk_exn t in
      Libmpk.mpk_mprotect mpk task ~vkey:slab_vkey ~prot:Perm.rw;
      try Libmpk.mpk_mprotect mpk task ~vkey:hash_vkey ~prot:Perm.rw
      with e -> raise_sealed t task ~slab_only:false e)
  | Mprotect_sys -> (
      Syscall.mprotect t.proc task ~addr:t.slab_base ~len:t.slab_len ~prot:Perm.rw;
      try Syscall.mprotect t.proc task ~addr:t.hash_base ~len:t.hash_len ~prot:Perm.rw
      with e -> raise_sealed t task ~slab_only:false e)

(* Run [f] with the store open, sealing it afterwards even when [f]
   escapes with an exception (a signal-handler escape mid-request, an
   injected fault). *)
let with_store t task f =
  open_store t task;
  match f () with
  | r ->
      seal_store t task;
      r
  | exception e -> raise_sealed t task ~slab_only:false e

let worker_task t i =
  if i < 0 || i >= Array.length t.workers then invalid_arg "Server: bad worker";
  t.workers.(i)

let charge_request task =
  Cpu.charge ~label:"request_overhead" (Task.core task) request_overhead_cycles

let latency t = t.latency

(* Every request records its end-to-end cycle cost (protection discipline
   included) into the latency histogram, also when it escapes with a
   signal: the cycles were spent either way. Inlined, with [Cpu.cycles]
   inlined into it, the cycle counts are never boxed. *)
let[@inline] record_latency t task start =
  t.sample.value <- Cpu.cycles (Task.core task) -. start;
  Mpk_util.Stats.Histogram.add_sample t.latency t.sample

let timed t task f =
  let start = Cpu.cycles (Task.core task) in
  match f () with
  | r ->
      record_latency t task start;
      r
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      record_latency t task start;
      Printexc.raise_with_backtrace e bt

(* The store operations behind [get], [set] and [delete]. A constant
   constructor selects one, so a request builds no closure; [value] is
   read by [Set] alone. *)
type _ store_op =
  | Get : bytes option store_op
  | Set : (unit, Errno.t) result store_op
  | Delete : bool store_op

let run_op : type a. a store_op -> Shash.t -> Task.t -> key:string -> value:bytes -> a =
 fun op table task ~key ~value ->
  match op with
  | Get -> Shash.get table task ~key
  | Set -> Shash.set table task ~key ~value
  | Delete -> Shash.delete table task ~key

(* [timed] around [with_store] around the operation, without a closure
   or a boxed float: beyond what the operation returns, a request
   allocates nothing. *)
let request : type a. t -> worker:int -> a store_op -> key:string -> value:bytes -> a =
 fun t ~worker op ~key ~value ->
  let task = worker_task t worker in
  let start = Cpu.cycles (Task.core task) in
  match
    charge_request task;
    open_store t task;
    match run_op op (shard_for t key).table task ~key ~value with
    | r ->
        seal_store t task;
        r
    | exception e -> raise_sealed t task ~slab_only:false e
  with
  | r ->
      record_latency t task start;
      r
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      record_latency t task start;
      Printexc.raise_with_backtrace e bt

let set t ~worker ~key ~value = request t ~worker Set ~key ~value
let get t ~worker ~key = request t ~worker Get ~key ~value:Bytes.empty
let delete t ~worker ~key = request t ~worker Delete ~key ~value:Bytes.empty

let prefill t ~items ~value_size =
  let value = Bytes.make value_size 'v' in
  for i = 0 to items - 1 do
    match set t ~worker:(i mod Array.length t.workers) ~key:(Printf.sprintf "key-%d" i) ~value with
    | Ok () -> ()
    | Error e -> Errno.fail e "prefill: slab exhausted after %d items" i
  done

let populate_slab t ~mib =
  let len = min (mib * 1024 * 1024) t.slab_len in
  let main = t.workers.(0) in
  (* Mprotect_sys seals the region; populate through a write window. *)
  with_store t main (fun () ->
      Mm.populate (Proc.mm t.proc) (Task.core main) ~addr:t.slab_base ~len)

(* --- protocol front end: items carry [flags:4][deadline:8][payload] --- *)

let item_header = 12

(* Flags are 32-bit unsigned, as in Memcached. *)
let encode_item ~flags ~deadline payload =
  let b = Bytes.create (item_header + Bytes.length payload) in
  Bytes.set_int32_le b 0 (Int32.of_int flags);
  Bytes.set_int64_le b 4 (Int64.of_float (deadline *. 1000.0));
  Bytes.blit payload 0 b item_header (Bytes.length payload);
  b

let decode_item b =
  let flags = Int32.to_int (Bytes.get_int32_le b 0) land 0xffff_ffff in
  let deadline = Int64.to_float (Bytes.get_int64_le b 4) /. 1000.0 in
  flags, deadline, Bytes.sub b item_header (Bytes.length b - item_header)

let items_evicted t = Array.fold_left (fun acc s -> acc + s.evicted) 0 t.shards

(* Reclaim the least-recently-used live item of one shard; false when
   nothing left there. The recency queue is lazy: stale entries
   (overwritten or deleted keys whose entry is no longer the newest) are
   skipped. Eviction is shard-local — the shard that is full is the one
   that must yield memory. *)
let evict_one_in shard task =
  let rec pop () =
    match Queue.take_opt shard.lru with
    | None -> false
    | Some key ->
        if Shash.delete shard.table task ~key then begin
          shard.evicted <- shard.evicted + 1;
          true
        end
        else pop ()
  in
  pop ()

(* An item that can never fit ([EINVAL]) evicts nothing. *)
let set_item t task ~key ~flags ~deadline payload =
  let shard = shard_for t key in
  let value = encode_item ~flags ~deadline payload in
  let rec attempt tries =
    match Shash.set shard.table task ~key ~value with
    | Ok () ->
        Queue.add key shard.lru;
        Ok ()
    | Error Errno.ENOSPC when tries > 0 && evict_one_in shard task -> attempt (tries - 1)
    | Error _ as e -> e
  in
  attempt 64

(* The live item under [key]; an expired one is reclaimed on access, like
   Memcached. *)
let find_live t task ~now ~key =
  let shard = shard_for t key in
  match Shash.get shard.table task ~key with
  | None -> None
  | Some raw ->
      let flags, deadline, payload = decode_item raw in
      if deadline <> 0.0 && now >= deadline then begin
        ignore (Shash.delete shard.table task ~key);
        None
      end
      else Some (shard, flags, payload)

(* Escape hatch for the per-request signal guard: the handler raises this
   out of the faulting request; the dispatch loop catches it and answers
   with a protocol error, so one bad request cannot take the worker down. *)
exception Request_fault of Signal.siginfo

let guard_request task f =
  try Task.with_signal_handler task (fun si -> raise (Request_fault si)) f
  with Request_fault si ->
    Protocol.Server_error (Printf.sprintf "protection fault (%s)" (Signal.to_string si))

let latency_stats t =
  let h = t.latency in
  if Mpk_util.Stats.Histogram.count h = 0 then []
  else
    let cy p = Printf.sprintf "%.0f" (Mpk_util.Stats.Histogram.percentile h p) in
    [
      "latency_samples", string_of_int (Mpk_util.Stats.Histogram.count h);
      "latency_p50_cycles", cy 50.0;
      "latency_p95_cycles", cy 95.0;
      "latency_p99_cycles", cy 99.0;
    ]

let dispatch t ~worker ~now wire =
  let task = worker_task t worker in
  timed t task @@ fun () ->
  charge_request task;
  t.protocol_requests <- t.protocol_requests + 1;
  let response =
    guard_request task @@ fun () ->
    match Protocol.parse_request wire with
    | Error msg -> Protocol.Server_error msg
    | Ok (Protocol.Set { key; flags; exptime; data }) ->
        (* Memcached's exptime: 0 never expires, and a negative one
           stores an item already expired (its deadline precedes any
           wall clock). *)
        let deadline =
          if exptime > 0 then now +. float_of_int exptime else if exptime < 0 then -1.0 else 0.0
        in
        with_store t task (fun () ->
            match set_item t task ~key ~flags ~deadline data with
            | Ok () -> Protocol.Stored
            | Error Errno.EINVAL -> Protocol.Server_error "object too large for cache"
            | Error _ -> Protocol.Server_error "out of memory")
    | Ok (Protocol.Get key) ->
        with_store t task (fun () ->
            match find_live t task ~now ~key with
            | Some (shard, flags, data) ->
                Queue.add key shard.lru;
                Protocol.Value { key; flags; data }
            | None -> Protocol.End_)
    | Ok (Protocol.Delete key) ->
        with_store t task (fun () ->
            match find_live t task ~now ~key with
            | Some (shard, _, _) ->
                ignore (Shash.delete shard.table task ~key);
                Protocol.Deleted
            | None -> Protocol.Not_found)
    | Ok Protocol.Stats ->
        Protocol.Stats_reply
          ([
             "curr_items", string_of_int (entry_count t);
             "evictions", string_of_int (items_evicted t);
             "cmd_total", string_of_int t.protocol_requests;
             "mode", mode_name t.mode;
           ]
          @ latency_stats t)
  in
  Protocol.render_response response

(* A deliberately buggy request path: dereferences [addr] without opening
   the store — the kind of wild read a parsing bug produces. Under the
   protected modes the sealed regions trip a pkey fault, which the
   per-request guard converts to a protocol error; the worker survives.
   Under [Baseline] the read silently succeeds and leaks the byte. *)
let buggy_peek t ~worker ~addr =
  let task = worker_task t worker in
  timed t task @@ fun () ->
  charge_request task;
  t.protocol_requests <- t.protocol_requests + 1;
  let response =
    guard_request task @@ fun () ->
    let byte = Mmu.read_byte (Proc.mmu t.proc) (Task.core task) ~addr in
    Protocol.Value { key = "peek"; flags = 0; data = Bytes.make 1 byte }
  in
  Protocol.render_response response

let resident_pages t =
  let start = Page_table.vpn_of_addr t.slab_base in
  let pages = t.slab_len / Physmem.page_size in
  let table = Mm.page_table (Proc.mm t.proc) in
  let count = ref 0 in
  for vpn = start to start + pages - 1 do
    if Pte.is_present (Page_table.get table ~vpn) then incr count
  done;
  !count
