(* The three workloads. Each one builds its own simulated machine, then
   exposes [step]: one closed-loop operation from a single client, drawn
   from a generator seeded with the run's seed, returning the simulated
   cycles it took on the core that served it. The benchmark enters the
   program only through public functions:
   [Mpk_kvstore.Server], the [Libmpk] API, [Mmu] reads, and read-only
   counters. *)

open Mpk_hw
open Mpk_kernel
module Server = Mpk_kvstore.Server

type t = {
  prefix : int;  (* ops in the deterministic prefix the sim metrics cover *)
  block : int;  (* ops per host-timing block *)
  machine : Machine.t;
  sched : Sched.t;
  mpk : Libmpk.t option;
  server : Server.t option;
  step : Spans.t option -> int -> float;
  mutable failed : int;
  mutable first_failures : string list;  (* newest first, at most 5 *)
  mutable gets : int;
  mutable get_hits : int;
}

let fail w fmt =
  Printf.ksprintf
    (fun msg ->
      w.failed <- w.failed + 1;
      if List.length w.first_failures < 5 then w.first_failures <- msg :: w.first_failures)
    fmt

(* --- kvstore workloads --- *)

let kv_keys = 5_000
let kv_value_size = 512
let kv_get_ratio = 0.9

let kv ~mode ~slab_mib ~populate_mib ~prefix ~block ~seed =
  let server = Server.create ~mode ~workers:2 ~shards:2 ~slab_mib () in
  Server.prefill server ~items:kv_keys ~value_size:kv_value_size;
  if populate_mib > 0 then Server.populate_slab server ~mib:populate_mib;
  let proc = Server.proc server in
  let workers = Array.map Task.core (Server.workers server) in
  let keys = Array.init kv_keys (Printf.sprintf "key-%d") in
  (* the shadow map: the last value set for every key *)
  let shadow = Array.make kv_keys (Bytes.make kv_value_size 'v') in
  let prng = Mpk_util.Prng.create ~seed in
  let zipf = Mpk_util.Zipf.create ~theta:0.99 ~n:kv_keys () in
  let rec w =
    {
      prefix;
      block;
      machine = Proc.machine proc;
      sched = Proc.sched proc;
      mpk = Server.mpk server;
      server = Some server;
      step;
      failed = 0;
      first_failures = [];
      gets = 0;
      get_hits = 0;
    }
  and step sp i =
    let k = Mpk_util.Zipf.sample zipf prng in
    let key = keys.(k) in
    let is_get = Mpk_util.Prng.float prng < kv_get_ratio in
    (* key-affine routing: shard s is served by worker s *)
    let worker = Server.shard_of_key server key mod Array.length workers in
    let core = workers.(worker) in
    let c0 = Cpu.cycles core in
    (try
       if is_get then begin
         w.gets <- w.gets + 1;
         let evicted = Server.items_evicted server in
         match Spans.call sp Spans.kv_get core (fun () -> Server.get server ~worker ~key) with
         | Some v ->
             w.get_hits <- w.get_hits + 1;
             if not (Bytes.equal v shadow.(k)) then fail w "op %d: get %s returned a stale value" i key
         | None ->
             if Server.items_evicted server = evicted then
               fail w "op %d: get %s missed with no eviction" i key
       end
       else begin
         let value = Bytes.make kv_value_size (Char.chr (97 + (i mod 26))) in
         Bytes.set_int64_le value 0 (Int64.of_int i);
         match Spans.call sp Spans.kv_set core (fun () -> Server.set server ~worker ~key ~value) with
         | Ok () -> shadow.(k) <- value
         | Error e -> fail w "op %d: set %s failed: %s" i key (Errno.to_string e)
       end
     with e -> fail w "op %d: %s" i (Printexc.to_string e));
    Cpu.cycles core -. c0
  in
  w

(* --- libmpk key churn --- *)

let churn_groups = 256
let churn_pages = 8
let churn_vkey0 = 1000
let churn_begin_ratio = 0.8
let line = 64

(* The 64-byte line stamped at the start of every page of every group. *)
let stamp g p = Bytes.init line (fun j -> Char.chr (((g * 7) + (p * 13) + j) land 0xff))

let churn ~prefix ~block ~seed =
  let machine = Machine.create ~cores:2 ~mem_mib:64 () in
  let proc = Proc.create machine in
  let tasks = Array.init 2 (fun i -> Proc.spawn proc ~core_id:i ()) in
  let main = tasks.(0) in
  let mpk = Libmpk.init ~evict_rate:1.0 proc main in
  let mm = Proc.mm proc in
  let mmu = Proc.mmu proc in
  let len = churn_pages * Physmem.page_size in
  let bases =
    Array.init churn_groups (fun g ->
        let base = Libmpk.mpk_mmap mpk main ~vkey:(churn_vkey0 + g) ~len ~prot:Perm.rw in
        Mm.populate mm (Task.core main) ~addr:base ~len;
        for p = 0 to churn_pages - 1 do
          Mmu.kernel_write_bytes mmu ~addr:(base + (p * Physmem.page_size)) (stamp g p)
        done;
        base)
  in
  let stamps = Array.init churn_groups (fun g -> Array.init churn_pages (stamp g)) in
  let writable = Array.make churn_groups true in
  let prng = Mpk_util.Prng.create ~seed in
  let zipf = Mpk_util.Zipf.create ~theta:0.99 ~n:churn_groups () in
  let rec w =
    {
      prefix;
      block;
      machine;
      sched = Proc.sched proc;
      mpk = Some mpk;
      server = None;
      step;
      failed = 0;
      first_failures = [];
      gets = 0;
      get_hits = 0;
    }
  and step sp i =
    let g = Mpk_util.Zipf.sample zipf prng in
    let vkey = churn_vkey0 + g in
    let task = tasks.(Mpk_util.Prng.int prng 2) in
    let core = Task.core task in
    let is_begin = Mpk_util.Prng.float prng < churn_begin_ratio in
    let page = Mpk_util.Prng.int prng churn_pages in
    let c0 = Cpu.cycles core in
    (try
       if is_begin then begin
         Spans.call sp Spans.core_begin core (fun () ->
             Libmpk.mpk_begin mpk task ~vkey ~prot:Perm.r);
         let data =
           Fun.protect
             ~finally:(fun () ->
               Spans.call sp Spans.core_end core (fun () -> Libmpk.mpk_end mpk task ~vkey))
             (fun () ->
               Spans.call sp Spans.hw_read core (fun () ->
                   Mmu.read_bytes mmu core ~addr:(bases.(g) + (page * Physmem.page_size)) ~len:line))
         in
         if not (Bytes.equal data stamps.(g).(page)) then
           fail w "op %d: vkey %d page %d read wrong bytes" i vkey page
       end
       else begin
         let prot = if writable.(g) then Perm.r else Perm.rw in
         Spans.call sp Spans.core_mprotect core (fun () -> Libmpk.mpk_mprotect mpk task ~vkey ~prot);
         writable.(g) <- not writable.(g)
       end
     with e -> fail w "op %d: %s" i (Printexc.to_string e));
    Cpu.cycles core -. c0
  in
  w

(* Each workload with the number of set-ups a run times and its
   constructor. *)
let all =
  [
    ( "kv_sync_zipf",
      31,
      kv ~mode:Server.Sync ~slab_mib:64 ~populate_mib:0 ~prefix:100_000 ~block:5_000 );
    ( "kv_mprotect_big",
      7,
      kv ~mode:Server.Mprotect_sys ~slab_mib:64 ~populate_mib:64 ~prefix:4_000 ~block:80 );
    "mpk_key_churn", 31, churn ~prefix:40_000 ~block:2_000;
  ]

let names = List.map (fun (n, _, _) -> n) all
let find name = List.find (fun (n, _, _) -> n = name) all
let setups name = match find name with _, k, _ -> k
let setup name ~seed = match find name with _, _, make -> make ~seed

(* --- output checks run after the measured phase --- *)

let key_cache_identity mpk =
  let c = Libmpk.cache mpk in
  let module K = Libmpk.Key_cache in
  K.misses c = K.in_use c + K.evictions c + K.invalidations c + K.full_misses c

let checks w =
  let server =
    match w.server with Some s -> [ "slab_invariants", Server.slab_invariants s ] | None -> []
  in
  let mpk =
    match w.mpk with
    | Some m ->
        let violations = Mpk_check.Audit.run m in
        List.iter (fun v -> Format.eprintf "audit: %a@." Mpk_check.Audit.pp_violation v) violations;
        [ "audit", violations = []; "key_cache_identity", key_cache_identity m ]
    | None -> []
  in
  server @ mpk
