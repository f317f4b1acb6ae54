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

(* One shard: its own slice of the slab arena and of the bucket region.
   Sharding partitions the store per core so workers touch disjoint
   state; the protection discipline (the two vkeys) still covers the
   whole region — libmpk keys protect address ranges, not shards. *)
type shard = { table : Shash.t; shard_slab : Slab.t }

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
        { table; shard_slab = slab })
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
  }

let workers t = t.workers
let proc t = t.proc
let attacker_task t = t.attacker
let slab_base t = t.slab_base

let shard_count t = Array.length t.shards
let shard_of_key t key = Shash.hash key mod Array.length t.shards
let shard_for t key = t.shards.(shard_of_key t key)
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

let worker_task t i =
  if i < 0 || i >= Array.length t.workers then invalid_arg "Server: bad worker";
  t.workers.(i)

let charge_request task =
  Cpu.charge ~label:"request_overhead" (Task.core task) request_overhead_cycles

(* The store operations behind [get] and [set]. A constant
   constructor selects one, so a request builds no closure; [value] is
   read by [Set] alone. *)
type _ store_op =
  | Get : bytes option store_op
  | Set : (unit, Errno.t) result store_op

let run_op : type a. a store_op -> Shash.t -> Task.t -> key:string -> value:bytes -> a =
 fun op table task ~key ~value ->
  match op with
  | Get -> Shash.get table task ~key
  | Set -> Shash.set table task ~key ~value

(* The one request path: charge the request, open the store, run the
   operation and seal the store again, also when the operation escapes
   with an exception (a signal-handler escape mid-request, an injected
   fault). It builds no closure: beyond what the operation returns, a
   request allocates nothing. *)
let request : type a. t -> worker:int -> a store_op -> key:string -> value:bytes -> a =
 fun t ~worker op ~key ~value ->
  let task = worker_task t worker in
  charge_request task;
  open_store t task;
  match run_op op (shard_for t key).table task ~key ~value with
  | r ->
      seal_store t task;
      r
  | exception e -> raise_sealed t task ~slab_only:false e

let set t ~worker ~key ~value = request t ~worker Set ~key ~value
let get t ~worker ~key = request t ~worker Get ~key ~value:Bytes.empty

(* ["key-" ^ string_of_int i] for [i >= 0], written digit by digit: a
   kvstore set-up names thousands of keys, and [Printf.sprintf] took
   about six times as long. *)
let key_name i =
  let rec digits n = if n < 10 then 1 else 1 + digits (n / 10) in
  let last = 3 + digits i in
  let b = Bytes.create (last + 1) in
  Bytes.blit_string "key-" 0 b 0 4;
  let rec fill n pos =
    Bytes.set b pos (Char.chr (48 + (n mod 10)));
    if n >= 10 then fill (n / 10) (pos - 1)
  in
  fill i last;
  Bytes.unsafe_to_string b

let prefill t ~items ~value_size =
  let value = Bytes.make value_size 'v' in
  for i = 0 to items - 1 do
    match set t ~worker:(i mod Array.length t.workers) ~key:(key_name i) ~value with
    | Ok () -> ()
    | Error e -> Errno.fail e "prefill: slab exhausted after %d items" i
  done

let populate_slab t ~mib =
  let len = min (mib * 1024 * 1024) t.slab_len in
  let main = t.workers.(0) in
  (* Mprotect_sys seals the region; populate through a write window. *)
  open_store t main;
  match Mm.populate (Proc.mm t.proc) (Task.core main) ~addr:t.slab_base ~len with
  | () -> seal_store t main
  | exception e -> raise_sealed t main ~slab_only:false e

let items_evicted _ = 0

(* Escape hatch for the per-request signal guard: the handler raises this
   out of the faulting request, so one bad request cannot take the
   worker down. *)
exception Request_fault of Signal.siginfo

(* The wild read a parsing bug produces: [addr] without opening the
   store. *)
let buggy_peek t ~worker ~addr =
  let task = worker_task t worker in
  charge_request task;
  match
    Task.with_signal_handler task
      (fun si -> raise (Request_fault si))
      (fun () -> Mmu.read_byte (Proc.mmu t.proc) (Task.core task) ~addr)
  with
  | byte -> Ok byte
  | exception Request_fault si -> Error si
