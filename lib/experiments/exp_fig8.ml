open Mpk_hw
open Mpk_kernel

type cell = { hit_rate : int; evict_rate : int; threads : int; cycles : float }

let page = Physmem.page_size
let total_groups = 64
let ops = 200

(* A vkey currently mapped to a hardware key (guaranteed hit) and one that
   is not (guaranteed miss), chosen via the cache's own state. *)
let pick_hit mpk = match Libmpk.Key_cache.dump (Libmpk.cache mpk) with
  | (vkey, _, _) :: _ -> vkey  (* LRU entry: also exercises LRU bumping *)
  | [] -> invalid_arg "pick_hit: cache empty"

let pick_miss mpk next =
  let cached = Libmpk.Key_cache.dump (Libmpk.cache mpk) in
  let in_cache v = List.exists (fun (v', _, _) -> v = v') cached in
  let rec scan v = if in_cache v then scan ((v mod total_groups) + 1) else v in
  scan ((next mod total_groups) + 1)

let flip i = if i land 1 = 0 then Perm.r else Perm.rw

let run_cell ?(mpk_seed = 0x816L) ?(wl_seed = 0x88L) ~hit_rate ~evict_rate ~threads () =
  let env = Env.make ~threads () in
  let task = Env.main env in
  let proc = env.Env.proc in
  let mpk =
    Libmpk.init ~evict_rate:(float_of_int evict_rate /. 100.0) ~seed:mpk_seed proc task
  in
  for v = 1 to total_groups do
    ignore (Libmpk.mpk_mmap mpk task ~vkey:v ~len:page ~prot:Perm.rw)
  done;
  (* warm: fill all 15 entries *)
  for v = 1 to 15 do
    Libmpk.mpk_mprotect mpk task ~vkey:v ~prot:Perm.rw
  done;
  let prng = Mpk_util.Prng.create ~seed:wl_seed in
  let cycles =
    Env.mean_cycles ~reps:ops task (fun i ->
        let vkey =
          if Mpk_util.Prng.int prng 100 < hit_rate then pick_hit mpk
          else pick_miss mpk (Mpk_util.Prng.int prng total_groups)
        in
        Libmpk.mpk_mprotect mpk task ~vkey ~prot:(flip i))
  in
  { hit_rate; evict_rate; threads; cycles }

let hit_rates = [ 0; 25; 50; 75; 100 ]
let evict_rates = [ 25; 50; 100 ]
let thread_counts = [ 1; 4 ]

let grid () =
  List.concat_map
    (fun threads ->
      List.concat_map
        (fun evict_rate ->
          List.map (fun hit_rate -> run_cell ~hit_rate ~evict_rate ~threads ()) hit_rates)
        evict_rates)
    thread_counts

let mprotect_reference ~threads =
  let env = Env.make ~threads () in
  let task = Env.main env in
  let proc = env.Env.proc in
  let addr = Syscall.mmap proc task ~len:page ~prot:Perm.rw () in
  Mm.populate (Proc.mm proc) (Task.core task) ~addr ~len:page;
  Env.mean_cycles ~reps:ops task (fun i ->
      Syscall.mprotect proc task ~addr ~len:page ~prot:(flip i))

(* A begin/end pair on a group that is already mapped and stays mapped:
   the mpk_begin hot path, measured directly so `bench diff` sees it
   move. *)
let begin_end_hit ~reps =
  let env = Env.make ~threads:1 () in
  let task = Env.main env in
  let mpk = Libmpk.init ~evict_rate:1.0 ~seed:0x5EEDL env.Env.proc task in
  ignore (Libmpk.mpk_mmap mpk task ~vkey:1 ~len:page ~prot:Perm.rw);
  (* warm: the first begin maps the group; afterwards every pair hits *)
  Libmpk.mpk_begin mpk task ~vkey:1 ~prot:Perm.rw;
  Libmpk.mpk_end mpk task ~vkey:1;
  Env.mean_cycles ~reps task (fun _ ->
      Libmpk.mpk_begin mpk task ~vkey:1 ~prot:Perm.rw;
      Libmpk.mpk_end mpk task ~vkey:1)

let metrics ~seed ~smoke =
  let mpk_seed = Env.mix seed 7919 0x816 in
  let wl_seed = Env.mix seed 104729 0x88 in
  let cell ~hit_rate ~threads =
    (run_cell ~mpk_seed ~wl_seed ~hit_rate ~evict_rate:100 ~threads ()).cycles
  in
  let hit = cell ~hit_rate:100 ~threads:1 in
  let reference = mprotect_reference ~threads:1 in
  let base =
    [
      Env.metric "fig8.hit_cycles" Lower_better hit;
      Env.metric "fig8.miss_cycles" Lower_better (cell ~hit_rate:0 ~threads:1);
      (* the seed-sensitive cell: the 50/50 hit/miss mix varies with the
         workload seed, so each trial reads a different value *)
      Env.metric "fig8.mixed50_cycles" Lower_better (cell ~hit_rate:50 ~threads:1);
      Env.metric "fig8.mprotect_ref_cycles" Lower_better reference;
      Env.metric "fig8.hit_speedup_vs_mprotect" Higher_better (reference /. hit);
      Env.metric "fig8.begin_end_hit_cycles" Lower_better (begin_end_hit ~reps:200);
    ]
  in
  if smoke then base
  else
    base @ [ Env.metric "fig8.hit_cycles_t4" Lower_better (cell ~hit_rate:100 ~threads:4) ]

let render () =
  let cells = grid () in
  let buf = Buffer.create 1024 in
  List.iter
    (fun threads ->
      let reference = mprotect_reference ~threads in
      Buffer.add_string buf
        (Printf.sprintf
           "Figure 8 (%d thread%s): mpk_mprotect latency (cycles); mprotect ref = %.0f\n"
           threads
           (if threads = 1 then "" else "s")
           reference);
      let header =
        "hit%" :: List.map (fun e -> Printf.sprintf "evict %d%%" e) evict_rates
        @ [ "vs ref (e=100%)" ]
      in
      let rows =
        List.map
          (fun hit_rate ->
            let row_cells =
              List.map
                (fun evict_rate ->
                  (List.find
                     (fun c ->
                       c.hit_rate = hit_rate && c.evict_rate = evict_rate
                       && c.threads = threads)
                     cells)
                    .cycles)
                evict_rates
            in
            let last = List.nth row_cells (List.length row_cells - 1) in
            string_of_int hit_rate
            :: List.map Mpk_util.Table.float_cell row_cells
            @ [ Printf.sprintf "%.2fx" (reference /. last) ])
          hit_rates
      in
      Buffer.add_string buf (Mpk_util.Table.render ~header rows);
      Buffer.add_char buf '\n')
    thread_counts;
  Buffer.contents buf
