(* The repository benchmark driver.

   perfbench --workload NAME --seed N --seconds S --trace 0|1

   One process, one domain, one closed-loop client. A run sets the
   workload up, then measures: first a deterministic prefix of
   [Workload.prefix] operations, which every simulated metric and every
   count covers, then more operations until [--seconds] of host time have
   gone into them, which only the host-time metrics use; further timed
   set-ups run between those operations and are reported in reference
   seconds (see [host_speed]). The last line of standard output is one
   JSON object:
   with [--trace 0] the end-to-end metrics, with [--trace 1] the
   per-layer ones. See README.md in this directory. *)

open Mpk_hw
open Mpk_kernel
module W = Workload

let ghz = 2.4
let now_ns = Spans.now_ns

(* --- host speed reference --- *)

(* A fixed loop that does not depend on the program: look up one of
   8 000 string keys in a hash table and copy the 512-byte value, which
   dies young. Other tenants of a shared host change the simulator's speed
   by up to a factor of two, for a fraction of a second up to whole runs,
   and this loop's speed with it. The run times the loop right before and
   right after every set-up and multiplies the set-up's time by its mean
   speed, which takes out most of the host's share. A reference second is
   the host time of [ref_nominal] units of the loop; the figure is only a
   scale, near the loop's rate on a lightly loaded 2-core Xeon host. The
   table is built on first use, after the prefix has read the peak RSS. *)
let ref_units = 10_000
let ref_nominal = 2.4e6

let reference =
  lazy
    (let keys = Array.init 8_000 (Printf.sprintf "ref-%d") in
     let table = Hashtbl.create 8_000 in
     Array.iter (fun k -> Hashtbl.replace table k (Bytes.make 512 'r')) keys;
     keys, table)

let ref_state = ref 1
let ref_sink = ref 0

(* The host's speed relative to the nominal one (above 1 is faster). The
   program's young data is collected first, so that the loop does not pay
   for it. *)
let host_speed () =
  let ref_keys, ref_table = Lazy.force reference in
  Gc.minor ();
  let t0 = now_ns () in
  for _ = 1 to ref_units do
    ref_state := ((!ref_state * 1103515245) + 12345) land 0x3fffffff;
    let k = ref_keys.(!ref_state mod Array.length ref_keys) in
    let v = Bytes.copy (Hashtbl.find ref_table k) in
    ref_sink := !ref_sink + Char.code (Bytes.get v (!ref_state land 511)) + Hashtbl.hash k
  done;
  float_of_int ref_units *. 1e9 /. float_of_int (now_ns () - t0) /. ref_nominal

(* --- counters read around the deterministic prefix --- *)

let sum_cores w f = Array.fold_left (fun acc c -> acc + f (Cpu.tlb c)) 0 (Machine.cores w.W.machine)

(* Every count a later change may compare exactly. All are cumulative;
   the prefix reports their differences. *)
let counters w =
  let lib f = match w.W.mpk with Some m -> f m | None -> 0 in
  let stats f = lib (fun m -> f (Libmpk.stats m)) in
  let cache f = lib (fun m -> f (Libmpk.cache m)) in
  let evicted = match w.W.server with Some s -> W.Server.items_evicted s | None -> 0 in
  [
    "kernel.syscalls", Syscall.count ();
    "kernel.ipis", Sched.ipis_sent w.W.sched;
    "hw.tlb_hits", sum_cores w Tlb.hits;
    "hw.tlb_misses", sum_cores w Tlb.misses;
    "hw.tlb_flushes", sum_cores w Tlb.flushes;
    "kvstore.gets", w.W.gets;
    "kvstore.get_hits", w.W.get_hits;
    "kvstore.items_evicted", evicted;
    "failed_ops", w.W.failed;
    "core.begin_calls", stats (fun s -> s.Libmpk.begin_calls);
    "core.end_calls", stats (fun s -> s.Libmpk.end_calls);
    "core.mprotect_calls", stats (fun s -> s.Libmpk.mprotect_calls);
    "core.key_cache.misses", cache Libmpk.Key_cache.misses;
    "core.key_cache.evictions", cache Libmpk.Key_cache.evictions;
    "core.key_cache.full_misses", cache Libmpk.Key_cache.full_misses;
  ]
  |> List.map (fun (k, v) -> k, float_of_int v)

let diff a b = List.map2 (fun (k, x) (_, y) -> k, y -. x) a b
let core_clocks w = Array.map Cpu.cycles (Machine.cores w.W.machine)

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* --- one measured phase --- *)

(* VmHWM of this process, in MB. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
      Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.0)
        | _ -> scan ()
      in
      scan ()

type phase = {
  ops : int;  (* all operations issued, prefix included *)
  lat : float array;  (* per-op simulated cycles over the prefix *)
  counts : (string * float) list;  (* counter differences over the prefix *)
  busiest : float;  (* busiest core's cycles over the prefix *)
  alloc : float;  (* words allocated over the prefix *)
  prefix_ns : int;  (* host time of the prefix *)
  rss_mb : float;  (* peak RSS when the prefix ends *)
  block_rates : float array;  (* host ops/s of each timed block *)
}

let step w sp i =
  match sp with
  | None -> w.W.step None i
  | Some t ->
      let s = Spans.open_ t Spans.op ~cycles:0.0 in
      let c = w.W.step sp i in
      Spans.close t s ~cycles:c;
      c

(* Run the prefix, then further blocks until [budget_ns] of host time
   has gone into blocks. [interlude] runs [interludes] times between the
   blocks after the prefix, spaced evenly over the remaining budget; its
   own time is not part of the budget. *)
let measure ?sp ?(interludes = 0) ?(interlude = ignore) w ~budget_ns =
  let lat = Array.make w.W.prefix 0.0 in
  let rates = ref [] in
  let i = ref 0 in
  let block () =
    let t0 = now_ns () in
    for _ = 1 to w.W.block do
      let c = step w sp !i in
      if !i < w.W.prefix then lat.(!i) <- c;
      incr i
    done;
    let ns = now_ns () - t0 in
    rates := float_of_int w.W.block *. 1e9 /. float_of_int ns :: !rates;
    ns
  in
  let clocks0 = core_clocks w in
  let c0 = counters w in
  let a0 = alloc_words () in
  let spent = ref 0 in
  while !i < w.W.prefix do
    spent := !spent + block ()
  done;
  let prefix_ns = !spent in
  let rss_mb = peak_rss_mb () in
  let alloc = alloc_words () -. a0 in
  let counts = diff c0 (counters w) in
  let busiest =
    Array.fold_left Float.max 0.0 (Array.map2 (fun a b -> b -. a) clocks0 (core_clocks w))
  in
  let slot = max 0 (budget_ns - prefix_ns) / (interludes + 1) in
  let next = ref 1 in
  while !spent < budget_ns do
    spent := !spent + block ();
    if !next <= interludes && !spent >= prefix_ns + (!next * slot) then begin
      interlude ();
      incr next
    end
  done;
  for _ = !next to interludes do
    interlude ()
  done;
  { ops = !i; lat; counts; busiest; alloc; prefix_ns; rss_mb; block_rates = Array.of_list (List.rev !rates) }

let count p k = List.assoc k p.counts
let per_op p x = x /. float_of_int (Array.length p.lat)
let median xs = Mpk_util.Stats.percentile xs 50.0

(* The simulated metrics of a phase: deterministic for a seed. *)
let sim_unit k = if k = "sim_ops_per_s" then "1/s" else "cycles"

let sim_metrics p =
  let n = float_of_int (Array.length p.lat) in
  [
    "sim_ops_per_s", n /. (p.busiest /. (ghz *. 1e9));
    "sim_p50_cycles", Mpk_util.Stats.percentile p.lat 50.0;
    "sim_p99_cycles", Mpk_util.Stats.percentile p.lat 99.0;
  ]

(* --- output checks --- *)

let calib_rows () =
  List.filter (fun r -> r.Mpk_experiments.Exp_table1.paper >= 1.0) (Mpk_experiments.Exp_table1.rows ())

let calib_err_pct rows =
  List.fold_left
    (fun acc r ->
      let open Mpk_experiments.Exp_table1 in
      Float.max acc (Float.abs (r.cycles -. r.paper) /. r.paper *. 100.0))
    0.0 rows

(* --- reporting --- *)

type metric = { name : string; value : float; unit_ : string; samples : string }

let print_table title ms =
  Printf.printf "%s\n" title;
  List.iter
    (fun m -> Printf.printf "  %-44s %18.6f %-10s %s\n" m.name m.value m.unit_ m.samples)
    ms

let result_json ~correct ~attempted ~failed ms =
  let open Mpk_trace.Json in
  to_string
    (Obj
       [
         "correct", Bool correct;
         "attempted", Int attempted;
         "failed", Int failed;
         ( "metrics",
           Obj (List.map (fun m -> m.name, Obj [ "value", Float m.value; "unit", String m.unit_ ]) ms)
         );
       ])

let report_checks checks =
  List.iter (fun (k, ok) -> Printf.printf "check %-22s %s\n" k (if ok then "ok" else "FAILED")) checks;
  List.length (List.filter (fun (_, ok) -> not ok) checks)

let report_failures w =
  List.iter (fun m -> Printf.printf "failure: %s\n" m) (List.rev w.W.first_failures)

(* --- untraced run: end-to-end metrics --- *)

(* One timed set-up from a compacted heap, so that it does not pay for
   collecting an earlier one, in reference seconds, and the host speed
   measured around it. *)
let timed_setup name ~seed =
  Gc.compact ();
  let before = host_speed () in
  let t0 = now_ns () in
  ignore (W.setup name ~seed);
  let ns = now_ns () - t0 in
  let speed = (before +. host_speed ()) /. 2.0 in
  float_of_int ns /. 1e9 *. speed, speed

let run_untraced name ~seed ~seconds =
  (* The first set-up is the one measured, untimed. The timed ones run
     between the measured blocks after the prefix, spread over the run,
     so that [setup_s] samples the host at several moments rather than at
     one; each is dropped and the heap compacted before measuring
     resumes. *)
  Gc.compact ();
  let w = W.setup name ~seed in
  let times = ref [] and speeds = ref [] in
  let interlude () =
    let t, speed = timed_setup name ~seed in
    times := t :: !times;
    speeds := speed :: !speeds;
    Gc.compact ()
  in
  Gc.compact ();
  let p = measure w ~interludes:(W.setups name) ~interlude ~budget_ns:(int_of_float (seconds *. 1e9)) in
  let times = Array.of_list !times in
  let checks = W.checks w in
  let rows = calib_rows () in
  let calib = calib_err_pct rows in
  let n = Array.length p.lat in
  let attempted = p.ops + List.length checks in
  let bad_checks = report_checks checks in
  report_failures w;
  let failed = w.W.failed + bad_checks in
  let sim = sim_metrics p in
  let prefix_s = Printf.sprintf "%d ops" n in
  let sim =
    List.map (fun (k, v) -> { name = k; value = v; unit_ = sim_unit k; samples = prefix_s }) sim
  in
  (* The latency percentiles sit on plateaus of the discrete cost model
     and read the same for every seed, and the host rate moves by up to a
     factor of two with other tenants' load, more than any bound allows.
     They are printed here but carried in the traced run's metrics, where
     no bound applies. *)
  let ops_per_s, latency = List.partition (fun m -> m.name = "sim_ops_per_s") sim in
  let ms =
    ops_per_s
    @ [
        { name = "host_alloc_words_per_op"; value = per_op p p.alloc; unit_ = "words/op"; samples = prefix_s };
        { name = "peak_rss_mb"; value = p.rss_mb; unit_ = "MB"; samples = "1 process, after the prefix" };
        {
          name = "setup_s";
          value = median times;
          unit_ = "s";
          samples = Printf.sprintf "median of %d set-ups, reference s" (Array.length times);
        };
      ]
  in
  let extra =
    latency
    @ [
      {
        name = "host_ops_per_s";
        value = median p.block_rates;
        unit_ = "1/s";
        samples = Printf.sprintf "median of %d blocks, %d ops" (Array.length p.block_rates) p.ops;
      };
      {
        name = "host_speed";
        value = median (Array.of_list !speeds);
        unit_ = "ratio";
        samples = Printf.sprintf "median of %d set-ups" (Array.length times);
      };
      {
        name = "error_ratio";
        value = float_of_int failed /. float_of_int attempted;
        unit_ = "ratio";
        samples = Printf.sprintf "%d failed / %d attempted" failed attempted;
      };
      {
        name = "calib_err_pct";
        value = calib;
        unit_ = "%";
        samples = Printf.sprintf "%d Table 1 rows" (List.length rows);
      };
    ]
  in
  print_table
    (Printf.sprintf "perfbench %s seed=%Ld trace=0 ops=%d prefix=%d" name seed p.ops n)
    (ms @ extra);
  print_endline (result_json ~correct:(failed = 0) ~attempted ~failed ms);
  failed

(* --- traced run: per-layer metrics --- *)

(* The tracer sink: events by kind, and the pages every PTE update
   rewrote. *)
let events : (string, int) Hashtbl.t = Hashtbl.create 32
let pte_pages = ref 0

let sink (e : Mpk_trace.Event.t) =
  let k = Mpk_trace.Event.kind e.ev in
  Hashtbl.replace events k (1 + Option.value ~default:0 (Hashtbl.find_opt events k));
  match e.ev with Mpk_trace.Event.Pte_update { pages; _ } -> pte_pages := !pte_pages + pages | _ -> ()

let event_count k = float_of_int (Option.value ~default:0 (Hashtbl.find_opt events k))

let sink_counts () =
  ("hw.pte_pages", float_of_int !pte_pages)
  :: List.sort compare (Hashtbl.fold (fun k v acc -> ("event." ^ k, float_of_int v) :: acc) events [])

type traced = {
  wu : W.t;
  pu : phase;  (* untraced replay of the same prefix *)
  wt : W.t;
  pt : phase;
  spans : Spans.t;
  sinks : (string * float) list;  (* tracer events by kind, PTE pages *)
  exact : bool;  (* Prof.total_recorded = Cpu.total_charged, bit for bit *)
}

let traced_pair name ~seed =
  let wu = W.setup name ~seed in
  let pu = measure wu ~budget_ns:0 in
  let wt = W.setup name ~seed in
  let spans = Spans.create () in
  Hashtbl.reset events;
  pte_pages := 0;
  Mpk_trace.Tracer.clear ();
  Mpk_trace.Tracer.add_sink sink;
  Mpk_trace.Prof.reset ();
  Cpu.reset_total_charged ();
  Mpk_trace.Prof.enable ();
  Mpk_trace.Tracer.enable ();
  let pt = measure ~sp:spans wt ~budget_ns:0 in
  Mpk_trace.Tracer.disable ();
  Mpk_trace.Prof.disable ();
  Mpk_trace.Tracer.clear_sinks ();
  let exact = Mpk_trace.Prof.total_recorded () = Cpu.total_charged () in
  { wu; pu; wt; pt; spans; sinks = sink_counts (); exact }

let fingerprint p = sim_metrics p @ p.counts

(* Profile frames by label path, each label sanitized to [A-Za-z0-9_.-]
   and joined with ".". *)
let prof_frames () =
  let clean =
    String.map (function
      | ('A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-') as c -> c
      | _ -> '_')
  in
  let rec walk prefix (n : Mpk_trace.Prof.snapshot) acc =
    List.fold_left
      (fun acc (c : Mpk_trace.Prof.snapshot) ->
        let path = if prefix = "" then clean c.label else prefix ^ "." ^ clean c.label in
        walk path c ((path, c.self) :: acc))
      acc n.children
  in
  let root = Mpk_trace.Prof.snapshot () in
  List.rev (walk "" root []), root.total

(* The frames reported as [prof.<frame>] (self cycles per operation):
   every frame holding at least 1% of the simulated cycles of some
   workload at seed 1. A frame absent from a workload reads 0. Frames
   that reach 1% but are not listed here are printed, not reported. *)
let reported_frames =
  [
    "request_overhead";
    "mpk_mprotect_many.libmpk_user";
    "mpk_mprotect_many.sys_pkey_sync.ipi_receive";
    "mpk_mprotect_many.sys_pkey_sync.ipi_send";
    "mpk_mprotect_many.sys_pkey_sync.kernel_entry";
    "mpk_mprotect_many.sys_pkey_sync.task_work_add";
    "mpk_mprotect_many.sys_pkey_sync.task_work_run";
    "sys_mprotect.pte_update";
    "page_walk";
    "mpk_begin.sys_pkey_mprotect.ipi_receive";
    "mpk_begin.sys_pkey_mprotect.ipi_send";
    "mpk_begin.sys_pkey_mprotect.kernel_entry";
    "mpk_begin.sys_pkey_mprotect.pte_update";
    "mpk_begin.sys_pkey_mprotect.tlb_flush";
    "mpk_begin.sys_pkey_mprotect.vma";
    "mpk_begin.sys_pkey_mprotect.vma_split_merge";
    "mpk_begin.sys_pkey_sync.ipi_receive";
    "mpk_begin.sys_pkey_sync.kernel_entry";
    "mpk_begin.sys_pkey_sync.task_work_run";
    "mpk_begin.sys_pkey_unmap_group.ipi_receive";
    "mpk_begin.sys_pkey_unmap_group.ipi_spin";
    "mpk_begin.sys_pkey_unmap_group.kernel_entry";
    "mpk_begin.sys_pkey_unmap_group.pte_update";
    "mpk_begin.sys_pkey_unmap_group.task_work_run";
    "mpk_begin.sys_pkey_unmap_group.tlb_flush";
    "mpk_begin.sys_pkey_unmap_group.vma";
    "mpk_begin.sys_pkey_unmap_group.vma_split_merge";
    "mpk_mprotect.sys_pkey_mprotect.tlb_flush";
    "mpk_mprotect.sys_pkey_mprotect.vma_split_merge";
    "mpk_mprotect.sys_pkey_sync.ipi_receive";
    "mpk_mprotect.sys_pkey_unmap_group.tlb_flush";
    "mpk_mprotect.sys_pkey_unmap_group.vma_split_merge";
  ]

let layer_metrics tr =
  let p = tr.pt in
  let n = float_of_int (Array.length p.lat) in
  let agg = Spans.aggregate tr.spans in
  let a k = agg.(k) in
  let ratio x y = if y = 0.0 then 0.0 else x /. y in
  let calls ks = List.fold_left (fun acc k -> acc + (a k).Spans.calls) 0 ks |> float_of_int in
  let sum f ks = List.fold_left (fun acc k -> acc +. f (a k)) 0.0 ks in
  let kv = [ Spans.kv_get; Spans.kv_set ] in
  let per_call k f = ratio (f (a k)) (float_of_int (a k).Spans.calls) in
  let c = count p in
  let frames, _ = prof_frames () in
  let m name unit_ value = { name; value; unit_; samples = "" } in
  List.filter_map
    (fun (k, v) -> if k = "sim_ops_per_s" then None else Some (m k (sim_unit k) v))
    (sim_metrics p)
  @ [
    m "host_ops_per_s" "1/s" (n *. 1e9 /. float_of_int tr.pu.prefix_ns);
    m "kvstore.host_ns_per_req" "ns" (ratio (sum (fun x -> x.Spans.host_ns) kv) (calls kv));
    m "kvstore.sim_cycles_per_req" "cycles" (ratio (sum (fun x -> x.Spans.sim_cycles) kv) (calls kv));
    m "kvstore.alloc_words_per_req" "words" (ratio (sum (fun x -> x.Spans.alloc_words) kv) (calls kv));
    m "kvstore.get_hit_ratio" "ratio" (ratio (c "kvstore.get_hits") (c "kvstore.gets"));
    m "kvstore.items_evicted" "count" (c "kvstore.items_evicted");
    m "core.begin.sim_cycles" "cycles" (per_call Spans.core_begin (fun x -> x.Spans.sim_cycles));
    m "core.begin.host_ns" "ns" (per_call Spans.core_begin (fun x -> x.Spans.host_ns));
    m "core.end.sim_cycles" "cycles" (per_call Spans.core_end (fun x -> x.Spans.sim_cycles));
    m "core.end.host_ns" "ns" (per_call Spans.core_end (fun x -> x.Spans.host_ns));
    m "core.mprotect.sim_cycles" "cycles" (per_call Spans.core_mprotect (fun x -> x.Spans.sim_cycles));
    m "core.mprotect.host_ns" "ns" (per_call Spans.core_mprotect (fun x -> x.Spans.host_ns));
    m "core.key_cache.miss_ratio" "ratio"
      (ratio (c "core.key_cache.misses") (c "core.begin_calls" +. c "core.mprotect_calls"));
    m "core.key_cache.evictions_per_op" "1/op" (c "core.key_cache.evictions" /. n);
    m "core.key_cache.full_misses" "count" (c "core.key_cache.full_misses");
    m "kernel.syscalls_per_op" "1/op" (c "kernel.syscalls" /. n);
    m "kernel.ipis_per_op" "1/op" (c "kernel.ipis" /. n);
    m "kernel.pkey_sync_deferred_per_op" "1/op" (event_count "pkey_sync_deferred" /. n);
    m "kernel.pkey_sync_executed_per_op" "1/op" (event_count "pkey_sync_executed" /. n);
    m "hw.pte_updates_per_op" "pages/op" (float_of_int !pte_pages /. n);
    m "hw.tlb_flushes_per_op" "1/op" (c "hw.tlb_flushes" /. n);
    m "hw.tlb_miss_ratio" "ratio" (ratio (c "hw.tlb_misses") (c "hw.tlb_hits" +. c "hw.tlb_misses"));
    m "hw.wrpkru_per_op" "1/op" (event_count "wrpkru" /. n);
    m "hw.frames_in_use" "count" (float_of_int (Physmem.frames_in_use (Machine.mem tr.wt.W.machine)));
    m "trace.host_overhead_ratio" "ratio" (float_of_int p.prefix_ns /. float_of_int tr.pu.prefix_ns);
    m "driver.host_ns_per_op" "ns" ((a Spans.op).Spans.self_ns /. n);
  ]
  @ List.map
      (fun f ->
        m ("prof." ^ f) "cycles/op" (Option.value ~default:0.0 (List.assoc_opt f frames) /. n))
      reported_frames

(* Frames holding at least 1% of the cycles that [reported_frames] lacks. *)
let unlisted_frames () =
  let frames, total = prof_frames () in
  List.filter
    (fun (f, self) -> self >= 0.01 *. total && not (List.mem f reported_frames))
    frames

let spans_dir = ".perfbench"

let run_traced name ~seed =
  let tr = traced_pair name ~seed in
  let same = fingerprint tr.pu = fingerprint tr.pt in
  let checks =
    [ "traced_equals_untraced", same; "prof_exact", tr.exact ]
    @ List.map (fun (k, ok) -> "untraced." ^ k, ok) (W.checks tr.wu)
    @ List.map (fun (k, ok) -> "traced." ^ k, ok) (W.checks tr.wt)
  in
  if not (Sys.file_exists spans_dir) then Sys.mkdir spans_dir 0o755;
  let path = Printf.sprintf "%s/spans-%s-%Ld.json" spans_dir name seed in
  Spans.write tr.spans path;
  let bad_checks = report_checks checks in
  report_failures tr.wu;
  report_failures tr.wt;
  let failed = tr.wu.W.failed + tr.wt.W.failed + bad_checks in
  let attempted = tr.pu.ops + tr.pt.ops + List.length checks in
  let ms = layer_metrics tr in
  print_table
    (Printf.sprintf "perfbench %s seed=%Ld trace=1 prefix=%d spans=%s (%d spans)" name seed
       (Array.length tr.pt.lat) path tr.spans.Spans.n)
    ms;
  List.iter
    (fun (f, self) ->
      Printf.printf "unlisted frame %s: %.1f cycles/op\n" f (self /. float_of_int (Array.length tr.pt.lat)))
    (unlisted_frames ());
  (* Everything that must repeat exactly for this seed in another
     process; run.py --selfcheck compares it across runs. *)
  let fp = fingerprint tr.pu @ [ "host_alloc_words", tr.pu.alloc ] @ tr.sinks in
  print_endline
    ("fingerprint "
    ^ Mpk_trace.Json.to_string (Mpk_trace.Json.Obj (List.map (fun (k, v) -> k, Mpk_trace.Json.Float v) fp)));
  print_endline (result_json ~correct:(failed = 0) ~attempted ~failed ms);
  failed

(* --- command line --- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      "--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " W.names;
      "--seed", Arg.Set_int seed, "N input seed";
      "--seconds", Arg.Set_float seconds, "S host seconds to measure";
      "--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer traced (1) run";
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload W.names) then begin
    prerr_endline ("perfbench: unknown workload " ^ !workload);
    exit 2
  end;
  let seed = Int64.of_int !seed in
  let failed =
    if !trace = 1 then run_traced !workload ~seed
    else run_untraced !workload ~seed ~seconds:!seconds
  in
  exit (if failed = 0 then 0 else 1)
