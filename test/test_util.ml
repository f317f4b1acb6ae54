(* Tests for mpk_util: PRNG determinism and distribution, statistics,
   table rendering. *)

open Mpk_util

let check_float = Alcotest.(check (float 1e-9))

(* --- Prng --- *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:42L in
  let b = Prng.create ~seed:42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next a) (Prng.next b)
  done

let test_prng_seed_matters () =
  let a = Prng.create ~seed:1L in
  let b = Prng.create ~seed:2L in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.next a = Prng.next b then incr same
  done;
  Alcotest.(check bool) "different streams" true (!same < 4)

let test_prng_int_bounds () =
  let p = Prng.create ~seed:7L in
  for _ = 1 to 10_000 do
    let v = Prng.int p 17 in
    Alcotest.(check bool) "in bounds" true (v >= 0 && v < 17)
  done

let test_prng_float_bounds () =
  let p = Prng.create ~seed:8L in
  for _ = 1 to 10_000 do
    let v = Prng.float p in
    Alcotest.(check bool) "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_prng_float_mean () =
  let p = Prng.create ~seed:9L in
  let s = Stats.create () in
  for _ = 1 to 50_000 do
    Stats.add s (Prng.float p)
  done;
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (Stats.mean s -. 0.5) < 0.01)

let test_prng_bool_extremes () =
  let p = Prng.create ~seed:10L in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=1 always true" true (Prng.bool p ~p:1.0);
    Alcotest.(check bool) "p=0 always false" false (Prng.bool p ~p:0.0)
  done

let test_prng_bool_rate () =
  let p = Prng.create ~seed:11L in
  let hits = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Prng.bool p ~p:0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "rate near 0.3" true (Float.abs (rate -. 0.3) < 0.01)

let test_prng_copy_independent () =
  let a = Prng.create ~seed:5L in
  ignore (Prng.next a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copy continues identically" (Prng.next a) (Prng.next b)

let test_prng_split_diverges () =
  let a = Prng.create ~seed:5L in
  let b = Prng.split a in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.next a = Prng.next b then incr same
  done;
  Alcotest.(check bool) "split stream diverges" true (!same < 4)

let test_prng_shuffle_permutation () =
  let p = Prng.create ~seed:12L in
  let a = Array.init 100 (fun i -> i) in
  Prng.shuffle p a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 100 (fun i -> i)) sorted

(* --- Stats --- *)

let test_stats_empty () =
  let s = Stats.create () in
  Alcotest.(check int) "count" 0 (Stats.count s);
  check_float "mean" 0.0 (Stats.mean s);
  check_float "stddev" 0.0 (Stats.stddev s)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check_float "mean" 5.0 (Stats.mean s);
  Alcotest.(check bool) "stddev (sample)" true (Float.abs (Stats.stddev s -. 2.13809) < 1e-4);
  check_float "min" 2.0 (Stats.minimum s);
  check_float "max" 9.0 (Stats.maximum s);
  check_float "total" 40.0 (Stats.total s)

let test_stats_single () =
  let s = Stats.create () in
  Stats.add s 3.5;
  check_float "mean" 3.5 (Stats.mean s);
  check_float "stddev of one" 0.0 (Stats.stddev s)

let test_percentile () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_float "p0" 1.0 (Stats.percentile xs 0.0);
  check_float "p50" 3.0 (Stats.percentile xs 50.0);
  check_float "p100" 5.0 (Stats.percentile xs 100.0);
  check_float "p25" 2.0 (Stats.percentile xs 25.0);
  check_float "interpolated" 4.6 (Stats.percentile xs 90.0)

let test_percentile_unsorted () =
  let xs = [| 5.0; 1.0; 3.0; 2.0; 4.0 |] in
  check_float "p50 of unsorted" 3.0 (Stats.percentile xs 50.0)

let test_percentile_empty () =
  Alcotest.check_raises "empty raises" (Invalid_argument "Stats.percentile: empty array")
    (fun () -> ignore (Stats.percentile [||] 50.0))

let test_mean_of () =
  check_float "mean_of" 2.0 (Stats.mean_of [| 1.0; 2.0; 3.0 |]);
  check_float "stddev_of" 1.0 (Stats.stddev_of [| 1.0; 2.0; 3.0 |])

(* --- Stats.Histogram --- *)

let test_hist_buckets () =
  let h = Stats.Histogram.create ~lo:1.0 ~growth:2.0 ~buckets:4 () in
  (* bounds: 1 2 4 8, plus overflow *)
  List.iter (Stats.Histogram.add h) [ 0.5; 1.0; 1.5; 3.0; 8.0; 100.0 ];
  let bs = Stats.Histogram.buckets h in
  Alcotest.(check int) "bucket count incl overflow" 5 (Array.length bs);
  let counts = Array.map snd bs in
  Alcotest.(check (array int)) "per-bucket counts" [| 2; 1; 1; 1; 1 |] counts;
  check_float "first bound" 1.0 (fst bs.(0));
  check_float "last bound is +inf" infinity (fst bs.(4));
  Alcotest.(check int) "count" 6 (Stats.Histogram.count h);
  check_float "total" 114.0 (Stats.Histogram.total h);
  check_float "min exact" 0.5 (Stats.Histogram.minimum h);
  check_float "max exact" 100.0 (Stats.Histogram.maximum h)

let test_hist_nan_rejected () =
  let h = Stats.Histogram.create () in
  Alcotest.check_raises "NaN raises" (Invalid_argument "Stats.Histogram.add: NaN sample")
    (fun () -> Stats.Histogram.add h Float.nan)

let test_hist_percentiles () =
  let h = Stats.Histogram.create ~lo:1.0 ~growth:2.0 ~buckets:12 () in
  for i = 1 to 1000 do
    Stats.Histogram.add h (float_of_int i)
  done;
  (* Bucketed percentiles are approximate; the error is bounded by one
     bucket width, i.e. a factor of growth=2. *)
  let within name expected v =
    Alcotest.(check bool)
      (Printf.sprintf "%s: %g within 2x of %g" name v expected)
      true
      (v >= expected /. 2.0 && v <= expected *. 2.0)
  in
  within "p50" 500.0 (Stats.Histogram.p50 h);
  within "p95" 950.0 (Stats.Histogram.p95 h);
  within "p99" 990.0 (Stats.Histogram.p99 h);
  let p100 = Stats.Histogram.percentile h 100.0 in
  Alcotest.(check bool) "p100 clamped to max" true (p100 <= 1000.0)

let test_hist_percentile_empty () =
  let h = Stats.Histogram.create () in
  Alcotest.check_raises "empty raises"
    (Invalid_argument "Stats.Histogram.percentile: empty histogram")
    (fun () -> ignore (Stats.Histogram.p50 h))

let test_hist_merge () =
  let a = Stats.Histogram.create ~lo:1.0 ~growth:2.0 ~buckets:8 () in
  let b = Stats.Histogram.create ~lo:1.0 ~growth:2.0 ~buckets:8 () in
  List.iter (Stats.Histogram.add a) [ 1.0; 4.0 ];
  List.iter (Stats.Histogram.add b) [ 2.0; 300.0 ];
  Stats.Histogram.merge_into ~into:a b;
  Alcotest.(check int) "merged count" 4 (Stats.Histogram.count a);
  check_float "merged total" 307.0 (Stats.Histogram.total a);
  check_float "merged min" 1.0 (Stats.Histogram.minimum a);
  check_float "merged max" 300.0 (Stats.Histogram.maximum a);
  let c = Stats.Histogram.create ~lo:1.0 ~growth:4.0 ~buckets:8 () in
  Alcotest.check_raises "shape mismatch raises"
    (Invalid_argument "Stats.Histogram.merge_into: bucket layouts differ")
    (fun () -> Stats.Histogram.merge_into ~into:a c)

(* --- Table --- *)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec scan i = i + n <= h && (String.sub hay i n = needle || scan (i + 1)) in
  n = 0 || scan 0

let test_table_render () =
  let s = Table.render ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "30"; "4" ] ] in
  Alcotest.(check bool) "contains header" true (contains ~needle:"bb" s);
  Alcotest.(check bool) "contains cell" true (contains ~needle:"30" s)

let test_table_pads_short_rows () =
  let s = Table.render ~header:[ "a"; "b"; "c" ] [ [ "1" ] ] in
  Alcotest.(check bool) "renders" true (String.length s > 0)

let test_float_cell () =
  Alcotest.(check string) "integer" "42" (Table.float_cell 42.0);
  Alcotest.(check string) "small" "3.140" (Table.float_cell 3.14);
  Alcotest.(check string) "large" "12345.7" (Table.float_cell 12345.67)

let test_series () =
  let s =
    Table.series ~title:"Fig X" ~x_label:"n" ~y_labels:[ "a"; "b" ]
      [ "1", [ 1.0; 2.0 ]; "2", [ 3.0; 4.0 ] ]
  in
  Alcotest.(check bool) "starts with title" true (String.length s > 5 && String.sub s 0 5 = "Fig X")

(* --- Zipf --- *)

let test_zipf_bounds_and_determinism () =
  let z = Zipf.create ~theta:0.99 ~n:100 () in
  Alcotest.(check int) "n recorded" 100 (Zipf.n z);
  let draw seed =
    let p = Prng.create ~seed in
    List.init 500 (fun _ -> Zipf.sample z p)
  in
  let a = draw 9L in
  List.iter (fun r -> if r < 0 || r >= 100 then Alcotest.fail "rank out of range") a;
  Alcotest.(check bool) "deterministic for a seed" true (a = draw 9L)

let test_zipf_skews_to_low_ranks () =
  let z = Zipf.create ~theta:0.99 ~n:1000 () in
  let p = Prng.create ~seed:3L in
  let counts = Array.make 1000 0 in
  for _ = 1 to 20_000 do
    let r = Zipf.sample z p in
    counts.(r) <- counts.(r) + 1
  done;
  let head = Array.fold_left ( + ) 0 (Array.sub counts 0 100) in
  Alcotest.(check bool)
    (Printf.sprintf "top 10%% of ranks takes most samples (%d/20000)" head)
    true (head > 10_000);
  Alcotest.(check bool) "rank 0 beats rank 999" true (counts.(0) > counts.(999))

let test_zipf_theta_zero_is_uniform () =
  let z = Zipf.create ~theta:0.0 ~n:10 () in
  let p = Prng.create ~seed:4L in
  let counts = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let r = Zipf.sample z p in
    counts.(r) <- counts.(r) + 1
  done;
  Array.iteri
    (fun r c ->
      Alcotest.(check bool)
        (Printf.sprintf "rank %d roughly uniform (%d)" r c)
        true
        (c > 700 && c < 1300))
    counts;
  (* the uniform key stream Fig 14 draws: one Prng.int per sample *)
  let a = Prng.create ~seed:5L and b = Prng.create ~seed:5L in
  for i = 1 to 1000 do
    Alcotest.(check int) (Printf.sprintf "draw %d = Prng.int" i) (Prng.int b 10) (Zipf.sample z a)
  done

let test_zipf_rejects_bad_args () =
  Alcotest.check_raises "n too small" (Invalid_argument "Zipf.create: n must be >= 1")
    (fun () -> ignore (Zipf.create ~n:0 ()));
  Alcotest.check_raises "negative theta"
    (Invalid_argument "Zipf.create: theta must be >= 0") (fun () ->
      ignore (Zipf.create ~theta:(-0.5) ~n:10 ()))

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "mpk_util"
    [
      ( "prng",
        [
          tc "deterministic" `Quick test_prng_deterministic;
          tc "seed matters" `Quick test_prng_seed_matters;
          tc "int bounds" `Quick test_prng_int_bounds;
          tc "float bounds" `Quick test_prng_float_bounds;
          tc "float mean" `Quick test_prng_float_mean;
          tc "bool extremes" `Quick test_prng_bool_extremes;
          tc "bool rate" `Quick test_prng_bool_rate;
          tc "copy" `Quick test_prng_copy_independent;
          tc "split" `Quick test_prng_split_diverges;
          tc "shuffle" `Quick test_prng_shuffle_permutation;
        ] );
      ( "stats",
        [
          tc "empty" `Quick test_stats_empty;
          tc "basic" `Quick test_stats_basic;
          tc "single" `Quick test_stats_single;
          tc "percentile" `Quick test_percentile;
          tc "percentile unsorted" `Quick test_percentile_unsorted;
          tc "percentile empty" `Quick test_percentile_empty;
          tc "mean_of/stddev_of" `Quick test_mean_of;
        ] );
      ( "histogram",
        [
          tc "buckets" `Quick test_hist_buckets;
          tc "nan rejected" `Quick test_hist_nan_rejected;
          tc "percentiles" `Quick test_hist_percentiles;
          tc "percentile empty" `Quick test_hist_percentile_empty;
          tc "merge" `Quick test_hist_merge;
        ] );
      ( "table",
        [
          tc "render" `Quick test_table_render;
          tc "short rows" `Quick test_table_pads_short_rows;
          tc "float cell" `Quick test_float_cell;
          tc "series" `Quick test_series;
        ] );
      ( "zipf",
        [
          tc "bounds + determinism" `Quick test_zipf_bounds_and_determinism;
          tc "skews to low ranks" `Quick test_zipf_skews_to_low_ranks;
          tc "theta 0 is uniform" `Quick test_zipf_theta_zero_is_uniform;
          tc "rejects bad args" `Quick test_zipf_rejects_bad_args;
        ] );
    ]
