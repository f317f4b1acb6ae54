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
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Prng.float p
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.01)

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

(* The first outputs of every draw at two seeds, taken from the
   generator when its state was a boxed [int64]: holding the state
   unboxed must not change a single draw. *)
let test_prng_stream_pinned () =
  let pinned seed ~next ~ints ~floats ~split ~after_split ~copied =
    let p = Prng.create ~seed in
    let name what = Printf.sprintf "seed %Ld: %s" seed what in
    Alcotest.(check (list int64)) (name "next") next (List.init 3 (fun _ -> Prng.next p));
    Alcotest.(check (list int)) (name "int") ints (List.init 4 (fun _ -> Prng.int p 1000));
    Alcotest.(check (list (float 0.)))
      (name "float") floats
      (List.init 3 (fun _ -> Prng.float p));
    let s = Prng.split p in
    Alcotest.(check (list int64)) (name "split") split (List.init 2 (fun _ -> Prng.next s));
    Alcotest.(check int64) (name "after split") after_split (Prng.next p);
    let c = Prng.copy p in
    Alcotest.(check int64) (name "copy") copied (Prng.next c);
    Alcotest.(check int64) (name "copied from") copied (Prng.next p)
  in
  pinned 1L
    ~next:[ 0x910a2dec89025cc1L; 0xbeeb8da1658eec67L; 0xf893a2eefb32555eL ]
    ~ints:[ 58; 190; 512; 761 ]
    ~floats:[ 0x1.0bcf761e244fp-1; 0x1.245c6378d5f8ep-2; 0x1.9686b91ce8c2cp-1 ]
    ~split:[ 0x50d033fb0bc32775L; 0x6e32662fb9df41d4L ]
    ~after_split:0x9afcd44d14cf8bfeL ~copied:0x7476cf8a4baa5dc0L;
  pinned 0xC0FFEEL
    ~next:[ 0xca8216fa9058d0faL; 0xece45babce870479L; 0x87be93a4a16a73cbL ]
    ~ints:[ 385; 6; 876; 109 ]
    ~floats:[ 0x1.bf48a52845532p-1; 0x1.a4c7945ef3e28p-4; 0x1.46291a15a15a5p-1 ]
    ~split:[ 0x9c457a6d53d81f7dL; 0x322c6f5ef9585c67L ]
    ~after_split:0x507065d804077edcL ~copied:0x75a5a799430a358cL

let test_prng_bool_rejects_nan () =
  Alcotest.check_raises "NaN p" (Invalid_argument "Prng.bool: p is NaN") (fun () ->
      ignore (Prng.bool (Prng.create ~seed:1L) ~p:Float.nan))

(* --- allocation budget: the generator's state is held unboxed, so a
   draw allocates at most the float it returns --- *)

let test_draw_allocation () =
  let p = Prng.create ~seed:3L in
  let per_call f = Alloc_budget.allocated (fun () -> for _ = 1 to 100 do f () done) /. 100. in
  let none name f = Alcotest.(check (float 0.)) (name ^ " allocates nothing") 0. (per_call f) in
  none "Prng.int" (fun () -> ignore (Prng.int p 7));
  none "Prng.bool" (fun () -> ignore (Prng.bool p ~p:0.5));
  let uniform = Zipf.create ~theta:0. ~n:256 () and zipf = Zipf.create ~theta:0.99 ~n:256 () in
  none "uniform Zipf.sample" (fun () -> ignore (Zipf.sample uniform p));
  let w = per_call (fun () -> ignore (Zipf.sample zipf p)) in
  Alcotest.(check bool)
    (Printf.sprintf "Zipf.sample: %.1f words, at most 2 (its Prng.float)" w)
    true (w <= 2.)

(* A sample handed over in an all-float cell is never boxed, and the
   histogram's running sum and extrema are stored unboxed. *)
let test_histogram_allocation () =
  let h = Stats.Histogram.create ~lo:1024.0 ~growth:2.0 ~buckets:20 () in
  let s = { Stats.value = 0.0 } in
  let i = ref 0 in
  let words =
    Alloc_budget.allocated (fun () ->
        for _ = 1 to 100 do
          incr i;
          s.Stats.value <- float_of_int (!i * 997 mod 5_000_000);
          Stats.Histogram.add_sample h s
        done)
  in
  Alcotest.(check (float 0.)) "add_sample allocates nothing" 0. words;
  Alcotest.(check int) "every sample counted" 100 (Stats.Histogram.count h);
  let h' = Stats.Histogram.create ~lo:1024.0 ~growth:2.0 ~buckets:20 () in
  for i = 1 to 100 do
    Stats.Histogram.add h' (float_of_int (i * 997 mod 5_000_000))
  done;
  Alcotest.(check (array (pair (float 0.) int))) "same buckets as add" (Stats.Histogram.buckets h')
    (Stats.Histogram.buckets h);
  check_float "same total as add" (Stats.Histogram.total h') (Stats.Histogram.total h);
  check_float "same maximum as add" (Stats.Histogram.maximum h') (Stats.Histogram.maximum h)

(* --- Stats --- *)

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
      ignore (Zipf.create ~theta:(-0.5) ~n:10 ()));
  (* a NaN theta once built a sampler that only ever drew the coldest rank *)
  Alcotest.check_raises "NaN theta" (Invalid_argument "Zipf.create: theta is NaN") (fun () ->
      ignore (Zipf.create ~theta:Float.nan ~n:100 ()))

let test_zipf_theta_infinity_is_rank_zero () =
  let z = Zipf.create ~theta:Float.infinity ~n:100 () in
  let p = Prng.create ~seed:6L in
  for _ = 1 to 1000 do
    Alcotest.(check int) "all mass on rank 0" 0 (Zipf.sample z p)
  done

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
          tc "stream pinned" `Quick test_prng_stream_pinned;
          tc "bool rejects NaN" `Quick test_prng_bool_rejects_nan;
        ] );
      ( "alloc_budget",
        [
          tc "draws" `Quick test_draw_allocation;
          tc "histogram add_sample" `Quick test_histogram_allocation;
        ] );
      ( "stats",
        [
          tc "percentile" `Quick test_percentile;
          tc "percentile unsorted" `Quick test_percentile_unsorted;
          tc "percentile empty" `Quick test_percentile_empty;
        ] );
      ( "histogram",
        [
          tc "buckets" `Quick test_hist_buckets;
          tc "nan rejected" `Quick test_hist_nan_rejected;
          tc "percentiles" `Quick test_hist_percentiles;
          tc "percentile empty" `Quick test_hist_percentile_empty;
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
          tc "theta infinity is rank 0" `Quick test_zipf_theta_infinity_is_rank_zero;
        ] );
    ]
