(* Tests for mpk_util: PRNG determinism and distribution, statistics,
   table rendering. *)

open Mpk_util

let check_float = Alcotest.(check (float 1e-9))

(* --- Prng --- *)

(* The top 62 bits of the generator's next 64-bit output. *)
let raw p = Prng.int p max_int

let test_prng_deterministic () =
  let a = Prng.create ~seed:42L in
  let b = Prng.create ~seed:42L in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (raw a) (raw b)
  done

let test_prng_seed_matters () =
  let a = Prng.create ~seed:1L in
  let b = Prng.create ~seed:2L in
  let same = ref 0 in
  for _ = 1 to 64 do
    if raw a = raw b then incr same
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

let test_prng_split_diverges () =
  let a = Prng.create ~seed:5L in
  let b = Prng.split a in
  let same = ref 0 in
  for _ = 1 to 64 do
    if raw a = raw b then incr same
  done;
  Alcotest.(check bool) "split stream diverges" true (!same < 4)

(* The first outputs of every draw at two seeds, taken from the
   generator when its state was a boxed [int64] (the [raw] ones as its
   64-bit outputs, shifted right by 2): holding the state unboxed must
   not change a single draw. *)
let test_prng_stream_pinned () =
  let pinned seed ~raws ~ints ~floats ~split ~after_split =
    let p = Prng.create ~seed in
    let name what = Printf.sprintf "seed %Ld: %s" seed what in
    Alcotest.(check (list int)) (name "raw") raws (List.init 3 (fun _ -> raw p));
    Alcotest.(check (list int)) (name "int") ints (List.init 4 (fun _ -> Prng.int p 1000));
    Alcotest.(check (list (float 0.)))
      (name "float") floats
      (List.init 3 (fun _ -> Prng.float p));
    let s = Prng.split p in
    Alcotest.(check (list int)) (name "split") split (List.init 2 (fun _ -> raw s));
    Alcotest.(check int) (name "after split") after_split (raw p)
  in
  pinned 1L
    ~raws:[ 0x24428b7b22409730; 0x2fbae3685963bb19; 0x3e24e8bbbecc9557 ]
    ~ints:[ 58; 190; 512; 761 ]
    ~floats:[ 0x1.0bcf761e244fp-1; 0x1.245c6378d5f8ep-2; 0x1.9686b91ce8c2cp-1 ]
    ~split:[ 0x14340cfec2f0c9dd; 0x1b8c998bee77d075 ]
    ~after_split:0x26bf35134533e2ff;
  pinned 0xC0FFEEL
    ~raws:[ 0x32a085bea416343e; 0x3b3916eaf3a1c11e; 0x21efa4e9285a9cf2 ]
    ~ints:[ 385; 6; 876; 109 ]
    ~floats:[ 0x1.bf48a52845532p-1; 0x1.a4c7945ef3e28p-4; 0x1.46291a15a15a5p-1 ]
    ~split:[ 0x27115e9b54f607df; 0xc8b1bd7be561719 ]
    ~after_split:0x141c19760101dfb7

let test_prng_bool_rejects_nan () =
  Alcotest.check_raises "NaN p" (Invalid_argument "Prng.bool: p is NaN") (fun () ->
      ignore (Prng.bool (Prng.create ~seed:1L) ~p:Float.nan))

(* --- allocation budget: the generator's state is held unboxed and
   [Prng.float] inlines, so no draw allocates. Like test_hw's
   [cross-library inlining], this holds in the release profile. --- *)

let test_draw_allocation () =
  let p = Prng.create ~seed:3L in
  let per_call f = Alloc_budget.allocated (fun () -> for _ = 1 to 100 do f () done) /. 100. in
  let none name f = Alcotest.(check (float 0.)) (name ^ " allocates nothing") 0. (per_call f) in
  none "Prng.int" (fun () -> ignore (Prng.int p 7));
  none "Prng.bool" (fun () -> ignore (Prng.bool p ~p:0.5));
  none "Prng.float" (fun () -> ignore (Prng.float p < 0.5));
  let uniform = Zipf.create ~theta:0. ~n:256 () and zipf = Zipf.create ~theta:0.99 ~n:256 () in
  none "uniform Zipf.sample" (fun () -> ignore (Zipf.sample uniform p));
  none "skewed Zipf.sample" (fun () -> ignore (Zipf.sample zipf p))

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
          tc "split" `Quick test_prng_split_diverges;
          tc "stream pinned" `Quick test_prng_stream_pinned;
          tc "bool rejects NaN" `Quick test_prng_bool_rejects_nan;
        ] );
      ( "alloc_budget", [ tc "draws" `Quick test_draw_allocation ] );
      ( "stats",
        [
          tc "percentile" `Quick test_percentile;
          tc "percentile unsorted" `Quick test_percentile_unsorted;
          tc "percentile empty" `Quick test_percentile_empty;
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
