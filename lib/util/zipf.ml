(* Zipfian sampler over ranks 0..n-1 (rank 0 hottest), YCSB-style:
   P(rank = r) proportional to 1 / (r+1)^theta. The CDF is precomputed
   once (O(n)) and each sample is a binary search (O(log n)), driven by
   the caller's deterministic PRNG. theta = 0 is uniform: it builds no
   CDF and each sample is one [Prng.int prng n] draw. YCSB's default
   skew is theta = 0.99. *)

type t = Uniform of int | Skewed of float array  (* normalized CDF *)

let create ?(theta = 0.99) ~n () =
  if n < 1 then invalid_arg "Zipf.create: n must be >= 1";
  if Float.is_nan theta then invalid_arg "Zipf.create: theta is NaN";
  if theta < 0.0 then invalid_arg "Zipf.create: theta must be >= 0";
  if theta = 0.0 then Uniform n
  else begin
    let cdf = Array.make n 0.0 in
    let total = ref 0.0 in
    for r = 0 to n - 1 do
      total := !total +. (1.0 /. Float.pow (float_of_int (r + 1)) theta);
      cdf.(r) <- !total
    done;
    let norm = !total in
    for r = 0 to n - 1 do
      cdf.(r) <- cdf.(r) /. norm
    done;
    Skewed cdf
  end

let sample t prng =
  match t with
  | Uniform n -> Prng.int prng n
  | Skewed cdf ->
      let u = Prng.float prng in
      (* smallest rank with cdf.(rank) > u *)
      let lo = ref 0 and hi = ref (Array.length cdf - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if cdf.(mid) > u then hi := mid else lo := mid + 1
      done;
      !lo
