let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty array";
  (* Polymorphic [compare] mis-orders NaN, silently corrupting the rank
     interpolation; degenerate benchmark cells do produce NaN, so reject
     it loudly and sort with the IEEE-aware comparison. *)
  Array.iter
    (fun x -> if Float.is_nan x then invalid_arg "Stats.percentile: NaN sample")
    xs;
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let p = if p < 0.0 then 0.0 else if p > 100.0 then 100.0 else p in
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) in
  let hi = int_of_float (ceil rank) in
  if lo = hi then sorted.(lo)
  else
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)

module Histogram = struct
  (* The extrema live in an all-float record, whose fields are stored
     unboxed: an [add] allocates nothing for them, where float fields of
     the mixed record [h] would box every new value. *)
  type totals = { mutable vmin : float; mutable vmax : float }

  type h = {
    bounds : float array;  (* bounds.(i) = lo * growth^i, ascending *)
    counts : int array;  (* length bounds + 1; last slot is the overflow bucket *)
    mutable n : int;
    totals : totals;
  }

  let create ?(lo = 1.0) ?(growth = 2.0) ?(buckets = 32) () =
    if not (lo > 0.0) then invalid_arg "Stats.Histogram.create: lo must be positive";
    if not (growth > 1.0) then invalid_arg "Stats.Histogram.create: growth must exceed 1";
    if buckets < 1 then invalid_arg "Stats.Histogram.create: need at least one bucket";
    {
      bounds = Array.init buckets (fun i -> lo *. (growth ** float_of_int i));
      counts = Array.make (buckets + 1) 0;
      n = 0;
      totals = { vmin = infinity; vmax = neg_infinity };
    }

  (* Smallest i with x <= bounds.(i); the overflow bucket past the last
     bound. Samples at or below [lo] all land in bucket 0 — the buckets
     are fixed at creation, underflow is not tracked separately. *)
  let[@inline] bucket_index t x =
    let nb = Array.length t.bounds in
    if x <= t.bounds.(0) then 0
    else if x > t.bounds.(nb - 1) then nb
    else begin
      let lo = ref 0 and hi = ref (nb - 1) in
      (* invariant: bounds.(lo) < x <= bounds.(hi) *)
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) / 2 in
        if x <= t.bounds.(mid) then hi := mid else lo := mid
      done;
      !hi
    end

  let add t x =
    if Float.is_nan x then invalid_arg "Stats.Histogram.add: NaN sample";
    let i = bucket_index t x in
    t.counts.(i) <- t.counts.(i) + 1;
    t.n <- t.n + 1;
    let s = t.totals in
    if x < s.vmin then s.vmin <- x;
    if x > s.vmax then s.vmax <- x

  (* Rank interpolation inside the bucket holding the target rank. The
     result is clamped to the observed extrema, so tiny histograms do not
     report values outside what was ever added. *)
  let percentile t p =
    if t.n = 0 then invalid_arg "Stats.Histogram.percentile: empty histogram";
    let p = if p < 0.0 then 0.0 else if p > 100.0 then 100.0 else p in
    let rank = p /. 100.0 *. float_of_int t.n in
    let nb = Array.length t.bounds in
    let rec find b cum =
      if b > nb then nb, cum  (* unreachable: total count = n >= rank *)
      else
        let cum' = cum + t.counts.(b) in
        if float_of_int cum' >= rank && t.counts.(b) > 0 then b, cum else find (b + 1) cum'
    in
    let b, cum_before = find 0 0 in
    let lb = if b = 0 then 0.0 else t.bounds.(b - 1) in
    let ub = if b >= nb then t.totals.vmax else t.bounds.(b) in
    let frac =
      if t.counts.(b) = 0 then 1.0
      else (rank -. float_of_int cum_before) /. float_of_int t.counts.(b)
    in
    let v = lb +. ((ub -. lb) *. (if frac < 0.0 then 0.0 else Float.min frac 1.0)) in
    Float.max t.totals.vmin (Float.min t.totals.vmax v)
end
