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
