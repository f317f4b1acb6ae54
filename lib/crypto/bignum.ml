(* Little-endian arrays of base-2^26 digits, normalized (no trailing
   zeros). 26-bit digits keep every intermediate product within OCaml's
   63-bit native int. *)

let base_bits = 26
let base = 1 lsl base_bits
let base_mask = base - 1

type t = int array

let zero : t = [||]
let one : t = [| 1 |]
let two : t = [| 2 |]

let normalize (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int n =
  if n < 0 then invalid_arg "Bignum.of_int: negative";
  let rec digits n acc = if n = 0 then List.rev acc else digits (n lsr base_bits) ((n land base_mask) :: acc) in
  Array.of_list (digits n [])

let is_zero t = Array.length t = 0

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb
  else begin
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then Int.compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)
  end

let equal a b = compare a b = 0

let rec digit_width v acc = if v = 0 then acc else digit_width (v lsr 1) (acc + 1)

let bits t =
  let n = Array.length t in
  if n = 0 then 0 else ((n - 1) * base_bits) + digit_width t.(n - 1) 0

let to_int t =
  if bits t > 62 then None
  else begin
    let v = ref 0 in
    for i = Array.length t - 1 downto 0 do
      v := (!v lsl base_bits) lor t.(i)
    done;
    Some !v
  end

let testbit t i =
  let d = i / base_bits and b = i mod base_bits in
  d < Array.length t && (t.(d) lsr b) land 1 = 1

let add a b =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb + 1 in
  let out = Array.make n 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    out.(i) <- s land base_mask;
    carry := s lsr base_bits
  done;
  normalize out

let sub a b =
  if compare a b < 0 then invalid_arg "Bignum.sub: would be negative";
  let la = Array.length a and lb = Array.length b in
  let out = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      out.(i) <- d + base;
      borrow := 1
    end
    else begin
      out.(i) <- d;
      borrow := 0
    end
  done;
  normalize out

let mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let out = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let v = out.(i + j) + (ai * b.(j)) + !carry in
        out.(i + j) <- v land base_mask;
        carry := v lsr base_bits
      done;
      let k = ref (i + lb) in
      while !carry <> 0 do
        let v = out.(!k) + !carry in
        out.(!k) <- v land base_mask;
        carry := v lsr base_bits;
        incr k
      done
    done;
    normalize out
  end

let shift_left t k =
  if is_zero t || k = 0 then t
  else begin
    let dig = k / base_bits and bit = k mod base_bits in
    let la = Array.length t in
    let out = Array.make (la + dig + 1) 0 in
    for i = 0 to la - 1 do
      let v = t.(i) lsl bit in
      out.(i + dig) <- out.(i + dig) lor (v land base_mask);
      out.(i + dig + 1) <- out.(i + dig + 1) lor (v lsr base_bits)
    done;
    normalize out
  end

let shift_right t k =
  if is_zero t || k = 0 then t
  else begin
    let dig = k / base_bits and bit = k mod base_bits in
    let la = Array.length t in
    if dig >= la then zero
    else begin
      let n = la - dig in
      let out = Array.make n 0 in
      for i = 0 to n - 1 do
        let lo = t.(i + dig) lsr bit in
        let hi = if i + dig + 1 < la && bit > 0 then (t.(i + dig + 1) lsl (base_bits - bit)) land base_mask else 0 in
        out.(i) <- lo lor hi
      done;
      normalize out
    end
  end

(* [x * 2^s] as exactly [len] digits, for [s < base_bits]. *)
let shifted_digits x s len =
  let out = Array.make len 0 in
  let carry = ref 0 in
  for i = 0 to Array.length x - 1 do
    let v = (x.(i) lsl s) lor !carry in
    out.(i) <- v land base_mask;
    carry := v lsr base_bits
  done;
  if Array.length x < len then out.(Array.length x) <- !carry;
  out

(* Knuth's algorithm D (TAOCP vol. 2, §4.3.1), one quotient digit per
   step. Both operands are shifted so that the divisor's top digit has
   its high bit set; then the two-digit estimate of each quotient digit
   is at most one too large after the D3 test, and one add-back fixes
   it. Every product fits: digits are below 2^26, estimates below 2^27. *)
let divmod a b =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then zero, a
  else begin
    let n = Array.length b and la = Array.length a in
    if n = 1 then begin
      let d = b.(0) in
      let q = Array.make la 0 in
      let r = ref 0 in
      for i = la - 1 downto 0 do
        let cur = (!r lsl base_bits) lor a.(i) in
        q.(i) <- cur / d;
        r := cur mod d
      done;
      normalize q, of_int !r
    end
    else begin
      let s = base_bits - digit_width b.(n - 1) 0 in
      let v = shifted_digits b s n in
      let u = shifted_digits a s (la + 1) in
      let m = la - n in
      let q = Array.make (m + 1) 0 in
      let v1 = v.(n - 1) and v2 = v.(n - 2) in
      for j = m downto 0 do
        let num = (u.(j + n) lsl base_bits) lor u.(j + n - 1) in
        let rec estimate qhat rhat =
          if qhat >= base || qhat * v2 > (rhat lsl base_bits) lor u.(j + n - 2) then
            let rhat = rhat + v1 in
            if rhat < base then estimate (qhat - 1) rhat else qhat - 1
          else qhat
        in
        let qhat = estimate (num / v1) (num mod v1) in
        (* u[j..j+n] -= qhat * v, digit by digit *)
        let carry = ref 0 and borrow = ref 0 in
        for i = 0 to n - 1 do
          let p = (qhat * v.(i)) + !carry in
          carry := p lsr base_bits;
          let d = u.(i + j) - (p land base_mask) - !borrow in
          if d < 0 then begin
            u.(i + j) <- d + base;
            borrow := 1
          end
          else begin
            u.(i + j) <- d;
            borrow := 0
          end
        done;
        let top = u.(j + n) - !carry - !borrow in
        if top < 0 then begin
          (* qhat was one too large: add v back, and the top digit's
             -1 absorbs the final carry *)
          let c = ref 0 in
          for i = 0 to n - 1 do
            let t = u.(i + j) + v.(i) + !c in
            u.(i + j) <- t land base_mask;
            c := t lsr base_bits
          done;
          u.(j + n) <- top + !c;
          q.(j) <- qhat - 1
        end
        else begin
          u.(j + n) <- top;
          q.(j) <- qhat
        end
      done;
      (* the remainder is u[0..n-1] shifted back down *)
      let r =
        Array.init n (fun i ->
            let hi = if i + 1 < n then (u.(i + 1) lsl (base_bits - s)) land base_mask else 0 in
            (u.(i) lsr s) lor hi)
      in
      normalize q, normalize r
    end
  end

let rem a b = snd (divmod a b)

let mod_pow ~base:b ~exp ~modulus =
  if is_zero modulus then raise Division_by_zero;
  if equal modulus one then zero
  else begin
    let result = ref one in
    let acc = ref (rem b modulus) in
    let nbits = bits exp in
    for i = 0 to nbits - 1 do
      if testbit exp i then result := rem (mul !result !acc) modulus;
      if i < nbits - 1 then acc := rem (mul !acc !acc) modulus
    done;
    !result
  end

(* Extended Euclid with (sign, magnitude) coefficient tracking. *)
let invmod a m =
  if is_zero m || equal m one then None
  else begin
    let a = rem a m in
    if is_zero a then None
    else begin
      (* signed helpers: (sign, mag) with sign = 1 or -1, mag a natural *)
      let s_sub (sx, x) (sy, y) =
        (* x - y *)
        if sx = sy then
          if compare x y >= 0 then sx, sub x y else -sx, sub y x
        else sx, add x y
      in
      let s_mul_nat (sx, x) n = sx, mul x n in
      let rec go (old_r : t) (r : t) old_s s =
        if is_zero r then old_r, old_s
        else begin
          let q, rr = divmod old_r r in
          let new_s = s_sub old_s (s_mul_nat s q) in
          go r rr s new_s
        end
      in
      let g, (sign, x) = go m a (1, zero) (1, one) in
      if not (equal g one) then None
      else
        (* a*x ≡ 1 (mod m); fold the sign back into [0, m) *)
        let x = rem x m in
        if sign >= 0 || is_zero x then Some x else Some (sub m x)
    end
  end

let of_bytes b =
  let n = Bytes.length b in
  let acc = ref zero in
  for i = 0 to n - 1 do
    acc := add (shift_left !acc 8) (of_int (Char.code (Bytes.get b i)))
  done;
  !acc

let to_bytes t =
  if is_zero t then Bytes.make 1 '\000'
  else begin
    let nbytes = (bits t + 7) / 8 in
    let out = Bytes.make nbytes '\000' in
    let v = ref t in
    for i = nbytes - 1 downto 0 do
      let byte =
        match to_int (rem !v (of_int 256)) with Some x -> x | None -> assert false
      in
      Bytes.set out i (Char.chr byte);
      v := shift_right !v 8
    done;
    out
  end

let to_bytes_padded t ~len =
  let raw = to_bytes t in
  let n = Bytes.length raw in
  if is_zero t then Bytes.make len '\000'
  else if n > len then invalid_arg "Bignum.to_bytes_padded: does not fit"
  else begin
    let out = Bytes.make len '\000' in
    Bytes.blit raw 0 out (len - n) n;
    out
  end

let random prng ~bits:nbits =
  if nbits <= 0 then invalid_arg "Bignum.random: bits must be positive";
  let ndigits = (nbits + base_bits - 1) / base_bits in
  let out = Array.make ndigits 0 in
  for i = 0 to ndigits - 1 do
    out.(i) <- Mpk_util.Prng.int prng base
  done;
  (* clamp to exactly nbits: clear above, set the top bit *)
  let top = nbits - 1 in
  let top_digit = top / base_bits and top_bit = top mod base_bits in
  out.(top_digit) <- (out.(top_digit) land ((1 lsl (top_bit + 1)) - 1)) lor (1 lsl top_bit);
  for i = top_digit + 1 to ndigits - 1 do
    out.(i) <- 0
  done;
  normalize out
