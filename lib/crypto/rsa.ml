type public = { n : Bignum.t; e : Bignum.t }
type secret = { n : Bignum.t; d : Bignum.t }
type keypair = { public : public; secret : secret }

let small_primes =
  [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37; 41; 43; 47; 53; 59; 61; 67; 71; 73; 79; 83; 89; 97 ]

let divisible_by_small n =
  List.exists
    (fun p ->
      let bp = Bignum.of_int p in
      Bignum.compare n bp > 0 && Bignum.is_zero (Bignum.rem n bp))
    small_primes

let probably_prime prng ?(rounds = 16) n =
  if Bignum.compare n Bignum.two < 0 then false
  else if Bignum.equal n Bignum.two then true
  else if not (Bignum.testbit n 0) then false
  else if List.exists (fun p -> Bignum.equal n (Bignum.of_int p)) small_primes then true
  else if divisible_by_small n then false
  else begin
    (* n - 1 = d * 2^r *)
    let n1 = Bignum.sub n Bignum.one in
    let rec strip d r = if Bignum.testbit d 0 then d, r else strip (Bignum.shift_right d 1) (r + 1) in
    let d, r = strip n1 0 in
    let witness a =
      let x = ref (Bignum.mod_pow ~base:a ~exp:d ~modulus:n) in
      if Bignum.equal !x Bignum.one || Bignum.equal !x n1 then false
      else begin
        let composite = ref true in
        (try
           for _ = 1 to r - 1 do
             x := Bignum.rem (Bignum.mul !x !x) n;
             if Bignum.equal !x n1 then begin
               composite := false;
               raise Exit
             end
           done
         with Exit -> ());
        !composite
      end
    in
    let nbits = Bignum.bits n in
    let rec rounds_ok i =
      if i >= rounds then true
      else begin
        let a = Bignum.add Bignum.two (Bignum.rem (Bignum.random prng ~bits:(max 2 (nbits - 1))) (Bignum.sub n (Bignum.of_int 3))) in
        if witness a then false else rounds_ok (i + 1)
      end
    in
    rounds_ok 0
  end

let gen_prime prng ~bits =
  let rec loop () =
    let cand = Bignum.random prng ~bits in
    (* force odd *)
    let cand = if Bignum.testbit cand 0 then cand else Bignum.add cand Bignum.one in
    if probably_prime prng cand then cand else loop ()
  in
  loop ()

let generate prng ~bits =
  let half = max 16 (bits / 2) in
  let e = Bignum.of_int 65537 in
  let rec loop () =
    let p = gen_prime prng ~bits:half in
    let q = gen_prime prng ~bits:half in
    if Bignum.equal p q then loop ()
    else begin
      let n = Bignum.mul p q in
      let phi = Bignum.mul (Bignum.sub p Bignum.one) (Bignum.sub q Bignum.one) in
      match Bignum.invmod e phi with
      | Some d -> { public = { n; e }; secret = { n; d } }
      | None -> loop ()
    end
  in
  loop ()

let encrypt (pub : public) m =
  if Bignum.compare m pub.n >= 0 then invalid_arg "Rsa.encrypt: message too large";
  Bignum.mod_pow ~base:m ~exp:pub.e ~modulus:pub.n

let decrypt (sec : secret) c = Bignum.mod_pow ~base:c ~exp:sec.d ~modulus:sec.n

let encrypt_bytes (pub : public) msg =
  let m = Bignum.of_bytes msg in
  let nbytes = (Bignum.bits pub.n + 7) / 8 in
  if Bytes.length msg >= nbytes then invalid_arg "Rsa.encrypt_bytes: message too long";
  Bignum.to_bytes_padded (encrypt pub m) ~len:nbytes

let decrypt_bytes_padded sec ct ~len =
  Bignum.to_bytes_padded (decrypt sec (Bignum.of_bytes ct)) ~len
