(** Textbook RSA over {!Bignum} — the public-key piece of the TLS-like
    handshake. Key sizes here are deliberately small (test-speed), and the
    scheme is unpadded: this is a substrate for the isolation experiments,
    not production cryptography. *)

type public = { n : Bignum.t; e : Bignum.t }

type secret = { n : Bignum.t; d : Bignum.t }
(** The private exponent — the data the paper's OpenSSL case study
    isolates with libmpk. *)

type keypair = { public : public; secret : secret }

(** [generate prng ~bits] — modulus of roughly [bits] bits (two
    [bits/2]-bit primes), e = 65537. *)
val generate : Mpk_util.Prng.t -> bits:int -> keypair

(** [encrypt_bytes pub msg] — textbook RSA of [msg] read as a
    big-endian number; its length must be < modulus bytes. *)
val encrypt_bytes : public -> bytes -> bytes

(** [decrypt_bytes_padded sec ct ~len] — the plaintext, left-padded to
    exactly [len] bytes (plain [Bignum.to_bytes] strips leading zero
    bytes, which would corrupt fixed-length plaintexts). *)
val decrypt_bytes_padded : secret -> bytes -> len:int -> bytes

(** Miller-Rabin with [rounds] bases. Kept for the crypto tests, which
    check [generate]'s primality test against known primes. *)
val probably_prime : Mpk_util.Prng.t -> ?rounds:int -> Bignum.t -> bool
