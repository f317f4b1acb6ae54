(** Arbitrary-precision natural numbers, built from scratch for the RSA
    substrate (no zarith in the sealed environment).

    Values are immutable. All operations are on naturals; [sub] requires
    [a >= b]. *)

type t

val one : t
val two : t

(** [of_int n] for [n >= 0]. *)
val of_int : int -> t

val equal : t -> t -> bool
val compare : t -> t -> int
val is_zero : t -> bool

(** Number of significant bits (0 for zero). *)
val bits : t -> int

val testbit : t -> int -> bool

val add : t -> t -> t

(** [sub a b] requires [a >= b]; raises [Invalid_argument] otherwise. *)
val sub : t -> t -> t

val mul : t -> t -> t

(** [divmod a b] is [(a / b, a mod b)]; raises [Division_by_zero].
    Exported for the crypto tests, which check it against [int] and
    bit-serial division; the library reaches it through [rem]. *)
val divmod : t -> t -> t * t

val rem : t -> t -> t

val shift_right : t -> int -> t

(** [mod_pow ~base ~exp ~modulus] — modular exponentiation
    (square-and-multiply). *)
val mod_pow : base:t -> exp:t -> modulus:t -> t

(** [invmod a m] — modular inverse of [a] mod [m], when gcd(a,m)=1. *)
val invmod : t -> t -> t option

(** Big-endian byte conversion. *)
val of_bytes : bytes -> t

val to_bytes : t -> bytes

(** [to_bytes_padded t ~len] — big-endian, left-padded with zeros; raises
    [Invalid_argument] if [t] needs more than [len] bytes. *)
val to_bytes_padded : t -> len:int -> bytes

(** [random prng ~bits] — uniform with exactly [bits] bits (msb set). *)
val random : Mpk_util.Prng.t -> bits:int -> t
