(** SHA-256 (FIPS 180-4), implemented from scratch for the TLS-like
    substrate. *)

(** 32-byte digest. *)
val digest : bytes -> bytes

