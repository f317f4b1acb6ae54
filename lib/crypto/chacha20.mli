(** ChaCha20 stream cipher (RFC 8439), the session cipher of the TLS-like
    substrate. Encryption and decryption are the same operation. *)

(** [crypt ~key ~nonce ~counter data] — [key] is 32 bytes, [nonce] 12
    bytes. Raises [Invalid_argument] on bad sizes. *)
val crypt : key:bytes -> nonce:bytes -> ?counter:int -> bytes -> bytes
