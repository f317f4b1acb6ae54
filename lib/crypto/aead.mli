(** Encrypt-then-MAC AEAD over ChaCha20 + HMAC-SHA256.

    The core-dump writer needs authenticated encryption with associated
    data: protected pages are encrypted, and the dump metadata (task id,
    fault siginfo, pkey, page range) is bound into the tag so a section
    cannot be spliced into another dump — or moved within its own — and
    still verify.

    Construction (encrypt-then-MAC, the order with a security proof):
    two independent subkeys are derived from the caller's key, the
    plaintext is encrypted with ChaCha20 under the encryption subkey,
    and the tag is HMAC-SHA256 under the MAC subkey over the
    length-prefixed concatenation [len(aad) || aad || len(nonce) ||
    nonce || ciphertext] — length prefixes prevent aad/ciphertext
    boundary ambiguity. Verification compares tags in constant time and
    decrypts only after the tag checks. *)

val key_bytes : int
(** 32. *)

val nonce_bytes : int
(** 12 (the ChaCha20 IETF nonce). *)

val seal : key:bytes -> nonce:bytes -> aad:bytes -> bytes -> bytes * bytes
(** [seal ~key ~nonce ~aad plaintext] is [(ciphertext, tag)].
    Raises [Invalid_argument] on wrong key/nonce sizes. Deterministic:
    the caller owns nonce uniqueness. *)

val open_ :
  key:bytes -> nonce:bytes -> aad:bytes -> tag:bytes -> bytes -> (bytes, string) result
(** [open_ ~key ~nonce ~aad ~tag ciphertext] verifies then decrypts.
    Any forgery — flipped ciphertext bit, swapped nonce, altered aad,
    truncated or wrong-length tag — yields [Error]. *)
