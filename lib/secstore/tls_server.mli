(** A toy TLS-terminating HTTP server (the paper's httpd+OpenSSL target).

    Handshake: the client encrypts a premaster secret under the server's
    RSA public key; the server decrypts it with the private key held in
    the {!Keystore} (unlocking the mpk domain around each key access in
    [Protected] mode) and both sides derive a ChaCha20 session key.
    Requests then carry encrypted payloads whose processing cost scales
    with size.

    Heavyweight crypto that the simulator does not execute byte-for-byte
    is charged via the cycle model ([rsa_decrypt_cycles],
    [per_byte_cycles]) so throughput figures reflect a realistic balance
    between handshake, payload and — the point of Fig 11 — libmpk's
    per-access overhead. *)

open Mpk_kernel

type t

type session

(** [create ~mode proc task ?mpk ~seed ()] — generates a keypair and
    stores it. *)
val create : mode:Keystore.mode -> Proc.t -> Task.t -> ?mpk:Libmpk.t -> seed:int64 -> unit -> t

val keystore : t -> Keystore.t

(** Client side of the handshake: returns the wire blob and the client's
    session key. *)
val client_hello : t -> Mpk_util.Prng.t -> bytes * bytes

(** Server side: decrypt the premaster (inside the protected domain),
    derive the session. *)
val accept : t -> Task.t -> bytes -> session

val session_key : session -> bytes

(** [serve task session ~size] — handle one request of [session] with a
    [size]-byte response: decrypt-request + build + encrypt-response,
    all charged to the task's core. Returns the (encrypted) response. *)
val serve : Task.t -> session -> size:int -> bytes
