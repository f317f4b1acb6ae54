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

(** [accept_authenticated t task ~client_random blob] — like [accept],
    but the server also signs the handshake transcript with its private
    key (a second protected-key operation, as real TLS server auth
    does). Returns the session and the signature. *)
val accept_authenticated :
  t -> Task.t -> client_random:bytes -> bytes -> session * bytes

(** Client-side check of the server's transcript signature. *)
val verify_server : t -> client_random:bytes -> blob:bytes -> signature:bytes -> bool

val session_key : session -> bytes

(** [serve t task session ~size] — handle one request with a [size]-byte
    response: decrypt-request + build + encrypt-response, all charged to
    the task's core. Returns the (encrypted) response. *)
val serve : t -> Task.t -> session -> size:int -> bytes

(** Outcome of a heartbeat request (the Heartbleed probe). *)
type heartbeat_outcome =
  | Served of bytes  (** echoed bytes — over-long reads leak memory *)
  | Rejected of Signal.siginfo
      (** the read faulted on protected memory; the worker caught the
          signal, dropped the request and keeps serving *)

(** [handle_heartbeat t task ~payload ~claimed_len] — echo [claimed_len]
    bytes back from a request buffer holding [payload]. The worker
    installs a signal handler for the duration of the copy, so a pkey
    fault on the keystore's pages rejects the one request instead of
    killing the server. *)
val handle_heartbeat :
  t -> Task.t -> payload:bytes -> claimed_len:int -> heartbeat_outcome

(** {2 Observability}

    Every entry point ([accept], [accept_authenticated], [serve],
    [handle_heartbeat]) records its end-to-end core cycles into a
    log-bucket latency histogram — the same instrument the kvstore
    server carries — so the secstore scale-out can be measured from day
    one. Rejected heartbeats still record a sample. *)

val latency : t -> Mpk_util.Stats.Histogram.h

(** Key/value stats in the kvstore server's reply shape: request
    counters plus [latency_samples] and, once any sample exists,
    [latency_p50_cycles] / [latency_p95_cycles] / [latency_p99_cycles]. *)
val stats_reply : t -> (string * string) list
