(** The OpenSSL case study's key storage (paper §5.1).

    Private keys are serialized into *simulated* memory. In [Insecure]
    mode they live in an ordinary heap region next to request buffers —
    exactly the layout Heartbleed leaked. In [Protected] mode they live in
    an mpk heap ([mpk_malloc]) and every legitimate access is wrapped in
    [mpk_begin]/[mpk_end], so an out-of-bounds read faults. *)

open Mpk_kernel

type mode = Insecure | Protected

type t

(** The virtual key the keystore hardcodes for its page group. *)
val vkey : Libmpk.Vkey.t

(** [create ~mode proc task ?mpk ()] — [mpk] is required in [Protected]
    mode. The store reserves a heap region; in [Insecure] mode the region
    is a plain [mmap]. *)
val create : mode:mode -> Proc.t -> Task.t -> ?mpk:Libmpk.t -> unit -> t

val mode : t -> mode
val proc_of : t -> Proc.t

(** [store t task kp] serializes the private exponent and modulus into
    the (possibly protected) region. Returns the address. *)
val store : t -> Task.t -> Mpk_crypto.Rsa.keypair -> int

(** [store_opaque t task data] — store an arbitrary secret blob through
    the same path as {!store} (protected mode: [mpk_malloc] + a
    begin/write/end window). Used by the core-dump leak check to plant a
    known sentinel in a pkey-protected page. Returns the address. *)
val store_opaque : t -> Task.t -> bytes -> int

(** [with_secret t task f] — read the key material back from simulated
    memory through the MMU (unlocking the domain first in [Protected]
    mode) and run [f] on the reconstructed secret. *)
val with_secret : t -> Task.t -> (Mpk_crypto.Rsa.secret -> 'a) -> 'a

(** Public half, kept in ordinary memory (it is not sensitive). *)
val public : t -> Mpk_crypto.Rsa.public

(** Address/length of the serialized secret. Exported, though only tests
    call it: they aim an attacker read at the key's page. *)
val secret_region : t -> int * int

(** [alloc_request_buffer t task ~len] — a buffer placed *below* the key
    material (insecure mode: same region; protected mode: an ordinary
    mapping), as the overflow origin. Returns its address. *)
val alloc_request_buffer : t -> Task.t -> len:int -> int

(** Raw (unchecked-by-libmpk) read used by the attacker simulation: reads
    through the MMU with the attacker's task. *)
val attacker_read : t -> Task.t -> addr:int -> len:int -> bytes
