(** IR model of the OpenSSL-style key store's libmpk protocol (§6.2).

    One page group (the hardcoded vkey from Keystore) holds the serialized
    RSA secret. The secret is written once inside an rw domain; every TLS
    handshake opens a read-only domain around the signing read. A signal
    guard models the per-request fault handler: a pkey fault during the
    read escapes to a handler that closes the domain and drops the
    session (so even the fault path stays begin/end balanced).

    Planted violations (behind flags):
    - [`Use_after_free]  a stale session drained after the key is
                         scrubbed: begin/read on the freed vkey
    - [`Double_free]     the shutdown path frees the group twice
    - [`Leak]            shutdown forgets the free entirely (leak-on-exit) *)

val program :
  ?plant:[ `Use_after_free | `Double_free | `Leak ] -> unit -> Mpk_analysis.Ir.program
