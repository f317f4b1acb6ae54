(** ApacheBench-style load driver for {!Tls_server} (paper Fig 11).

    ApacheBench without keep-alive: every request opens its own
    connection, with a full TLS handshake, on the least-loaded worker.
    Each worker thread runs on its own simulated core; throughput is
    computed from the makespan of the busiest core at 2.4 GHz. *)

open Mpk_kernel

type result = {
  requests : int;
  throughput_rps : float;  (** requests per second *)
}

(** [run server workers ~requests ~size] — [workers] are the server's
    tasks (one per core); each request asks for a [size]-byte response. *)
val run : Tls_server.t -> Task.t list -> requests:int -> size:int -> result
