(** Paper Fig 11: throughput of the TLS-terminating server (httpd +
    OpenSSL stand-in) with the original keystore vs the libmpk-protected
    one, across response sizes. ApacheBench-style, without keep-alive:
    400 requests over 4 worker threads (the paper sends 1000 requests
    from 4 concurrent clients; the rendered title keeps its setup). *)

val render : unit -> string
