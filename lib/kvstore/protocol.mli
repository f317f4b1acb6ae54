(** The Memcached text protocol (the subset twemperf exercises):
    [set]/[get]/[delete]/[stats], with [\r\n] framing, server side
    only. No workload parses: the load generators, experiments and
    perfbench call [Server.set]/[get] directly, and only tests drive
    {!Server.dispatch}, the front end that parses a request and renders
    its response. It keeps Memcached semantics the direct path lacks:
    expiry, and [SERVER_ERROR] containment of a malformed request. *)

type request =
  | Set of { key : string; flags : int; exptime : int; data : bytes }
  | Get of string
  | Delete of string
  | Stats

type response =
  | Stored
  | Value of { key : string; flags : int; data : bytes }
  | Not_found
  | Deleted
  | End_
  | Stats_reply of (string * string) list
  | Server_error of string

(** [parse_request s] — one complete request (command line and, for
    [set], the data block). A [set]'s flags, exptime and byte count are
    decimal digits, as in Memcached, and only the exptime may carry a
    ['-']. Its flags are 32-bit unsigned: flags outside
    [0..4294967295] are [bad set arguments]. *)
val parse_request : string -> (request, string) result

val render_response : response -> string
