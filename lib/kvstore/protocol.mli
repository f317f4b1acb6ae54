(** The Memcached text protocol (the subset twemperf exercises):
    [set]/[get]/[delete]/[stats], with [\r\n] framing. Parsing is what a
    real server does before touching the protected store, so the
    simulated request path has the same shape. *)

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
    [set], the data block). A [set]'s flags are 32-bit unsigned, as in
    Memcached: flags outside [0..4294967295] are [bad set arguments]. *)
val parse_request : string -> (request, string) result

val render_request : request -> string
val render_response : response -> string

(** [parse_response s] — for client-side tests. *)
val parse_response : string -> (response, string) result
