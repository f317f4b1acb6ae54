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

let crlf = "\r\n"

(* Split off the first CRLF-terminated line; returns (line, rest). *)
let split_line s =
  match String.index_opt s '\r' with
  | Some i when i + 1 < String.length s && s.[i + 1] = '\n' ->
      Ok (String.sub s 0 i, String.sub s (i + 2) (String.length s - i - 2))
  | Some _ | None -> Error "missing CRLF"

let words line = String.split_on_char ' ' line |> List.filter (fun w -> w <> "")

let int_of w = match int_of_string_opt w with Some v -> Some v | None -> None

(* Item flags are 32-bit unsigned, as in Memcached. *)
let max_flags = 0xffff_ffff

let valid_key k =
  String.length k > 0 && String.length k <= 250
  && String.for_all (fun c -> c > ' ' && c <> '\127') k

let parse_request s =
  match split_line s with
  | Error e -> Error e
  | Ok (line, rest) -> (
      match words line with
      | [ "get"; key ] when valid_key key -> Ok (Get key)
      | [ "delete"; key ] when valid_key key -> Ok (Delete key)
      | [ "stats" ] -> Ok Stats
      | [ "set"; key; flags; exptime; bytes ] when valid_key key -> (
          match int_of flags, int_of exptime, int_of bytes with
          | Some flags, Some exptime, Some n when n >= 0 && flags >= 0 && flags <= max_flags ->
              if n > String.length rest - 2 then Error "truncated data block"
              else if String.sub rest n 2 <> crlf then Error "bad data terminator"
              else Ok (Set { key; flags; exptime; data = Bytes.of_string (String.sub rest 0 n) })
          | _ -> Error "bad set arguments")
      | cmd :: _ -> Error (Printf.sprintf "unknown or malformed command %S" cmd)
      | [] -> Error "empty command")

let render_request = function
  | Get key -> Printf.sprintf "get %s%s" key crlf
  | Delete key -> Printf.sprintf "delete %s%s" key crlf
  | Stats -> "stats" ^ crlf
  | Set { key; flags; exptime; data } ->
      Printf.sprintf "set %s %d %d %d%s%s%s" key flags exptime (Bytes.length data) crlf
        (Bytes.to_string data) crlf

let render_response = function
  | Stored -> "STORED" ^ crlf
  | Not_found -> "NOT_FOUND" ^ crlf
  | Deleted -> "DELETED" ^ crlf
  | End_ -> "END" ^ crlf
  | Server_error msg -> Printf.sprintf "SERVER_ERROR %s%s" msg crlf
  | Value { key; flags; data } ->
      Printf.sprintf "VALUE %s %d %d%s%s%sEND%s" key flags (Bytes.length data) crlf
        (Bytes.to_string data) crlf crlf
  | Stats_reply kvs ->
      String.concat ""
        (List.map (fun (k, v) -> Printf.sprintf "STAT %s %s%s" k v crlf) kvs)
      ^ "END" ^ crlf

let parse_response s =
  match split_line s with
  | Error e -> Error e
  | Ok (line, rest) -> (
      match words line with
      | [ "STORED" ] -> Ok Stored
      | [ "NOT_FOUND" ] -> Ok Not_found
      | [ "DELETED" ] -> Ok Deleted
      | [ "END" ] -> Ok End_
      | "SERVER_ERROR" :: msg -> Ok (Server_error (String.concat " " msg))
      | [ "VALUE"; key; flags; bytes ] -> (
          match int_of flags, int_of bytes with
          | Some flags, Some n when n >= 0 && String.length rest >= n ->
              Ok (Value { key; flags; data = Bytes.of_string (String.sub rest 0 n) })
          | _ -> Error "bad VALUE header")
      | "STAT" :: _ ->
          (* collect STAT lines up to END *)
          let rec collect acc s =
            match split_line s with
            | Error e -> Error e
            | Ok (line, rest) -> (
                match words line with
                | [ "END" ] -> Ok (Stats_reply (List.rev acc))
                | [ "STAT"; k; v ] -> collect ((k, v) :: acc) rest
                | _ -> Error "bad stats line")
          in
          collect [] s
      | w :: _ -> Error ("unknown response " ^ w)
      | [] -> Error "empty response")
