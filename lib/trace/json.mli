(** Minimal JSON tree, printer, and strict parser.

    No third-party JSON library is available in the build image, so the
    exporters carry their own: the printer backs the Perfetto and
    [BENCH_*.json] writers, and the strict parser exists so round-trip
    tests (and `mpkctl`'s export validation) can reject malformed output
    rather than trusting the printer. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?indent:int -> t -> string
(** Serialize. [indent = 0] (default) is compact single-line output;
    positive values pretty-print. Raises [Invalid_argument] on NaN or
    infinite floats — JSON has no spelling for them, and emitting [null]
    silently would corrupt metric exports. *)

val parse : string -> (t, string) result
(** Strict RFC 8259 parsing: rejects trailing garbage, raw control
    characters in strings, lone surrogates, leading zeros, and bare
    values like [nan]. Numbers without fraction/exponent parse as [Int]
    (falling back to [Float] on overflow); all others as [Float]. An
    error names the byte offset and what was wrong there. *)

(** {2 Base64 byte blobs}

    JSON has no bytes type, so binary payloads (core-dump memory
    sections, ciphertexts) travel as base64 strings — RFC 4648, standard
    alphabet, padded. Decoding is strict: length must be a multiple of
    4, ['='] only as final padding, and non-canonical trailing bits are
    rejected, so [bytes_of_json (bytes_to_json b) = Ok b] and nothing
    else decodes. *)

val bytes_to_json : bytes -> t
(** A [String] node holding [b] in base64. *)

val bytes_of_json : t -> (bytes, string) result
(** Decodes a [String] node; errors on other nodes or malformed base64. *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] on anything else or a missing key. *)

val to_list : t -> t list option
val to_number : t -> float option
(** [Int] and [Float] both read as numbers. *)

val to_string_opt : t -> string option
