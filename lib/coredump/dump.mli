(** The versioned core-dump format: redaction/encryption policy, section
    sealing, serialization, and offline verification.

    A dump is a strict-JSON document ([CORE_<task>_<seed>.json]) holding
    the crashed task's registers, VMA map, flight-recorder black box,
    optional cycle-attribution profile, and the memory image as a list
    of {e sections} — runs of present pages with uniform protection.
    Confidentiality is a property of the artifact, not the viewer:
    pages belonging to a protection domain never appear in the clear
    (except under the deliberately misconfigured {!Clear_debug} policy
    that exists so the leak scanner can prove it would notice).

    Two independent integrity layers:

    - Every section, and the dump as a whole, carries an HMAC-SHA256
      under a key derived from the (public) dump id. Anyone can verify
      these; they are {e tamper evidence} against corruption and
      splicing, not forgery resistance — an adversary who rewrites the
      whole dump can re-MAC it.
    - Encrypted sections additionally carry an {!Mpk_crypto.Aead} tag
      binding the dump metadata (dump id, task, siginfo, pkey, page
      range, section index) as associated data, plus an HMAC of the
      plaintext under a key-derived subkey. These only verify with the
      dump key, and they do resist forgery: a section cannot be moved
      between dumps, or within a dump, and still authenticate. *)

open Mpk_trace

type policy =
  | Redact  (** protected pages are dropped, leaving a [REDACTED:<pkey>] marker *)
  | Encrypt  (** protected pages are sealed with the AEAD under the dump key *)
  | Clear_debug
      (** protected pages are dumped in the clear — a deliberate
          misconfiguration ([--policy none]) used to prove the sentinel
          scanner detects leaks; never use outside tests *)

val policy_of_string : string -> (policy, string) result
val policy_to_string : policy -> string

(** Fault description, stringly-typed so the format is self-contained. *)
type sig_report = { signo : int; code : string; addr : int; access : string; pkey : int }

type core_regs = { core : int; pkru : int; cycles : float }

type vma_entry = { start : int; pages : int; prot : string; pkey : int }

(** How a section's payload was sealed. *)
type sealed =
  | Clear  (** unprotected page run, plaintext payload *)
  | Leaked  (** protected run dumped in the clear by {!Clear_debug} *)
  | Redacted of string  (** marker; payload is empty *)
  | Encrypted of { nonce : bytes; tag : bytes; ptx_hmac : bytes }
      (** payload is the ciphertext; [ptx_hmac] lets a keyed inspector
          confirm the decryption matches what was captured *)

type section = {
  index : int;
  base : int;  (** address of the first page *)
  pages : int;
  pkey : int;  (** hardware key tagged on the pages (0 = default) *)
  vkey : int option;  (** owning libmpk virtual key, when known *)
  sealed : sealed;
  payload : bytes;
  mac : bytes;  (** section HMAC under the integrity key *)
}

type t = {
  version : int;
  dump_id : string;
  task : int;
  seed : int64;
  policy : policy;
  siginfo : sig_report option;
  regs : core_regs list;
  task_pkru : int;
  vmas : vma_entry list;
  blackbox : string list;
  profile : Json.t option;
  sections : section list;
  mac : bytes;  (** dump-level HMAC over the whole serialized document *)
}

(** What the capture layer hands over: page runs with plaintext data,
    already classified ([protected] = tagged with a nonzero pkey {e or}
    inside a live libmpk group — an evicted group's pages carry pkey 0
    but still hold domain secrets). *)
type raw_section = {
  raw_base : int;
  raw_pages : int;
  raw_pkey : int;
  raw_vkey : int option;
  raw_protected : bool;
  raw_data : bytes;
}

(** [seal ~key ~seed ~policy ~task ... raws] applies the policy to every
    raw section and computes all MACs. [key] must be
    {!Mpk_crypto.Aead.key_bytes} long (it is only consulted for
    {!Encrypt}, but always validated). Nonces are derived
    deterministically from the key and the section's associated data,
    so a given (key, seed, fault) capture is byte-identical — the
    "seeded nonce" test mode; a production port would mix in fresh
    randomness. *)
val seal :
  key:bytes ->
  seed:int64 ->
  policy:policy ->
  task:int ->
  ?siginfo:sig_report ->
  regs:core_regs list ->
  task_pkru:int ->
  vmas:vma_entry list ->
  blackbox:string list ->
  ?profile:Json.t ->
  raw_section list ->
  t

(** [CORE_<task>_<seed>.json] *)
val filename : t -> string

(** Deterministic compact serialization (its JSON object, printed with
    [indent 1]). *)
val to_string : t -> string

val of_string : string -> (t, string) result

(** [verify t] recomputes the integrity HMACs (dump-level and one per
    section) and returns human-readable failure descriptions; [[]]
    means every HMAC checked out. Needs no key. *)
val verify : t -> string list

(** [open_section ~key t s] — verify the AEAD tag and decrypt an
    {!Encrypted} section, then check the plaintext HMAC. [Clear] and
    [Leaked] payloads are returned as-is; [Redacted] is an [Error]
    (those bytes are gone by design). *)
val open_section : key:bytes -> t -> section -> (bytes, string) result

(** [scan ~sentinel raw] — search a serialized dump for secret bytes:
    the raw document text, and every base64 [data] payload decoded.
    Returns one description per hit; [[]] means the sentinel does not
    appear anywhere, encoded or not. *)
val scan : sentinel:string -> string -> string list
