(** The PKRU register: 2 bits per protection key.

    Bit [2k] is AD (access disable) and bit [2k+1] is WD (write disable) for
    key [k]. Rights per the paper: (AD,WD) = (0,0) read/write, (0,1)
    read-only, (1,_) no access. Instruction fetch never consults PKRU. *)

type t = private int

type rights = No_access | Read_only | Read_write

(** Linux's initial PKRU: key 0 read/write, keys 1-15 access-disabled
    (0x55555554). *)
val init : t

val of_int : int -> t
val to_int : t -> int

val rights : t -> Pkey.t -> rights
val set_rights : t -> Pkey.t -> rights -> t

(** [rights_of_perm p] maps a page-permission request to PKRU rights: write
    access requires read/write; read-only otherwise; no access when neither
    read nor write is requested. *)
val rights_of_perm : Perm.t -> rights

(** [allows r ~write] whether rights [r] permit a data access. *)
val allows : rights -> write:bool -> bool

val rights_to_string : rights -> string
