(** Paper Table 3: summary of the three real-world applications — what
    each protects, with how many hardware/virtual keys. Regenerated from
    the live application configurations rather than hardcoded prose. *)

type row = {
  application : string;
  protection : string;
  protected_data : string;
  pkeys : string;
  vkeys : string;
}

(** Every row of the table. Exported, though only tests read it, for the
    claim records that will read each row. *)
val rows : unit -> row list
val render : unit -> string
