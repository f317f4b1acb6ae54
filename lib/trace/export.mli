(** Chrome/Perfetto [trace_event] JSON export.

    Load the output in [https://ui.perfetto.dev] (or
    [chrome://tracing]). One track (tid) per core under pid 0, plus a
    dedicated track for core-less fault-injection events; spans are
    "B"/"E" duration events, other events thread-scoped instants.
    Timestamps are simulated cycles written into the [ts] field
    (microseconds to the viewer — the scale is what matters), clamped
    per track to be non-decreasing, since experiment drivers recreate
    machines whose cycle clocks restart at zero. *)


val perfetto_string : ?indent:int -> Event.t list -> string
