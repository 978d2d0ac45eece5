(** Monotone time source for every duration measurement in the tree.

    [Unix.gettimeofday] is wall-clock time: NTP steps and manual clock
    changes can move it backwards, which turns span durations and
    [Metrics.timed] observations negative.  {!now} is the same clock
    clamped monotone non-decreasing process-wide (an [Atomic] holds the
    high-water mark, so the clamp is shared by every domain), which is
    what {!Metrics.timed}, {!Span} recorders and the sharded {!Sync} engine
    use whenever two readings are subtracted.

    Keep {!wall} for human-facing labels only (flight-dump headers,
    report timestamps), where an absolute date matters and monotonicity
    does not. *)

val now : unit -> float
(** Monotone non-decreasing seconds.  Starts from wall-clock time, so
    readings are still meaningful as absolute timestamps as long as the
    wall clock never steps backwards; after a backward step the clock
    holds until real time catches up. *)

val wall : unit -> float
(** Raw [Unix.gettimeofday] — may go backwards.  For display labels
    only; never subtract two of these. *)
