(** Flow-wide observability: spans, counters, gauges, histograms.

    Every stage of the DCO-3D flow (placement, routing, STA, dataset
    construction, predictor training, the Algorithm-2 loop, the domain
    pool) is instrumented with probes from this module.  The subsystem
    has two halves:

    {ul
    {- {b Spans} — nestable monotonic timers.  A span opened inside
       another span on the same thread extends its path with [/], so the
       recorded tree reads like a call stack: [flow/place/cg_solve],
       [flow/route/repair:2].  Path segments of the form [name:<int>]
       (per-net, per-sample, per-iteration spans) are rolled up to
       [name:*] in the aggregated stage profile, while the raw trace
       keeps the exact names.}
    {- {b Counters / gauges / histograms} — cheap scalar probes.
       Counters are atomic and aggregate correctly when bumped from
       pool worker domains; totals are a function of the work done, not
       of [DCO3D_JOBS].}}

    {b Gating.}  Everything is off by default; a disabled probe costs
    one atomic load (a few nanoseconds) and allocates nothing.  Enable
    with the environment:

    {ul
    {- [DCO3D_TRACE=<path>] — record spans and write a Chrome-trace
       JSON to [<path>] at exit (open in [chrome://tracing] or
       {{:https://ui.perfetto.dev}Perfetto}).}
    {- [DCO3D_PROFILE=1] — print the aggregated stage-profile table to
       stderr at exit ([DCO3D_PROFILE=<path>] writes it to a file
       instead).}}

    or programmatically with {!enable} / {!set_trace_path} (the
    [--trace-out] flag of the [dco3d] binary uses the latter). *)

(** {1 Gating} *)

val enabled : unit -> bool
(** [enabled ()] is [true] when probes record.  Probe call sites may
    use this to skip argument preparation that is only needed when
    recording. *)

val enable : unit -> unit
(** Turn recording on (spans, counters, gauges, histograms). *)

val disable : unit -> unit
(** Turn recording off.  Already-recorded data is kept. *)

val set_trace_path : string -> unit
(** [set_trace_path p] enables recording and arranges for a
    Chrome-trace JSON to be written to [p] at process exit (the
    [DCO3D_TRACE] environment variable does the same). *)

val set_profile_dest : string -> unit
(** [set_profile_dest d] enables recording and arranges for the stage
    profile to be emitted at process exit: to stderr when [d] is ["1"],
    ["true"] or ["stderr"], otherwise to the file [d]. *)

(** {1 Spans} *)

val with_span : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] times [f ()] on the monotonic clock and records
    the interval under [parent_path/name], where the parent path is the
    innermost span currently open on this thread (spans opened on pool
    worker domains or on other threads start fresh roots — the trace
    shows each thread on its own track).  [args] attaches key/value
    detail visible in the trace viewer.  The result (or exception) of
    [f] is passed through;
    disabled, [with_span name f] is [f ()]. *)

(** {1 Counters, gauges, histograms} *)

type counter

val counter : string -> counter
(** [counter name] interns the counter [name] (idempotent — the same
    cell is returned for the same name).  Handles are cheap and are
    meant to be created once at module level. *)

val incr : ?by:int -> counter -> unit
(** Atomically add [by] (default 1) to the counter when enabled. *)

val counter_value : string -> int
(** Current total of a counter, 0 if it was never interned. *)

type gauge

val gauge : string -> gauge
val set_gauge : gauge -> float -> unit
(** Last-write-wins scalar (e.g. effective pool jobs). *)

val gauge_value : string -> float
(** Current value of a gauge, [nan] if never interned. *)

type histogram

val histogram : string -> histogram

val observe : histogram -> float -> unit
(** Record one observation (count/sum/min/max are kept). *)

val histogram_stats : string -> (int * float * float * float) option
(** [histogram_stats name] is [Some (count, sum, min, max)], or [None]
    if the histogram was never interned or has no observations. *)

(** {1 Aggregates and sinks} *)

type span_stat = {
  sp_path : string;  (** rolled-up span path, e.g. [dco/iter:*] *)
  sp_count : int;
  sp_total_ms : float;
  sp_min_ms : float;
  sp_max_ms : float;
}

val stage_profile : unit -> span_stat list
(** Aggregated span statistics, sorted by decreasing total time. *)

val span_stat_of : string -> span_stat option
(** Aggregated stats of one rolled-up span path (e.g. ["serve/batch"]),
    [None] if it never closed a span.  Lets tests and the serving
    fleet's smoke checks assert on latency aggregates directly. *)

val span_events : unit -> int
(** Number of raw span events currently buffered for the trace. *)

val profile_table : unit -> string
(** The stage profile plus counters/gauges/histograms rendered as a
    human-readable table. *)

val write_profile : string -> unit
(** Write {!profile_table} to a file. *)

val write_chrome_trace : string -> unit
(** Write the buffered span events (plus final counter values) as
    Chrome trace-event JSON. *)

val reset : unit -> unit
(** Drop all recorded data and zero every interned probe; handles stay
    valid.  Intended for tests. *)
