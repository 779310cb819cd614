(** Lightweight, domain-safe telemetry: nestable spans (monotonic-clock
    timings), named counters and histograms.

    Every hot path in the repo keeps its instrumentation compiled in; when
    telemetry is disabled (the default) each call is a single atomic load
    plus a branch and performs no allocation.  When enabled, each domain
    records into its own buffers (no cross-domain contention), and
    {!snapshot} merges them deterministically: merged totals are identical
    at any [ZKDET_DOMAINS] because work decomposition in [Zkdet_parallel]
    depends only on the input range, and merge order is sorted by name.

    Configuration via environment (read once, at program start):
    - [ZKDET_PROFILE=1] enables recording.
    - [ZKDET_TRACE=path] enables recording, and the JSONL trace is
      written to [path] when the program exits, by every executable that
      links this library. *)

val monotonic_ns : unit -> int
(** Monotonic clock reading in nanoseconds (arbitrary epoch). *)

val enabled : unit -> bool
val set_enabled : bool -> unit

val with_span : string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f], attributing its wall time and its
    GC/allocation activity ([Gc.quick_stat] deltas: minor/major words,
    collections) to the span [name] nested under the innermost active
    span on the current domain.  Re-entering the same name under the same
    parent accumulates into one tree node.  Exceptions propagate; time is
    recorded regardless. *)

val count : string -> int -> unit
(** [count name n] adds [n] to the named counter on the current domain. *)

val observe : string -> float -> unit
(** [observe name v] records one sample into the named histogram
    (count/sum/min/max plus fixed power-of-two buckets for p50/p95/p99
    estimates). *)

val reset : unit -> unit
(** Clear all recorded data (including rolling windows) on every
    registered domain.  Call from quiesced code only (between
    experiments, not mid-proof). *)

val num_buckets : int
(** Number of fixed power-of-two histogram buckets (64). *)

val bucket_upper : int -> float
(** Upper boundary of bucket [i]: [2^(i-20)], [infinity] for the last. *)

module Report : sig
  type span = {
    span_name : string;
    calls : int;
    total_ns : int;
    minor_words : float;
        (** Minor-heap words allocated inside the span, children included
            (like [total_ns]; self = total - sum of children). *)
    major_words : float;
    minor_gcs : int;
    major_gcs : int;
    children : span list; (* sorted by name *)
  }

  type counter = { counter_name : string; total : int }

  type histogram = {
    hist_name : string;
    samples : int;
    sum : float;
    min : float;
    max : float;
    buckets : int array;
        (** Raw per-bucket counts, length {!num_buckets}; boundary of
            bucket [i] is {!bucket_upper}[ i]. *)
  }

  type t = { spans : span list; counters : counter list; histograms : histogram list }

  val empty : t

  val find_span : span list -> string list -> span option
  (** [find_span spans path] resolves a root-to-leaf name path. *)

  val find_counter : t -> string -> int option

  val quantile : histogram -> float -> float
  (** [quantile h q] estimates the [q]-quantile from the fixed
      power-of-two buckets: the upper boundary of the bucket holding the
      sample of rank [ceil(q*n)], clamped to [min, max]; 0 when empty.
      Fixed boundaries make the estimate deterministic under per-domain
      merge at any [ZKDET_DOMAINS].  Every encoder prints p50, p95, p99
      and p99.9 through it. *)

  val pp : Format.formatter -> t -> unit
  (** Human-readable summary tree (spans with total/self time, counters,
      histograms). *)

  val to_json : t -> Json.t

  val to_jsonl : t -> string list
  (** Flatten to JSONL trace lines: a meta record, then one
      self-describing record per span node (with full path), counter and
      histogram. *)

  val of_jsonl : string list -> (t, string) result
  (** Rebuild a report from trace lines: the inverse of {!to_jsonl}, up
      to child ordering, which is re-sorted by name.  Accepts exactly
      what {!to_jsonl} writes: a missing field is an error naming it, a
      histogram must carry 64 buckets summing to its [samples], and its
      written quantiles are recomputed from the buckets, not read. *)

  val to_prometheus : t -> string
  (** Prometheus text-exposition dump.  Every family carries [# HELP] and
      [# TYPE].  Spans become [zkdet_span_total_ns{path="a/b"}],
      [zkdet_span_calls] and the GC families
      [zkdet_span_{minor,major}_words] /
      [zkdet_span_{minor,major}_collections]; counters become
      [zkdet_<name>]; each histogram is exposed twice: a summary family
      [zkdet_<name>] (quantiles 0.5/0.95/0.99/0.999, [_sum], [_count])
      plus a conformant histogram family [zkdet_<name>_buckets] with
      cumulative [_bucket{le="..."}] lines ending in [+Inf], and
      [_min]/[_max] gauges. *)

  val prom_family :
    Buffer.t ->
    string ->
    typ:[ `Counter | `Gauge | `Histogram | `Summary ] ->
    help:string ->
    (string * (string * string) list * string) list ->
    unit
  (** [prom_family b name ~typ ~help samples] appends one exposition
      family: its [# HELP] and [# TYPE] lines, then one line
      [name^suffix{k="v",...} value] per [(suffix, labels, value)]
      sample.  [name] is sanitized to a legal metric name
      ([[a-zA-Z0-9_:]], non-digit lead); [help] and label values have
      backslash, double-quote and newline escaped.  Every Prometheus
      family in the repo is written through it. *)
end

val snapshot : unit -> Report.t
(** Merge all per-domain buffers into one deterministic report. *)

(** {2 Rolling time windows}

    Ring-buffer aggregation (1 s x 60 slots) over every counter and
    histogram, recorded only while {!set_window_enabled}[ true] (the live
    ops server turns it on).  Window data is wall-clock bound and
    intentionally nondeterministic; it never feeds {!snapshot} or any
    persisted artifact. *)

val set_window_enabled : bool -> unit
(** Recording into windows additionally requires {!set_enabled}[ true]. *)

type window_stat = {
  w_name : string;
  w_seconds : float;  (** seconds of the horizon actually covered *)
  w_count : int;  (** counter increments inside the window *)
  w_rate : float;  (** (count + samples) per covered second *)
  w_hist : Report.histogram;
      (** histogram samples inside the window; [min] = [max] = 0 when
          there are none *)
}

val window_snapshot : unit -> window_stat list
(** Merge the in-horizon slots of every domain, sorted by name. *)

val window_to_prometheus : unit -> string
(** Gauge families [zkdet_window_rate], [zkdet_window_events] and
    [zkdet_window_quantile{name=...,quantile=...}] for the live
    [/metrics] endpoint; empty string when nothing was recorded. *)

val print_summary : ?oc:out_channel -> unit -> unit
(** [snapshot] + [Report.pp] to the given channel (default stdout). *)

val write_trace : path:string -> (unit, string) result
(** Serialize the current snapshot as JSONL to [path].  [ZKDET_TRACE]
    calls it at exit. *)
