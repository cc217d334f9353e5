(** Exporters over collected spans and metrics.

    Three formats: Chrome [trace_event] JSON (open in [chrome://tracing]
    or {{:https://ui.perfetto.dev}Perfetto}), a Prometheus-style text
    dump of the metric registry, and an ASCII per-stage summary table
    rendered through [Cals_util.Tables]. All of them read the current
    buffers without consuming them; call from a quiescent point. *)

type span_stat = {
  s_name : string;
  s_cat : string;
  s_count : int;
  s_total_us : float;
  s_mean_us : float;
  s_max_us : float;
}

val span_stats : unit -> span_stat list
(** Spans aggregated by name, ordered by first occurrence in the
    merged (deterministic) event order. *)

val chrome_trace : unit -> string
(** The full trace as a JSON object with a [traceEvents] array of
    complete ("ph":"X") events; [tid] is the recording domain's id. *)

val prometheus : unit -> string
(** Text exposition of every counter, gauge and histogram, with a
    [cals_] name prefix ([_total] on counters, [_bucket]/[_sum]/[_count]
    on histograms). *)

val summary : unit -> string
(** Per-stage wall-clock table (count, total, mean, max per span name)
    followed by a table of non-zero counters and gauges. *)
