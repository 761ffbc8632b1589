"""``repro.obs`` — observability for the symbolic simulation kernel.

Three instruments, one bundle:

* :class:`~repro.obs.tracer.Tracer` — structured spans/instants as
  JSONL and Chrome ``trace_event`` JSON (Perfetto-loadable);
* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges,
  histograms and Fig.-11-style series with labels, exportable as JSON;
* :class:`~repro.obs.profiler.HotSpotProfiler` — per-event-site pops /
  merges / CPU / BDD-work attribution, rendered by ``symsim report``.

Attach a bundle via ``SimOptions(obs=Observability(...))``; every hook
in the kernel, scheduler and BDD manager is a single identity check
when observability is off.  See docs/OBSERVABILITY.md for schemas.
"""

from repro.obs.context import Observability
from repro.obs.live import (
    Heartbeat, LeaseHealth, RunHealth, assess_health, assess_lease,
    deterministic_view, read_status, scan_status, write_status,
)
from repro.obs.merge import (
    ShardWarning, merge_shards, read_jsonl_records, shard_to_chrome_events,
)
from repro.obs.metrics import (
    Counter, Gauge, Histogram, MetricsRegistry, Series, render_openmetrics,
)
from repro.obs.profiler import HotSpotProfiler, SiteStats, event_label
from repro.obs.serve import MetricsServer, registry_from_status
from repro.obs.tracer import Tracer

__all__ = [
    "Observability", "MetricsRegistry", "Counter", "Gauge", "Histogram",
    "Series", "HotSpotProfiler", "SiteStats", "event_label", "Tracer",
    "merge_shards", "read_jsonl_records", "shard_to_chrome_events",
    "ShardWarning",
    # live telemetry (docs/OBSERVABILITY.md, `symsim top`)
    "Heartbeat", "RunHealth", "assess_health", "deterministic_view",
    "read_status", "scan_status", "write_status",
    "LeaseHealth", "assess_lease",
    # OpenMetrics export + scrape endpoint
    "render_openmetrics", "MetricsServer", "registry_from_status",
]
