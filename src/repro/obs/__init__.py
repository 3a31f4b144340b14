"""repro.obs — observability & cost-model calibration.

The production-telemetry layer the ROADMAP's "serving heavy traffic"
north star needs, and the runtime half of the paper's measured-cost
story:

* :mod:`repro.obs.metrics` — thread-safe :class:`MetricsRegistry`
  (counters, gauges, histograms, labeled series) with Prometheus-text
  and JSON exposition plus periodic snapshotting;
* :mod:`repro.obs.tracing` / :mod:`repro.obs.export` — span-based
  tracing with bounded memory (ring buffer) and streaming export
  (JSONL, Chrome trace);
* :mod:`repro.obs.drift` / :mod:`repro.obs.calibrate` — empirical cost
  distributions vs the scheduling model, with EWMA drift detection
  (§3.4: detectable, infrequent regime changes);
* :mod:`repro.obs.recalibrate` — drift → warm table re-build
  (PR-2 ``core.parallel``/``core.cache`` path) → schedule switch.

:class:`Observability` is the bundle executors accept via ``obs=``: one
object carrying the registry, the tracer and (optionally) a calibrator,
with ``on_*`` hooks the instrumentation calls.  Every hook is cheap and
None-safe at the call site (``if self.obs is not None``), so the
uninstrumented paths pay nothing.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.calibrate import (
    CalibrationReport,
    CalibrationRow,
    CostCalibrator,
    CostStats,
    ScaledCost,
    graph_with_costs,
    node_class_of,
    tier_name,
)
from repro.obs.drift import DriftDetected, DriftDetector, DriftError, Ewma
from repro.obs.export import (
    JsonlSpanSink,
    chrome_trace_events,
    read_jsonl_spans,
    write_chrome_trace,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
    Snapshotter,
    parse_prometheus_text,
)
from repro.obs.recalibrate import CalibrationController, RebuildRecord
from repro.obs.tracing import Span, SpanTracer

__all__ = [
    "Observability",
    # metrics
    "MetricsRegistry",
    "MetricsError",
    "Counter",
    "Gauge",
    "Histogram",
    "Snapshotter",
    "DEFAULT_BUCKETS",
    "parse_prometheus_text",
    # tracing
    "Span",
    "SpanTracer",
    "JsonlSpanSink",
    "read_jsonl_spans",
    "chrome_trace_events",
    "write_chrome_trace",
    # drift + calibration
    "Ewma",
    "DriftError",
    "DriftDetected",
    "DriftDetector",
    "CostStats",
    "ScaledCost",
    "CostCalibrator",
    "CalibrationRow",
    "CalibrationReport",
    "graph_with_costs",
    "node_class_of",
    "tier_name",
    "CalibrationController",
    "RebuildRecord",
]


class Observability:
    """The instrumentation bundle executors accept as ``obs=``.

    Parameters
    ----------
    registry / tracer:
        Created with defaults when omitted; pass shared instances to
        aggregate several runs into one exposition.
    calibrator:
        Optional :class:`CostCalibrator`; when present, execution and
        communication observations also feed drift detection.

    The ``on_*`` hooks are the single integration surface — executors
    never touch the registry directly, so the metric taxonomy stays in
    one place.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[SpanTracer] = None,
        calibrator: Optional[CostCalibrator] = None,
    ) -> None:
        self.registry = registry or MetricsRegistry()
        self.tracer = tracer or SpanTracer()
        self.calibrator = calibrator
        r = self.registry
        self._exec_seconds = r.histogram(
            "repro_task_seconds", "Observed task execution time", ("task", "variant")
        )
        self._exec_total = r.counter(
            "repro_task_executions_total", "Task executions", ("task",)
        )
        self._items = r.counter(
            "repro_stm_items_total", "STM channel item operations", ("channel", "kind")
        )
        self._comm_seconds = r.histogram(
            "repro_comm_seconds", "Observed transfer time", ("tier",)
        )
        self._frame_latency = r.histogram(
            "repro_frame_latency_seconds", "End-to-end frame latency"
        )
        self._frames = r.counter("repro_frames_completed_total", "Frames completed")
        self._slips = r.counter(
            "repro_schedule_slips_total", "Placements starting after their scheduled time"
        )
        self._detections = r.counter(
            "repro_fault_detections_total", "Fault detections", ("kind",)
        )
        self._failovers = r.counter("repro_failovers_total", "Executed failovers")
        self._failover_stall = r.counter(
            "repro_failover_stall_seconds_total", "Cumulative failover stall"
        )
        self._drifts = r.counter(
            "repro_drift_signals_total", "Confirmed cost-model drift signals"
        )
        self._period = r.gauge(
            "repro_schedule_period_seconds", "Active schedule initiation interval"
        )
        self._approx_gap = r.histogram(
            "repro_approx_gap",
            "Certified optimality-gap bound of served schedules",
            ("policy",),
            buckets=(0.0, 0.001, 0.005, 0.01, 0.05, 0.1, 0.2, 0.5, 1.0),
        )
        self._approx_solves = r.counter(
            "repro_approx_solves_total",
            "Schedule solves served, by ladder rung",
            ("policy",),
        )
        self._approx_lazy = r.counter(
            "repro_approx_lazy_total",
            "Lazy schedule-table lookups, by outcome",
            ("kind",),
        )
        self._fallbacks = r.counter(
            "repro_fallbacks_total", "Fallbacks to a degraded path", ("site",)
        )
        # Label resolution goes through the registry lock; the hooks run on
        # every task execution and STM operation, so resolved children are
        # memoized here (benign race: duplicate lookups return the same
        # child, and dict reads/writes are atomic under the GIL).
        self._exec_children: dict = {}
        self._item_children: dict = {}

    # -- execution ------------------------------------------------------------

    def on_exec(
        self,
        task: str,
        start: float,
        end: float,
        proc: int = 0,
        variant: str = "serial",
        timestamp: int = -1,
        node_class: str = "nominal",
        preempted: bool = False,
        calibrate: bool = True,
    ) -> None:
        """One task execution span (one call per span, not per worker proc).

        ``calibrate=False`` keeps the span out of drift detection — used
        for scheduler quanta, whose durations are slices of a cost, not
        costs (the dynamic executor feeds :meth:`on_cost_sample` with the
        aggregated duration instead).
        """
        duration = end - start
        key = (task, variant)
        children = self._exec_children.get(key)
        if children is None:
            children = self._exec_children[key] = (
                self._exec_total.labels(task),
                self._exec_seconds.labels(task, variant),
            )
        children[0].inc()
        children[1].observe(duration)
        # Spans are built inline (not via tracer.complete) — these two
        # hooks run per task execution and per STM operation, and the
        # kwargs-repacking layers are measurable there.
        self.tracer.record(
            Span(task, "exec", start, end, track=f"proc{proc}",
                 timestamp=timestamp, args={"variant": variant})
        )
        if self.calibrator is not None and calibrate and not preempted:
            if self.calibrator.observe_exec(
                task, variant, duration, node_class=node_class, time=end
            ):
                self._drifts.inc()

    def on_cost_sample(
        self,
        task: str,
        variant: str,
        duration: float,
        node_class: str = "nominal",
        time: float = 0.0,
    ) -> None:
        """Feed one aggregated cost observation straight to the calibrator."""
        if self.calibrator is not None:
            if self.calibrator.observe_exec(
                task, variant, duration, node_class=node_class, time=time
            ):
                self._drifts.inc()

    def on_item(self, time: float, channel: str, kind: str, timestamp: int = -1,
                task: str = "") -> None:
        """One STM item operation (put/get/consume/gc)."""
        key = (channel, kind)
        entry = self._item_children.get(key)
        if entry is None:
            entry = self._item_children[key] = (
                self._items.labels(channel, kind),
                f"{kind}:{channel}",
            )
        entry[0].inc()
        self.tracer.record(
            Span(entry[1], "stm", time, time, track=channel,
                 timestamp=timestamp, args={"task": task} if task else None)
        )

    def on_comm(
        self,
        datatype: str,
        tier: str,
        start: float,
        seconds: float,
        nbytes: int = 0,
        timestamp: int = -1,
    ) -> None:
        """One inter-placement transfer."""
        self._comm_seconds.labels(tier).observe(seconds)
        if seconds > 0:
            self.tracer.complete(
                f"xfer:{datatype}", "comm", start, start + seconds,
                track=f"comm:{tier}", timestamp=timestamp, bytes=nbytes,
            )
        if self.calibrator is not None:
            if self.calibrator.observe_comm(
                datatype, tier, seconds, nbytes=nbytes, time=start + seconds
            ):
                self._drifts.inc()

    def on_frame(self, timestamp: int, latency: float) -> None:
        """One frame completed end to end."""
        self._frames.inc()
        self._frame_latency.observe(latency)

    def on_slip(self, task: str, time: float, amount: float, timestamp: int = -1) -> None:
        """A placement started late relative to its schedule."""
        self._slips.inc()
        self.tracer.instant(
            f"slip:{task}", "sched", time, track="schedule", timestamp=timestamp,
            amount=amount,
        )

    def on_period(self, period: float) -> None:
        """The active schedule's initiation interval changed."""
        self._period.set(period)

    # -- approximation ladder --------------------------------------------------

    def on_approx_solve(self, policy: str, gap: float) -> None:
        """One ladder solve served ``policy`` ∈ {exact, bounded, list} with
        a certified gap bound of ``gap`` (0 for exact)."""
        self._approx_solves.labels(policy).inc()
        self._approx_gap.labels(policy).observe(gap)

    def on_lazy(self, kind: str) -> None:
        """One lazy-table lookup outcome: ``hit`` / ``miss`` / ``prefill``."""
        self._approx_lazy.labels(kind).inc()

    def on_fallback(self, site: str, detail: str = "") -> None:
        """A degraded path ran (see :mod:`repro.fallbacks`)."""
        self._fallbacks.labels(site).inc()

    # -- faults ---------------------------------------------------------------

    def on_detection(self, time: float, kind: str, detail: str = "") -> None:
        """A fault detector confirmed a failure."""
        self._detections.labels(kind).inc()
        self.tracer.instant(f"detect:{kind}", "faults", time, track="faults",
                            detail=detail)

    def on_failover(self, start: float, end: float, detail: str = "") -> None:
        """One executed failover (detection through resumed schedule)."""
        self._failovers.inc()
        self._failover_stall.inc(end - start)
        self.tracer.complete("failover", "faults", start, end, track="faults",
                             detail=detail)

    # -- exposition -----------------------------------------------------------

    @property
    def drift_signals(self) -> list[DriftDetected]:
        """Drift signals the calibrator has confirmed so far."""
        return list(self.calibrator.drifts) if self.calibrator else []

    def prometheus(self) -> str:
        """Prometheus text exposition of all metrics."""
        return self.registry.to_prometheus_text()

    def snapshot(self) -> dict:
        """JSON-able snapshot of all metrics."""
        return self.registry.snapshot()

    def __repr__(self) -> str:
        return (
            f"Observability({len(self.registry.families())} metric families, "
            f"{len(self.tracer)} spans buffered, "
            f"calibrator={'on' if self.calibrator else 'off'})"
        )
