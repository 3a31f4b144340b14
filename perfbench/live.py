"""The on-line path: paced frames through a live substrate.

A live workload runs its pipeline in *rounds* — one executor run each —
and every round is checked frame by frame against a single-threaded
reference loop (:func:`oracle`).  Time is measured on one clock: the
source kernel runs in the benchmark process (threaded substrate) or in a
forked worker (process substrate), and ``time.perf_counter`` reads the
same monotonic clock in both.  The runtimes report spans relative to
their own start; :class:`Pacer` records the absolute time the first
frame entered, and the source kernel's returned span for that frame
gives the offset between the two.  Rounds are prepared before the cycle
that runs them (:class:`Plan`) and measured after it, so the benchmark's
own work never lies between two measured timestamps.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from common import LeakCheck, Tracer, median, no_span


def sleep_until(due: float) -> None:
    """Sleep to ``due`` (absolute perf_counter).  It never spins: a spinning
    source thread would hold the GIL its pipeline's kernels need, and any
    oversleep shows up in the measured source lag."""
    left = due - time.perf_counter()
    if left > 0:
        time.sleep(left)


class Pacer:
    """The open-loop generator clock of one round.

    Frame ``k`` of the round is due at ``clock + (first + k) * period``
    (absolute seconds).  ``clock`` is shared memory, so a forked worker's
    writes reach the benchmark process, and the rounds of a kiosk day
    share one: it is set by the first entry of the first source kernel
    that finds it unset.  Due times never slow down when the system does.
    ``period == 0`` runs the source unpaced.
    """

    def __init__(self, period: float, clock=None, first: int = 0) -> None:
        self.period = period
        self.first = first
        self.clock = clock if clock is not None else multiprocessing.RawValue("d", 0.0)
        self.entry = multiprocessing.RawValue("d", 0.0)

    @property
    def start(self) -> float:
        """Due time of the round's frame 0 (once the clock is set)."""
        return self.clock.value + self.first * self.period

    def wrap(self, compute: Callable, on_frame: Optional[Callable[[int], None]] = None):
        pacer = self
        counter = [0]

        def paced(state, inputs):
            k = counter[0]
            counter[0] += 1
            if k == 0:
                now = time.perf_counter()
                pacer.entry.value = now
                if pacer.clock.value == 0.0:
                    pacer.clock.value = now - pacer.first * pacer.period
            if pacer.period > 0:
                sleep_until(pacer.start + k * pacer.period)
            if on_frame is not None:
                on_frame(k)
            return compute(state, inputs)

        return paced


def with_source(graph, compute_for_source: Callable):
    """A copy of ``graph`` whose source task runs ``compute_for_source(orig)``."""
    from repro.graph.task import Task
    from repro.graph.taskgraph import TaskGraph

    out = TaskGraph(graph.name)
    for ch in graph.channels:
        out.add_channel(ch)
    for t in graph.tasks:
        compute = compute_for_source(t.compute) if t.is_source else t.compute
        out.add_task(Task(t.name, cost=t.cost, inputs=t.inputs, outputs=t.outputs,
                          data_parallel=t.data_parallel, period=t.period,
                          compute=compute, compute_chunk=t.compute_chunk,
                          compute_join=t.compute_join))
    out.validate()
    return out


# ---------------------------------------------------------------------------
# Reference outputs
# ---------------------------------------------------------------------------


def same(a: Any, b: Any) -> bool:
    """Bitwise equality of kernel outputs (arrays, scalars, nested lists)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        return np.float64(a).tobytes() == np.float64(b).tobytes()
    return type(a) is type(b) and a == b


def stm_paths(ref: Reference, threshold: int) -> str:
    """Which path each streaming channel's largest item takes through the
    process STM: ndarrays at or over the threshold go through shared
    memory, everything else is pickled."""
    return ", ".join(
        f"{ch} {size} B {'shm' if ch in ref.arrays and size >= threshold else 'pickle'}"
        for ch, size in sorted(ref.item_bytes.items()))


def payload_bytes(value: Any) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    return len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


@dataclass
class Reference:
    """What the single-threaded loop computed for ``frames`` frames."""

    outputs: dict[str, list]           # terminal channel -> value per frame
    task_ms: dict[str, list[float]]     # task -> kernel ms per frame
    frame_ms: list[float]               # summed kernel ms per frame
    stream_bytes: list[int]             # bytes put on streaming channels per frame
    item_bytes: dict[str, int]          # streaming channel -> largest item put on it
    arrays: set                         # streaming channels that carry ndarrays


def oracle(graph, state, statics: dict, frames: int) -> Reference:
    """Call each task's kernel in topological order, one frame at a time."""
    tasks = {t.name: t for t in graph.tasks}
    order = graph.topo_order()
    terminal = [s.name for s in graph.channels
                if not s.static and graph.producers(s.name) and not graph.consumers(s.name)]
    streaming = [s.name for s in graph.channels if not s.static]
    ref = Reference({ch: [] for ch in terminal}, {n: [] for n in order}, [], [],
                    {ch: 0 for ch in streaming}, set())
    for _ in range(frames):
        values = dict(statics)
        total = 0.0
        for name in order:
            task = tasks[name]
            ins = {ch: values[ch] for ch in task.inputs}
            t0 = time.perf_counter()
            out = task.compute(state, ins)
            dt = (time.perf_counter() - t0) * 1000.0
            ref.task_ms[name].append(dt)
            total += dt
            values.update(out)
        ref.frame_ms.append(total)
        sizes = {ch: payload_bytes(values[ch]) for ch in streaming}
        ref.stream_bytes.append(sum(sizes.values()))
        for ch, size in sizes.items():
            ref.item_bytes[ch] = max(ref.item_bytes[ch], size)
            if isinstance(values[ch], np.ndarray):
                ref.arrays.add(ch)
        for ch in terminal:
            ref.outputs[ch].append(values[ch])
    return ref


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------


@dataclass
class Plan:
    """A round prepared before its cycle starts: a fresh pipeline behind
    ``make``, its pacer, and what the round is measured against."""

    make: Callable[[], Any]     # constructs the executor and nothing else
    pacer: Pacer
    frames: int
    graph: Any                  # the pipeline's topology, for critical paths
    ref: Reference
    first_index: int = 0        # global index of the round's frame 0


@dataclass
class Launch:
    """What one executor run left behind, before any measurement."""

    plan: Plan
    run_call_abs: float = 0.0
    run_return_abs: float = 0.0
    result: Any = None
    error: Optional[str] = None


@dataclass
class Round:
    """Per-frame measurements of one executor run, absolute-clock aligned."""

    frames: int
    first_index: int                         # global index of the round's frame 0
    latency_ms: dict[int, float] = field(default_factory=dict)   # local ts -> ms
    critical_ms: dict[int, float] = field(default_factory=dict)
    lag_ms: dict[int, float] = field(default_factory=dict)
    kernel_ms: dict[str, list[float]] = field(default_factory=dict)
    busy_ms: list[float] = field(default_factory=list)
    wrong: set = field(default_factory=set)  # local ts whose output differs / is lost
    anchor_abs: float = 0.0                  # due time of local frame 0
    period: float = 0.0
    entry_abs: float = 0.0
    run_call_abs: float = 0.0
    run_return_abs: float = 0.0
    last_due_abs: float = 0.0
    last_output_abs: float = 0.0
    capacity_fps: float = 0.0
    leaked_shm: int = 0
    leaked_children: int = 0
    error: Optional[str] = None
    meta: dict = field(default_factory=dict)
    live_high_water: int = 0


def critical_path(graph, durations: dict[str, float]) -> float:
    """Longest source-to-sink path of kernel durations through the DAG."""
    best: dict[str, float] = {}
    for name in graph.topo_order():
        preds = graph.predecessors(name)
        best[name] = durations.get(name, 0.0) + max((best[p] for p in preds), default=0.0)
    return max(best.values())


def launch(plan: Plan, tracer: Optional[Tracer] = None) -> Launch:
    """Construct the plan's executor and run it, recording only when."""
    span = tracer.span if tracer is not None else no_span
    run = Launch(plan)
    with span("runtime.construct", plan.first_index):
        ex = plan.make()
    run.run_call_abs = time.perf_counter()
    try:
        with span("runtime.run", plan.first_index):
            run.result = ex.run(plan.frames)
    except Exception as exc:  # the round is lost; every frame counts as failed
        run.error = f"{type(exc).__name__}: {exc}"
    run.run_return_abs = time.perf_counter()
    return run


def measure(run: Launch, tracer: Optional[Tracer] = None) -> Round:
    """Measure a finished run frame by frame against the reference's
    first frames."""
    plan, res = run.plan, run.result
    pacer, frames, graph, ref = plan.pacer, plan.frames, plan.graph, plan.ref
    first_index = plan.first_index
    rnd = Round(frames=frames, first_index=first_index, period=pacer.period,
                run_call_abs=run.run_call_abs, run_return_abs=run.run_return_abs)
    if run.error is not None:
        rnd.error = run.error
        rnd.wrong = set(range(frames))
        return rnd
    # Keep what the report reads; the frames' outputs are compared below
    # and dropped, so the benchmark's heap (which the program's garbage
    # collections scan) does not grow with every round.
    rnd.meta = {k: v for k, v in res.meta.items() if k != "outputs"}
    rnd.live_high_water = res.live_item_high_water

    source = graph.source_tasks()[0]
    spans: dict[int, dict[str, Any]] = {}
    for s in res.trace.spans:
        spans.setdefault(s.timestamp, {})[s.task] = s
    src0 = spans[0][source]
    offset = pacer.entry.value - src0.start          # absolute = relative + offset
    rnd.entry_abs = pacer.entry.value
    rnd.anchor_abs = pacer.start
    period = pacer.period
    anchor_rel = pacer.start - offset
    completion = res.completion_times
    outputs = res.meta["outputs"]
    for k in range(frames):
        for ch, vals in ref.outputs.items():
            got = outputs.get(ch, {})
            if k not in got or not same(got[k], vals[k]):
                rnd.wrong.add(k)
        if k not in completion or k not in spans:
            rnd.wrong.add(k)
            continue
        fs = spans[k]
        due = anchor_rel + k * period if period > 0 else fs[source].start
        durs = {}
        for task, s in fs.items():
            d = s.end - max(s.start, due) if task == source else s.end - s.start
            durs[task] = d
            rnd.kernel_ms.setdefault(task, []).append(d * 1000.0)
        rnd.busy_ms.append(sum(durs.values()) * 1000.0)
        rnd.critical_ms[k] = critical_path(graph, durs) * 1000.0
        rnd.latency_ms[k] = (completion[k] - due) * 1000.0
        rnd.lag_ms[k] = max(0.0, fs[source].start - due) * 1000.0
        if tracer is not None:
            fid = tracer.add("frame", due + offset, completion[k] + offset,
                             rid=first_index + k)
            for task, s in fs.items():
                tracer.add(f"kernel.{task}", s.start + offset, s.end + offset,
                           parent=fid, rid=first_index + k)
    last = frames - 1
    if last in completion:
        rnd.last_output_abs = max(completion.values()) + offset
        rnd.last_due_abs = (anchor_rel + last * period if period > 0
                            else spans[last][source].start) + offset
        wall = max(completion.values()) - src0.start
        rnd.capacity_fps = len(completion) / wall if wall > 0 else 0.0
    return rnd


def run_group(plans: list[Plan], tracer: Optional[Tracer] = None) -> list[Round]:
    """Run planned rounds back to back, then measure them.

    Between one round's return and the next one's first frame lie only
    the program's drain, executor construction and run start: counting
    leaks and comparing outputs wait until the whole group has run.  A
    leak is charged to the group's last round.
    """
    leaks = LeakCheck()
    runs = [launch(plan, tracer) for plan in plans]
    shm, children = leaks.leaked()
    rounds = [measure(run, tracer) for run in runs]
    rounds[-1].leaked_shm, rounds[-1].leaked_children = shm, children
    return rounds


def summarize_rounds(rounds: list[Round]) -> dict:
    """Pool per-frame samples across rounds."""
    lat, crit, lag, busy = [], [], [], []
    kern: dict[str, list[float]] = {}
    for r in rounds:
        lat += list(r.latency_ms.values())
        crit += list(r.critical_ms.values())
        lag += list(r.lag_ms.values())
        busy += r.busy_ms
        for task, vals in r.kernel_ms.items():
            kern.setdefault(task, []).extend(vals)
    nonkernel = [r.latency_ms[k] - r.critical_ms[k] for r in rounds for k in r.latency_ms]
    return {"latency": lat, "critical": crit, "lag": lag, "busy": busy,
            "kernel": kern, "nonkernel": nonkernel}


def check_latency_floor(rounds: list[Round]) -> list[str]:
    """Frames whose latency is below their critical-path kernel time."""
    bad = []
    for r in rounds:
        for k, lat in r.latency_ms.items():
            if lat + 1e-6 < r.critical_ms[k]:
                bad.append(f"frame {r.first_index + k}: latency {lat:.4f} ms < "
                           f"critical path {r.critical_ms[k]:.4f} ms")
    return bad


def median_or(values, default: float = 0.0) -> float:
    vals = list(values)
    return median(vals) if vals else default
