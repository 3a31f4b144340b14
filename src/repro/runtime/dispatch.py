"""The STM program every substrate runs, and flat schedule tables.

This module compiles the graph and schedule walks once, up front:

* :class:`TaskProgram` — the paper's Figure 7–8 STM contract, written
  once.  Each task is an :class:`Agent` that, per timestamp, gets its
  streaming inputs (input order), runs its kernel, puts its outputs
  (output order) and consumes its inputs; every terminal channel gets a
  collector agent that gets-then-consumes (the application's output
  side).  The live frame loop groups those ops into per-frame *steps* —
  ``[puts(ts-1), consumes(ts-1), gets(ts)]``, statics in the first step,
  a final flush step — which the threaded runtime applies op by op and
  the process runtime ships as one broker round trip.  The program also
  owns the executor wiring (static fill plus every agent's connections)
  and the per-sink completion rule, and :func:`repro.analysis.model.build_model`
  compiles its agents from it, so model-check verdicts are about the
  shipped protocol by construction;
* :class:`FlatSchedule` — a :class:`PipelinedSchedule` lowered to
  preallocated numpy arrays (starts, durations, flattened processor
  lists with offsets).  ``instantiate(k)`` returns lightweight rows with
  the rotation ``(proc + k * shift) % n_procs`` applied in one vectorized
  operation over the whole iteration, and ``primary(task, k)`` answers
  the per-edge primary-processor query from an int array.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Optional

import numpy as np

from repro.core.schedule import PipelinedSchedule
from repro.errors import ReproError
from repro.graph.task import Task
from repro.graph.taskgraph import TaskGraph

__all__ = [
    "GET",
    "PUT",
    "CONSUME",
    "Agent",
    "TaskProgram",
    "Wiring",
    "collector_name",
    "completion_times",
    "op_by_op",
    "FlatPlacement",
    "FlatSchedule",
]

GET, PUT, CONSUME = "get", "put", "consume"

#: Connection owner of a static channel's one item.
ENV = "-env-"

#: One STM operation: ``(kind, channel, timestamp)``.
Op = tuple[str, str, int]


def collector_name(channel: str) -> str:
    """The agent draining terminal channel ``channel``."""
    return f"-collect-{channel}"


class Agent:
    """One sequential agent of a :class:`TaskProgram`.

    Attributes
    ----------
    name:
        Task name, or :func:`collector_name` of a terminal channel.
    index:
        Position in :attr:`TaskProgram.agents` — graph order for tasks
        (the runtimes' span/processor id), collectors after them.
    task:
        The :class:`~repro.graph.task.Task`, ``None`` for a collector.
    inputs / outputs:
        Declared channel order.
    static_inputs / stream_inputs:
        ``inputs`` split by the channels' ``static`` flag.
    is_source:
        No streaming inputs (the frame's digitizer).
    frame_ops:
        The per-timestamp op template: ``(kind, channel)`` for the stream
        gets, then the puts, then the consumes.  The kernel runs between
        the last get and the first put.
    """

    __slots__ = ("name", "index", "task", "inputs", "outputs",
                 "static_inputs", "stream_inputs", "is_source", "frame_ops")

    def __init__(self, name: str, index: int, task: Optional[Task],
                 inputs: tuple[str, ...], outputs: tuple[str, ...],
                 static: frozenset[str]) -> None:
        self.name = name
        self.index = index
        self.task = task
        self.inputs = inputs
        self.outputs = outputs
        self.static_inputs = tuple(ch for ch in inputs if ch in static)
        self.stream_inputs = tuple(ch for ch in inputs if ch not in static)
        self.is_source = not self.stream_inputs
        self.frame_ops = (
            tuple((GET, ch) for ch in self.stream_inputs)
            + tuple((PUT, ch) for ch in outputs)
            + tuple((CONSUME, ch) for ch in self.stream_inputs)
        )

    def steps(self, start: int, stop: int) -> Iterator[tuple[Optional[int], tuple[Op, ...]]]:
        """The frame loop's step groups for frames ``[start, stop)``.

        Yields ``(ts, ops)`` pairs: the step whose gets feed frame
        ``ts``'s kernel carries the previous frame's puts and consumes
        (the first step instead carries the static gets), and a final
        ``(None, ops)`` flush step ships the last frame's.  Applied op by
        op, the steps replay the static gets, then :attr:`frame_ops` for
        every frame in order.
        """
        gets = [(kind, ch) for kind, ch in self.frame_ops if kind == GET]
        tail = [(kind, ch) for kind, ch in self.frame_ops if kind != GET]
        for ts in range(start, stop):
            if ts == start:
                ops = [(GET, ch, 0) for ch in self.static_inputs]
            else:
                ops = [(kind, ch, ts - 1) for kind, ch in tail]
            ops += [(kind, ch, ts) for kind, ch in gets]
            yield ts, tuple(ops)
        if stop > start:
            yield None, tuple((kind, ch, stop - 1) for kind, ch in tail)

    def run(self, start: int, stop: int,
            commit: Callable[[tuple[Op, ...], dict], list],
            kernel: Callable[[int, dict], Any]) -> None:
        """Drive this agent through frames ``[start, stop)``.

        The frame loop every live substrate shares.  ``commit(ops,
        result)`` applies one step — put values come from ``result``, the
        previous kernel's output dict — and returns the values its gets
        fetched, in op order.  ``kernel(ts, inputs)`` runs frame ``ts``
        and must return a dict holding every output channel.
        """
        statics: dict[str, Any] = {}
        result: dict = {}
        for ts, ops in self.steps(start, stop):
            got = iter(commit(ops, result))
            if ts is None:
                return
            if ts == start:
                statics = {ch: next(got) for ch in self.static_inputs}
            inputs = dict(statics)
            for ch in self.stream_inputs:
                inputs[ch] = next(got)
            result = kernel(ts, inputs)
            if not isinstance(result, dict):
                raise ReproError(
                    f"kernel of {self.name!r} returned "
                    f"{type(result).__name__}, expected dict"
                )
            for ch in self.outputs:
                if ch not in result:
                    raise ReproError(
                        f"kernel of {self.name!r} produced no value for "
                        f"channel {ch!r}"
                    )


def op_by_op(get: Callable[[str, int], Any],
             put: Optional[Callable[[str, int, Any], None]],
             consume: Callable[[str, int], None]) -> Callable[[tuple[Op, ...], dict], list]:
    """A step committer applying the step's ops one at a time, in order.

    ``put`` may be ``None`` for an agent without outputs (a collector).
    """

    def commit(ops: tuple[Op, ...], result: dict) -> list:
        got = []
        for kind, ch, ts in ops:
            if kind == GET:
                got.append(get(ch, ts))
            elif kind == PUT:
                put(ch, ts, result[ch])
            else:
                consume(ch, ts)
        return got

    return commit


class Wiring(NamedTuple):
    """Every agent's substrate connections: ``{agent: {channel: conn}}``."""

    conns_in: dict[str, dict[str, Any]]
    conns_out: dict[str, dict[str, Any]]

    def collector(self, channel: str) -> Any:
        """The collector's connection on ``channel`` (``None`` unless terminal)."""
        return self.conns_in.get(collector_name(channel), {}).get(channel)


class TaskProgram:
    """The STM protocol of one graph: its agents, op order and wiring."""

    def __init__(self, graph: TaskGraph) -> None:
        self.graph = graph
        self.static_channels = tuple(s.name for s in graph.channels if s.static)
        produced = {ch for t in graph.tasks for ch in t.outputs}
        consumed = {ch for t in graph.tasks for ch in t.inputs}
        #: streaming channels some task puts and no task gets
        self.terminal = tuple(
            s.name for s in graph.channels
            if not s.static and s.name in produced and s.name not in consumed
        )
        static = frozenset(self.static_channels)
        self.tasks = tuple(
            Agent(t.name, i, t, tuple(t.inputs), tuple(t.outputs), static)
            for i, t in enumerate(graph.tasks)
        )
        self.collectors = tuple(
            Agent(collector_name(ch), len(self.tasks) + j, None, (ch,), (), static)
            for j, ch in enumerate(self.terminal)
        )
        self.agents = self.tasks + self.collectors
        self._by_name = {a.name: a for a in self.agents}

    def __getitem__(self, name: str) -> Agent:
        return self._by_name[name]

    def wire(self, attach_input: Callable[[str, str], Any],
             attach_output: Callable[[str, str], Any],
             put_static: Callable[[str, Any], None]) -> Wiring:
        """Fill the static channels, then attach every agent's connections.

        ``attach_input`` / ``attach_output`` take ``(channel, agent)`` and
        return a substrate connection; ``put_static(channel, conn)`` writes
        a static channel's one item at timestamp 0 through an
        :data:`ENV` output connection.  Every connection exists before any
        item flows: reference-count GC considers only attached inputs, so
        a late consumer could find its items already collected.
        """
        for ch in self.static_channels:
            put_static(ch, attach_output(ch, ENV))
        return Wiring(
            {a.name: {ch: attach_input(ch, a.name) for ch in a.inputs}
             for a in self.agents},
            {a.name: {ch: attach_output(ch, a.name) for ch in a.outputs}
             for a in self.agents},
        )


def completion_times(done: Mapping[Any, Mapping[int, float]]) -> dict[int, float]:
    """Frames every sink finished, stamped when the last one did.

    ``done`` maps each sink (a sink task, or a terminal channel's
    collector) to its ``{timestamp: time}`` finishes.
    """
    if not done:
        return {}
    common = set.intersection(*(set(d) for d in done.values()))
    return {ts: max(d[ts] for d in done.values()) for ts in sorted(common)}


class FlatPlacement:
    """One row of an instantiated iteration — a :class:`Placement` look-alike
    without the frozen-dataclass validation cost.

    Carries absolute ``start`` and already-rotated ``procs`` for its
    iteration, plus the rotated ``primary`` (== ``procs[0]``).
    """

    __slots__ = ("task", "procs", "start", "duration", "variant", "primary")

    def __init__(
        self,
        task: str,
        procs: tuple[int, ...],
        start: float,
        duration: float,
        variant: str,
    ) -> None:
        self.task = task
        self.procs = procs
        self.start = start
        self.duration = duration
        self.variant = variant
        self.primary = procs[0]

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def workers(self) -> int:
        return len(self.procs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlatPlacement({self.task!r}, procs={self.procs}, "
            f"start={self.start:g}, dur={self.duration:g}, {self.variant!r})"
        )


class FlatSchedule:
    """A :class:`PipelinedSchedule` compiled to flat arrays.

    The base iteration's placements are lowered once into:

    * ``starts`` / ``durations`` — float64 arrays, placement order;
    * a single flattened int64 processor array plus per-placement
      offsets (placement ``i`` owns ``flat_procs[offsets[i]:offsets[i+1]]``);
    * ``primaries`` — int64 array of each placement's base primary.

    ``instantiate(k)`` applies the cyclic rotation and time offset to the
    whole iteration with two vectorized numpy expressions and yields
    :class:`FlatPlacement` rows; ``primary(task, k)`` and
    ``procs_for(task, k)`` answer point queries without building rows at
    all.  Results are exactly those of
    :meth:`PipelinedSchedule.instantiate` / ``proc_for`` — pinned by
    ``tests/runtime/test_dispatch.py``.
    """

    def __init__(self, schedule: PipelinedSchedule) -> None:
        placements = schedule.iteration.placements
        self.schedule = schedule
        self.period = schedule.period
        self.shift = schedule.shift
        self.n_procs = schedule.n_procs
        self.tasks: tuple[str, ...] = tuple(p.task for p in placements)
        self.variants: tuple[str, ...] = tuple(p.variant for p in placements)
        self.starts = np.array([p.start for p in placements], dtype=np.float64)
        self.durations = np.array([p.duration for p in placements], dtype=np.float64)
        offsets = [0]
        flat: list[int] = []
        for p in placements:
            flat.extend(p.procs)
            offsets.append(len(flat))
        self.flat_procs = np.array(flat, dtype=np.int64)
        self.offsets = np.array(offsets, dtype=np.int64)
        self.primaries = np.array([p.procs[0] for p in placements], dtype=np.int64)
        self._row_of = {task: i for i, task in enumerate(self.tasks)}

    def __len__(self) -> int:
        return len(self.tasks)

    def row(self, task: str) -> int:
        """Placement-row index of ``task`` (raises ``KeyError`` if absent)."""
        return self._row_of[task]

    def primary(self, task: str, k: int) -> int:
        """Rotated primary processor of ``task`` in iteration ``k``."""
        base = int(self.primaries[self._row_of[task]])
        return (base + k * self.shift) % self.n_procs

    def procs_for(self, task: str, k: int) -> tuple[int, ...]:
        """Rotated processor tuple of ``task`` in iteration ``k``."""
        i = self._row_of[task]
        band = self.flat_procs[self.offsets[i]: self.offsets[i + 1]]
        return tuple(((band + k * self.shift) % self.n_procs).tolist())

    def instantiate(self, k: int) -> list[FlatPlacement]:
        """Absolute rows for iteration ``k`` — two vectorized ops, no
        :class:`Placement` construction."""
        starts = self.starts + k * self.period
        rotated = (self.flat_procs + k * self.shift) % self.n_procs
        rot_list = rotated.tolist()
        starts_list = starts.tolist()
        durs = self.durations.tolist()
        offs = self.offsets.tolist()
        return [
            FlatPlacement(
                task=self.tasks[i],
                procs=tuple(rot_list[offs[i]: offs[i + 1]]),
                start=starts_list[i],
                duration=durs[i],
                variant=self.variants[i],
            )
            for i in range(len(self.tasks))
        ]

    def iter_iterations(self, iterations: int) -> Iterable[tuple[int, list[FlatPlacement]]]:
        """Yield ``(k, rows)`` for ``k in range(iterations)``."""
        for k in range(iterations):
            yield k, self.instantiate(k)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlatSchedule(tasks={len(self.tasks)}, period={self.period:g}, "
            f"shift={self.shift}, n_procs={self.n_procs})"
        )
