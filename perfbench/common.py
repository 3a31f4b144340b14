"""Shared helpers of the repo benchmark: statistics, spans, leaks, results.

Nothing here imports :mod:`repro` at module level; the workload modules
do, after ``run.py`` has put the checkout's ``src`` directory on the path.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Iterable, Optional

#: Percentiles tried for the tail, highest first.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)

#: Environment knobs of the program that change what a run measures.
RECORDED_ENV = ("REPRO_COALESCE", "REPRO_SHM_THRESHOLD", "REPRO_SCHEDULE_CACHE")

#: Fresh-interpreter set-up measurements per run (median reported).
SETUP_PROBES = 7

#: Kiosk traffic, of the live ``kiosk-day`` and of ``offline-bank``'s switch
#: replay alike: :class:`repro.apps.kiosk.KioskEnvironment` with its own
#: defaults (a customer arrives every 60 s on average and stays 120 s; one
#: to five people are tracked), with time compressed by KIOSK_SPEEDUP.
#: The compression scales the arrival rate up and the dwell down by the
#: same factor, so the mix of states is the model's (kiosk_mix); only the
#: changes come KIOSK_SPEEDUP times as often, about one a second.
KIOSK_SPEEDUP = 60.0
#: Camera rate of the kiosk (frames per second).
KIOSK_FPS = 30.0
#: Frames a change must persist before the detector confirms it.
KIOSK_CONFIRM = 3
#: Share of observations miscounted by one.
KIOSK_NOISE = 0.02
#: Mean dwells of traffic run before a day starts, so that the day starts
#: from the model's own state rather than from an empty kiosk.
KIOSK_BURN_IN_DWELLS = 3.0
#: Mean dwells of the trace the model's stationary mix is measured on.
KIOSK_MIX_DWELLS = 2000.0


class BenchFailure(Exception):
    """A correctness check failed in a way that leaves no result to report."""


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def median(values: Iterable[float]) -> float:
    vals = list(values)
    if not vals:
        raise BenchFailure("median of no samples")
    return statistics.median(vals)


def tail(values: Iterable[float], min_beyond: int = 10) -> tuple[float, float, int]:
    """``(percentile, value, samples_beyond)`` of the highest ladder
    percentile that has at least ``min_beyond`` samples strictly above
    its nearest-rank position.  Falls back to the median (with however
    many samples lie beyond it) when the set is too small for any rung.
    """
    vals = sorted(values)
    n = len(vals)
    if n == 0:
        raise BenchFailure("tail of no samples")
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(round(pct * n / 100.0, 9)))
        beyond = n - rank
        if beyond >= min_beyond:
            return pct, vals[rank - 1], beyond
    rank = max(1, math.ceil(n / 2))
    return 50.0, vals[rank - 1], n - rank


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class Tracer:
    """In-memory span recorder: ``(id, name, start, end, parent, rid)``.

    ``start``/``end`` are absolute ``time.perf_counter()`` seconds, one
    clock for the benchmark process and every process it forks.  The
    parent of a span is the innermost span open on the same thread when
    it started.  :meth:`wrap` records a span around every call of a
    module or class attribute until :meth:`restore`.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._next = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, rid: Any = None) -> int:
        with self._lock:
            sid = self._next
            self._next += 1
            self.spans.append((sid, name, start, end, parent, rid))
        return sid

    @contextlib.contextmanager
    def span(self, name: str, rid: Any = None):
        with self._lock:
            sid = self._next
            self._next += 1
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((sid, name, start, end, parent, rid))

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                return original(*args, **kwargs)

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self, keep: int = 0) -> None:
        """Undo the wraps made since the first ``keep`` ones."""
        while len(self._patched) > keep:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @property
    def wrapped(self) -> int:
        return len(self._patched)

    def durations(self, name: str) -> list[float]:
        return [s[3] - s[2] for s in self.spans if s[1] == name]

    def children(self) -> dict[Optional[int], list[tuple]]:
        """Spans grouped by parent id."""
        kids: dict[Optional[int], list[tuple]] = {}
        for span in self.spans:
            kids.setdefault(span[4], []).append(span)
        return kids

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines, in start order."""
        keys = ("id", "name", "start", "end", "parent", "rid")
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s[2]):
                fh.write(json.dumps(dict(zip(keys, span)), default=str) + "\n")


@contextlib.contextmanager
def no_span(name: str, rid: Any = None):
    """Stand-in for :meth:`Tracer.span` in an untraced run."""
    yield None


# ---------------------------------------------------------------------------
# Leaks, memory, environment
# ---------------------------------------------------------------------------


def shm_entries() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def child_pids() -> set[int]:
    """Live direct children of this process.

    Zombies are excluded, and so is multiprocessing's resource tracker:
    the standard library starts it once per process with the first
    shared-memory segment and keeps it for the life of the process.
    """
    me = os.getpid()
    pids = set()
    try:
        entries = os.listdir("/proc")
    except OSError:
        return pids
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                fields = fh.read().rsplit(b")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) != me or fields[0] == b"Z":
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                if b"resource_tracker" in fh.read():
                    continue
        except OSError:
            continue
        pids.add(int(entry))
    return pids


class LeakCheck:
    """``/dev/shm`` entries and child processes alive before vs after."""

    def __init__(self) -> None:
        self.shm = shm_entries()
        self.children = child_pids()

    def leaked(self, settle_s: float = 2.0) -> tuple[int, int]:
        """``(shm_leaked, children_leaked)``, waiting up to ``settle_s``
        for exiting children to be reaped before counting them."""
        deadline = time.monotonic() + settle_s
        while True:
            shm = len(shm_entries() - self.shm)
            kids = len(child_pids() - self.children)
            if (shm == 0 and kids == 0) or time.monotonic() > deadline:
                return shm, kids
            time.sleep(0.01)


def rss_peak_mb() -> float:
    """Peak RSS of this process plus the largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def recorded_env() -> dict[str, Optional[str]]:
    return {name: os.environ.get(name) for name in RECORDED_ENV}


# ---------------------------------------------------------------------------
# Set-up probes
# ---------------------------------------------------------------------------


def setup_probe(workload: str, seed: int, cache_root: str, runner: str, root: str) -> float:
    """One set-up measurement in a fresh interpreter (imports included)."""
    out = subprocess.run(
        [sys.executable, runner, "--probe-setup", "--workload", workload,
         "--seed", str(seed), "--cache", cache_root],
        cwd=root, capture_output=True, text=True, timeout=120,
    )
    if out.returncode != 0:
        raise BenchFailure(f"set-up probe failed: {out.stderr.strip()[-400:]}")
    return float(out.stdout.strip().splitlines()[-1])


def spread_over(n_cycles: int, count: int) -> list[int]:
    """How many of ``count`` measurements each of ``n_cycles`` cycles takes."""
    per = [0] * n_cycles
    for i in range(count):
        per[i * n_cycles // count] += 1
    return per


def run_cycles(n_cycles: int, probe: Callable[[], float], tracer: Optional[Tracer],
               *steps: Callable[[int, Optional[Tracer]], None]) -> list[float]:
    """Run ``n_cycles`` measurement cycles; returns the set-up times.

    A run interleaves its measurements so that every median samples the
    whole run: on a shared host the speed of the machine changes from
    second to second, and a median over samples spread in time shrugs off
    a slow stretch that a block of consecutive samples would land in.
    Cycle ``c`` takes its share of the SETUP_PROBES fresh-interpreter
    set-up probes, then calls every step as ``step(c, traced)``, where
    ``traced`` is the tracer on the odd cycles of a traced run and None
    otherwise, so a traced run alternates untraced and traced cycles.
    """
    probes = spread_over(n_cycles, SETUP_PROBES)
    setup: list[float] = []
    for c in range(n_cycles):
        setup += [probe() for _ in range(probes[c])]
        traced = tracer if (tracer is not None and c % 2 == 1) else None
        for step in steps:
            step(c, traced)
    return setup


# ---------------------------------------------------------------------------
# Kiosk traffic
# ---------------------------------------------------------------------------


def kiosk_environment(seed: int):
    from repro.apps.kiosk import KioskEnvironment

    base = KioskEnvironment()
    return KioskEnvironment(arrival_rate=base.arrival_rate * KIOSK_SPEEDUP,
                            mean_dwell=base.mean_dwell / KIOSK_SPEEDUP,
                            min_people=base.min_people, max_people=base.max_people,
                            seed=seed)


@functools.lru_cache(maxsize=None)
def kiosk_mix() -> tuple[tuple[int, float], ...]:
    """The model's stationary mix: ``(state, share of time)`` over a long
    trace of the kiosk traffic, in state order."""
    env = kiosk_environment(0)
    share: dict[int, float] = {}
    for interval in env.trace(KIOSK_MIX_DWELLS * env.mean_dwell):
        share[interval.n_people] = share.get(interval.n_people, 0.0) + interval.duration
    total = sum(share.values())
    return tuple((n, t / total) for n, t in sorted(share.items()))


def kiosk_observations(seed: int, frames: int, day: int = 0,
                       days: int = 1) -> list[tuple[float, int]]:
    """``frames`` per-frame occupancy observations at KIOSK_FPS: day
    ``day`` of the ``days`` days of kiosk traffic of ``seed``.

    The days of a run start from states stratified over the model's
    stationary mix: day ``d`` from the state at quantile ``(d + u) /
    days``, ``u`` drawn once per seed, so every run's mix of states is
    close to the model's rather than only the average over many seeds.
    Each day is the first traffic stream of the seed whose state after
    the burn-in is that state, so within a day the traffic is the
    model's own.
    """
    q = (day + random.Random(f"kiosk-strata:{seed}").random()) / days
    mix = kiosk_mix()
    cumulative = itertools.accumulate(share for _n, share in mix)
    start = next((n for (n, _s), c in zip(mix, cumulative) if q < c), mix[-1][0])
    period = 1.0 / KIOSK_FPS
    for attempt in range(1000):
        env = kiosk_environment((seed * 1000 + day) * 1000 + attempt)
        skip = round(KIOSK_BURN_IN_DWELLS * env.mean_dwell / period)
        if env.trace(skip * period)[-1].n_people != start:
            continue
        obs = list(env.observations((skip + frames + 1) * period, period,
                                    noise_prob=KIOSK_NOISE))[skip:skip + frames]
        if len(obs) != frames:
            raise BenchFailure(f"kiosk traffic gave {len(obs)} observations, not {frames}")
        return obs
    raise BenchFailure(f"no kiosk traffic stream of seed {seed} reaches state {start}")


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


class Result:
    """Accumulates metrics and operation counts for the final JSON line.

    ``units`` maps every metric the benchmark declares to its unit.
    """

    def __init__(self, units: dict[str, str]) -> None:
        self.units = units
        self.metrics: dict[str, float] = {}
        self.notes: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []

    def put(self, name: str, value: float) -> None:
        if name not in self.units:
            raise BenchFailure(f"undeclared metric {name!r}")
        self.metrics[name] = float(value)

    def note(self, line: str) -> None:
        self.notes.append(line)

    def ops(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed

    def mismatch(self, what: str) -> None:
        self.mismatches.append(what)

    def emit(self, names: list[str], absent: Optional[float] = None) -> dict:
        """Print every metric of ``names`` and the final JSON line.

        A metric not measured is an error, unless ``absent`` gives the
        value of a layer the workload does not run.
        """
        missing = [n for n in names if n not in self.metrics]
        if missing and absent is None:
            raise BenchFailure(f"metrics not measured: {missing}")
        values = {n: self.metrics.get(n, absent) for n in names}
        for line in self.notes:
            print(line)
        for name in names:
            flag = "" if name in self.metrics else "  (layer not in this workload)"
            print(f"  {name:<28} {values[name]:>16.6f} {self.units[name]}{flag}")
        for what in self.mismatches:
            print(f"  MISMATCH {what}")
        out = {
            "correct": not self.mismatches,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": {n: {"value": values[n], "unit": self.units[n]} for n in names},
        }
        print(json.dumps(out))
        return out
