"""The three live workloads: ``tracker-dp``, ``webinfer-ipc``, ``kiosk-day``.

Each run also certifies the table the workload runs from (cold, then
warm), measures set-up in fresh interpreters, and checks every frame
against the single-threaded reference loop.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Callable, Optional

import bank
from common import (KIOSK_CONFIRM, KIOSK_FPS, BenchFailure, Result, Tracer,
                    kiosk_observations, median, run_cycles, setup_probe, tail)
from live import (Pacer, Plan, Reference, Round, check_latency_floor, median_or, oracle,
                  run_group, stm_paths, summarize_rounds, with_source)

#: Frames per latency-tail pool.  Slow frames (a kernel running a half
#: slower while the host is busy) come and go in a few to twenty per cent
#: of frames; a pool this large puts the tail percentile (p95 and up)
#: beyond most of them instead of on the edge between the two groups.
TAIL_POOL = 400
#: Own-table cold/warm repetitions per measurement cycle, made in two
#: slots of the cycle (median reported).
BANK_REPS = 8


@dataclass
class LiveWorkload:
    """A fixed-state pipeline driven open loop at ``rate`` frames/s."""

    name: str
    substrate: str
    rate: float
    dp_task: str
    plain: Callable[[int], object]               # seed -> scheduling graph
    space: Callable[[], object]
    state: Callable[[], object]
    live: Callable[[int, object], tuple]         # (seed, state) -> (graph, statics)
    round_frames: int = 0       # frames per open-loop round (per day: kiosk)
    rounds_per_cycle: int = 1   # back-to-back open-loop rounds per cycle
    cap_frames: int = 0         # frames per unpaced round
    cycle_s: float = 1.0        # wall seconds one measurement cycle takes

    @property
    def period(self) -> float:
        return 1.0 / self.rate

    def scheduler(self):
        from repro.core.optimal import OptimalScheduler
        from repro.sim.cluster import SINGLE_NODE_SMP

        return OptimalScheduler(SINGLE_NODE_SMP(2))

    def table(self, seed: int) -> bank.BankTable:
        return bank.schedule_table(self.name, self.plain(seed), self.space(),
                                   self.scheduler())

    def pipeline(self, seed: int, state, pacer: Pacer, solution: Callable[[], object],
                 on_frame=None) -> Callable[[], object]:
        """Build a fresh pipeline paced by ``pacer`` now; the callable
        returned only constructs its executor, asking ``solution()`` for
        the schedule at that moment."""
        from repro.runtime.static_exec import StaticExecutor

        graph, statics = self.live(seed, state)
        graph = with_source(graph, lambda compute: pacer.wrap(compute, on_frame))
        cluster = self.scheduler().cluster

        def make():
            return StaticExecutor(graph, state, cluster, solution(),
                                  runtime=self.substrate, static_inputs=statics)

        return make

    def plan(self, seed: int, state, solution, ref: Reference, frames: int,
             first_index: int, period: float) -> Plan:
        """A round of ``frames`` frames of one state at a fixed schedule."""
        pacer = Pacer(period)
        return Plan(self.pipeline(seed, state, pacer, lambda: solution), pacer, frames,
                    self.plain(seed), ref, first_index)


# ---------------------------------------------------------------------------
# Workload definitions
# ---------------------------------------------------------------------------


def _tracker_plain(seed: int):
    from repro.apps.tracker.graph import build_tracker_graph

    return build_tracker_graph()


def _tracker_live(n_targets: int, work_scale: int):
    def live(seed: int, state):
        from repro.apps.tracker.graph import attach_kernels
        from repro.apps.video import VideoSource

        video = VideoSource(n_targets=n_targets, height=120, width=160, seed=seed)
        graph, statics = attach_kernels(_tracker_plain(seed), video,
                                        t4_work_scale=work_scale)
        return graph, {"color_model": statics["color_model"][: state["n_models"]]}

    return live


def _webinfer_instance(seed: int):
    """The frozen ``webinfer-s0`` instance with request/weight streams
    drawn from the benchmark seed (the schedule depends only on params)."""
    from repro.workloads import load_dataset

    inst = next(i for i in load_dataset("webinfer") if i.name == "webinfer-s0")
    return dataclasses.replace(inst, seed=seed)


def _webinfer_plain(seed: int):
    from repro.workloads import WEBINFER

    return WEBINFER.build_graph(_webinfer_instance(seed))


def _webinfer_live(seed: int, state):
    from repro.workloads import WEBINFER

    inst = _webinfer_instance(seed)
    return WEBINFER.attach_kernels(WEBINFER.build_graph(inst), inst)


def _tracker_space(high: int):
    def space():
        from repro.state import StateSpace

        return StateSpace.range("n_models", 1, high)

    return space


def _state(**kw):
    from repro.state import State

    return State(**kw)


def _webinfer_space():
    from repro.workloads import WEBINFER

    return WEBINFER.state_space(_webinfer_instance(0))


# A run is a sequence of measurement cycles (common.run_cycles), each
# holding a little of every measurement (set-up probe, own-table reps, an
# unpaced round, a few open-loop rounds).  Many short rounds also average
# over where the OS happens to place the broker and worker threads, and
# each boundary between back-to-back rounds is one drain-transition
# sample for switch_ms.
TRACKER_DP = LiveWorkload("tracker-dp", "process", 40.0, "T4", _tracker_plain,
                          _tracker_space(8), lambda: _state(n_models=8), _tracker_live(8, 40),
                          round_frames=28, rounds_per_cycle=4, cap_frames=48, cycle_s=4.0)
WEBINFER_IPC = LiveWorkload("webinfer-ipc", "process", 500.0, "infer", _webinfer_plain,
                            _webinfer_space, lambda: _state(arrival_rate=4), _webinfer_live,
                            round_frames=100, rounds_per_cycle=4, cap_frames=400,
                            cycle_s=1.6)
#: Threaded tracker for the kiosk days (round_frames frames each): one to
#: five people in view, the traffic of common.kiosk_observations.
KIOSK = LiveWorkload("kiosk-day", "threaded", KIOSK_FPS, "T4", _tracker_plain,
                     _tracker_space(5), lambda: _state(n_models=5), _tracker_live(5, 40),
                     round_frames=30, cap_frames=60, cycle_s=6.2)
#: Kiosk days per measurement cycle.  More, shorter days stratify each
#: run's mix of states more finely.
KIOSK_DAYS_PER_CYCLE = 4


# ---------------------------------------------------------------------------
# Pieces shared by the live workloads
# ---------------------------------------------------------------------------


class OwnBank:
    """Certifies the workload's own table, one cold/warm rep at a time, so
    the reps can be spread over the whole run."""

    def __init__(self, wl: LiveWorkload, seed: int, scratch: str, res: Result,
                 tracer: Optional[Tracer]) -> None:
        self.table = wl.table(seed)
        self.scratch, self.res, self.tracer = scratch, res, tracer
        self.reps: list[tuple] = []
        self.first: Optional[dict] = None
        self.cache = None

    def rep(self) -> None:
        tracer = self.tracer
        if tracer is not None:
            keep = tracer.wrapped
            bank.trace_layers(tracer)
        try:
            cold, warm, self.cache, hits = bank.cold_warm(
                [self.table], self.scratch, len(self.reps), tracer)
        finally:
            if tracer is not None:
                tracer.restore(keep)
        cold.built = warm.built = None  # keep only the figures of a rep
        self.reps.append((cold, warm, hits))
        self.first = self.first or cold.serial
        self.res.ops(cold.entries + warm.entries)
        name = self.table.name
        if not warm.serial[name] == cold.serial[name] == self.first[name]:
            self.res.ops(0, cold.entries)
            self.res.mismatch(f"{name}: cold/warm tables serialize differently "
                              f"(rep {len(self.reps)})")

    def slot(self, cycle: int, traced: Optional[Tracer]) -> None:
        """Half of one cycle's reps (a step of common.run_cycles)."""
        for _ in range(BANK_REPS // 2):
            self.rep()

    def report(self) -> None:
        self.res.put("certified_bank_s", median(c.wall_s for c, _w, _h in self.reps))
        self.res.put("warm_bank_s", median(w.wall_s for _c, w, _h in self.reps))
        if self.tracer is not None:
            bank.bank_layers(self.res, self.tracer, self.reps)


def probe_setup(workload: str, seed: int, cache_root: str, t0: float) -> float:
    """One set-up measurement; ``t0`` is when the interpreter started the
    benchmark, before anything of the program was imported."""
    from repro.core.cache import ScheduleCache

    wl = {w.name: w for w in (TRACKER_DP, WEBINFER_IPC, KIOSK)}[workload]
    state = wl.state()
    if wl is KIOSK:  # a cold lazy table over an empty cache, as each day starts
        from repro.approx.lazy import LazyScheduleTable

        table = LazyScheduleTable(wl.plain(seed), wl.space(), wl.scheduler(),
                                  cache=ScheduleCache(cache_root))
    else:
        from repro.core.table import ScheduleTable

        table = ScheduleTable.build(wl.plain(seed), wl.space(), wl.scheduler(),
                                    cache=ScheduleCache(cache_root))
    pacer = Pacer(0.0)
    wl.pipeline(seed, state, pacer, lambda: table.lookup(state))().run(2)
    return pacer.entry.value - t0


def live_layers(res: Result, wl: LiveWorkload, rounds: list[Round], ref: Reference) -> None:
    """Generator, kernel, runtime and STM per-layer metrics."""
    from repro.stm.process import resolve_shm_threshold

    pooled = summarize_rounds(rounds)
    lag_pct, lag_tail, _n = tail(pooled["lag"])
    res.put("source.lag_p50_ms", median(pooled["lag"]))
    res.put("source.lag_tail_ms", lag_tail)
    for task, vals in pooled["kernel"].items():
        res.put(f"kernel.{task}.p50_ms", median(vals))
    res.put("kernel.busy_ms_per_frame", median(pooled["busy"]))
    res.put("kernel.critical_p50_ms", median(pooled["critical"]))
    res.put("baseline.serial_frame_ms", median(ref.frame_ms))
    res.put("runtime.nonkernel_p50_ms", median(pooled["nonkernel"]))
    res.put("runtime.dp_speedup",
            median(ref.task_ms[wl.dp_task]) / median(pooled["kernel"][wl.dp_task]))
    ok = [r for r in rounds if r.error is None]
    res.put("runtime.start_ms", median((r.entry_abs - r.run_call_abs) * 1000.0 for r in ok))
    res.put("runtime.drain_ms",
            median((r.run_return_abs - r.last_output_abs) * 1000.0 for r in ok))
    res.put("runtime.leaked_shm", sum(r.leaked_shm for r in rounds))
    res.put("runtime.leaked_children", sum(r.leaked_children for r in rounds))
    res.put("stm.roundtrips_per_frame",
            median_or(r.meta["broker_roundtrips"] / r.frames for r in ok
                      if "broker_roundtrips" in r.meta))
    stream = [s.name for s in wl.plain(0).channels if not s.static]

    def chan_sum(r: Round, keys) -> int:
        stats = r.meta["channel_stats"]
        return sum(stats[ch][k] for ch in stream for k in keys)

    res.put("stm.ops_per_frame",
            median(chan_sum(r, ("puts", "gets", "consumed")) / r.frames for r in ok))
    res.put("stm.bytes_per_frame", median(ref.stream_bytes))
    res.put("stm.shm_threshold_bytes",
            resolve_shm_threshold() if wl.substrate == "process" else 0)
    res.put("stm.gc_collected_frac",
            median(chan_sum(r, ("collected",)) / max(1, chan_sum(r, ("puts",))) for r in ok))
    res.put("stm.live_items_high_water", max(r.live_high_water for r in ok))
    res.note(f"  dp plan: {ok[0].meta.get('dp_plan', 'n/a (threaded)')}; "
             f"source lag tail is p{lag_pct:g}")


def account_frames(res: Result, rounds: list[Round], limit_ms: float) -> tuple[int, int]:
    """Count attempted/failed frames; returns (on_time, attempted)."""
    attempted = sum(r.frames for r in rounds)
    wrong = sum(len(r.wrong) for r in rounds)
    leaks = sum(r.leaked_shm + r.leaked_children for r in rounds)
    res.ops(attempted, wrong + leaks)
    on_time = sum(1 for r in rounds for k, lat in r.latency_ms.items()
                  if lat <= limit_ms and k not in r.wrong)
    for r in rounds:
        if r.error:
            res.mismatch(f"round at frame {r.first_index} failed: {r.error}")
        if r.wrong and not r.error:
            res.mismatch(f"round at frame {r.first_index}: {len(r.wrong)} frames differ "
                         f"from the reference or were lost")
        if r.leaked_shm or r.leaked_children:
            res.mismatch(f"rounds up to frame {r.first_index + r.frames - 1} leaked "
                         f"{r.leaked_shm} shm segments and {r.leaked_children} processes")
    for what in check_latency_floor(rounds):
        res.mismatch(what)
    return on_time, attempted


def report_latency(res: Result, cycles: list[list[Round]], limit_ms: float) -> None:
    """p50: median over cycles of the cycle's median.  Tail: the highest
    percentile with ten frames beyond it, over pools of whole consecutive
    cycles holding at least TAIL_POOL frames, median over pools."""
    per_cycle = [summarize_rounds(group)["latency"] for group in cycles]
    per_cycle = [lat for lat in per_cycle if lat]
    if not per_cycle:
        raise BenchFailure("no frame completed")
    res.put("latency_p50_ms", median(median(lat) for lat in per_cycle))
    pools, pool = [], []
    for lat in per_cycle:
        pool += lat
        if len(pool) >= TAIL_POOL:
            pools.append(pool)
            pool = []
    if pool:
        if pools:
            pools[-1] += pool
        else:
            pools.append(pool)
    tails = [tail(p) for p in pools]
    res.put("latency_tail_ms", median(t[1] for t in tails))
    res.note(f"  latency tail is p{tails[0][0]:g} of {len(pools[0])} frames "
             f"({tails[0][2]} beyond it), median over {len(pools)} pools; "
             f"limit {limit_ms:.3f} ms")


# ---------------------------------------------------------------------------
# tracker-dp / webinfer-ipc: one state, rounds of paced frames
# ---------------------------------------------------------------------------


def run_steady(wl: LiveWorkload, seed: int, seconds: float, tracer: Optional[Tracer],
               res: Result, scratch: str, runner: str, root: str) -> None:
    from repro.core.table import ScheduleTable
    from repro.stm.process import resolve_shm_threshold

    own = OwnBank(wl, seed, scratch, res, tracer)
    own.rep()
    state = wl.state()
    table = ScheduleTable.build(wl.plain(seed), wl.space(), wl.scheduler(), cache=own.cache)
    solution = table.lookup(state)
    variant = {pl.task: pl.variant for pl in solution.iteration.placements}[wl.dp_task]
    res.note(f"  schedule places {wl.dp_task} as {variant}")
    ref = reference(wl, seed, state, max(wl.round_frames, wl.cap_frames))
    cap_rounds: list[Round] = []
    cycles: list[tuple[list[Round], bool]] = []   # (rounds, traced)
    index = [0]

    def plan(frames: int, period: float) -> Plan:
        index[0] += frames
        return wl.plan(seed, state, solution, ref, frames, index[0] - frames, period)

    def capacity(c: int, traced: Optional[Tracer]) -> None:
        cap_rounds.extend(run_group([plan(wl.cap_frames, 0.0)]))

    def open_loop(c: int, traced: Optional[Tracer]) -> None:
        plans = [plan(wl.round_frames, wl.period) for _ in range(wl.rounds_per_cycle)]
        cycles.append((run_group(plans, traced), traced is not None))

    n_cycles = max(3, round(seconds / wl.cycle_s))
    setup = run_cycles(
        n_cycles, lambda: setup_probe(wl.name, seed, own.cache.root.as_posix(), runner, root),
        tracer, own.slot, capacity, own.slot, open_loop)

    rounds = [r for group, _t in cycles for r in group]
    limit_ms = 2000.0 * wl.period
    on_time, attempted = account_frames(res, rounds, limit_ms)
    account_frames(res, cap_rounds, float("inf"))
    untraced = [group for group, t in cycles if not t]
    report_latency(res, untraced, limit_ms)
    res.put("ontime_frac", on_time / attempted)
    res.put("capacity_per_s", median(r.capacity_fps for r in cap_rounds if r.error is None))
    switches = [(b.entry_abs - a.last_due_abs) * 1000.0 for group in untraced
                for a, b in zip(group, group[1:]) if a.error is None and b.error is None]
    res.put("switch_ms", median(switches))
    res.put("setup_s", median(setup))
    own.report()
    res.note(f"  {n_cycles} cycles of {wl.rounds_per_cycle} rounds x {wl.round_frames} "
             f"frames; switch_ms is the drain transition between back-to-back rounds "
             f"(same state), {len(switches)} samples")
    # The calibrated crossover decides which arrays cross the STM through
    # shared memory and which are pickled; it can differ between runs.
    threshold = resolve_shm_threshold()
    res.note(f"  stm shm threshold (resolved in this run): {threshold} B; largest item per "
             f"streaming channel: {stm_paths(ref, threshold)}")
    if tracer is not None:
        live_layers(res, wl, rounds, ref)
        trace_overhead(res, cycles)


def reference(wl: LiveWorkload, seed: int, state, frames: int) -> Reference:
    graph, statics = wl.live(seed, state)
    return oracle(graph, state, statics, frames)


def trace_overhead(res: Result, cycles: list[tuple[list[Round], bool]]) -> None:
    """Traced minus untraced open-loop p50, as a share of the untraced.

    ``cycles`` pairs each cycle's rounds with whether they were traced;
    the p50 of each kind is the median over its cycles of the cycle's
    median, as for latency_p50_ms.
    """
    def p50(traced: bool) -> float:
        return median(median(summarize_rounds(group)["latency"])
                      for group, t in cycles if t == traced)

    base = p50(False)
    res.put("trace.overhead_frac", (p50(True) - base) / base)


# ---------------------------------------------------------------------------
# kiosk-day: regime changes on the user's path
# ---------------------------------------------------------------------------


@dataclass
class Segment:
    first: int      # index of the segment's first frame in the day
    last: int       # index of its last frame
    n_models: int
    confirms: bool  # the last frame's observation confirms a change


def plan_segments(obs: list[tuple[float, int]]) -> list[Segment]:
    """Where a detector with the on-path settings confirms each change.

    The runtimes take a frame count up front, so the benchmark needs the
    segment lengths before it starts a segment; the switcher on the
    user's path must then confirm at exactly these frames.
    """
    detector = _detector(obs)
    segments, first = [], 0
    current = detector.current["n_models"]
    for g, (t, value) in enumerate(obs):
        change = detector.observe(t, value)
        if change is not None:
            segments.append(Segment(first, g, current, True))
            first, current = g + 1, change.new["n_models"]
    if first < len(obs):
        segments.append(Segment(first, len(obs) - 1, current, False))
    return segments


def _detector(obs):
    from repro.core.regime import RegimeDetector

    return RegimeDetector("n_models", _state(n_models=obs[0][1]),
                          confirm=KIOSK_CONFIRM, space=KIOSK.space())


class LazyCounter:
    """Duck-typed observability hook counting lazy-table hits and misses."""

    def __init__(self) -> None:
        self.kinds: list[str] = []

    def on_lazy(self, kind: str) -> None:
        self.kinds.append(kind)

    def on_approx_solve(self, policy, gap) -> None:
        pass


@dataclass
class Day:
    """One kiosk day as it ran: a round per regime segment."""

    rounds: list[Round]
    confirmed: dict[int, float]      # global frame -> when its confirming observation arrived
    observe_us: list[float]
    lazy_kinds: list[str]
    states: list                     # the state of the schedule each segment ran


def kiosk_day(seed: int, obs, segments: list[Segment], refs: list[Reference],
              scratch: str, res: Result, tracer: Optional[Tracer]) -> Day:
    """Run the day: a cold lazy table behind a regime switcher, observed
    on every frame by the source kernel; every confirmed change drains
    the running executor and starts the new state's schedule.

    Every segment's pipeline is built before the day starts, and all the
    segments share one due clock, so a frame's latency includes the time
    its segment waited for the switch before it.
    """
    from repro.approx.lazy import LazyScheduleTable
    from repro.core.table import RegimeSwitcher

    wl = KIOSK
    counter = LazyCounter()
    lazy = LazyScheduleTable(wl.plain(seed), wl.space(), wl.scheduler(),
                             cache=bank.fresh_cache(scratch), obs=counter)
    switcher = RegimeSwitcher(lazy, _detector(obs))
    day = Day([], {}, [], counter.kinds, [])

    def observe(g: int) -> None:
        # A switch starts when its confirming observation arrives, so the
        # lookup (a solve on a lazy-table miss) that observe() makes lies
        # inside it.
        t = time.perf_counter()
        record = switcher.observe(*obs[g])
        day.observe_us.append((time.perf_counter() - t) * 1e6)
        if record is not None:
            day.confirmed[g] = t

    def active():
        day.states.append(switcher.active.state)
        return switcher.active

    clock = None
    plans = []
    topology = wl.plain(seed)
    for seg, ref in zip(segments, refs):
        pacer = Pacer(wl.period, clock, seg.first)
        clock = pacer.clock
        make = wl.pipeline(seed, _state(n_models=seg.n_models), pacer, active,
                           on_frame=lambda k, first=seg.first: observe(first + k))
        plans.append(Plan(make, pacer, seg.last - seg.first + 1, topology, ref, seg.first))
    day.rounds = run_group(plans, tracer)
    for seg, state in zip(segments, day.states):
        if state != _state(n_models=seg.n_models):
            res.mismatch(f"frame {seg.first}: switcher is in {state}, segment needs "
                         f"n_models={seg.n_models}")
    return day


def day_switches(day: Day, segments: list[Segment], res: Result,
                 tracer: Optional[Tracer] = None) -> list[tuple[float, float]]:
    """(start, end) of each switch, from the observation that confirmed it
    to the new segment's first frame entering; a change confirmed at the
    wrong frame is a failure."""
    expected = {s.last for s in segments if s.confirms}
    missed = sorted(expected - set(day.confirmed))
    extra = sorted(set(day.confirmed) - expected)
    if missed or extra:
        res.mismatch(f"switcher confirmed changes at frames {sorted(day.confirmed)}, "
                     f"the plan expects {sorted(expected)}")
    res.ops(len(expected), len(missed) + len(extra))
    switches = [(day.confirmed[seg.last], nxt.entry_abs)
                for seg, nxt in zip(segments, day.rounds[1:])
                if seg.last in day.confirmed and nxt.error is None]
    if tracer is not None:
        for i, (start, end) in enumerate(switches):
            tracer.add("switch", start, end, rid=i)
    return switches


def transient_frames(day: Day, switches: list[tuple[float, float]]) -> int:
    """Frames of the day due during a switch or within one switch
    duration after it ends: those whose latency the restart shapes."""
    windows = [(start, end + (end - start)) for start, end in switches]
    return sum(1 for r in day.rounds if r.error is None for k in range(r.frames)
               if any(a <= r.anchor_abs + k * r.period < b for a, b in windows))


def run_kiosk(seed: int, seconds: float, tracer: Optional[Tracer], res: Result,
              scratch: str, runner: str, root: str) -> None:
    from repro.approx.lazy import LazyScheduleTable
    from repro.core.table import ScheduleTable

    wl = KIOSK
    own = OwnBank(wl, seed, scratch, res, tracer)
    own.rep()
    cap_state = wl.state()
    cap_ref = reference(wl, seed, cap_state, max(wl.cap_frames, wl.round_frames))
    cap_solution = ScheduleTable.build(wl.plain(seed), wl.space(), wl.scheduler(),
                                       cache=own.cache).lookup(cap_state)
    # Every segment restarts its kernels, so a segment of state n replays
    # the first frames of state n's reference: one reference per state.
    by_state: dict[int, Reference] = {wl.state()["n_models"]: cap_ref}

    def ref_for(n: int) -> Reference:
        if n not in by_state:
            by_state[n] = reference(wl, seed, _state(n_models=n), wl.round_frames)
        return by_state[n]

    cap_rounds: list[Round] = []
    # (day, its switches, traced); a traced run plays every cycle's days
    # twice, untraced and then traced, in the time of one untraced cycle.
    days: list[tuple[Day, list[tuple[float, float]], bool]] = []
    planned: list[tuple] = []     # (observations, segments, references) per day
    n_cycles = max(3, round(seconds / wl.cycle_s))
    n_days = KIOSK_DAYS_PER_CYCLE * (n_cycles if tracer is None else (n_cycles + 1) // 2)

    def capacity(c: int, traced: Optional[Tracer]) -> None:
        cap_rounds.extend(run_group([wl.plan(seed, cap_state, cap_solution, cap_ref,
                                             wl.cap_frames, c, 0.0)]))

    def play_days(c: int, traced: Optional[Tracer]) -> None:
        if traced is None:
            first = KIOSK_DAYS_PER_CYCLE * (c if tracer is None else c // 2)
            planned.clear()
            for d in range(first, first + KIOSK_DAYS_PER_CYCLE):
                obs = kiosk_observations(seed, wl.round_frames, d, n_days)
                segments = plan_segments(obs)
                planned.append((obs, segments, [ref_for(seg.n_models) for seg in segments]))
        else:
            keep = traced.wrapped
            traced.wrap(LazyScheduleTable, "lookup", "lazy.lookup")
        try:
            for obs, segments, refs in planned:
                day = kiosk_day(seed, obs, segments, refs, scratch, res, traced)
                days.append((day, day_switches(day, segments, res, traced),
                             traced is not None))
        finally:
            if traced is not None:
                traced.restore(keep)

    setup = run_cycles(
        n_cycles, lambda: setup_probe(wl.name, seed, bank.fresh_cache(scratch).root.as_posix(),
                                      runner, root),
        tracer, own.slot, capacity, own.slot, play_days)

    limit_ms = 2000.0 * wl.period
    all_rounds = [r for day, _s, _t in days for r in day.rounds]
    on_time, attempted = account_frames(res, all_rounds, limit_ms)
    account_frames(res, cap_rounds, float("inf"))
    plain = [(day, sw) for day, sw, t in days if not t]
    # One pool: the run's mix of states is stratified over all its days.
    report_latency(res, [[r for day, _sw in plain for r in day.rounds]], limit_ms)
    res.put("ontime_frac", on_time / attempted)
    res.put("capacity_per_s", median(r.capacity_fps for r in cap_rounds if r.error is None))
    switch_ms = [(end - start) * 1000.0 for _day, sw in plain for start, end in sw]
    if not switch_ms:
        raise BenchFailure("the kiosk days produced no regime change")
    res.put("switch_ms", median(switch_ms))
    res.put("setup_s", median(setup))
    own.report()
    frames = sum(r.frames for day, _sw in plain for r in day.rounds)
    transient = sum(transient_frames(day, sw) for day, sw in plain) / frames
    res.note(f"  {len(plain)} days of {wl.round_frames} frames, {len(switch_ms)} regime "
             f"switches; {100.0 * transient:.1f}% of frames are due during a switch or "
             f"within one switch duration after it")
    if tracer is None:
        return

    traced_days = [(day, sw) for day, sw, t in days if t]
    lookups = tracer.durations("lazy.lookup")
    # Each lookup reports exactly one hit or miss, in call order; only the
    # traced days' lazy tables were looked up through the wrapper.
    kinds = [k for day, _sw in traced_days for k in day.lazy_kinds if k in ("hit", "miss")]
    res.put("regime.observe_us_p50",
            median(v for day, _sw in traced_days for v in day.observe_us))
    res.put("regime.switches", sum(len(sw) for _d, sw in traced_days) / len(traced_days))
    res.put("regime.transient_frac",
            sum(transient_frames(day, sw) for day, sw in traced_days)
            / sum(r.frames for day, _sw in traced_days for r in day.rounds))
    res.put("lazy.misses", kinds.count("miss") / len(traced_days))
    res.put("lazy.miss_ms_p50",
            median_or(d * 1000.0 for d, k in zip(lookups, kinds) if k == "miss"))
    res.put("lazy.hit_us_p50",
            median_or(d * 1e6 for d, k in zip(lookups, kinds) if k == "hit"))
    refs = list(by_state.values())
    pooled = Reference({}, {t: [v for rf in refs for v in rf.task_ms[t]]
                            for t in refs[0].task_ms},
                       [v for rf in refs for v in rf.frame_ms],
                       [v for rf in refs for v in rf.stream_bytes],
                       {ch: max(rf.item_bytes[ch] for rf in refs)
                        for ch in refs[0].item_bytes}, refs[0].arrays)
    live_layers(res, wl, [r for day, _sw in traced_days for r in day.rounds], pooled)
    trace_overhead(res, [(day.rounds, t) for day, _sw, t in days])
