"""Micro-benchmarks for the substrates: DES engine, STM, kernels.

Not a paper figure — these establish that the simulation substrate is fast
enough for the experiment scales the figures use, and give a baseline for
profiling regressions (the guides' "no optimization without measuring").

The scaling ladder at the end races the threaded runtime against the
process runtime across 1/2/4(/8)-worker data-parallel tracker schedules,
and the round-trip test measures the broker messages per frame that
step coalescing saves over one round trip per STM op; both emit into the ``BENCH_substrates.json``
summary next to this file.  Wall-clock speedup assertions only fire on
rungs the host can actually parallelize (``cpus >= workers``); a
single-CPU container reports its honest <= 1x numbers instead of failing
and marks the summary with ``"skipped": "insufficient_cores"`` so
artifact consumers never mistake an unasserted run for a passing one.
The round-trip reduction assertion runs everywhere — message counts
don't depend on core count.  ``REPRO_BENCH_QUICK=1`` shrinks the frame
count for CI, and ``trajectory.py`` strings successive summaries into a
regression-gated history.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from _schema import usable_cpus, write_bench
from repro.apps.colormodel import color_histogram
from repro.apps.tracker import kernels
from repro.apps.video import VideoSource
from repro.sim.engine import Simulator
from repro.stm.channel import STMChannel
from repro.stm.gc import collect_channel

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
RESULTS: dict = {"quick": QUICK}


def test_event_throughput(benchmark):
    """Fire 10k chained timeout events."""

    def run():
        sim = Simulator()

        def ticker(sim, n):
            for _ in range(n):
                yield sim.timeout(0.001)

        sim.process(ticker(sim, 10_000))
        sim.run()
        return sim.now

    now = benchmark.pedantic(run, rounds=3, iterations=1)
    assert now == pytest.approx(10.0)


def test_stm_put_get_consume_cycle(benchmark):
    """One full STM item lifecycle x 1000, including GC."""

    def run():
        chan = STMChannel("bench")
        out = chan.attach_output("p")
        inp = chan.attach_input("q")
        for ts in range(1000):
            chan.put(out, ts, ts)
            chan.get(inp, ts)
            chan.consume(inp, ts)
            collect_channel(chan)
        return chan.total_collected

    collected = benchmark.pedantic(run, rounds=3, iterations=1)
    assert collected == 1000


def test_target_detection_kernel(benchmark):
    """The real T4 kernel on a 120x160 frame with 8 models."""
    video = VideoSource(n_targets=8, height=120, width=160, seed=0)
    frame = video.frame(0)
    models = [color_histogram(video.model_patch(i)) for i in range(8)]
    fh = kernels.frame_histogram(frame)
    mask = kernels.change_detection(frame, video.frame(1))

    planes = benchmark(kernels.target_detection, frame, models, fh, mask)
    assert planes.shape == (8, 120, 160)


def test_change_detection_kernel(benchmark):
    video = VideoSource(n_targets=1, height=120, width=160, seed=0)
    a, b = video.frame(0), video.frame(1)
    mask = benchmark(kernels.change_detection, a, b)
    assert mask.dtype == bool


def test_histogram_kernel(benchmark):
    frame = VideoSource(n_targets=1, height=120, width=160, seed=0).frame(0)
    h = benchmark(kernels.frame_histogram, frame)
    assert h.sum() == pytest.approx(1.0)


@pytest.fixture(scope="module", autouse=True)
def _emit_summary():
    yield
    if "substrates" in RESULTS:
        out = write_bench(
            "substrates", RESULTS, Path(__file__).with_name("BENCH_substrates.json")
        )
        print(f"\nsummary written to {out}")


def _tracker_dp_schedule(width: int):
    """T4 fanned over ``width`` workers, the other tasks on procs 0-2."""
    from repro.core.schedule import IterationSchedule, PipelinedSchedule, Placement

    t4 = Placement("T4", tuple(range(width)), 0.122, 2.0,
                   variant=f"dp{width}" if width > 1 else "serial")
    it = IterationSchedule([
        Placement("T1", (0,), 0.0, 0.002),
        Placement("T2", (1,), 0.002, 0.120),
        Placement("T3", (2,), 0.002, 0.080),
        t4,
        Placement("T5", (0,), 2.122, 0.07),
    ])
    return PipelinedSchedule(it, period=2.2, shift=0,
                             n_procs=max(4, width))


def test_substrate_scaling_ladder():
    """Threaded vs. process substrate across a 1/2/4(/8)-worker ladder.

    Each rung fans T4 over ``w`` workers; on the process substrate the
    node worker runs chunk 0 and ``w - 1`` helper processes it forked run
    the rest (a rung whose chunks did not run in ``w`` distinct processes
    fails, on any host), so with enough cores the dp4 rung must beat the
    GIL-serialized threaded runtime by > 1.5x wall-clock.  T4's compute is scaled (``t4_work_scale``) so its
    cost/byte ratio matches the paper's Table 1 hardware — vanilla
    vectorized NumPy finishes the scan in ~1 ms, where transport overhead
    would measure nothing.  The 8-worker rung only runs on hosts with
    >= 8 usable cores, and speedup is asserted only for rungs the host
    can actually run in parallel (``cpus >= workers``); smaller hosts
    report their honest numbers with ``"skipped": "insufficient_cores"``.
    """
    from repro.apps.tracker.graph import attach_kernels, build_tracker_graph
    from repro.runtime.static_exec import StaticExecutor
    from repro.sim.cluster import SINGLE_NODE_SMP
    from repro.state import State

    frames = 4 if QUICK else 10
    n_models = 6
    work_scale = 250 if QUICK else 400  # ~0.35s / ~0.55s serial T4 per frame
    cpus = usable_cpus()
    rungs = [1, 2, 4, 8]

    def run_once(substrate: str, width: int) -> tuple[dict, dict]:
        video = VideoSource(n_targets=n_models, height=120, width=160, seed=42)
        live, statics = attach_kernels(build_tracker_graph(), video,
                                       t4_work_scale=work_scale)
        ex = StaticExecutor(
            live, State(n_models=n_models), SINGLE_NODE_SMP(max(4, width)),
            _tracker_dp_schedule(width), runtime=substrate,
            static_inputs=statics,
        )
        t0 = time.perf_counter()
        result = ex.run(frames)
        wall = time.perf_counter() - t0
        assert result.completed_count == frames
        latencies = [result.latency(ts) for ts in result.completed]
        row = {
            "wall_s": wall,
            "runtime_wall_s": result.meta["wall_time"],
            "mean_frame_latency_s": sum(latencies) / len(latencies),
        }
        if substrate == "process":
            row["broker_roundtrips"] = result.meta["broker_roundtrips"]
            row["broker_ops"] = result.meta["broker_ops"]
            ran = result.meta["dp_executed"].get("T4")
            if ran is not None:
                row["dp_executed"] = {
                    "chunk_runs": [list(run) for run in ran["chunks"]],
                    "processes": len(set(ran["chunk_pids"])),
                    "decision": ran["decision"],
                }
        return row, result.meta["outputs"]["model_locations"]

    # One GIL-serialized baseline: thread wall time is width-insensitive.
    threaded, t_out = run_once("threaded", 4)
    ladder: dict[int, dict] = {}
    for width in rungs:
        if width > 4 and cpus < width:
            # Not even worth running: record the gap explicitly so the
            # CI step summary counts this rung as skipped instead of the
            # ladder silently shrinking on small hosts.
            ladder[width] = {"asserted": False, "skipped": "insufficient_cores"}
            print(f"\n  dp{width} on {cpus} cpu(s): skipped (insufficient cores)")
            continue
        row, p_out = run_once("process", width)
        for ts in range(frames):  # same schedule family, same answers
            assert t_out[ts] == p_out[ts], (width, ts)
        if width > 1:
            # Frame 0 times the serial kernel; every later frame must
            # have run its chunks in ``width`` distinct processes.
            ran = row["dp_executed"]
            assert ran["processes"] == width, (width, ran)
            assert ran["chunk_runs"] == [[0, 0, 1], [1, frames - 1, width]], (width, ran)
        row["speedup_over_threaded"] = (
            threaded["runtime_wall_s"] / row["runtime_wall_s"]
        )
        row["asserted"] = width >= 4 and cpus >= width
        # Rungs meant to assert (>= 4 workers) that the host cannot
        # parallelize report their honest numbers but carry the reason.
        row["skipped"] = (
            "insufficient_cores" if width >= 4 and cpus < width else None
        )
        ladder[width] = row
        print(
            f"\n  dp{width} on {cpus} cpu(s): "
            f"threaded={threaded['runtime_wall_s']:.2f}s "
            f"process={row['runtime_wall_s']:.2f}s "
            f"speedup={row['speedup_over_threaded']:.2f}x "
            f"roundtrips={row['broker_roundtrips']} "
            f"dp processes={row.get('dp_executed', {}).get('processes', 1)}"
        )

    ran = [w for w, row in ladder.items() if "speedup_over_threaded" in row]
    RESULTS["substrates"] = {
        "frames": frames,
        "n_models": n_models,
        "t4_work_scale": work_scale,
        "cpus": cpus,
        "threaded": threaded,
        "ladder": {str(w): row for w, row in ladder.items()},
        "speedup_process_over_threaded":
            ladder[max(ran)]["speedup_over_threaded"],
        "skipped": None if cpus >= 4 else "insufficient_cores",
    }
    for width, row in ladder.items():
        if row["asserted"]:
            assert row["speedup_over_threaded"] > 1.5, (
                f"process substrate only {row['speedup_over_threaded']:.2f}x "
                f"over threaded at dp{width} on {cpus} cores"
            )


def test_broker_roundtrip_coalescing():
    """Marginal broker round trips per frame: coalesced steps vs per-op.

    Runs the real tracker graph at work_scale=1 (transport-dominated)
    for 4 and 8 frames; the *marginal* rate ``(rt(8) - rt(4)) / 4``
    excludes one-time costs (static gets, the final flush), so it is the
    steady-state queue crossings per frame.  The per-op baseline is the
    program's STM op count per frame — one round trip per op, as the
    deleted per-op broker protocol took.  Coalescing must cut it by
    >= 3x — this holds on any host, CPU count is irrelevant to message
    counts.
    """
    from repro.apps.tracker.graph import attach_kernels, build_tracker_graph
    from repro.runtime.process import ProcessRuntime
    from repro.state import State

    n_models = 2
    per_frames: dict[int, int] = {}
    ops: dict[int, dict] = {}
    for frames in (4, 8):
        video = VideoSource(n_targets=n_models, height=48, width=64, seed=23)
        live, statics = attach_kernels(
            build_tracker_graph(frame_shape=(48, 64)), video
        )
        rt = ProcessRuntime(live, State(n_models=n_models),
                            static_inputs=statics)
        res = rt.run(frames)
        per_frames[frames] = res.meta["broker_roundtrips"]
        ops[frames] = res.meta["broker_ops"]
    # Collectors run in the broker's process and cost no round trips.
    per_op = sum(len(agent.frame_ops) for agent in rt.program.tasks)
    coalesced = (per_frames[8] - per_frames[4]) / 4
    ratio = per_op / coalesced
    RESULTS["broker_roundtrips"] = {
        "per_op": {"marginal_roundtrips_per_frame": per_op},
        "coalesced": {
            "roundtrips": {str(f): n for f, n in per_frames.items()},
            "ops_at_8_frames": ops[8],
            "marginal_roundtrips_per_frame": coalesced,
        },
        "reduction_ratio": ratio,
    }
    print(
        f"\n  per-frame round trips: per-op={per_op} "
        f"coalesced={coalesced:.1f} ({ratio:.1f}x fewer)"
    )
    assert ratio >= 3.0, (
        f"coalescing only cut round trips {ratio:.2f}x (need >= 3x)"
    )


def test_dynamic_executor_simulation_rate(benchmark, tracker_graph, smp4, m8):
    """Simulated-seconds-per-wall-second of the dynamic executor."""
    from repro.runtime.dynamic import DynamicExecutor
    from repro.sched.handtuned import with_source_period
    from repro.sched.online import PthreadScheduler

    tuned = with_source_period(tracker_graph, 1.0)

    def run():
        return DynamicExecutor(
            tuned, m8, smp4, PthreadScheduler(quantum=0.01)
        ).run(horizon=30.0)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.emitted >= 29
