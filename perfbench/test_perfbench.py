"""Self-tests of the repo benchmark.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import bank  # noqa: E402
import common  # noqa: E402
import live  # noqa: E402
import live_workloads as lw  # noqa: E402


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


# -- the tail helper ---------------------------------------------------------


@pytest.mark.parametrize("n, pct, value, beyond", [
    (100, 90.0, 90, 10),
    (1000, 99.0, 990, 10),
    (20000, 99.9, 19980, 20),
    (250, 95.0, 238, 12),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, pct, value, beyond):
    assert common.tail(range(1, n + 1)) == (pct, value, beyond)


def test_tail_of_a_tiny_set_falls_back_to_the_median():
    assert common.tail([3.0, 1.0, 2.0]) == (50.0, 2.0, 1)


# -- offline bank ------------------------------------------------------------


def test_offline_bank_layer_spans_account_for_certified_time(tmp_path):
    tracer = common.Tracer()
    bank.trace_layers(tracer)
    try:
        cold, warm, _cache, (hits, misses) = bank.cold_warm(
            bank.full_bank(1), str(tmp_path), 0, tracer)
    finally:
        tracer.restore()
    covered = bank.layer_ms(tracer.children(), cold.span_id, bank.LAYER_SPANS) / 1000.0
    assert abs(cold.wall_s - covered) <= bank.UNATTRIBUTED_TOLERANCE * cold.wall_s
    assert cold.serial == warm.serial
    assert misses == 0 and hits > 0


# -- open-loop latency -------------------------------------------------------


@pytest.mark.parametrize("wl", [lw.TRACKER_DP, lw.WEBINFER_IPC], ids=lambda w: w.name)
def test_every_frame_latency_covers_its_critical_path(wl):
    from repro.core.table import ScheduleTable

    state = wl.state()
    solution = ScheduleTable.build(wl.plain(3), wl.space(), wl.scheduler()).lookup(state)
    frames = 40
    ref = lw.reference(wl, 3, state, frames)
    plans = [wl.plan(3, state, solution, ref, frames, i * frames, wl.period) for i in range(2)]
    rounds = live.run_group(plans)
    for rnd in rounds:
        assert rnd.error is None and not rnd.wrong
        assert len(rnd.latency_ms) == frames
    assert live.check_latency_floor(rounds) == []
    assert all((r.leaked_shm, r.leaked_children) == (0, 0) for r in rounds)


# -- kiosk switches ----------------------------------------------------------


def test_a_lazy_solve_at_a_confirmed_change_lies_inside_its_switch(tmp_path):
    from repro.approx.lazy import LazyScheduleTable

    seed, wl = 1, lw.KIOSK
    # The first stream of this seed whose day confirms a change.
    obs = next(o for o in (common.kiosk_observations(seed, wl.round_frames, day, 20)
                           for day in range(20))
               if any(seg.confirms for seg in lw.plan_segments(o)))
    segments = lw.plan_segments(obs)
    refs = [lw.reference(wl, seed, lw._state(n_models=seg.n_models), wl.round_frames)
            for seg in segments]
    res = common.Result({})
    tracer = common.Tracer()
    tracer.wrap(LazyScheduleTable, "lookup", "lazy.lookup")
    try:
        day = lw.kiosk_day(seed, obs, segments, refs, str(tmp_path), res, tracer)
    finally:
        tracer.restore()
    switches = lw.day_switches(day, segments, res)
    assert not res.mismatches and res.failed == 0
    lookups = [(s[2], s[3]) for s in sorted(tracer.spans, key=lambda s: s[2])
               if s[1] == "lazy.lookup"]
    kinds = [k for k in day.lazy_kinds if k in ("hit", "miss")]
    # Lookups made once the day runs are the switcher's, at a confirmation;
    # on the cold table the first visit to each state is a solve.
    on_path = [(a, b, k) for (a, b), k in zip(lookups, kinds)
               if a > day.rounds[0].entry_abs]
    assert any(k == "miss" for _a, _b, k in on_path)
    for a, b, _k in on_path:
        assert any(start <= a and b <= end for start, end in switches)


# -- seeds -------------------------------------------------------------------


def _first_source_output(wl, seed):
    graph, _statics = wl.live(seed, wl.state())
    source = next(t for t in graph.tasks if t.is_source)
    return next(iter(source.compute(wl.state(), {}).values()))


def test_the_seed_generates_the_inputs():
    for wl in (lw.TRACKER_DP, lw.WEBINFER_IPC):
        assert live.same(_first_source_output(wl, 1), _first_source_output(wl, 1))
        assert not live.same(_first_source_output(wl, 1), _first_source_output(wl, 2))
    assert common.kiosk_observations(1, 300) == common.kiosk_observations(1, 300)
    assert common.kiosk_observations(1, 300) != common.kiosk_observations(2, 300)
    assert common.kiosk_observations(1, 300, 0, 2) != common.kiosk_observations(1, 300, 1, 2)
    order = [[t.name for t in bank.full_bank(seed)] for seed in (1, 1, 2)]
    assert order[0] == order[1] != order[2]


@pytest.mark.parametrize("workload", ["webinfer-ipc", "kiosk-day"])
def test_a_second_seed_runs_clean(workload):
    out = _run(["--workload", workload, "--seed", "7", "--seconds", "3", "--trace", "0"])
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] != 0 for m in result["metrics"].values())


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = _run(["--workload", "tracker-dp", "--seed", "1", "--seconds", "1", "--trace", "0"],
               cwd=tmp_path)
    assert out.returncode != 0
    assert "correct" not in out.stdout
