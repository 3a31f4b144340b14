"""Every degraded path is a counted, labelled event (repro.fallbacks).

The ``dp`` site is covered with the process runtime
(``tests/runtime/test_process_runtime.py``,
``tests/integration/test_conformance.py``); here: the registry itself,
``solve_many`` falling back in-process, and the shm threshold falling
back to its default.
"""

from __future__ import annotations

import pytest

from repro.core import parallel
from repro.core.optimal import OptimalScheduler
from repro.fallbacks import fallback_counts, record_fallback, recent_fallbacks
from repro.obs import Observability
from repro.sim.cluster import ClusterSpec
from repro.state import State
from repro.stm import process as stm_process


def count(site: str) -> int:
    return fallback_counts().get(site, 0)


class TestRecord:
    def test_counts_process_wide_and_in_the_bundle(self):
        obs = Observability()
        before = count("dp")
        event = record_fallback("dp", "T4 ran serially", obs)
        assert event == {"site": "dp", "detail": "T4 ran serially"}
        assert count("dp") == before + 1
        series = obs.snapshot()["repro_fallbacks_total"]["series"]
        assert series == [{"labels": {"site": "dp"}, "value": 1.0}]
        assert recent_fallbacks()[-1] == event

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError):
            record_fallback("teleport", "nope")

    def test_recent_events_are_bounded(self):
        for i in range(200):
            record_fallback("solve_many", f"event {i}")
        recent = recent_fallbacks()
        assert len(recent) < 200
        assert recent[-1]["detail"] == "event 199"


class TestSolveMany:
    def test_broken_pool_runs_in_process_and_counts(self, tracker_graph,
                                                    monkeypatch):
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise OSError("fork refused")

        sched = OptimalScheduler(ClusterSpec(nodes=2, procs_per_node=2))
        reqs = [sched.request(tracker_graph, State(n_models=m)) for m in (1, 2)]
        expected = parallel.solve_many(reqs, workers=1)
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", NoPool)
        before = count("solve_many")
        got = parallel.solve_many(reqs, workers=2)
        assert [s.latency for s in got] == [s.latency for s in expected]
        assert count("solve_many") == before + 1
        assert recent_fallbacks()[-1] == {
            "site": "solve_many",
            "detail": "2 requests ran in-process: OSError: fork refused",
        }

    def test_in_process_by_request_is_no_fallback(self, tracker_graph):
        sched = OptimalScheduler(ClusterSpec(nodes=2, procs_per_node=2))
        before = count("solve_many")
        parallel.solve_many([sched.request(tracker_graph, State(n_models=1))],
                            workers=1)
        assert count("solve_many") == before


class TestShmCalibration:
    @pytest.fixture(autouse=True)
    def _fresh_calibration(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHM_THRESHOLD", raising=False)
        monkeypatch.setattr(stm_process, "_ACTIVE_SHM_THRESHOLD", None)
        monkeypatch.setattr(stm_process, "_SHM_FALLBACK", None)

    def test_failed_calibration_counts_and_reports(self, monkeypatch):
        def broken(*args, **kwargs):
            raise OSError("no /dev/shm")

        monkeypatch.setattr(stm_process, "_calibrate", broken)
        before = count("shm_calibration")
        assert stm_process.resolve_shm_threshold() == stm_process.SHM_THRESHOLD_BYTES
        reason = "calibration raised OSError: no /dev/shm"
        assert stm_process.shm_threshold_fallback() == reason
        assert count("shm_calibration") == before + 1
        # Cached: later resolutions neither re-measure nor re-count.
        stm_process.resolve_shm_threshold()
        assert count("shm_calibration") == before + 1
        assert stm_process.ChannelBroker({}).shm_fallback == reason

    def test_measured_threshold_is_no_fallback(self, monkeypatch):
        monkeypatch.setattr(stm_process, "_calibrate", lambda: (2048, None))
        before = count("shm_calibration")
        assert stm_process.resolve_shm_threshold() == 2048
        assert stm_process.shm_threshold_fallback() is None
        assert count("shm_calibration") == before

    def test_pinned_threshold_is_no_fallback(self, monkeypatch):
        monkeypatch.setattr(stm_process, "_calibrate",
                            lambda: (4096, "shm never won"))
        stm_process.resolve_shm_threshold()
        assert stm_process.shm_threshold_fallback() == "shm never won"
        monkeypatch.setenv("REPRO_SHM_THRESHOLD", "4096")
        assert stm_process.shm_threshold_fallback() is None
