"""Integration tests for the process-parallel runtime.

Every test forks real worker processes, so graphs and frame counts stay
small — the cross-substrate semantics are covered separately by
``tests/integration/test_conformance.py``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.apps.tracker.graph import attach_kernels, build_tracker_graph
from repro.apps.video import VideoSource
from repro.core.schedule import IterationSchedule, PipelinedSchedule, Placement
from repro.errors import ReproError
from repro.graph.channel import ChannelSpec
from repro.graph.task import Task
from repro.graph.taskgraph import TaskGraph
from repro.obs import Observability
from repro.runtime import process as process_runtime
from repro.runtime.process import (
    KernelFault,
    ProcessFaultPlan,
    ProcessRuntime,
    _fork_chunk_helper,
)
from repro.runtime.static_exec import StaticExecutor
from repro.sim.cluster import SINGLE_NODE_SMP
from repro.state import State

pytestmark = pytest.mark.slow


def chain_graph_live() -> TaskGraph:
    g = TaskGraph("chain")
    g.add_channel(ChannelSpec("a", item_bytes=80_000))
    g.add_channel(ChannelSpec("b", item_bytes=80_000))
    g.add_task(Task("src", cost=0.01, outputs=["a"],
                    compute=lambda s, ins: {"a": np.full((100, 100), 1.0)}))
    g.add_task(Task("dbl", cost=0.01, inputs=["a"], outputs=["b"],
                    compute=lambda s, ins: {"b": ins["a"] * 2}))
    return g


def tracker_setup(n_models: int = 2, shape: tuple[int, int] = (48, 64),
                  t4_work_scale: int = 1):
    video = VideoSource(n_targets=n_models, height=shape[0], width=shape[1],
                        seed=11)
    live, statics = attach_kernels(
        build_tracker_graph(frame_shape=shape), video,
        t4_work_scale=t4_work_scale,
    )
    return live, statics, State(n_models=n_models)


#: T4 at this scale takes ~10 ms a frame (identical outputs), far above
#: any broker round trip, so the measured fan-out rule splits it.
HEAVY_T4 = 300


def per_frame(ran: dict) -> dict[int, int]:
    """A ``dp_executed`` entry's chunk runs as ``{ts: chunks run}``."""
    return {ts: n for first, last, n in ran["chunks"]
            for ts in range(first, last + 1)}


def alive(pid: int) -> bool:
    """Whether ``pid`` is a live (not exited, not zombie) process."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state not in ("Z", "X")


def children_of(pids) -> list[int]:
    """Live processes whose parent is one of ``pids`` (a /proc scan)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (FileNotFoundError, ProcessLookupError):
            continue
        if int(fields[1]) in pids and fields[0] not in ("Z", "X"):
            found.append(int(entry))
    return found


def log_chunks(graph: TaskGraph, path, fail=None) -> None:
    """Make T4's chunk kernel append ``pid chunk_index`` to ``path``;
    ``fail(call)`` -> True makes a helper's ``call``-th chunk raise."""
    task = graph.task("T4")
    inner = task.compute_chunk
    calls = [0]

    def chunk(state, inputs, index, n_chunks):
        with open(path, "a") as fh:
            fh.write(f"{os.getpid()} {index}\n")
        if index > 0:
            calls[0] += 1
            if fail is not None and fail(calls[0]):
                raise ValueError(f"boom in chunk call {calls[0]}")
        return inner(state, inputs, index, n_chunks)

    task.compute_chunk = chunk


def logged_helpers(path) -> set[int]:
    """PIDs that ran a chunk other than chunk 0."""
    with open(path) as fh:
        return {int(pid) for pid, index in (line.split() for line in fh)
                if int(index) > 0}


def dp2_schedule() -> PipelinedSchedule:
    it = IterationSchedule([
        Placement("T1", (0,), 0.0, 0.002),
        Placement("T2", (1,), 0.002, 0.120),
        Placement("T3", (2,), 0.002, 0.080),
        Placement("T4", (2, 3), 0.122, 0.9, variant="dp2"),
        Placement("T5", (0,), 1.022, 0.03),
    ])
    return PipelinedSchedule(it, period=1.1, shift=0, n_procs=4)


class TestBasicRun:
    def test_two_node_chain(self):
        res = ProcessRuntime(
            chain_graph_live(), State(n_models=1), op_timeout=30.0,
            placement={"src": 0, "dbl": 1},
        ).run(5)
        assert sorted(res.outputs["b"]) == list(range(5))
        assert all(v[0, 0] == 2.0 for v in res.outputs["b"].values())
        assert len(res.digitize_times) == 5
        assert len(res.completion_times) == 5
        for ts in res.completion_times:
            assert res.completion_times[ts] >= res.digitize_times[ts]
        assert res.channel_stats["a"]["collected"] == 5
        assert res.channel_stats["b"]["collected"] == 5

    def test_spans_cover_every_frame(self):
        res = ProcessRuntime(
            chain_graph_live(), State(n_models=1), op_timeout=30.0,
            placement={"src": 0, "dbl": 1},
        ).run(4)
        by_task = {}
        for s in res.spans:
            by_task.setdefault(s.task, set()).add(s.timestamp)
        assert by_task["src"] == set(range(4))
        assert by_task["dbl"] == set(range(4))


class TestCoalescing:
    def test_one_roundtrip_per_program_step(self):
        """Every broker round trip is one step of the program's frame
        loop: the per-frame op group, statics first, a final flush."""
        rt = ProcessRuntime(chain_graph_live(), State(n_models=1),
                            op_timeout=30.0, placement={"src": 0, "dbl": 1})
        res = rt.run(5)
        assert sorted(res.outputs["b"]) == list(range(5))
        steps = sum(1 for agent in rt.program.tasks
                    for _ts, ops in agent.steps(0, 5) if ops)
        assert res.meta["broker_roundtrips"] == steps
        assert res.meta["broker_ops"]["step"] == steps


class TestScheduleDriven:
    def test_tracker_dp_schedule(self):
        """A dp2 placement runs T4's two chunks in two processes: chunk 0
        in the node worker, chunk 1 in the helper the worker forked."""
        live, statics, state = tracker_setup(t4_work_scale=HEAVY_T4)
        ex = StaticExecutor(
            live, state, SINGLE_NODE_SMP(4), dp2_schedule(),
            runtime="process", static_inputs=statics,
        )
        res = ex.run(4)
        assert res.completed_count == 4
        assert res.meta["dp_plan"]["T4"] == (2, "dp2")
        locs = res.meta["outputs"]["model_locations"]
        assert all(len(locs[ts]) == 2 for ts in range(4))
        ran = res.meta["dp_executed"]["T4"]
        decision = ran["decision"]
        assert decision["fan_out"]
        assert decision["serial_s"] / 2 > decision["roundtrip_s"] > 0
        # Frame 0 measures the serial kernel; every later frame is split.
        assert ran["chunks"] == [(0, 0, 1), (1, 3, 2)]
        (worker,) = ran["worker_pids"]
        assert len(set(ran["chunk_pids"])) == 2
        assert set(ran["chunk_pids"]) - {worker} == set(ran["helper_pids"])
        assert worker not in ran["helper_pids"]
        assert not [f for f in res.meta["fallbacks"] if f["site"] == "dp"]

    def test_dp_matches_serial_output(self):
        """Chunked T4 reproduces the serial kernel exactly (Figure 9)."""
        live, statics, state = tracker_setup(t4_work_scale=HEAVY_T4)
        dp = StaticExecutor(
            live, state, SINGLE_NODE_SMP(4), dp2_schedule(),
            runtime="process", static_inputs=statics,
        ).run(3)
        assert dp.meta["dp_executed"]["T4"]["chunks"] == [(0, 0, 1), (1, 2, 2)]
        live2, statics2, _ = tracker_setup(t4_work_scale=HEAVY_T4)
        serial = StaticExecutor(
            live2, state, SINGLE_NODE_SMP(4), dp2_schedule(),
            runtime="threaded", static_inputs=statics2,
        ).run(3)
        for ts in range(3):
            assert (dp.meta["outputs"]["model_locations"][ts]
                    == serial.meta["outputs"]["model_locations"][ts])

    def test_unpaying_dp_runs_serial_and_says_why(self):
        """T4 at work scale 1 on a tiny frame is far cheaper than a round
        trip once warm; whatever the first frame measured, the decision,
        what ran and the fallback record agree."""
        obs = Observability()
        live, statics, state = tracker_setup(shape=(24, 32))
        res = StaticExecutor(
            live, state, SINGLE_NODE_SMP(4), dp2_schedule(),
            runtime="process", static_inputs=statics, obs=obs,
        ).run(3)
        ran = res.meta["dp_executed"]["T4"]
        decision = ran["decision"]
        fan_out = decision["serial_s"] / 2 > decision["roundtrip_s"]
        assert decision["fan_out"] == fan_out
        assert per_frame(ran) == {0: 1, 1: 1 + fan_out, 2: 1 + fan_out}
        dp_fallbacks = [f for f in res.meta["fallbacks"] if f["site"] == "dp"]
        assert len(dp_fallbacks) == (not fan_out)
        total = {s["labels"]["site"]: s["value"]
                 for s in obs.snapshot()["repro_fallbacks_total"]["series"]}
        assert total.get("dp", 0) == (not fan_out)


class TestChunkHelpers:
    """Helper lifecycle: re-fork after a node death, kernel errors under
    the retry budget, no helper outliving its run."""

    def run_dp(self, live, statics, state, frames, faults=None):
        return ProcessRuntime(
            live, state, static_inputs=statics, schedule=dp2_schedule(),
            cluster=SINGLE_NODE_SMP(4), op_timeout=30.0, faults=faults,
        ).run(frames)

    def test_exit_fault_refork_helpers_and_match_serial(self, tmp_path):
        log = tmp_path / "chunks.log"
        live, statics, state = tracker_setup(t4_work_scale=HEAVY_T4)
        log_chunks(live, log)
        plan = ProcessFaultPlan(events=[KernelFault("T4", 2, "exit")],
                                max_respawns=1)
        res = self.run_dp(live, statics, state, 6, faults=plan)
        assert res.respawns == 1
        # The dead worker's helper ran frame 1's chunk; the respawned
        # worker measured frame 2 serially and forked a new helper.
        helpers = logged_helpers(log)
        assert len(helpers) == 2
        ran = res.meta["dp_executed"]["T4"]
        (worker,) = ran["worker_pids"]  # the dead worker sent no record
        assert worker not in helpers
        assert set(ran["helper_pids"]) < helpers
        assert {ts: per_frame(ran)[ts] for ts in (3, 4, 5)} == {3: 2, 4: 2, 5: 2}
        assert not [pid for pid in helpers if alive(pid)]

        live2, statics2, _ = tracker_setup(t4_work_scale=HEAVY_T4)
        serial = StaticExecutor(
            live2, state, SINGLE_NODE_SMP(4), dp2_schedule(),
            runtime="threaded", static_inputs=statics2,
        ).run(6)
        for ts in range(6):
            assert (res.outputs["model_locations"][ts]
                    == serial.meta["outputs"]["model_locations"][ts]), ts

    def test_chunk_error_absorbed_by_retry(self, tmp_path):
        log = tmp_path / "chunks.log"
        live, statics, state = tracker_setup(t4_work_scale=HEAVY_T4)
        log_chunks(live, log, fail=lambda call: call == 2)
        res = self.run_dp(live, statics, state, 4,
                          faults=ProcessFaultPlan(kernel_retries=1))
        assert res.kernel_retries == 1
        assert sorted(res.outputs["model_locations"]) == [0, 1, 2, 3]
        assert per_frame(res.meta["dp_executed"]["T4"])[2] == 2

    def test_chunk_error_beyond_retries_raises(self, tmp_path):
        log = tmp_path / "chunks.log"
        live, statics, state = tracker_setup(t4_work_scale=HEAVY_T4)
        log_chunks(live, log, fail=lambda call: True)
        with pytest.raises(ReproError, match="boom in chunk call 2"):
            self.run_dp(live, statics, state, 4,
                        faults=ProcessFaultPlan(kernel_retries=1))
        helpers = logged_helpers(log)
        assert len(helpers) == 1
        assert not [pid for pid in helpers if alive(pid)]

    def test_lost_helper_surfaces_as_repro_error(self, tmp_path):
        """A helper that dies mid-run leaves its pipe out of step: the
        task retires every helper and fails loudly, retries included."""
        log = tmp_path / "chunks.log"
        live, statics, state = tracker_setup(t4_work_scale=HEAVY_T4)
        log_chunks(live, log)
        task = live.task("T4")
        logged = task.compute_chunk
        calls = [0]

        def dying(state, inputs, index, n_chunks):
            if index > 0:
                calls[0] += 1
                if calls[0] == 2:
                    os._exit(3)
            return logged(state, inputs, index, n_chunks)

        task.compute_chunk = dying
        with pytest.raises(ReproError, match="chunk helper lost"):
            self.run_dp(live, statics, state, 4,
                        faults=ProcessFaultPlan(kernel_retries=1))
        helpers = logged_helpers(log)
        assert len(helpers) == 1
        assert not [pid for pid in helpers if alive(pid)]

    def test_helper_that_cannot_start_fails_the_run(self, monkeypatch):
        def no_fork():
            raise OSError("fork refused")

        monkeypatch.setattr(os, "fork", no_fork)
        with pytest.raises(ReproError, match="cannot start a chunk helper"):
            _fork_chunk_helper(State(n=1), {})
        monkeypatch.undo()

        def refused(state, tasks):
            raise ReproError("cannot start a chunk helper: fork refused")

        monkeypatch.setattr(process_runtime, "_fork_chunk_helper", refused)
        live, statics, state = tracker_setup(t4_work_scale=HEAVY_T4)
        with pytest.raises(ReproError, match="cannot start a chunk helper"):
            self.run_dp(live, statics, state, 3,
                        faults=ProcessFaultPlan(kernel_retries=1))

    def test_no_helper_outlives_its_run(self):
        for _ in range(2):
            live, statics, state = tracker_setup(t4_work_scale=HEAVY_T4)
            res = self.run_dp(live, statics, state, 3)
            ran = res.meta["dp_executed"]["T4"]
            assert ran["helper_pids"]
            assert not [pid for pid in ran["helper_pids"] if alive(pid)]
            assert not children_of(set(ran["worker_pids"]))

    def test_helper_exceptions_never_unwind_into_the_caller(self):
        """A helper is a fork of the calling thread: whatever its kernel
        raises (even BaseException) goes back over the pipe, and an
        unshippable result ends the helper, never resumes the caller."""

        class Escape(BaseException):
            pass

        def chunk(state, inputs, index, n_chunks):
            if inputs["kind"] == "raise":
                raise Escape("out of the kernel")
            if inputs["kind"] == "unpicklable":
                return lambda: None
            return index * n_chunks

        task = Task("t", cost=0.01, compute=lambda s, ins: {},
                    compute_chunk=chunk, compute_join=lambda s, ins, p: {})
        me = os.getpid()
        for kind, status in (("raise", 0), ("unpicklable", 1)):
            try:
                pid, conn = _fork_chunk_helper(State(n=1), {"t": task})
            finally:
                if os.getpid() != me:  # a helper escaped into this stack
                    os._exit(99)
            conn.send(("t", {"kind": "ok"}, 1, 2))
            assert conn.recv() == (True, 2)
            conn.send(("t", {"kind": kind}, 1, 2))
            if kind == "raise":
                ok, text = conn.recv()
                assert not ok and "Escape: out of the kernel" in text
            else:
                with pytest.raises(EOFError):
                    conn.recv()
            conn.close()
            _pid, wait_status = os.waitpid(pid, 0)
            assert os.waitstatus_to_exitcode(wait_status) == status


class TestObservability:
    def test_obs_buffers_merge_at_join(self):
        obs = Observability()
        res = ProcessRuntime(
            chain_graph_live(), State(n_models=1), op_timeout=30.0,
            placement={"src": 0, "dbl": 1}, obs=obs,
        ).run(4)
        assert sorted(res.outputs["b"]) == list(range(4))
        spans = obs.tracer.spans()
        execs = [s for s in spans if s.cat == "exec"]
        assert {s.name for s in execs} == {"src", "dbl"}
        stm = [s for s in spans if s.cat == "stm"]
        assert {s.name.split(":")[0] for s in stm} >= {"put", "get", "consume"}
        snap = obs.snapshot()
        frames = snap["repro_frames_completed_total"]["series"][0]["value"]
        assert frames == 4


class TestFaults:
    def test_error_fault_absorbed_by_retry(self):
        plan = ProcessFaultPlan(events=[KernelFault("dbl", 2, "error")],
                                kernel_retries=1)
        res = ProcessRuntime(
            chain_graph_live(), State(n_models=1), op_timeout=30.0,
            placement={"src": 0, "dbl": 1}, faults=plan,
        ).run(5)
        assert sorted(res.outputs["b"]) == list(range(5))
        assert res.kernel_retries == 1
        assert res.respawns == 0

    def test_exit_fault_respawns_and_resumes(self):
        obs = Observability()
        plan = ProcessFaultPlan(events=[KernelFault("dbl", 2, "exit")],
                                max_respawns=2)
        res = ProcessRuntime(
            chain_graph_live(), State(n_models=1), op_timeout=30.0,
            placement={"src": 0, "dbl": 1}, faults=plan, obs=obs,
        ).run(6)
        assert sorted(res.outputs["b"]) == list(range(6))
        assert all(v[0, 0] == 2.0 for v in res.outputs["b"].values())
        assert res.respawns == 1
        snap = obs.snapshot()
        assert snap["repro_failovers_total"]["series"][0]["value"] == 1

    def test_reused_plan_injects_on_every_run(self):
        """A run never consumes the caller's plan: the fired-exit filter
        is local to the run, so a second run respawns again."""
        events = (KernelFault("dbl", 2, "exit"),)
        plan = ProcessFaultPlan(events=events, max_respawns=2)
        for _ in range(2):
            res = ProcessRuntime(
                chain_graph_live(), State(n_models=1), op_timeout=30.0,
                placement={"src": 0, "dbl": 1}, faults=plan,
            ).run(4)
            assert sorted(res.outputs["b"]) == list(range(4))
            assert res.respawns == 1
            assert plan.events == events

    def test_respawn_budget_exhaustion_raises(self):
        plan = ProcessFaultPlan(events=[KernelFault("dbl", 1, "exit")],
                                max_respawns=0)
        with pytest.raises(ReproError, match="respawn budget"):
            ProcessRuntime(
                chain_graph_live(), State(n_models=1), op_timeout=15.0,
                placement={"src": 0, "dbl": 1}, faults=plan,
            ).run(4)

    def test_fault_plan_validation(self):
        with pytest.raises(ReproError):
            KernelFault("t", -1)
        with pytest.raises(ReproError):
            KernelFault("t", 0, kind="meteor")
        with pytest.raises(ReproError):
            ProcessFaultPlan(kernel_retries=-1)


class TestExecutorGuards:
    def test_unknown_runtime_rejected(self):
        live, statics, state = tracker_setup()
        with pytest.raises(ReproError):
            StaticExecutor(live, state, SINGLE_NODE_SMP(4), dp2_schedule(),
                           runtime="quantum")

    def test_live_faults_must_be_process_plan(self):
        live, statics, state = tracker_setup()
        with pytest.raises(ReproError):
            StaticExecutor(
                live, state, SINGLE_NODE_SMP(4), dp2_schedule(),
                runtime="threaded",
                faults=ProcessFaultPlan(),
                static_inputs=statics,
            )

    def test_contended_is_sim_only(self):
        live, statics, state = tracker_setup()
        with pytest.raises(ReproError):
            StaticExecutor(
                live, state, SINGLE_NODE_SMP(4), dp2_schedule(),
                runtime="process", contended=True, static_inputs=statics,
            )
