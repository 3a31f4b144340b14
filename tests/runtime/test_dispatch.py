"""Flat dispatch tables vs the object walks they replaced.

:class:`FlatSchedule` must reproduce :meth:`PipelinedSchedule.instantiate`
and ``proc_for`` exactly (same rotation arithmetic, same ordering), and
:class:`TaskProgram` must agree with per-channel ``static`` queries and
group its per-timestamp ops into steps that replay them in order — these
equivalences are what lets every substrate dispatch through the compiled
tables without a conformance risk.
"""

from __future__ import annotations

import pytest

from repro.core.schedule import IterationSchedule, PipelinedSchedule, Placement
from repro.graph.taskgraph import TaskGraph
from repro.runtime.dispatch import (
    CONSUME,
    GET,
    PUT,
    FlatSchedule,
    TaskProgram,
    collector_name,
    completion_times,
)


def rotated_schedule() -> PipelinedSchedule:
    it = IterationSchedule([
        Placement("T1", (0,), 0.0, 1.0),
        Placement("T2", (1, 2), 1.0, 2.0, variant="dp2"),
        Placement("T3", (3,), 1.0, 1.5),
        Placement("T4", (0, 1, 2, 3), 3.0, 2.5, variant="dp4"),
    ])
    return PipelinedSchedule(it, period=6.0, shift=1, n_procs=4)


@pytest.fixture
def sched():
    return rotated_schedule()


@pytest.fixture
def flat(sched):
    return FlatSchedule(sched)


class TestFlatSchedule:
    def test_instantiate_matches_reference(self, sched, flat):
        for k in range(12):
            reference = sched.instantiate(k)
            rows = flat.instantiate(k)
            assert len(rows) == len(reference)
            for pl, row in zip(reference, rows):
                assert row.task == pl.task
                assert row.procs == pl.procs
                assert row.start == pytest.approx(pl.start)
                assert row.duration == pytest.approx(pl.duration)
                assert row.variant == pl.variant
                assert row.end == pytest.approx(pl.end)
                assert row.workers == len(pl.procs)
                assert row.primary == pl.procs[0]

    def test_point_queries_match_rows(self, flat):
        for k in range(8):
            for row in flat.instantiate(k):
                assert flat.primary(row.task, k) == row.primary
                assert flat.procs_for(row.task, k) == row.procs

    def test_primary_matches_proc_for(self, sched, flat):
        base = {p.task: p.procs[0] for p in sched.iteration.placements}
        for k in range(8):
            for task, proc in base.items():
                assert flat.primary(task, k) == sched.proc_for(proc, k)

    def test_iter_iterations(self, flat):
        seen = list(flat.iter_iterations(3))
        assert [k for k, _rows in seen] == [0, 1, 2]
        assert all(len(rows) == len(flat) for _k, rows in seen)

    def test_unknown_task_raises(self, flat):
        with pytest.raises(KeyError):
            flat.row("nope")

    def test_no_rotation_schedule(self):
        it = IterationSchedule([Placement("A", (2,), 0.0, 1.0)])
        sched = PipelinedSchedule(it, period=1.0, shift=0, n_procs=3)
        flat = FlatSchedule(sched)
        for k in (0, 5, 11):
            assert flat.primary("A", k) == 2
            assert flat.instantiate(k)[0].start == pytest.approx(k * 1.0)


class TestTaskPlans:
    """Each task's plan in the :class:`TaskProgram` (its :class:`Agent`)."""

    def graph(self) -> TaskGraph:
        from repro.graph.channel import ChannelSpec
        from repro.graph.task import Task

        g = TaskGraph()
        g.add_channel(ChannelSpec("cfg", static=True))
        g.add_channel(ChannelSpec("frames"))
        g.add_channel(ChannelSpec("masks"))
        g.add_channel(ChannelSpec("out"))
        g.add_task(Task("SRC", cost=1.0, outputs=["frames"]))
        g.add_task(Task("MID", cost=1.0, inputs=["frames", "cfg"],
                        outputs=["masks"]))
        g.add_task(Task("SINK", cost=1.0, inputs=["masks", "frames"],
                        outputs=["out"]))
        return g

    def test_classification_matches_graph(self):
        g = self.graph()
        program = TaskProgram(g)
        assert [a.name for a in program.tasks] == ["SRC", "MID", "SINK"]
        for task in g.tasks:
            agent = program[task.name]
            assert agent.static_inputs == tuple(
                ch for ch in task.inputs if g.channel(ch).static
            )
            assert agent.stream_inputs == tuple(
                ch for ch in task.inputs if not g.channel(ch).static
            )
            assert agent.outputs == tuple(task.outputs)
            assert agent.is_source == (task.name in g.source_tasks())

    def test_declared_order_preserved(self):
        program = TaskProgram(self.graph())
        assert program["MID"].static_inputs == ("cfg",)
        assert program["MID"].stream_inputs == ("frames",)
        assert program["SINK"].stream_inputs == ("masks", "frames")
        assert program["SINK"].frame_ops == (
            (GET, "masks"), (GET, "frames"), (PUT, "out"),
            (CONSUME, "masks"), (CONSUME, "frames"),
        )

    def test_indices_are_graph_positions(self):
        g = self.graph()
        program = TaskProgram(g)
        for i, agent in enumerate(program.agents):
            assert agent.index == i
        for i, task in enumerate(g.tasks):
            assert program[task.name].index == i

    def test_one_collector_per_terminal_channel(self):
        program = TaskProgram(self.graph())
        assert program.terminal == ("out",)
        (collector,) = program.collectors
        assert collector.name == collector_name("out")
        assert collector.frame_ops == ((GET, "out"), (CONSUME, "out"))

    def test_steps_replay_the_ops_in_order(self):
        """Applied op by op, the step groups are statics, then every
        frame's ops — and each step is [puts, consumes](ts-1) + gets(ts)."""
        program = TaskProgram(self.graph())
        for agent in program.agents:
            steps = list(agent.steps(2, 5))
            assert [ts for ts, _ops in steps] == [2, 3, 4, None]
            flat = [op for _ts, ops in steps for op in ops]
            statics = [(GET, ch, 0) for ch in agent.static_inputs]
            assert flat == statics + [
                (k, ch, ts) for ts in range(2, 5) for k, ch in agent.frame_ops
            ]
            for ts, ops in steps[1:-1]:
                tail = [(k, ch, ts - 1) for k, ch in agent.frame_ops if k != GET]
                gets = [(k, ch, ts) for k, ch in agent.frame_ops if k == GET]
                assert list(ops) == tail + gets

    def test_wire_fills_statics_then_attaches_every_agent(self):
        program = TaskProgram(self.graph())
        log = []
        wiring = program.wire(
            lambda ch, who: ("in", ch, who),
            lambda ch, who: ("out", ch, who),
            lambda ch, conn: log.append((ch, conn)),
        )
        assert log == [("cfg", ("out", "cfg", "-env-"))]
        assert wiring.conns_in["MID"] == {
            "frames": ("in", "frames", "MID"), "cfg": ("in", "cfg", "MID"),
        }
        assert wiring.conns_out["SRC"] == {"frames": ("out", "frames", "SRC")}
        assert wiring.collector("out") == ("in", "out", collector_name("out"))
        assert wiring.collector("masks") is None

    def test_completion_is_the_last_sink_of_frames_all_sinks_finished(self):
        done = {"a": {0: 1.0, 1: 2.0, 2: 3.0}, "b": {0: 1.5, 1: 1.0}}
        assert completion_times(done) == {0: 1.5, 1: 2.0}
        assert completion_times({}) == {}
