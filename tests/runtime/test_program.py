"""Program conformance: the live substrates run the program the model checks.

:func:`~repro.analysis.model.build_model` compiles its agents from
:class:`~repro.runtime.dispatch.TaskProgram`.  These tests pin that the
runtimes execute that same program, on the tracker and every workload
family:

* threaded — each agent's applied STM ops, recorded through the
  channels' ``obs`` hooks, equal the model agent's ops over the run's
  horizon, op for op;
* process — each committed broker step holds exactly the program's step
  group (:meth:`~repro.runtime.dispatch.Agent.steps`).  The one
  documented refinement: the broker applies a step's consumes before its
  parked puts, which only frees capacity, so the model's verdicts hold.
"""

from __future__ import annotations

import pytest

from repro.analysis.model import build_model
from repro.apps.tracker.graph import attach_kernels, build_tracker_graph
from repro.apps.video import VideoSource
from repro.obs import Observability
from repro.runtime.dispatch import CONSUME, GET, PUT
from repro.runtime.process import ProcessRuntime
from repro.runtime.threaded import ThreadedRuntime
from repro.state import State
from repro.stm.process import ChannelBroker
from repro.workloads import get_family

FRAMES = 4
APPS = ("tracker", "matmul", "fusion", "webinfer")


def live_app(name: str):
    """``(graph, state, static_inputs)`` with real kernels attached."""
    if name == "tracker":
        video = VideoSource(n_targets=2, height=48, width=64, seed=23)
        graph, statics = attach_kernels(build_tracker_graph(frame_shape=(48, 64)), video)
        return graph, State(n_models=2), statics
    fam = get_family(name)
    inst = fam.generate(0)
    graph, statics = fam.attach_kernels(fam.build_graph(inst), inst)
    return graph, list(fam.state_space(inst))[-1], statics


@pytest.mark.parametrize("app", APPS)
def test_threaded_agents_apply_the_model_ops(app):
    graph, state, statics = live_app(app)
    obs = Observability()
    ThreadedRuntime(graph, state, static_inputs=statics, obs=obs).run(FRAMES)
    model = build_model(graph, horizon=FRAMES)
    applied: dict[str, list[tuple]] = {a.name: [] for a in model.agents}
    for span in obs.tracer.spans():
        kind, _, channel = span.name.partition(":")
        if span.cat == "stm" and channel in model.channels:
            applied[span.args["task"]].append((kind, channel, span.timestamp))
    for agent in model.agents:
        expected = [(op.kind, op.channel, op.ts) for op in agent.ops]
        assert applied[agent.name] == expected, agent.name


@pytest.mark.slow
@pytest.mark.parametrize("app", APPS)
def test_process_steps_hold_the_program_step_groups(app, monkeypatch):
    committed: dict[str, list[tuple]] = {}
    dispatch = ChannelBroker._dispatch

    def recording(broker, msg):
        _worker, _seq, op, args = msg
        if op == "step":
            consumes, puts, gets = args[:3]
            ops = [(PUT, ch, ts) for ch, _conn, ts, *_ in puts]
            ops += [(CONSUME, ch, ts) for ch, _conn, ts in consumes]
            ops += [(GET, ch, ts) for ch, _conn, ts in gets]
            conn = (consumes or puts or gets)[0][1]
            committed.setdefault(broker.conn(conn).task, []).append(tuple(ops))
        dispatch(broker, msg)

    monkeypatch.setattr(ChannelBroker, "_dispatch", recording)
    graph, state, statics = live_app(app)
    rt = ProcessRuntime(graph, state, static_inputs=statics, op_timeout=30.0)
    rt.run(FRAMES)
    for agent in rt.program.tasks:
        expected = [ops for _ts, ops in agent.steps(0, FRAMES) if ops]
        assert committed.get(agent.name, []) == expected, agent.name
