"""The dynamic executor: free-running task threads + an on-line scheduler.

This is the paper's baseline execution model (§3.2): every task is a
thread; a general on-line scheduler hands out processors in quanta with no
knowledge of the task graph.  All of the pathologies the paper describes
emerge rather than being scripted:

* upstream tasks over-produce while downstream tasks fall behind (channel
  backlogs grow);
* consumers skip to the newest common timestamp ("a downstream task may
  restrict its processing to only the most recent data"), producing
  non-uniform frame coverage;
* threads are preempted mid-item (visible as ``preempted`` spans).

Input policies:

* ``"latest"`` — consume the newest timestamp available on *all* streaming
  inputs (frame-skipping, the Smart Kiosk behaviour);
* ``"inorder"`` — consume every timestamp sequentially (no skipping;
  backlog then shows up purely as latency).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import ExecutorConfigError, ReproError
from repro.graph.task import Task
from repro.graph.taskgraph import TaskGraph
from repro.runtime.dispatch import TaskProgram, completion_times
from repro.runtime.hub import build_hubs, wire_hubs
from repro.runtime.result import ExecutionResult
from repro.sched.online import OnlineScheduler
from repro.sim.cluster import ClusterSpec
from repro.sim.engine import Simulator
from repro.sim.trace import ExecSpan, TraceRecorder
from repro.state import State

if TYPE_CHECKING:  # pragma: no cover - annotation only (avoids an import cycle)
    from repro.faults.events import FaultPlan
    from repro.obs import Observability

__all__ = ["DynamicExecutor"]


class DynamicExecutor:
    """Execute a task graph dynamically under an on-line scheduler.

    Parameters
    ----------
    graph / state / cluster:
        What to run, in which application state, on which cluster.
    scheduler:
        An :class:`~repro.sched.online.OnlineScheduler` (the pthread model).
    input_policy:
        ``"latest"`` (frame-skipping) or ``"inorder"``.
    capacity_override:
        Per-channel capacity overrides (flow-control ablation).
    faults:
        Optional :class:`~repro.faults.events.FaultPlan` injected during
        the run.  The scheduler is bound with a live
        :class:`~repro.faults.view.ClusterView`: dead processors are never
        granted, a slice in flight on a dying processor is lost (the
        thread migrates and redoes that quantum), and recovered nodes
        rejoin the grant pool.  Note the contrast with the fault-tolerance
        subsystem: the on-line model merely *survives* failures — it has
        no shape table to fail over to, so throughput degrades however the
        quantum lottery lands (§3.2 vs §3.4).
    obs:
        Optional :class:`~repro.obs.Observability` bundle.  Quantum spans
        are traced as-is (with their ``preempted`` flag) but excluded from
        cost calibration — a quantum is a slice of a cost, not a cost;
        instead the *aggregated* busy time of each completed (task,
        timestamp) feeds the calibrator.
    """

    def __init__(
        self,
        graph: TaskGraph,
        state: State,
        cluster: ClusterSpec,
        scheduler: OnlineScheduler,
        input_policy: str = "latest",
        capacity_override: Optional[dict[str, Optional[int]]] = None,
        faults: Optional["FaultPlan"] = None,
        obs: Optional["Observability"] = None,
    ) -> None:
        if input_policy not in ("latest", "inorder"):
            raise ExecutorConfigError(f"unknown input policy {input_policy!r}")
        graph.validate()
        self.graph = graph
        self.state = state
        self.cluster = cluster
        self.scheduler = scheduler
        self.input_policy = input_policy
        self.capacity_override = capacity_override
        self.faults = faults
        self.obs = obs
        self._speed = {p.index: p.speed for p in cluster.processors}
        self._view = None
        self._fault_preemptions = 0

    # -- public API ----------------------------------------------------------

    def run(
        self,
        horizon: float,
        max_timestamps: Optional[int] = None,
    ) -> ExecutionResult:
        """Simulate up to ``horizon`` seconds (and/or ``max_timestamps`` frames)."""
        if horizon <= 0:
            raise ExecutorConfigError(f"horizon must be positive, got {horizon}")
        sim = Simulator()
        trace = TraceRecorder()
        hubs = build_hubs(sim, self.graph, trace, self.capacity_override, obs=self.obs)
        injector = None
        self._view = None
        self._fault_preemptions = 0
        if self.faults is not None:
            from repro.faults.inject import FaultInjector
            from repro.faults.view import ClusterView

            self._view = ClusterView(sim, self.cluster)
            injector = FaultInjector(sim, self._view, self.faults)
            injector.start()
            self.scheduler.bind(sim, self.cluster, view=self._view)
        else:
            self.scheduler.bind(sim, self.cluster)

        digitize_times: dict[int, float] = {}
        sink_done: dict[str, dict[int, float]] = {s: {} for s in self.graph.sink_tasks()}
        emitted = [0]

        # Terminal channels (streams no task consumes, e.g. model_locations)
        # are drained by the program's collectors — the application's
        # output side (DECface reads the locations in the real system).
        # Without them, a capacity-bounded terminal channel would fill and
        # block the sink task forever.
        program = TaskProgram(self.graph)
        self._wiring = wiring = wire_hubs(program, hubs, self.state)
        for agent in program.tasks:
            t = agent.task
            conns_in = wiring.conns_in[t.name]
            conns_out = wiring.conns_out[t.name]
            if agent.is_source:
                sim.process(
                    self._source_proc(
                        sim, trace, hubs, t, conns_in, conns_out,
                        digitize_times, emitted, max_timestamps, sink_done,
                    ),
                    name=f"src:{t.name}",
                )
            else:
                sim.process(
                    self._consumer_proc(
                        sim, trace, hubs, t, conns_in, conns_out,
                        list(agent.stream_inputs), sink_done,
                    ),
                    name=f"task:{t.name}",
                )

        sim.run(until=horizon)

        completion = completion_times(sink_done)
        if self.obs is not None:
            for ts in sorted(completion):
                if ts in digitize_times:
                    self.obs.on_frame(ts, completion[ts] - digitize_times[ts])

        gc_total = sum(h.gc_stats.collected for h in hubs.values())
        high_water = sum(h.gc_stats.high_water_items for h in hubs.values())
        return ExecutionResult(
            graph=self.graph,
            state=self.state,
            trace=trace,
            digitize_times=digitize_times,
            completion_times=completion,
            horizon=horizon,
            emitted=emitted[0],
            gc_collected=gc_total,
            live_item_high_water=high_water,
            meta={
                "scheduler": repr(self.scheduler),
                "policy": self.input_policy,
                "faults_applied": len(injector.applied) if injector else 0,
                "fault_preemptions": self._fault_preemptions,
                "dead_procs": sorted(self._view.dead_procs) if self._view else [],
            },
        )

    # -- task processes -------------------------------------------------------

    def _execute_on_cpu(self, sim: Simulator, trace: TraceRecorder, name: str,
                        ts: int, nominal: float):
        """Run ``nominal`` seconds of work in scheduler quanta (generator)."""
        remaining = nominal
        view = self._view
        obs = self.obs
        busy = 0.0
        while True:
            proc = yield self.scheduler.acquire(name, priority=float(ts))
            speed = view.speed(proc) if view is not None else self._speed[proc]
            slice_time = min(self.scheduler.quantum, remaining / speed)
            start = sim.now
            if slice_time > 0:
                if view is not None:
                    idx, _val = yield sim.any_of(
                        [sim.timeout(slice_time), view.death_event(proc)]
                    )
                    if idx == 1:
                        # The processor died under the thread: the partial
                        # quantum is lost and the thread migrates, redoing
                        # this slice on whatever survives.
                        trace.record_span(
                            ExecSpan(proc, name, ts, start, sim.now, preempted=True)
                        )
                        if obs is not None:
                            obs.on_exec(
                                name, start, sim.now, proc=proc, timestamp=ts,
                                preempted=True, calibrate=False,
                            )
                        self._fault_preemptions += 1
                        self.scheduler.invalidate(name, proc)
                        continue
                else:
                    yield sim.timeout(slice_time)
            remaining -= slice_time * speed
            busy += slice_time
            done = remaining <= 1e-12
            trace.record_span(
                ExecSpan(proc, name, ts, start, sim.now, preempted=not done)
            )
            if obs is not None:
                obs.on_exec(
                    name, start, sim.now, proc=proc, timestamp=ts,
                    preempted=not done, calibrate=False,
                )
                if done:
                    obs.on_cost_sample(name, "serial", busy, time=sim.now)
            if not done and hasattr(self.scheduler, "preemptions"):
                self.scheduler.preemptions += 1
            self.scheduler.release(name, proc)
            if done:
                return

    def _put_outputs(self, sim, hubs, task: Task, conns_out, ts: int):
        for ch in task.outputs:
            size = self.graph.channel(ch).item_size(self.state)
            yield from hubs[ch].put(conns_out[ch], ts, {"ts": ts}, size=size)
            collector = self._wiring.collector(ch)
            if collector is not None:
                hubs[ch].try_get(collector, ts)
                hubs[ch].consume(collector, ts)

    def _source_proc(self, sim, trace, hubs, task: Task, conns_in, conns_out,
                     digitize_times, emitted, max_timestamps, sink_done):
        ts = 0
        cost = task.cost(self.state)
        if task.period is None and cost <= 0:
            raise ReproError(
                f"source {task.name!r} has no period and zero cost; "
                "it would flood the simulation at a single instant"
            )
        while max_timestamps is None or ts < max_timestamps:
            if task.period is not None:
                target = ts * task.period
                if sim.now < target:
                    yield sim.timeout(target - sim.now)
            yield from self._execute_on_cpu(sim, trace, task.name, ts, cost)
            yield from self._put_outputs(sim, hubs, task, conns_out, ts)
            digitize_times[ts] = sim.now
            emitted[0] = ts + 1
            if task.name in sink_done:  # degenerate single-task graph
                sink_done[task.name][ts] = sim.now
            ts += 1

    def _pick_timestamp(self, hubs, streaming: list[str], last: int) -> Optional[int]:
        chans = [hubs[ch].stm for ch in streaming]
        newests = [c.newest_timestamp() for c in chans]
        if any(n is None for n in newests):
            return None
        bound = min(newests)
        if self.input_policy == "inorder":
            nxt = last + 1
            if nxt <= bound and all(c.holds(nxt) for c in chans):
                return nxt
            return None
        for ts in reversed(chans[0].timestamps()):
            if ts <= last:
                break
            if ts > bound:
                continue
            if all(c.holds(ts) for c in chans[1:]):
                return ts
        return None

    def _consumer_proc(self, sim, trace, hubs, task: Task, conns_in, conns_out,
                       streaming: list[str], sink_done):
        last = -1
        cost = task.cost(self.state)
        while True:
            ts = self._pick_timestamp(hubs, streaming, last)
            if ts is None:
                yield sim.any_of([hubs[ch].wait_change() for ch in streaming])
                continue
            # Retrieve inputs (streaming at ts; static at their only item).
            ok = True
            for ch in task.inputs:
                hub = hubs[ch]
                if self.graph.channel(ch).static:
                    hub.try_get(conns_in[ch], hub.stm.newest_timestamp() or 0)
                else:
                    got = hub.try_get(conns_in[ch], ts)
                    if got is None:  # defensive: item vanished between pick and get
                        ok = False
                        break
            if not ok:
                last = ts  # skip the frame; guarantees loop progress
                continue
            yield from self._execute_on_cpu(sim, trace, task.name, ts, cost)
            yield from self._put_outputs(sim, hubs, task, conns_out, ts)
            for ch in streaming:
                hubs[ch].consume(conns_in[ch], ts)
            if task.name in sink_done:
                sink_done[task.name][ts] = sim.now
            last = ts
