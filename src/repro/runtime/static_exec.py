"""The static executor: replay and verify a pre-computed pipelined schedule.

The paper implements its optimal schedules "by creating additional
dependencies" so the underlying scheduler "does the right thing"; this
executor is the simulation equivalent: every (iteration, placement) pair
becomes a process that

1. sleeps until its scheduled start ``k * II + placement.start``,
2. additionally waits for its predecessors' completion events plus the
   communication delay between the placements' primary processors,
3. acquires exactly its scheduled processors (through capacity-1
   resources, so an invalid schedule deadlocks or slips instead of
   silently double-booking),
4. executes, puts its outputs into STM, consumes its inputs, and signals
   completion.

Any positive difference between the actual and scheduled start is recorded
as a *slip*; a correct schedule executes with zero slips, and tests assert
this for every schedule the optimizers produce.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

from repro.errors import ExecutorConfigError
from repro.core.optimal import ScheduleSolution
from repro.core.schedule import PipelinedSchedule
from repro.graph.taskgraph import TaskGraph
from repro.runtime.dispatch import (
    FlatPlacement,
    FlatSchedule,
    TaskProgram,
    completion_times,
)
from repro.runtime.hub import build_hubs, wire_hubs
from repro.runtime.result import ExecutionResult
from repro.sim.cluster import ClusterSpec
from repro.sim.engine import Simulator
from repro.sim.network import CommModel
from repro.sim.resources import Resource
from repro.sim.trace import ExecSpan, TraceRecorder
from repro.state import State

if TYPE_CHECKING:  # pragma: no cover - annotation only (avoids an import cycle)
    from repro.analysis.race import RaceChecker
    from repro.faults.runner import FaultRuntime
    from repro.obs import Observability

__all__ = ["StaticExecutor"]

_EPS = 1e-9


class StaticExecutor:
    """Execute a :class:`~repro.core.schedule.PipelinedSchedule` in simulation.

    Parameters
    ----------
    graph / state / cluster:
        The application and platform.
    schedule:
        A :class:`PipelinedSchedule` or a full :class:`ScheduleSolution`.
    comm:
        Communication model used for inter-placement data delays
        (``None`` = free).
    contended:
        When True, transfers go through a
        :class:`~repro.sim.fabric.LinkFabric`: concurrent messages over
        one memory bus / network link serialize (a consumer fetches its
        inputs sequentially).  The schedule was computed from the pure
        cost table, so contention shows up as slips —
        ``meta["contended_time"]`` reports the total link-wait.
    faults:
        Optional :class:`~repro.faults.runner.FaultRuntime`.  When set,
        :meth:`run` delegates to the fault-tolerance subsystem's
        :class:`~repro.faults.runner.FaultTolerantExecutor`: the schedule
        passed here is superseded by a table of optimal schedules, one per
        reachable degraded cluster shape, and failures become regime
        changes selecting among them (§3.4).  Incompatible with
        ``contended``.
    obs:
        Optional :class:`~repro.obs.Observability` bundle.  When set,
        every placement execution, inter-placement transfer, slip and
        completed frame is reported to the live metrics/tracing layer —
        and, if the bundle carries a calibrator, feeds cost-model drift
        detection.
    runtime:
        Which substrate executes the schedule: ``"sim"`` (default, the
        discrete-event simulation above), ``"threaded"`` (real kernels on
        Python threads) or ``"process"`` (real kernels on one worker
        process per scheduled cluster node — genuine parallelism).  The
        live substrates need ``compute`` kernels on the tasks and report
        wall-clock times in the result's digitize/completion fields.
    static_inputs:
        Values for static configuration channels, required by the live
        substrates (e.g. ``{"color_model": models}``); the simulation
        substrate fills statics with a stub and ignores this.
    verify:
        Run analysis passes 1-3 (graph lint, schedule certificate, STM
        protocol) over the inputs at construction time and raise
        :class:`~repro.errors.AnalysisError` on any ERROR finding —
        misconfigurations surface before anything executes.
    analysis:
        Optional :class:`~repro.analysis.race.RaceChecker` (pass 4).
        Threaded runtime only: channels swap their lock for a tracked one
        and report puts/gets, so the checker sees every happens-before
        edge; read its findings with ``analysis.report()`` after the run.
    """

    def __init__(
        self,
        graph: TaskGraph,
        state: State,
        cluster: ClusterSpec,
        schedule: Union[PipelinedSchedule, ScheduleSolution],
        comm: Optional[CommModel] = None,
        contended: bool = False,
        faults: Optional["FaultRuntime"] = None,
        obs: Optional["Observability"] = None,
        runtime: str = "sim",
        static_inputs: Optional[dict] = None,
        verify: bool = False,
        analysis: Optional["RaceChecker"] = None,
    ) -> None:
        graph.validate()
        if runtime not in ("sim", "threaded", "process"):
            raise ExecutorConfigError(
                f"unknown runtime {runtime!r}; pick sim, threaded or process"
            )
        if faults is not None and contended:
            raise ExecutorConfigError(
                "contended transfers are not supported under fault injection"
            )
        if runtime != "sim":
            from repro.runtime.process import ProcessFaultPlan

            if contended:
                raise ExecutorConfigError(
                    "contended transfers exist only on the sim substrate"
                )
            if faults is not None and not (
                runtime == "process" and isinstance(faults, ProcessFaultPlan)
            ):
                raise ExecutorConfigError(
                    "live substrates take faults as a ProcessFaultPlan "
                    "(process runtime only)"
                )
        if analysis is not None and runtime != "threaded":
            raise ExecutorConfigError(
                "the race checker (analysis=) instruments real threads; "
                "it requires runtime='threaded'"
            )
        solution = schedule if isinstance(schedule, ScheduleSolution) else None
        if isinstance(schedule, ScheduleSolution):
            schedule = schedule.pipelined
        if verify:
            self._verify_startup(graph, state, cluster, schedule, solution, comm)
        if schedule.n_procs > cluster.total_processors:
            raise ExecutorConfigError(
                f"schedule needs {schedule.n_procs} processors, cluster has "
                f"{cluster.total_processors}"
            )
        self.graph = graph
        self.state = state
        self.cluster = cluster
        self.schedule = schedule
        self.comm = comm or CommModel.free(cluster)
        self.contended = contended
        self.faults = faults
        self.obs = obs
        self.runtime = runtime
        self.static_inputs = dict(static_inputs or {})
        self.analysis = analysis

    @staticmethod
    def _verify_startup(graph, state, cluster, schedule, solution, comm) -> None:
        """Opt-in ``verify=`` gate: analysis passes 1-3 and 5 on this
        executor's inputs; raises :class:`~repro.errors.AnalysisError` on
        ERROR findings before anything runs."""
        # Deferred import: repro.analysis imports schedule/graph modules.
        from repro.analysis import check_model, check_stm, lint_graph, verify_solution
        from repro.errors import AnalysisError

        if solution is None:
            # A bare PipelinedSchedule carries no provenance; wrap it so
            # the verifier can re-derive its claims all the same.
            solution = ScheduleSolution(
                state=state,
                iteration=schedule.iteration,
                pipelined=schedule,
                alternatives=0,
                explored=0,
            )
        report = lint_graph(graph, states=[state])
        verify_solution(solution, graph, cluster, comm=comm, report=report)
        check_stm(graph, solution, report=report)
        check_model(graph, solution, report=report)
        if not report.ok():
            raise AnalysisError(report)

    def run(self, iterations: int) -> ExecutionResult:
        """Execute ``iterations`` timestamps and drain."""
        if iterations < 1:
            raise ExecutorConfigError(f"iterations must be >= 1, got {iterations}")
        if self.runtime != "sim":
            return self._run_live(iterations)
        if self.faults is not None:
            from repro.faults.runner import FaultTolerantExecutor

            return FaultTolerantExecutor(
                self.graph, self.state, self.cluster, self.faults, comm=self.comm,
                obs=self.obs,
            ).run(iterations)
        obs = self.obs
        if obs is not None:
            from repro.obs.calibrate import node_class_of, tier_name

            obs.on_period(self.schedule.period)
        sim = Simulator()
        trace = TraceRecorder()
        hubs = build_hubs(sim, self.graph, trace, obs=obs)
        fabric = None
        if self.contended:
            from repro.sim.fabric import LinkFabric

            fabric = LinkFabric(sim, self.cluster, self.comm)
        procs = {
            p.index: Resource(sim, capacity=1, name=f"cpu{p.index}")
            for p in self.cluster.processors
        }
        program = TaskProgram(self.graph)
        wiring = wire_hubs(program, hubs, self.state)

        done: dict[tuple[int, str], "object"] = {}
        for k in range(iterations):
            for pl in self.schedule.iteration.placements:
                done[(k, pl.task)] = sim.event(f"done:{k}:{pl.task}")

        digitize_times: dict[int, float] = {}
        sink_names = set(self.graph.sink_tasks())
        sink_done: dict[str, dict[int, float]] = {s: {} for s in sink_names}
        slips = [0]
        max_slip = [0.0]

        preds = {t.name: self.graph.predecessors(t.name) for t in self.graph.tasks}
        edge_bytes = {
            (p, t.name): self.graph.comm_bytes(p, t.name, self.state)
            for t in self.graph.tasks
            for p in preds[t.name]
        }
        # Flat dispatch tables: schedule lookups and channel classification
        # compiled once, outside the per-iteration loop.
        flat = FlatSchedule(self.schedule)
        edge_channels = {
            (p, t.name): "+".join(
                ch.name for ch in self.graph.channels_between(p, t.name)
            )
            for t in self.graph.tasks
            for p in preds[t.name]
        }

        item_sizes = {
            spec.name: spec.item_size(self.state) for spec in self.graph.channels
        }

        def run_placement(k: int, pl: FlatPlacement):
            # ``pl`` comes from instantiate(k): start is absolute, procs are
            # already rotated for iteration k.
            scheduled_start = pl.start
            # Wait for predecessor data plus communication; transfers begin
            # the moment a predecessor finishes, overlapping any slack
            # before the scheduled start.
            if fabric is None:
                ready = scheduled_start
                for pred in preds[pl.task]:
                    pred_end = yield done[(k, pred)]
                    src_primary = flat.primary(pred, k)
                    delay = self.comm.transfer_time(
                        edge_bytes[(pred, pl.task)], src_primary, pl.procs[0]
                    )
                    if obs is not None and delay > 0:
                        obs.on_comm(
                            edge_channels[(pred, pl.task)],
                            tier_name(self.cluster, src_primary, pl.procs[0]),
                            pred_end,
                            delay,
                            nbytes=edge_bytes[(pred, pl.task)],
                            timestamp=k,
                        )
                    ready = max(ready, pred_end + delay)
                if sim.now < ready:
                    yield sim.timeout(ready - sim.now)
            else:
                # Contended mode: fetch each input over the shared links
                # (sequentially — a task pulls its inputs one by one).
                for pred in preds[pl.task]:
                    yield done[(k, pred)]
                    src_primary = flat.primary(pred, k)
                    yield from fabric.transfer(
                        edge_bytes[(pred, pl.task)], src_primary, pl.procs[0]
                    )
            if sim.now < scheduled_start:
                yield sim.timeout(scheduled_start - sim.now)
            # Acquire scheduled processors (ascending order avoids deadlock).
            grants = []
            for proc in sorted(pl.procs):
                grant = yield procs[proc].request()
                grants.append((proc, grant))
            start = sim.now
            if start > scheduled_start + _EPS:
                slips[0] += 1
                max_slip[0] = max(max_slip[0], start - scheduled_start)
                if obs is not None:
                    obs.on_slip(pl.task, start, start - scheduled_start, timestamp=k)
            if pl.duration > 0:
                yield sim.timeout(pl.duration)
            end = sim.now
            for proc in pl.procs:
                trace.record_span(ExecSpan(proc, pl.task, k, start, end))
            if obs is not None:
                obs.on_exec(
                    pl.task,
                    start,
                    end,
                    proc=pl.procs[0],
                    variant=pl.variant,
                    timestamp=k,
                    node_class=node_class_of(self.cluster, pl.procs[0]),
                )
            for proc, grant in grants:
                procs[proc].release(grant)
            agent = program[pl.task]
            for ch in agent.outputs:
                yield from hubs[ch].put(
                    wiring.conns_out[pl.task][ch], k, {"ts": k}, size=item_sizes[ch]
                )
                collector = wiring.collector(ch)
                if collector is not None:
                    hubs[ch].try_get(collector, k)
                    hubs[ch].consume(collector, k)
            if agent.is_source:
                digitize_times[k] = sim.now
            for ch in agent.stream_inputs:
                hubs[ch].consume(wiring.conns_in[pl.task][ch], k)
            if pl.task in sink_names:
                sink_done[pl.task][k] = end
            done[(k, pl.task)].succeed(end)

        for k, rows in flat.iter_iterations(iterations):
            # Instantiate iteration k: same pattern, rotated processors —
            # vectorized over the whole iteration by the flat tables.
            for pl in rows:
                sim.process(run_placement(k, pl), name=f"{pl.task}@{k}")

        sim.run(check_deadlock=True)

        completion = completion_times(sink_done)
        if obs is not None:
            for ts in sorted(completion):
                if ts in digitize_times:
                    obs.on_frame(ts, completion[ts] - digitize_times[ts])
        gc_total = sum(h.gc_stats.collected for h in hubs.values())
        high_water = sum(h.gc_stats.high_water_items for h in hubs.values())
        return ExecutionResult(
            graph=self.graph,
            state=self.state,
            trace=trace,
            digitize_times=digitize_times,
            completion_times=completion,
            horizon=trace.makespan,
            emitted=iterations,
            gc_collected=gc_total,
            live_item_high_water=high_water,
            meta={
                "slips": slips[0],
                "max_slip": max_slip[0],
                "period": self.schedule.period,
                "shift": self.schedule.shift,
                "contended_time": fabric.contended_time if fabric else 0.0,
                "transfers": fabric.transfers if fabric else 0,
            },
        )

    def _run_live(self, iterations: int) -> ExecutionResult:
        """Execute on a live substrate and adapt to :class:`ExecutionResult`.

        Live digitize/completion times are wall-clock seconds relative to
        run start, so ``latencies()`` and the uniformity metrics apply
        unchanged — they just measure the real machine instead of the
        cost model.
        """
        trace = TraceRecorder()
        if self.runtime == "threaded":
            from repro.runtime.threaded import ThreadedRuntime

            res = ThreadedRuntime(
                self.graph, self.state, static_inputs=self.static_inputs,
                obs=self.obs, analysis=self.analysis,
            ).run(iterations)
            for (task, ts, start, end, proc) in res.spans:
                trace.record_span(ExecSpan(proc, task, ts, start, end))
            gc_collected = sum(
                s.get("collected", 0) for s in res.channel_stats.values()
            )
            high_water = 0
            extra = {}
        else:
            from repro.runtime.process import ProcessRuntime

            res = ProcessRuntime(
                self.graph, self.state, static_inputs=self.static_inputs,
                schedule=self.schedule, cluster=self.cluster,
                obs=self.obs, faults=self.faults,
            ).run(iterations)
            for span in res.spans:
                trace.record_span(span)
            gc_collected = res.meta["gc_collected"]
            high_water = res.meta["live_item_high_water"]
            extra = {
                "respawns": res.respawns,
                "kernel_retries": res.kernel_retries,
                "nodes": res.meta["nodes"],
                "dp_plan": res.meta["dp_plan"],
                "dp_executed": res.meta["dp_executed"],
                "fallbacks": res.meta["fallbacks"],
                "broker_ops": res.meta["broker_ops"],
                "broker_roundtrips": res.meta["broker_roundtrips"],
            }
        return ExecutionResult(
            graph=self.graph,
            state=self.state,
            trace=trace,
            digitize_times=res.digitize_times,
            completion_times=res.completion_times,
            horizon=res.wall_time,
            emitted=iterations,
            gc_collected=gc_collected,
            live_item_high_water=high_water,
            meta={
                "substrate": self.runtime,
                "wall_time": res.wall_time,
                "channel_stats": res.channel_stats,
                "outputs": res.outputs,
                "period": self.schedule.period,
                **extra,
            },
        )
