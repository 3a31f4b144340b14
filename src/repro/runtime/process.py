"""The process-parallel runtime: one worker process per scheduled node.

The threaded runtime proves the programming model but serializes every
CPU-bound kernel behind the GIL, so a data-parallel schedule can never
show real wall-clock speedup.  :class:`ProcessRuntime` is the missing
rung between the simulator and real hardware:

* every scheduled cluster *node* becomes a worker ``multiprocessing``
  process (fork-based, mirroring :mod:`repro.core.parallel`);
* each worker runs its node's task agents as threads inside the worker,
  through the threaded runtime's frame loop
  (:meth:`~repro.runtime.dispatch.Agent.run`), each step one
  :class:`~repro.stm.process.StepBatch` round trip — STM items cross
  nodes through the parent's :class:`~repro.stm.process.ChannelBroker`
  (shared-memory transport for array payloads, pickle otherwise);
* a task placed with a data-parallel variant (``dp4``) runs its serial
  kernel on the first frame and times it; when splitting would save
  more than one IPC round trip (the worker's fastest measured broker
  step), the node worker forks ``width - 1`` chunk helpers it owns and
  every later frame is Figure 9's split: the agent thread runs chunk 0,
  the helpers the rest over plain pipes, ``compute_join`` merges.  What
  ran, and why, is ``meta["dp_executed"]``; a planned dp task that never
  split is a counted fallback (:mod:`repro.fallbacks`);
* ``obs=`` instrumentation keeps working: channel traffic is observed at
  the broker, kernel spans are buffered per worker and merged into the
  bundle at join;
* ``faults=`` injection keeps working: a :class:`ProcessFaultPlan` can
  make a kernel raise (covered by bounded in-worker retries) or kill a
  whole worker mid-run — the parent detects the death through the
  process sentinel, respawns the node, and the tasks resume from the
  timestamps recorded in STM (puts replay idempotently), which is §3.4's
  "failures as detectable regime changes" on a live substrate.
"""

from __future__ import annotations

import os
import signal
import threading
import time as _time
import traceback
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional, Union

from repro.core.schedule import PipelinedSchedule
from repro.errors import ReproError
from repro.graph.task import Task
from repro.graph.taskgraph import TaskGraph
from repro.fallbacks import record_fallback
from repro.runtime.dispatch import (
    GET,
    PUT,
    Agent,
    TaskProgram,
    completion_times,
    op_by_op,
)
from repro.sim.trace import ExecSpan
from repro.state import State
from repro.stm.process import (
    BrokerDied,
    ChannelBroker,
    ProcessChannel,
    StepBatch,
    WorkerLink,
)
from repro.stm.threaded import ChannelPoisoned

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.core.optimal import ScheduleSolution
    from repro.obs import Observability
    from repro.sim.cluster import ClusterSpec

__all__ = [
    "KernelFault",
    "ProcessFaultPlan",
    "ProcessResult",
    "ProcessRuntime",
]


# ---------------------------------------------------------------------------
# Fault plan (live-substrate flavour of repro.faults)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelFault:
    """One injected failure: ``task``'s kernel at frame ``timestamp``.

    ``kind="error"`` makes the kernel raise (absorbed by in-worker
    retries when the plan allows them); ``kind="exit"`` kills the whole
    worker process — the live equivalent of a node crash.
    """

    task: str
    timestamp: int
    kind: str = "error"

    def __post_init__(self) -> None:
        if self.kind not in ("error", "exit"):
            raise ReproError(f"unknown kernel fault kind {self.kind!r}")
        if self.timestamp < 0:
            raise ReproError(f"fault timestamp must be >= 0, got {self.timestamp}")


@dataclass
class ProcessFaultPlan:
    """Deterministic failure script for a :class:`ProcessRuntime` run.

    Attributes
    ----------
    events:
        The injected :class:`KernelFault` records (each fires once).
    kernel_retries:
        In-worker retry budget per kernel invocation; an ``"error"``
        fault survived by a retry costs one attempt and the frame still
        completes.
    max_respawns:
        How many worker deaths the parent will repair by respawning the
        node and resuming its tasks from STM state.
    """

    events: tuple = ()
    kernel_retries: int = 1
    max_respawns: int = 2

    def __post_init__(self) -> None:
        self.events = tuple(self.events)
        if self.kernel_retries < 0 or self.max_respawns < 0:
            raise ReproError("retry/respawn budgets must be >= 0")


# ---------------------------------------------------------------------------
# Result
# ---------------------------------------------------------------------------


@dataclass
class ProcessResult:
    """What a process-parallel run produced.

    ``digitize_times`` / ``completion_times`` are wall-clock seconds
    relative to the run start (comparable to the simulated executors'
    fields for latency/uniformity metrics); ``spans`` are the merged
    per-worker kernel executions.
    """

    outputs: dict[str, dict[int, Any]]
    wall_time: float
    channel_stats: dict[str, dict[str, int]] = field(default_factory=dict)
    digitize_times: dict[int, float] = field(default_factory=dict)
    completion_times: dict[int, float] = field(default_factory=dict)
    spans: list[ExecSpan] = field(default_factory=list)
    respawns: int = 0
    kernel_retries: int = 0
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


@dataclass
class _WorkerSpec:
    """Everything one node worker needs (fork-inherited, never pickled)."""

    worker_id: int
    node: int
    agents: list[Agent]
    state: State
    conns_in: dict[str, dict[str, int]]
    conns_out: dict[str, dict[str, int]]
    resume: dict[str, int]
    timestamps: int
    op_timeout: float
    requests: Any
    replies: Any
    dp_plan: dict[str, tuple[int, str, tuple[int, ...]]]
    primary_proc: dict[str, int]
    fault_events: list[KernelFault]
    kernel_retries: int
    replay: bool
    t0: float


def _chunk_helper_main(conn, state: State, tasks: dict[str, Task]) -> None:
    """Body of one chunk helper, in the child a node worker forked; never
    returns.

    Serves ``(task, inputs, chunk_index, n_chunks)`` requests until its
    pipe reaches EOF: the worker closed it, exited or died.  A chunk
    kernel's exception travels back as a value.  Every path ends in
    ``os._exit``, so no exception ever unwinds into the forked copy of
    the calling agent thread's stack.  The fork happened in a
    multi-threaded worker, so the child touches nothing the other
    threads may have held (queues, their locks, logging): only its pipe
    and the chunk kernels.
    """
    code = 1
    try:
        # Drop every other inherited descriptor: pipe ends of sibling
        # helpers (whose EOF must follow the worker's death, not this
        # helper's), the broker queues and the worker's exit sentinel.
        fd = conn.fileno()
        os.closerange(3, fd)
        os.closerange(fd + 1, os.sysconf("SC_OPEN_MAX"))
        while True:
            try:
                name, inputs, index, n_chunks = conn.recv()
            except EOFError:
                code = 0
                break
            try:
                reply = (True, tasks[name].compute_chunk(state, inputs, index,
                                                         n_chunks))
            except BaseException:  # noqa: BLE001 - shipped to the worker
                reply = (False, traceback.format_exc())
            conn.send(reply)
    finally:
        os._exit(code)


def _fork_chunk_helper(state: State, tasks: dict[str, Task]) -> tuple[int, Any]:
    """Fork one chunk helper: ``(pid, the worker's end of its pipe)``."""
    from multiprocessing import Pipe

    mine, theirs = Pipe()
    try:
        pid = os.fork()
    except OSError as exc:
        mine.close()
        theirs.close()
        raise ReproError(f"cannot start a chunk helper: {exc}") from None
    if pid == 0:
        _chunk_helper_main(theirs, state, tasks)
    theirs.close()
    return pid, mine


class _ChunkedTask:
    """One dp-planned task of a node worker: Figure 9's split and join.

    The first frame runs the serial kernel and times it.  Fanning out
    saves ``(width - 1) / width`` of that time and costs at least one IPC
    round trip per frame, so the task fans out iff the saving exceeds
    the fastest broker step round trip the worker has measured.  Only
    then are ``width - 1`` helpers forked; the calling agent thread is
    the splitter and runs chunk 0 itself, the helpers run the rest, and
    ``compute_join`` merges the partials.  The decision is taken once
    per worker and reported, with what ran, by :meth:`record`.
    """

    def __init__(self, task: Task, width: int, state: State, link: WorkerLink,
                 tasks: dict[str, Task], timeout: float) -> None:
        self.task = task
        self.width = width
        self.state = state
        self.link = link
        self.tasks = tasks
        self.timeout = timeout
        self.decision: Optional[dict] = None
        self.serial_s: Optional[float] = None
        self.helpers: list[tuple[int, Any]] = []
        self.helper_pids: list[int] = []
        self.chunks: dict[int, int] = {}
        self.broken: Optional[str] = None

    def __call__(self, inputs: dict, ts: int) -> dict:
        if self.broken is not None:
            raise ReproError(self.broken)
        if self.decision is not None and self.decision["fan_out"]:
            out = self._fan_out(inputs)
            self.chunks[ts] = self.width
            return out
        t0 = _time.perf_counter()
        out = self.task.compute(self.state, inputs)
        if self.serial_s is None:
            self.serial_s = _time.perf_counter() - t0
        self.chunks[ts] = 1
        if (self.decision is None and self.task.compute_chunk is not None
                and self.link.roundtrip is not None):
            self._decide(self.link.roundtrip)
        return out

    def _decide(self, roundtrip: float) -> None:
        fan_out = self.serial_s * (self.width - 1) / self.width > roundtrip
        if fan_out:
            try:
                for _ in range(self.width - 1):
                    pid, conn = _fork_chunk_helper(self.state, self.tasks)
                    self.helpers.append((pid, conn))
                    self.helper_pids.append(pid)
            except ReproError as exc:
                # Fewer helpers than chunks would drop chunks: fail loudly.
                self.close(kill=True)
                self.broken = f"{self.task.name}: {exc}"
                raise ReproError(self.broken) from None
        self.decision = {"serial_s": self.serial_s, "roundtrip_s": roundtrip,
                         "fan_out": fan_out}

    def _fan_out(self, inputs: dict) -> dict:
        name, n = self.task.name, self.width
        try:
            for i, (_pid, conn) in enumerate(self.helpers, start=1):
                conn.send((name, inputs, i, n))
            try:
                partials = [self.task.compute_chunk(self.state, inputs, 0, n)]
                failure = None
            except Exception:  # noqa: BLE001 - after the helpers drain
                partials, failure = [], f"chunk 0 in the worker:\n{traceback.format_exc()}"
            for i, (pid, conn) in enumerate(self.helpers, start=1):
                if not conn.poll(self.timeout):
                    raise TimeoutError(f"chunk helper {pid} gave no result "
                                       f"within {self.timeout} s")
                ok, value = conn.recv()
                if ok:
                    partials.append(value)
                elif failure is None:
                    failure = f"chunk {i} in helper {pid}:\n{value}"
        except (OSError, EOFError, TimeoutError) as exc:
            # A lost helper leaves its pipe out of step: retire them all.
            self.close(kill=True)
            self.broken = f"{name}: chunk helper lost ({type(exc).__name__}: {exc})"
            raise ReproError(self.broken) from None
        if failure is not None:
            raise ReproError(f"{name}: chunk kernel failed, {failure}")
        return self.task.compute_join(self.state, inputs, partials)

    def close(self, kill: bool = False) -> None:
        """Close every helper's pipe (EOF ends it) and reap it; ``kill``
        first stops helpers that may be stuck in a kernel."""
        helpers, self.helpers = self.helpers, []
        for pid, conn in helpers:
            conn.close()
            if kill:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        for pid, _conn in helpers:
            os.waitpid(pid, 0)

    def record(self) -> dict:
        """What ran, for ``meta["dp_executed"]``."""
        fanned = any(n > 1 for n in self.chunks.values())
        return {
            "planned": self.width,
            "chunks": dict(self.chunks),
            "chunk_pids": [os.getpid(), *self.helper_pids] if fanned else [],
            "helper_pids": list(self.helper_pids),
            "worker_pid": os.getpid(),
            "decision": self.decision,
        }


def _frame_runs(chunks: dict[int, int]) -> list[tuple[int, int, int]]:
    """``{ts: n_chunks}`` as ``(first_ts, last_ts, n_chunks)`` runs.

    Results are kept per run by callers such as the benchmark, so a
    record must not grow with the frame count.
    """
    runs: list[tuple[int, int, int]] = []
    for ts in sorted(chunks):
        n = chunks[ts]
        if runs and runs[-1][2] == n and runs[-1][1] == ts - 1:
            runs[-1] = (runs[-1][0], ts, n)
        else:
            runs.append((ts, ts, n))
    return runs


def _fail_stop(requests) -> None:
    """Die with exit code 13, releasing shared IPC locks first.

    The broker's request queue is a single ``mp.Queue`` shared by every
    producer; its write side is guarded by a semaphore that lives in
    shared memory.  ``os._exit`` at an arbitrary instant can kill the
    process while its queue feeder thread holds that semaphore mid-write,
    which wedges every other producer — parent collectors and respawned
    workers alike — until the runtime's hard deadline.  Closing and
    joining the feeder flushes in-flight writes and releases the lock, so
    the injected failure is a clean fail-stop at a kernel boundary.
    """
    try:
        requests.close()
        requests.join_thread()
    except Exception:  # pragma: no cover - queue already torn down
        pass
    os._exit(13)


def _worker_main(spec: _WorkerSpec) -> None:
    """Entry point of one node worker (runs in the forked child)."""
    link = WorkerLink(spec.worker_id, spec.requests, spec.replies)
    link.start()
    tasks = {a.name: a.task for a in spec.agents}
    chunked = {
        name: _ChunkedTask(tasks[name], width, spec.state, link, tasks,
                           spec.op_timeout)
        for name, (width, _variant, _procs) in spec.dp_plan.items()
        if width > 1 and tasks[name].compute is not None
    }

    spans: list[tuple] = []
    retries = [0]
    failed = threading.Event()
    fired: set[tuple[str, int]] = set()

    def invoke_kernel(task: Task, inputs: dict, ts: int) -> dict:
        """One (task, timestamp) execution, chunk-parallel when planned."""
        fault = next(
            (e for e in spec.fault_events
             if e.task == task.name and e.timestamp == ts
             and (task.name, ts) not in fired),
            None,
        )
        attempts = spec.kernel_retries + 1
        for attempt in range(attempts):
            if fault is not None and (task.name, ts) not in fired:
                fired.add((task.name, ts))
                if fault.kind == "exit":
                    _fail_stop(spec.requests)
                raise_injected = True
            else:
                raise_injected = False
            try:
                if raise_injected:
                    raise ReproError(
                        f"injected kernel fault: {task.name} at ts={ts}"
                    )
                runner = chunked.get(task.name)
                if runner is not None:
                    return runner(inputs, ts)
                return task.compute(spec.state, inputs)
            except ReproError:
                if attempt + 1 >= attempts:
                    raise
                retries[0] += 1
        raise AssertionError("unreachable")  # pragma: no cover

    def run_kernel(task: Task, inputs: dict, ts: int, variant: str,
                   proc: int) -> dict:
        """One timed kernel execution (pass-through without a kernel)."""
        if task.compute is None and task.compute_chunk is None:
            return {ch: inputs for ch in task.outputs}
        k0 = _time.perf_counter() - spec.t0
        result = invoke_kernel(task, inputs, ts)
        k1 = _time.perf_counter() - spec.t0
        spans.append((task.name, variant, ts, k0, k1, proc))
        return result

    def agent_body(agent: Agent) -> None:
        """The shared frame loop, one broker round trip per step.

        The broker applies a step's consumes immediately, even when its
        puts or gets park, so deferring a frame's puts and consumes into
        the next frame's step cannot deadlock bounded channels.
        """
        chans = {ch: ProcessChannel(ch) for ch in agent.inputs + agent.outputs}
        ins = spec.conns_in[agent.name]
        outs = spec.conns_out[agent.name]
        variant = spec.dp_plan.get(agent.name, (1, "serial", ()))[1]
        proc = spec.primary_proc.get(agent.name, spec.node)

        def commit(ops, result: dict) -> list:
            batch = StepBatch(link, replay=spec.replay)
            for kind, ch, ts in ops:
                if kind == GET:
                    batch.get(chans[ch], ins[ch], ts)
                elif kind == PUT:
                    batch.put(chans[ch], outs[ch], ts, result[ch])
                else:
                    batch.consume(chans[ch], ins[ch], ts)
            return [value for _ts, value in batch.commit(timeout=spec.op_timeout)]

        try:
            agent.run(
                spec.resume.get(agent.name, 0), spec.timestamps, commit,
                lambda ts, inputs: run_kernel(agent.task, inputs, ts, variant, proc),
            )
            for chan in chans.values():
                chan.close()
        except ChannelPoisoned:
            pass
        except BaseException:  # noqa: BLE001 - shipped to the parent
            # Report now: the broker poisons every channel, so the node's
            # other agents stop instead of waiting out their timeouts.
            failed.set()
            link.notify("fatal", traceback.format_exc())

    threads = [
        threading.Thread(target=agent_body, args=(a,), name=f"agent:{a.name}",
                         daemon=True)
        for a in spec.agents
    ]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    for runner in chunked.values():
        runner.close()
    if failed.is_set():
        exitcode = 1
    else:
        link.notify("done", {
            "worker": spec.worker_id,
            "node": spec.node,
            "spans": spans,
            "kernel_retries": retries[0],
            "dp": {name: runner.record() for name, runner in chunked.items()},
        })
        exitcode = 0
    link.stop()
    # Flush the queue's feeder thread so the final message survives the
    # hard exit (os._exit skips atexit handlers, including queue joins).
    spec.requests.close()
    spec.requests.join_thread()
    os._exit(exitcode)


# ---------------------------------------------------------------------------
# Parent-side runtime
# ---------------------------------------------------------------------------


class ProcessRuntime:
    """Run a task graph with worker processes — real parallel execution.

    Parameters
    ----------
    graph / state / static_inputs / op_timeout / obs:
        As for :class:`~repro.runtime.threaded.ThreadedRuntime`.
    schedule:
        Optional :class:`~repro.core.schedule.PipelinedSchedule` (or full
        :class:`~repro.core.optimal.ScheduleSolution`).  Placements
        determine the task-to-node mapping and the data-parallel widths;
        requires ``cluster``.
    cluster:
        The :class:`~repro.sim.cluster.ClusterSpec` whose nodes the
        schedule refers to.
    placement:
        Explicit ``{task: node}`` mapping (overrides ``schedule``).  With
        neither, every task runs on node 0 (one worker, still a separate
        process from the parent).
    faults:
        Optional :class:`ProcessFaultPlan`; a run never modifies it, so
        one plan can drive several runs.
    start_method:
        ``multiprocessing`` start method; only ``"fork"`` supports
        kernels that are closures (the default everywhere this runtime
        targets).  Platforms without fork raise.
    """

    def __init__(
        self,
        graph: TaskGraph,
        state: State,
        static_inputs: Optional[dict[str, Any]] = None,
        schedule: Optional[Union[PipelinedSchedule, "ScheduleSolution"]] = None,
        cluster: Optional["ClusterSpec"] = None,
        placement: Optional[dict[str, int]] = None,
        op_timeout: float = 60.0,
        obs: Optional["Observability"] = None,
        faults: Optional[ProcessFaultPlan] = None,
        start_method: str = "fork",
    ) -> None:
        graph.validate()
        from repro.core.optimal import ScheduleSolution

        if isinstance(schedule, ScheduleSolution):
            schedule = schedule.pipelined
        if schedule is not None and cluster is None and placement is None:
            raise ReproError("a schedule-driven ProcessRuntime needs cluster=")
        self.graph = graph
        self.state = state
        self.static_inputs = dict(static_inputs or {})
        self.schedule = schedule
        self.cluster = cluster
        self.op_timeout = op_timeout
        self.obs = obs
        self.faults = faults
        self.start_method = start_method
        self.program = TaskProgram(graph)
        for spec in graph.channels:
            if spec.static and spec.name not in self.static_inputs:
                raise ReproError(
                    f"static channel {spec.name!r} needs a value in static_inputs"
                )
        self.assignment, self.dp_plan = self._derive_assignment(placement)

    def _derive_assignment(self, placement):
        """(task -> node, task -> (workers, variant, procs)) from the schedule."""
        dp_plan: dict[str, tuple[int, str, tuple[int, ...]]] = {}
        if placement is not None:
            return dict(placement), dp_plan
        if self.schedule is None:
            return {t.name: 0 for t in self.graph.tasks}, dp_plan
        assignment: dict[str, int] = {}
        for pl in self.schedule.iteration.placements:
            assignment[pl.task] = self.cluster.node_of(pl.procs[0])
            dp_plan[pl.task] = (len(pl.procs), pl.variant, tuple(pl.procs))
        missing = [t.name for t in self.graph.tasks if t.name not in assignment]
        if missing:
            raise ReproError(f"schedule places no tasks {missing}")
        return assignment, dp_plan

    # -- execution ----------------------------------------------------------

    def run(self, timestamps: int) -> ProcessResult:
        """Process ``timestamps`` frames in order across the worker fleet."""
        import multiprocessing

        from multiprocessing.connection import wait as _wait

        if timestamps < 1:
            raise ReproError(f"timestamps must be >= 1, got {timestamps}")
        try:
            ctx = multiprocessing.get_context(self.start_method)
        except ValueError as exc:  # pragma: no cover - exotic platform
            raise ReproError(
                f"start method {self.start_method!r} unavailable: {exc}"
            ) from None

        program = self.program
        broker = ChannelBroker(
            {spec.name: spec.capacity for spec in self.graph.channels},
            obs=self.obs,
        )
        wiring = program.wire(
            broker.attach_input, broker.attach_output,
            lambda ch, conn: broker.put_static(ch, conn, self.static_inputs[ch]),
        )
        nodes = sorted(set(self.assignment.values()))
        agents_by_node = {
            n: [a for a in program.tasks if self.assignment[a.name] == n]
            for n in nodes
        }
        primary_proc = {
            task: plan[2][0] if plan[2] else self.assignment[task]
            for task, plan in self.dp_plan.items()
        }

        outputs: dict[str, dict[int, Any]] = {ch: {} for ch in program.terminal}
        completion_raw: dict[str, dict[int, float]] = {
            ch: {} for ch in program.terminal
        }
        collector_errors: list[str] = []

        def collector_body(agent: Agent) -> None:
            # Collectors live in the broker's process, so their steps read
            # STM state directly under the broker lock — zero queue round
            # trips for terminal traffic.
            (ch,) = agent.stream_inputs
            conn = wiring.conns_in[agent.name][ch]

            def collect(ts: int, inputs: dict) -> dict:
                outputs[ch][ts] = inputs[ch]
                completion_raw[ch][ts] = broker.now
                return {}

            commit = op_by_op(
                lambda c, ts: broker.local_get_blocking(
                    c, conn, ts, timeout=self.op_timeout)[1],
                None,
                lambda c, ts: broker.local_consume(c, conn, ts),
            )
            try:
                agent.run(0, timestamps, commit, collect)
            except ChannelPoisoned:
                pass
            except (TimeoutError, BrokerDied) as exc:
                collector_errors.append(f"{ch}: {exc}")

        kernel_retries = self.faults.kernel_retries if self.faults else 0
        # Exit faults a dead worker already executed are dropped from this
        # run's copy, never from the caller's plan.
        fault_events = list(self.faults.events) if self.faults else []

        def make_spec(worker_id: int, node: int, resume: dict[str, int],
                      replay: bool) -> _WorkerSpec:
            node_agents = agents_by_node[node]
            names = {a.name for a in node_agents}
            return _WorkerSpec(
                worker_id=worker_id,
                node=node,
                agents=node_agents,
                state=self.state,
                conns_in={n: wiring.conns_in[n] for n in names},
                conns_out={n: wiring.conns_out[n] for n in names},
                resume=resume,
                timestamps=timestamps,
                op_timeout=self.op_timeout,
                requests=broker.requests,
                replies=broker.register_worker(worker_id),
                dp_plan={n: self.dp_plan[n] for n in names if n in self.dp_plan},
                primary_proc={n: primary_proc.get(n, node) for n in names},
                fault_events=[e for e in fault_events if e.task in names],
                kernel_retries=kernel_retries,
                replay=replay,
                t0=broker._t0,
            )

        broker.start()
        t_start = _time.perf_counter()

        next_worker_id = 1
        workers: dict[int, tuple[Any, int]] = {}  # worker_id -> (Process, node)
        for node in nodes:
            spec = make_spec(next_worker_id, node, {}, replay=False)
            proc = ctx.Process(target=_worker_main, args=(spec,),
                               name=f"node{node}", daemon=True)
            proc.start()
            workers[next_worker_id] = (proc, node)
            next_worker_id += 1

        collectors = [
            threading.Thread(target=collector_body, args=(a,),
                             name=f"agent:{a.name}", daemon=True)
            for a in program.collectors
        ]
        for th in collectors:
            th.start()

        respawns = 0
        completed_ok: set[int] = set()
        respawn_budget = self.faults.max_respawns if self.faults else 0
        hard_deadline = _time.monotonic() + self.op_timeout * (timestamps + 4)
        failed: Optional[str] = None
        try:
            while workers:
                if broker.errors:
                    failed = broker.errors[0]
                    break
                if _time.monotonic() > hard_deadline:
                    failed = "worker processes did not finish in time"
                    break
                sentinels = {w.sentinel: wid
                             for wid, (w, _n) in workers.items()}
                ready = _wait(list(sentinels), timeout=0.05)
                for sent in ready:
                    wid = sentinels[sent]
                    proc, node = workers.pop(wid)
                    proc.join()
                    if proc.exitcode == 0:
                        completed_ok.add(wid)
                        continue
                    if respawns >= respawn_budget:
                        failed = (
                            f"worker for node {node} died "
                            f"(exit {proc.exitcode}) with no respawn budget"
                        )
                        break
                    respawns += 1
                    resume = self._resume_map(broker, wiring,
                                              agents_by_node[node])
                    detected = broker.now
                    if self.obs is not None:
                        self.obs.on_detection(detected, "worker-death",
                                              detail=f"node{node}")
                    # Without this, the respawned worker would re-run the
                    # fatal frame, hit the same injected exit, and
                    # crash-loop until the respawn budget drained.
                    fault_events = [
                        e for e in fault_events
                        if not (e.kind == "exit"
                                and e.timestamp <= resume.get(e.task, -1))
                    ]
                    spec = make_spec(next_worker_id, node, resume, replay=True)
                    newp = ctx.Process(target=_worker_main, args=(spec,),
                                       name=f"node{node}r{respawns}",
                                       daemon=True)
                    newp.start()
                    workers[next_worker_id] = (newp, node)
                    next_worker_id += 1
                    if self.obs is not None:
                        self.obs.on_failover(detected, broker.now,
                                             detail=f"respawn node{node}")
                if failed:
                    break
        finally:
            if failed:
                broker.poison_all()
            for _wid, (proc, _node) in workers.items():
                proc.join(timeout=5.0)
                if proc.is_alive():
                    proc.terminate()
            for th in collectors:
                th.join(timeout=self.op_timeout)
        wall = _time.perf_counter() - t_start

        # Worker exit races the broker draining its "done" message; wait for
        # every cleanly-exited worker's buffers before merging.
        wait_until = _time.monotonic() + 10.0
        while (not failed
               and not completed_ok.issubset(broker.done_payloads)
               and _time.monotonic() < wait_until):
            _time.sleep(0.005)
        done = dict(broker.done_payloads)
        shm_fallback = broker.shm_fallback
        stats = broker.stats()
        gc_collected, high_water = broker.gc_totals()
        broker_ops = dict(broker.op_counts)
        broker_roundtrips = broker.roundtrips()
        digitize = self._digitize_times(broker)
        broker.stop()
        if failed:
            raise ReproError(f"process runtime failed: {failed}")
        if collector_errors:
            raise ReproError(
                f"terminal channels timed out: {collector_errors}"
            )
        still = [th.name for th in collectors if th.is_alive()]
        if still:
            raise ReproError(f"collectors did not finish: {still}")

        spans: list[ExecSpan] = []
        retries_total = 0
        for payload in done.values():
            retries_total += payload.get("kernel_retries", 0)
            for (task, variant, ts, start, end, proc_idx) in payload["spans"]:
                spans.append(ExecSpan(proc_idx, task, ts, start, end))
                if self.obs is not None:
                    from repro.obs.calibrate import node_class_of

                    self.obs.on_exec(task, start, end, proc=proc_idx,
                                     variant=variant, timestamp=ts,
                                     node_class=node_class_of(self.cluster,
                                                              proc_idx))
        spans.sort(key=lambda s: (s.start, s.proc))

        dp_executed = self._dp_executed(done)
        fallbacks = [
            record_fallback("dp", detail, self.obs)
            for detail in self._dp_fallbacks(dp_executed)
        ]
        if shm_fallback is not None:
            # Counted process-wide once, when the calibration fell back.
            fallbacks.append({"site": "shm_calibration", "detail": shm_fallback})
            if self.obs is not None:
                self.obs.on_fallback("shm_calibration", shm_fallback)

        completion = completion_times(completion_raw)
        if self.obs is not None:
            for ts in sorted(completion):
                if ts in digitize:
                    self.obs.on_frame(ts, completion[ts] - digitize[ts])

        return ProcessResult(
            outputs=outputs,
            wall_time=wall,
            channel_stats=stats,
            digitize_times=digitize,
            completion_times=completion,
            spans=spans,
            respawns=respawns,
            kernel_retries=retries_total,
            meta={
                "nodes": nodes,
                "assignment": dict(self.assignment),
                "dp_plan": {k: v[:2] for k, v in self.dp_plan.items()},
                "dp_executed": dp_executed,
                "fallbacks": fallbacks,
                "gc_collected": gc_collected,
                "live_item_high_water": high_water,
                "broker_ops": broker_ops,
                "broker_roundtrips": broker_roundtrips,
            },
        )

    # -- what ran -----------------------------------------------------------

    @staticmethod
    def _dp_executed(done: dict[int, dict]) -> dict[str, dict]:
        """Merge the workers' dp records, oldest worker incarnation first.

        Per planned dp task: ``chunks``, the chunks run per frame as
        ``(first_ts, last_ts, n_chunks)`` runs, the PIDs chunks ran in,
        the helper and node-worker PIDs, and the latest worker's fan-out
        ``decision`` (its measured ``serial_s`` and ``roundtrip_s``;
        ``None`` when it never decided).
        """
        executed: dict[str, dict] = {}
        for wid in sorted(done):
            for name, rec in done[wid].get("dp", {}).items():
                entry = executed.setdefault(name, {
                    "planned": rec["planned"], "chunks": {}, "chunk_pids": [],
                    "helper_pids": [], "worker_pids": [], "decision": None,
                })
                # A respawned worker re-runs the frame its predecessor died in.
                entry["chunks"].update(rec["chunks"])
                entry["chunk_pids"] += [pid for pid in rec["chunk_pids"]
                                        if pid not in entry["chunk_pids"]]
                entry["helper_pids"] += rec["helper_pids"]
                entry["worker_pids"].append(rec["worker_pid"])
                entry["decision"] = rec["decision"]
        for entry in executed.values():
            entry["chunks"] = _frame_runs(entry["chunks"])
        return executed

    def _dp_fallbacks(self, executed: dict[str, dict]) -> list[str]:
        """Why each planned dp task that never fanned out ran serially."""
        details = []
        for name, entry in sorted(executed.items()):
            if any(n > 1 for _first, _last, n in entry["chunks"]):
                continue
            width, decision = entry["planned"], entry["decision"]
            if self.graph.task(name).compute_chunk is None:
                why = "the task has no chunk kernel"
            elif decision is None:
                why = "no broker round trip was measured before the run ended"
            elif decision["fan_out"]:
                why = "the run ended before its first chunked frame"
            else:
                why = (f"splitting its {decision['serial_s'] * 1e3:.3f} ms serial "
                       f"kernel would save less than one IPC round trip "
                       f"({decision['roundtrip_s'] * 1e3:.3f} ms)")
            details.append(f"{name} planned as dp{width} ran serially: {why}")
        return details

    # -- recovery helpers ---------------------------------------------------

    @staticmethod
    def _resume_map(broker: ChannelBroker, wiring, agents) -> dict[str, int]:
        """First incomplete frame per task, recovered from STM state.

        A task consumes its inputs *last* in the frame loop, so its
        streaming input connections' virtual time is the first frame not
        fully finished.  Sources (no streaming inputs) resume after their
        last replayable put.
        """
        resume: dict[str, int] = {}
        for a in agents:
            if a.stream_inputs:
                resume[a.name] = min(
                    broker.conn(wiring.conns_in[a.name][ch]).virtual_time
                    for ch in a.stream_inputs
                )
            elif a.outputs:
                resume[a.name] = min(
                    broker.conn_put_next(wiring.conns_out[a.name][ch])
                    for ch in a.outputs
                )
            else:
                resume[a.name] = 0
        return resume

    def _digitize_times(self, broker: ChannelBroker) -> dict[int, float]:
        """Frame emission times: the put instants on source output channels."""
        digitize: dict[int, float] = {}
        for name in self.graph.source_tasks():
            task = self.graph.task(name)
            for ch in task.outputs:
                for ts, t in broker.channels[ch].put_times.items():
                    if ts not in digitize or t > digitize[ts]:
                        digitize[ts] = t
                break  # first output channel is the frame stream
        return digitize
