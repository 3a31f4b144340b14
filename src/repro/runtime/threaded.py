"""The live runtime: real Python threads over thread-safe STM channels.

Stampede's execution model — "each task is a POSIX thread" communicating
through STM — run for real: every task becomes a Python thread, channels
are :class:`~repro.stm.threaded.ThreadedChannel`, and each task's
``compute`` kernel (real NumPy code for the tracker) actually executes.

This runtime demonstrates the programming model end to end and powers the
kernel-calibration path; it is *not* used for latency experiments, because
the GIL makes wall-clock timing unrepresentative of an SMP (see
DESIGN.md §2).  Frames are processed in order and the item count is known
up front, so threads terminate naturally; :meth:`ThreadedRuntime.run`
also poisons every channel on failure so no thread is left blocked.
"""

from __future__ import annotations

import threading
import time as _time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from repro.errors import ExecutorConfigError, ReproError
from repro.graph.taskgraph import TaskGraph
from repro.runtime.dispatch import TaskProgram, completion_times, op_by_op
from repro.state import State
from repro.stm.threaded import ChannelPoisoned, ThreadedChannel

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.analysis.race import RaceChecker
    from repro.obs import Observability

__all__ = ["ThreadedResult", "ThreadedRuntime"]


@dataclass
class ThreadedResult:
    """What a live run produced.

    Attributes
    ----------
    outputs:
        ``{channel: {timestamp: value}}`` for every *terminal* channel
        (streaming channels no task consumes — e.g. ``model_locations``).
    wall_time:
        Wall-clock seconds for the whole run.
    channel_stats:
        Per-channel put/get/consume/collected counters.
    digitize_times / completion_times:
        Per-frame wall-clock seconds relative to run start: when the
        source emitted the frame, and when every terminal channel had
        received it — the live counterparts of the simulated executors'
        fields, so latency metrics apply across substrates.
    spans:
        ``(task, timestamp, start, end, thread_index)`` kernel
        executions, wall-clock relative to run start.
    """

    outputs: dict[str, dict[int, Any]]
    wall_time: float
    channel_stats: dict[str, dict[str, int]] = field(default_factory=dict)
    digitize_times: dict[int, float] = field(default_factory=dict)
    completion_times: dict[int, float] = field(default_factory=dict)
    spans: list[tuple] = field(default_factory=list)


class ThreadedRuntime:
    """Run a task graph with real threads and real kernels.

    Parameters
    ----------
    graph:
        Validated task graph whose tasks carry ``compute`` kernels
        (tasks without one pass their merged inputs through unchanged).
    state:
        Application state handed to every kernel.
    static_inputs:
        Values for static channels, e.g. ``{"color_model": models}``.
    op_timeout:
        Per-operation blocking timeout in seconds (keeps tests from
        hanging on bugs).
    obs:
        Optional :class:`~repro.obs.Observability` bundle.  Kernel
        invocations become wall-clock spans (one per (task, timestamp))
        and channel traffic is counted; this is the live-measurement path
        behind kernel calibration, so the hooks are deliberately thin —
        the ``obs`` experiment reports the measured overhead.
    analysis:
        Optional :class:`~repro.analysis.race.RaceChecker`.  Channels are
        created with tracked locks and message edges, and thread
        start/join add fork/adopt edges, so a clean run reports zero
        races; read findings with ``analysis.report()`` after :meth:`run`.
    """

    def __init__(
        self,
        graph: TaskGraph,
        state: State,
        static_inputs: Optional[dict[str, Any]] = None,
        op_timeout: float = 60.0,
        obs: Optional["Observability"] = None,
        analysis: Optional["RaceChecker"] = None,
    ) -> None:
        graph.validate()
        self.graph = graph
        self.state = state
        self.static_inputs = dict(static_inputs or {})
        self.op_timeout = op_timeout
        self.obs = obs
        self.analysis = analysis
        self.program = TaskProgram(graph)
        for spec in graph.channels:
            if spec.static and spec.name not in self.static_inputs:
                raise ExecutorConfigError(
                    f"static channel {spec.name!r} needs a value in static_inputs"
                )

    def run(self, timestamps: int) -> ThreadedResult:
        """Process ``timestamps`` frames in order; returns terminal outputs."""
        if timestamps < 1:
            raise ExecutorConfigError(f"timestamps must be >= 1, got {timestamps}")
        obs = self.obs
        checker = self.analysis
        program = self.program
        timeout = self.op_timeout
        channels: dict[str, ThreadedChannel] = {
            spec.name: ThreadedChannel(
                spec.name, capacity=spec.capacity, obs=obs, analysis=checker
            )
            for spec in self.graph.channels
        }
        wiring = program.wire(
            lambda ch, who: channels[ch].attach_input(who),
            lambda ch, who: channels[ch].attach_output(who),
            lambda ch, conn: channels[ch].put(conn, 0, self.static_inputs[ch]),
        )
        outputs: dict[str, dict[int, Any]] = {ch: {} for ch in program.terminal}
        errors: list[BaseException] = []
        errors_lock = threading.Lock()
        # Wall-clock capture, all relative to t0 (set just before threads
        # start; the closures only read it after starting).
        t0_box = [0.0]
        digitize_times: dict[int, float] = {}
        completion_raw: dict[str, dict[int, float]] = {
            ch: {} for ch in program.terminal
        }
        spans: list[tuple] = []
        timing_lock = threading.Lock()

        def record_error(exc: BaseException) -> None:
            with errors_lock:
                errors.append(exc)
            for ch in channels.values():
                ch.poison()

        def commit_for(agent):
            ins = wiring.conns_in[agent.name]
            outs = wiring.conns_out[agent.name]

            def put(ch: str, ts: int, value: Any) -> None:
                channels[ch].put(outs[ch], ts, value, timeout=timeout)
                if agent.is_source:
                    with timing_lock:
                        digitize_times[ts] = max(
                            digitize_times.get(ts, 0.0),
                            _time.perf_counter() - t0_box[0],
                        )

            return op_by_op(
                lambda ch, ts: channels[ch].get(ins[ch], ts, timeout=timeout)[1],
                put,
                lambda ch, ts: channels[ch].consume(ins[ch], ts),
            )

        def executor_for(agent):
            task = agent.task

            def execute(ts: int, inputs: dict) -> Any:
                if task.compute is None:
                    return {ch: inputs for ch in agent.outputs}
                k0 = _time.perf_counter()
                result = task.compute(self.state, inputs)
                k1 = _time.perf_counter()
                with timing_lock:
                    spans.append((task.name, ts, k0 - t0_box[0],
                                  k1 - t0_box[0], agent.index))
                if obs is not None:
                    obs.on_exec(task.name, k0, k1, proc=agent.index, timestamp=ts)
                return result

            return execute

        def collector_for(agent):
            (ch,) = agent.stream_inputs

            def collect(ts: int, inputs: dict) -> dict:
                outputs[ch][ts] = inputs[ch]
                completion_raw[ch][ts] = _time.perf_counter() - t0_box[0]
                return {}

            return collect

        def agent_body(agent) -> None:
            run_frame = executor_for(agent) if agent.task else collector_for(agent)
            try:
                agent.run(0, timestamps, commit_for(agent), run_frame)
            except ChannelPoisoned:
                pass
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                record_error(exc)

        # Fork/join happens-before edges for the race checker: the main
        # thread forks a clock token per thread (so pre-start setup — e.g.
        # static puts — happens-before everything the thread does) and
        # adopts each thread's end token after join (so post-join reads of
        # outputs/stats happen-after everything the thread did).
        end_tokens: list = []
        end_lock = threading.Lock()

        def spawn(name: str, body, *args) -> threading.Thread:
            token = checker.fork() if checker is not None else None

            def wrapper() -> None:
                if token is not None:
                    checker.adopt(token)
                body(*args)
                if checker is not None:
                    with end_lock:
                        end_tokens.append(checker.fork())

            return threading.Thread(target=wrapper, name=name, daemon=True)

        threads = [spawn(f"agent:{a.name}", agent_body, a) for a in program.agents]
        t0 = t0_box[0] = _time.perf_counter()
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=self.op_timeout * (timestamps + 2))
        wall = _time.perf_counter() - t0
        alive = [th.name for th in threads if th.is_alive()]
        if alive:
            for ch in channels.values():
                ch.poison()
            raise ReproError(f"threads did not finish: {alive}")
        if errors:
            raise errors[0]
        if checker is not None:
            with end_lock:
                for token in end_tokens:
                    checker.adopt(token)
        spans.sort(key=lambda s: s[2])
        return ThreadedResult(
            outputs=outputs,
            wall_time=wall,
            channel_stats={name: ch.stats for name, ch in channels.items()},
            digitize_times=dict(sorted(digitize_times.items())),
            completion_times=completion_times(completion_raw),
            spans=spans,
        )
