"""Runtimes: execute a task graph on the simulated cluster (or real threads).

* :mod:`repro.runtime.hub` — STM channels wired into the simulator with
  change notification and flow-control blocking.
* :mod:`repro.runtime.dynamic` — the *dynamic* executor: every task is a
  free-running thread scheduled by an on-line scheduler
  (:class:`~repro.sched.online.PthreadScheduler` is the paper's baseline).
* :mod:`repro.runtime.static_exec` — the *static* executor: replays a
  pre-computed :class:`~repro.core.schedule.PipelinedSchedule`, verifying
  as it goes that the schedule's promises (resource exclusivity, data
  readiness) hold in execution.
* :mod:`repro.runtime.result` — the uniform result object both executors
  produce: trace + channel registry + per-timestamp latency accounting.
* :mod:`repro.runtime.dispatch` — the STM program every substrate runs
  (:class:`~repro.runtime.dispatch.TaskProgram`) and the flat schedule
  tables the executors dispatch through.
* :mod:`repro.runtime.threaded` — the live runtime running real kernels on
  real Python threads over :class:`~repro.stm.threaded.ThreadedChannel`.
* :mod:`repro.runtime.process` — the live runtime running real kernels on
  worker *processes* (one per scheduled cluster node, plus chunk helpers
  the node worker forks for data-parallel variants measured to pay) over
  the :class:`~repro.stm.process.ChannelBroker`.
"""

from repro.runtime.result import ExecutionResult
from repro.runtime.dynamic import DynamicExecutor
from repro.runtime.static_exec import StaticExecutor
from repro.runtime.threaded import ThreadedRuntime
from repro.runtime.process import (
    KernelFault,
    ProcessFaultPlan,
    ProcessResult,
    ProcessRuntime,
)

__all__ = [
    "ExecutionResult",
    "DynamicExecutor",
    "StaticExecutor",
    "ThreadedRuntime",
    "KernelFault",
    "ProcessFaultPlan",
    "ProcessResult",
    "ProcessRuntime",
]
