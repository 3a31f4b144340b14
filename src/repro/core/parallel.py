"""Batch fan-out of independent off-line solves.

The off-line phase is embarrassingly parallel across *problems*: every
state of a :class:`~repro.state.StateSpace`, every degraded shape of a
:class:`~repro.faults.failover.ShapeTable`, every slack level of a
frontier sweep is an independent branch-and-bound.  This module packages
one solve as a picklable :class:`SolveRequest` and runs batches of them
through a ``ProcessPoolExecutor``.

Determinism is the contract: ``solve_many`` executes the *same* code path
(:func:`execute_request`) whether it runs in-process or in worker
processes, and returns results in request order — so a table built with
``workers=8`` serializes bit-identically to one built with ``workers=1``.

Fallbacks are graceful but loud: ``workers=1`` (or a single request)
never spawns a pool; a platform without the ``fork`` start method, or a
pool that fails to start or breaks mid-flight, degrades to the
in-process path rather than erroring out, and records the event as a
``site="solve_many"`` fallback (:mod:`repro.fallbacks`).
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence, Union

from repro.core.enumerate import (
    EnumerationResult,
    SearchProblem,
    search_schedules,
    static_lower_bound,
    warm_incumbent,
)
from repro.core.optimal import (
    ScheduleSolution,
    solution_from_enumeration,
    solution_from_fallback,
)
from repro.core.schedule import IterationSchedule
from repro.errors import InfeasibleSchedule, ReproError, ScheduleError
from repro.fallbacks import record_fallback
from repro.graph.taskgraph import TaskGraph
from repro.sim.cluster import ClusterSpec
from repro.sim.network import CommModel
from repro.state import State

__all__ = [
    "SolveRequest",
    "make_request",
    "execute_request",
    "solve_many",
    "default_workers",
]


@dataclass
class SolveRequest:
    """One self-contained off-line solve, ready to ship to a worker.

    The request carries a :class:`~repro.core.enumerate.SearchProblem`
    (all cost callables pre-evaluated) instead of the graph itself, so it
    pickles cheaply and digests stably for the on-disk cache.

    ``mode`` selects what :func:`execute_request` returns:

    * ``"solve"`` — a full :class:`~repro.core.optimal.ScheduleSolution`
      (steps 1-3 of Figure 6);
    * ``"enumerate"`` — the raw
      :class:`~repro.core.enumerate.EnumerationResult` (steps 1-2 only),
      used by the frontier and sensitivity sweeps that inspect S itself;
    * ``"list"`` — no search at all: the pre-computed HEFT ``fallback``
      schedule wrapped as a solution with a root-bound gap certificate
      (rung 3 of the :mod:`repro.approx` ladder).

    ``bound_inflation`` (ε) makes the search bounded-suboptimal, and
    ``ladder`` appends escalation stages ``(ε, node_limit)`` tried in
    order when a stage blows its node budget — with the ``fallback``
    schedule as the final rung.  All of it is pure picklable data, so a
    whole policy ladder ships to a worker as one request.

    ``tag`` is an opaque caller label (a state, a shape key, a trial
    index) carried through untouched; ``solve_many`` never looks at it.
    """

    problem: SearchProblem
    state: State
    cluster: ClusterSpec
    comm: Optional[CommModel] = None
    mode: str = "solve"
    max_solutions: int = 64
    node_limit: int = 2_000_000
    tolerance: float = 1e-9
    latency_slack: float = 0.0
    incumbent: Optional[float] = None
    dominance: bool = True
    bound_inflation: float = 0.0
    ladder: tuple = ()
    fallback: Optional[IterationSchedule] = None
    dp_cap: Optional[int] = None
    tag: Any = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.mode not in ("solve", "enumerate", "list"):
            raise ValueError(f"unknown solve mode {self.mode!r}")
        if self.mode == "list" and self.fallback is None:
            raise ValueError("mode='list' requires a fallback schedule")


def make_request(
    graph: TaskGraph,
    state: State,
    cluster: ClusterSpec,
    comm: Optional[CommModel] = None,
    *,
    mode: str = "solve",
    max_workers: Optional[int] = None,
    max_solutions: int = 64,
    node_limit: int = 2_000_000,
    tolerance: float = 1e-9,
    latency_slack: float = 0.0,
    warm_start: bool = True,
    dominance: bool = True,
    bound_inflation: float = 0.0,
    ladder: tuple = (),
    tag: Any = None,
) -> SolveRequest:
    """Snapshot one (graph, state, cluster) solve into a :class:`SolveRequest`.

    The warm-start incumbent is computed *here*, in the parent process —
    the list scheduler is linear-time, and workers then need nothing but
    the pure-data request.  When the request is approximate (``mode=
    "list"``, ``bound_inflation`` > 0, or escalation ``ladder`` stages),
    the *full* list schedule rides along as the fallback rung.
    """
    dp_cap = max_workers if max_workers is not None else cluster.procs_per_node
    problem = SearchProblem.from_graph(graph, state, max_workers=dp_cap)
    if mode == "list" and not problem.order_names:
        mode = "solve"  # empty graph: the search's trivial result is exact
    needs_fallback = bound_inflation > 0.0 or bool(ladder) or mode == "list"
    incumbent = None
    fallback = None
    if problem.order_names and (warm_start or needs_fallback):
        fallback = _list_fallback(graph, state, cluster, comm, dp_cap)
        if fallback is not None and warm_start:
            incumbent = fallback.latency
    if mode == "list" and fallback is None:
        raise InfeasibleSchedule(
            f"list scheduler produced no legal schedule for "
            f"{graph.name!r} in {state!r} on {cluster!r}"
        )
    if not needs_fallback:
        fallback = None
    return SolveRequest(
        problem=problem,
        state=state,
        cluster=cluster,
        comm=comm,
        mode=mode,
        max_solutions=max_solutions,
        node_limit=node_limit,
        tolerance=tolerance,
        latency_slack=latency_slack,
        incumbent=incumbent,
        dominance=dominance,
        bound_inflation=bound_inflation,
        ladder=tuple(ladder),
        fallback=fallback,
        dp_cap=dp_cap,
        tag=tag,
    )


def _list_fallback(
    graph: TaskGraph,
    state: State,
    cluster: ClusterSpec,
    comm: Optional[CommModel],
    dp_cap: int,
) -> Optional[IterationSchedule]:
    """The full HEFT list schedule, or ``None`` when the heuristic fails.

    Same schedule :func:`~repro.core.enumerate.warm_incumbent` takes the
    latency of — kept whole here so approximate requests can *serve* it.
    """
    from repro.sched.listsched import list_schedule  # deferred: avoids import cycle

    try:
        return list_schedule(
            graph, state, cluster, comm=comm, max_workers=dp_cap
        )
    except (ReproError, AssertionError):
        return None


def execute_request(
    request: SolveRequest,
) -> Union[ScheduleSolution, EnumerationResult]:
    """Run one request to completion (works in any process).

    Approximate requests escalate deterministically: the primary stage
    (``bound_inflation``, ``node_limit``), then each ``ladder`` stage
    when the previous one blows its node budget, and finally — for a
    bounded stage whose ε-pruning eliminated every leaf, or a ladder that
    exhausted all stages — the pre-computed ``fallback`` list schedule,
    wrapped with a sound gap certificate.
    """
    if request.mode == "list":
        return _serve_fallback(request, policy="list")
    stages = [(request.bound_inflation, request.node_limit)]
    stages += [(float(eps), int(limit)) for eps, limit in request.ladder]
    last_error: Optional[ScheduleError] = None
    result = None
    for eps, limit in stages:
        try:
            result = search_schedules(
                request.problem,
                request.state,
                request.cluster,
                request.comm,
                max_solutions=request.max_solutions,
                node_limit=limit,
                tolerance=request.tolerance,
                latency_slack=request.latency_slack,
                incumbent=request.incumbent,
                dominance=request.dominance,
                bound_inflation=eps,
            )
            break
        except InfeasibleSchedule:
            if eps > 0.0 and request.fallback is not None:
                # ε-pruning cut every leaf *against the incumbent*:
                # anything better than fallback/(1+ε) was provably pruned,
                # so serving the incumbent is within the bounded contract.
                return _serve_fallback(request, policy="bounded", epsilon=eps)
            raise
        except ScheduleError as exc:
            last_error = exc  # node budget blown: try the next rung
    if result is None:
        if request.fallback is not None:
            return _serve_fallback(request, policy="list")
        raise last_error if last_error is not None else ScheduleError(
            "solve request produced no result"
        )
    if request.mode == "enumerate":
        return result
    return solution_from_enumeration(
        result, request.cluster, dp_cap=request.dp_cap
    )


def _serve_fallback(
    request: SolveRequest, policy: str, epsilon: float = 0.0
) -> ScheduleSolution:
    """The request's list-schedule fallback as a certified solution."""
    if request.fallback is None:
        raise InfeasibleSchedule(
            f"no fallback schedule available for {request.state!r}"
        )
    root = static_lower_bound(request.problem, request.cluster)
    return solution_from_fallback(
        request.fallback,
        request.state,
        request.cluster,
        root_bound=root,
        policy=policy,
        epsilon=epsilon,
        dp_cap=request.dp_cap,
    )


def default_workers() -> int:
    """Usable CPU count (respects affinity masks where the OS exposes them)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _execute_trapping(request: SolveRequest) -> tuple[str, Any]:
    """Pool trampoline: trap domain errors so a chunk survives them.

    ``pool.map`` ships requests in chunks (one IPC message per chunk
    instead of one per request); a raising request would poison its
    whole chunk at iteration time, so errors travel as values and
    ``solve_many`` re-raises or returns them per the caller's choice.
    """
    try:
        return ("ok", execute_request(request))
    except ReproError as exc:
        return ("err", exc)


def _run_in_process(
    requests: Sequence[SolveRequest], return_exceptions: bool
) -> list:
    out: list = []
    for request in requests:
        try:
            out.append(execute_request(request))
        except ReproError as exc:
            if not return_exceptions:
                raise
            out.append(exc)
    return out


def _fall_back_in_process(requests: Sequence[SolveRequest],
                          return_exceptions: bool, exc: BaseException) -> list:
    """The in-process path after the pool failed, counted as a fallback."""
    record_fallback(
        "solve_many",
        f"{len(requests)} requests ran in-process: {type(exc).__name__}: {exc}",
    )
    return _run_in_process(requests, return_exceptions)


def solve_many(
    requests: Sequence[SolveRequest],
    workers: Optional[int] = None,
    return_exceptions: bool = False,
    start_method: Optional[str] = None,
) -> list:
    """Execute a batch of solve requests, results in request order.

    Parameters
    ----------
    requests:
        The batch; each element is solved independently.
    workers:
        Process count.  ``None`` uses :func:`default_workers`; ``1`` (or a
        single-element batch) runs in-process with no pool.  Either way
        the arithmetic is identical, so results — and any tables
        serialized from them — are bitwise the same for every worker
        count.
    return_exceptions:
        When true, a request that raises a domain error
        (:class:`~repro.errors.ReproError`, e.g. an infeasible degraded
        shape) contributes the *exception object* at its position instead
        of aborting the batch — callers like
        :class:`~repro.faults.failover.ShapeTable` filter those out.
        Non-domain failures (a broken pool, an unpicklable payload) are
        never returned; they trigger the in-process fallback.
    start_method:
        Multiprocessing start method for the pool.  ``None`` keeps the
        historical default (``fork``, falling back in-process where the
        platform lacks it); ``"spawn"`` works because every
        :class:`SolveRequest` is pure picklable data — see
        ``tests/core/test_spawn_pickling.py``.
    """
    reqs = list(requests)
    if workers is None:
        workers = default_workers()
    if workers <= 1 or len(reqs) <= 1:
        return _run_in_process(reqs, return_exceptions)
    try:
        ctx = multiprocessing.get_context(start_method or "fork")
    except ValueError as exc:  # pragma: no cover - platform without the method
        return _fall_back_in_process(reqs, return_exceptions, exc)
    n_workers = min(workers, len(reqs))
    # Coalesced dispatch: map() ships requests to the pool in chunks, so
    # a big sweep (every state of a StateSpace, every degraded shape)
    # costs ~4 IPC messages per worker rather than one per request.
    chunksize = max(1, len(reqs) // (n_workers * 4))
    try:
        with ProcessPoolExecutor(
            max_workers=n_workers, mp_context=ctx
        ) as pool:
            out: list = []
            for kind, payload in pool.map(
                _execute_trapping, reqs, chunksize=chunksize
            ):
                if kind == "err" and not return_exceptions:
                    raise payload
                out.append(payload)
            return out
    except ReproError:
        raise
    except Exception as exc:
        # BrokenProcessPool, pickling trouble, fork refusal under an
        # exotic runtime: the work itself is fine, so do it here instead.
        return _fall_back_in_process(reqs, return_exceptions, exc)
