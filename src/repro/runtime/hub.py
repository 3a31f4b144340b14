"""STM channels wired into the discrete-event simulator.

A :class:`ChannelHub` couples one synchronous
:class:`~repro.stm.channel.STMChannel` with the simulation clock:

* ``wait_change()`` hands out an event that fires at the channel's next
  mutation, so consumer processes can sleep until new data might exist;
* puts respect the channel's capacity by *blocking the producer process*
  (the flow-control mechanism §3.3 shows to be "totally inadequate" as a
  scheduling strategy — reproduced faithfully for the ablation);
* every mutation is recorded in the trace as an
  :class:`~repro.sim.trace.ItemEvent`, and garbage collection runs after
  each consume.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.graph.taskgraph import TaskGraph
from repro.runtime.dispatch import TaskProgram, Wiring
from repro.sim.engine import SimEvent, Simulator
from repro.sim.trace import ItemEvent, TraceRecorder
from repro.stm.channel import STMChannel, Timestamp
from repro.stm.connection import Connection
from repro.stm.gc import GCStats, collect_channel

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.obs import Observability

__all__ = ["ChannelHub", "build_hubs", "wire_hubs"]


class ChannelHub:
    """One STM channel bound to the simulator and the trace.

    ``obs`` is an optional :class:`~repro.obs.Observability` bundle;
    every mutation then also lands in the live metrics/tracing layer
    (item counters by kind, instant spans on the channel's track).
    """

    def __init__(
        self,
        sim: Simulator,
        channel: STMChannel,
        trace: Optional[TraceRecorder] = None,
        obs: Optional["Observability"] = None,
    ) -> None:
        self.sim = sim
        self.stm = channel
        self.trace = trace
        self.obs = obs
        self.gc_stats = GCStats()
        self._changed: SimEvent = sim.event(f"{channel.name}-changed")

    @property
    def name(self) -> str:
        return self.stm.name

    # -- notification -------------------------------------------------------

    def wait_change(self) -> SimEvent:
        """Event firing at the channel's next mutation."""
        return self._changed

    def _notify(self) -> None:
        old, self._changed = self._changed, self.sim.event(f"{self.name}-changed")
        old.succeed()

    # -- operations ----------------------------------------------------------

    def put(self, conn: Connection, ts: int, value: Any, size: int = 0):
        """Producer-side put as a generator: blocks while at capacity.

        Usage inside a process: ``yield from hub.put(conn, ts, value)``.
        """
        while self.stm.is_full:
            yield self.wait_change()
        self.stm.put(conn, ts, value, size=size, time=self.sim.now)
        if self.trace is not None:
            self.trace.record_item(
                ItemEvent(self.sim.now, self.name, "put", ts, task=conn.task)
            )
        if self.obs is not None:
            self.obs.on_item(self.sim.now, self.name, "put", ts, task=conn.task)
        self._notify()

    def try_get(self, conn: Connection, ts: Timestamp) -> Optional[tuple[int, Any]]:
        """Non-blocking get; records the access in the trace on a hit.

        An item this connection already consumed counts as a miss: under a
        saturated schedule frames can complete out of order, so a drain
        consuming ts may declare earlier, still-in-flight timestamps dead
        (they arrive "born consumed") — that is skipping, not an error.
        """
        from repro.errors import ItemConsumed, ItemUnavailable

        try:
            got_ts, value = self.stm.get(conn, ts)
        except (ItemConsumed, ItemUnavailable):
            return None
        if self.trace is not None:
            self.trace.record_item(
                ItemEvent(self.sim.now, self.name, "get", got_ts, task=conn.task)
            )
        if self.obs is not None:
            self.obs.on_item(self.sim.now, self.name, "get", got_ts, task=conn.task)
        return got_ts, value

    def consume(self, conn: Connection, ts: int) -> int:
        """Consume ``ts`` for ``conn``; run GC; return items collected."""
        self.stm.consume(conn, ts)
        if self.trace is not None:
            self.trace.record_item(
                ItemEvent(self.sim.now, self.name, "consume", ts, task=conn.task)
            )
        if self.obs is not None:
            self.obs.on_item(self.sim.now, self.name, "consume", ts, task=conn.task)
        collected = collect_channel(self.stm, self.gc_stats)
        self._notify()
        return collected

    def put_time(self, ts: int) -> Optional[float]:
        """Simulated time at which ``ts`` was put (None if unknown/GC'd)."""
        if self.stm.holds(ts):
            return self.stm._items[ts].put_time
        return None

    def __repr__(self) -> str:
        return f"ChannelHub({self.name!r}, live={len(self.stm)})"


def build_hubs(
    sim: Simulator,
    graph: TaskGraph,
    trace: Optional[TraceRecorder] = None,
    capacity_override: Optional[dict[str, Optional[int]]] = None,
    obs: Optional["Observability"] = None,
) -> dict[str, ChannelHub]:
    """Instantiate a hub for every channel a graph declares.

    ``capacity_override`` maps channel names to capacities, replacing the
    spec's value (used by the flow-control ablation).
    """
    hubs: dict[str, ChannelHub] = {}
    overrides = capacity_override or {}
    for spec in graph.channels:
        cap = overrides.get(spec.name, spec.capacity)
        hubs[spec.name] = ChannelHub(
            sim, STMChannel(spec.name, capacity=cap), trace, obs=obs
        )
    return hubs


def wire_hubs(program: TaskProgram, hubs: dict[str, ChannelHub], state) -> Wiring:
    """Wire ``program`` into simulator hubs; static channels hold the state."""
    return program.wire(
        lambda ch, who: hubs[ch].stm.attach_input(who),
        lambda ch, who: hubs[ch].stm.attach_output(who),
        lambda ch, conn: hubs[ch].stm.put(
            conn, 0, {"state": state},
            size=program.graph.channel(ch).item_size(state),
        ),
    )
