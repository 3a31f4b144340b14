"""Loud fallbacks: every degraded path is a counted, labelled event.

Three places in the program degrade instead of failing, and each used to
do so silently:

* ``site="dp"`` — a data-parallel placement on the process substrate
  ran its serial kernel on every frame (the measured fan-out rule said
  chunking would not pay, or the run ended before the first chunked
  frame);
* ``site="solve_many"`` — a batch of off-line solves ran in-process
  because the worker pool could not start or broke mid-flight;
* ``site="shm_calibration"`` — the pickle/shared-memory crossover is the
  default threshold, not a measured one.

:func:`record_fallback` counts the event process-wide
(:func:`fallback_counts`, :func:`recent_fallbacks`) and, given an
:class:`~repro.obs.Observability` bundle, as
``repro_fallbacks_total{site=...}`` in the bundle's registry.  Callers
that return metadata (the process runtime's ``meta["fallbacks"]``) put
the event there too.  The module imports nothing beyond the standard
library: the shm threshold resolves before a live run's first frame,
and its record must not pull the observability package into set-up.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.obs import Observability

__all__ = ["SITES", "fallback_counts", "record_fallback", "recent_fallbacks"]

SITES = ("dp", "solve_many", "shm_calibration")

_LOCK = threading.Lock()
_COUNTS: dict[str, int] = {}
#: The latest events, newest last (bounded: a long-lived process running
#: many short dp runs must not grow without limit).
_RECENT: deque = deque(maxlen=64)


def record_fallback(site: str, detail: str,
                    obs: Optional["Observability"] = None) -> dict:
    """Count one fallback at ``site``; returns its metadata entry."""
    if site not in SITES:
        raise ValueError(f"unknown fallback site {site!r}")
    event = {"site": site, "detail": detail}
    with _LOCK:
        _COUNTS[site] = _COUNTS.get(site, 0) + 1
        _RECENT.append(event)
    if obs is not None:
        obs.on_fallback(site, detail)
    return event


def fallback_counts() -> dict[str, int]:
    """Fallbacks recorded in this process so far, by site."""
    with _LOCK:
        return dict(_COUNTS)


def recent_fallbacks() -> list[dict]:
    """The latest recorded fallback events of this process, oldest first."""
    with _LOCK:
        return list(_RECENT)
