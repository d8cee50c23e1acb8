"""Compiled event-core tier: the SoA kernel driven by a C hot loop.

The optional ``repro.engine._csoa`` extension (built best-effort by
``setup.py``; see ``_csoa.c``) ports :meth:`SoaSimulator._run_fast` to
C while leaving *all* kernel state -- heap, ring, row columns, process
table, flat-op table -- in Python, so every method-form push and the
epoch compactor keep working unchanged and the executed event sequence
stays bit-identical across all three tiers.

This module is the import-time gate:

* ``HAVE_EXTENSION`` is True when the extension imported (and the
  ``REPRO_CSOA`` env knob did not disable it).  Kernel selection in
  :func:`repro.engine.resolve_kernel` consults it: ``auto`` prefers
  the compiled tier when available, and an explicit ``compiled``
  request degrades to the pure-Python SoA kernel with a
  ``RuntimeWarning`` when it is not.
* ``REPRO_CSOA=0`` (also ``off`` / ``no`` / ``false``) pretends the
  extension is absent -- the test suite uses this to pin the fallback
  path, and it is the escape hatch if a build ever misbehaves.

:class:`CompiledSimulator` adds no state of its own; it only swaps the
run loop.  When the C loop meets a value outside its int64 fast range
(simulated time beyond the packed-key budget) it flushes its counters
and returns a handoff code, and the pure-Python loop -- which computes
with arbitrary-precision ints -- finishes the run from the exact same
kernel state.
"""

from __future__ import annotations

import os
from typing import Any, Dict

from ..errors import DeadlockError, InvariantError, SimulationError
from .core import FLAT_TX, TURN, Acquirable, Event
from .soa import SoaSimulator


def _extension_enabled() -> bool:
    """True unless the ``REPRO_CSOA`` env knob disables the extension."""
    knob = os.environ.get("REPRO_CSOA", "").strip().lower()
    return knob not in ("0", "off", "no", "false")


_csoa = None
if _extension_enabled():
    try:
        from . import _csoa  # type: ignore[no-redef]
    except ImportError:
        _csoa = None
    else:
        _csoa.configure(Acquirable, Event, TURN, SimulationError,
                        InvariantError, FLAT_TX)

#: True when the C hot loop is importable and enabled.  Evaluated once
#: at import (kernel selection is an import-time decision); tests that
#: need the fallback path spawn a subprocess with ``REPRO_CSOA=0``.
HAVE_EXTENSION = _csoa is not None


class CompiledSimulator(SoaSimulator):
    """SoA kernel whose unguarded run loop executes in C.

    Construct through :func:`repro.engine.make_simulator`; direct
    construction requires the extension (``HAVE_EXTENSION``).  Guarded
    runs (``until`` / ``max_events``) still use the Python word loop --
    they are diagnostic paths where the watchdog checks dominate.
    """

    kernel = "compiled"

    def _run_fast(self) -> int:
        if _csoa is None:  # pragma: no cover - selection prevents this
            return SoaSimulator._run_fast(self)
        if _csoa.run_fast(self):
            if self._blocked > 0:
                raise DeadlockError(self._blocked, self._now)
            return self._now
        # int64-range handoff: the pure-Python loop continues from the
        # same kernel state with arbitrary-precision ints.
        return SoaSimulator._run_fast(self)

    def engine_profile(self) -> Dict[str, Any]:
        profile = super().engine_profile()
        profile["extension_loaded"] = 1 if HAVE_EXTENSION else 0
        return profile
