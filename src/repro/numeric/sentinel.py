"""Numeric sentinels: catch NaN/Inf/overflow/denormal at assignment time.

The differential validation gates can be silently satisfied by broken
numerics — ``nan > tol`` is ``False``, so a NaN that appears on *both*
sides of a comparison looks like agreement.  Sentinels close that hole at
the source: while the active run configuration carries a
:class:`SentinelConfig` (the ``--sentinels`` CLI flag, or
``repro.runconfig.configured(sentinels=SentinelConfig())``), every value
assigned in the GLAF IR interpreter and the FORTRAN-subset runtime is
screened, and the first non-finite / out-of-range value raises a typed
:class:`repro.errors.NumericIntegrityError` naming the offending
function, step, grid, and cell — plus a ``numeric:<kind>`` DecisionLog
event so a profiled run shows the trip in context.

The hook follows the same pattern as :mod:`repro.robust.faults`: the
interpreters test the run configuration (one attribute load per
assignment when sentinels are off) and only call :func:`check_value` when
a config is installed, so un-sentineled runs pay nothing measurable.

This module must stay dependency-light (errors, runconfig and numpy
only): :mod:`repro.observe` is imported lazily at trip time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .. import runconfig as _rc
from ..errors import NumericIntegrityError

__all__ = [
    "SENTINEL_KINDS", "SentinelConfig", "check_value", "tripped",
]

#: Every condition a sentinel can trip on, in detection-priority order.
SENTINEL_KINDS = ("nan", "inf", "overflow", "denormal")

_TINY = float(np.finfo(np.float64).tiny)


@dataclass(frozen=True)
class SentinelConfig:
    """Which numeric conditions trip a sentinel.

    ``overflow_threshold`` flags finite values whose magnitude exceeds it
    (about to overflow in downstream arithmetic); ``None`` disables the
    check.  ``denormal`` is off by default because gradual underflow is
    legitimate in well-conditioned code — enable it when chasing
    vanishing-magnitude bugs.
    """

    nan: bool = True
    inf: bool = True
    overflow_threshold: float | None = 1e300
    denormal: bool = False

    def classify(self, v: float) -> str | None:
        """The sentinel kind ``v`` trips, or ``None`` if it is clean."""
        if math.isnan(v):
            return "nan" if self.nan else None
        if math.isinf(v):
            return "inf" if self.inf else None
        a = abs(v)
        if (self.overflow_threshold is not None
                and a > self.overflow_threshold):
            return "overflow"
        if self.denormal and 0.0 < a < _TINY:
            return "denormal"
        return None


# ----------------------------------------------------------------------
# the check itself
# ----------------------------------------------------------------------
def _kind_masks(arr: np.ndarray, cfg: SentinelConfig) -> list[tuple[str, np.ndarray]]:
    """One elementwise mask per enabled kind, in priority order (O(n)
    NumPy work rather than a Python loop per element)."""
    checks: list[tuple[str, np.ndarray]] = []
    if cfg.nan:
        checks.append(("nan", np.isnan(arr)))
    if cfg.inf:
        checks.append(("inf", np.isinf(arr)))
    if cfg.overflow_threshold is not None:
        with np.errstate(invalid="ignore"):
            checks.append(("overflow",
                           np.isfinite(arr)
                           & (np.abs(arr) > cfg.overflow_threshold)))
    if cfg.denormal:
        with np.errstate(invalid="ignore"):
            a = np.abs(arr)
            checks.append(("denormal", (a > 0.0) & (a < _TINY)))
    return checks


def _first_bad(arr: np.ndarray, cfg: SentinelConfig) -> tuple[str, tuple[int, ...]] | None:
    """(kind, index) of the first offending element, or ``None``."""
    for kind, mask in _kind_masks(arr, cfg):
        if mask.any():
            flat = int(np.argmax(mask))
            return kind, tuple(int(i) for i in np.unravel_index(flat, arr.shape))
    return None


def tripped(arr: np.ndarray, cfg: SentinelConfig) -> np.ndarray:
    """Elementwise: does each value of the floating array ``arr`` trip
    ``cfg`` (the vector form of :meth:`SentinelConfig.classify`)?"""
    bad = np.zeros(arr.shape, dtype=bool)
    for _, mask in _kind_masks(arr, cfg):
        bad |= mask
    return bad


def check_value(
    value: Any,
    *,
    function: str = "",
    step_index: int = -1,
    step_name: str = "",
    grid: str = "",
    cell: tuple[int, ...] | None = None,
    config: SentinelConfig | None = None,
) -> None:
    """Screen one assigned value (scalar or array) against the sentinels.

    ``cell`` is the 1-based destination index when the caller assigned a
    single element; for whole-array values the offending element's own
    index is reported instead.  Non-floating values pass untouched.
    Raises :class:`NumericIntegrityError` and records a
    ``numeric:<kind>`` DecisionLog event on the first trip.
    """
    cfg = config if config is not None else _rc._active.sentinels
    if cfg is None:
        return
    arr = np.asarray(value)
    if not np.issubdtype(arr.dtype, np.floating):
        return
    if arr.ndim == 0:
        kind = cfg.classify(float(arr))
        if kind is None:
            return
        bad_cell, bad_value = cell, float(arr)
    else:
        hit = _first_bad(arr, cfg)
        if hit is None:
            return
        kind, idx0 = hit
        # Report FORTRAN-style 1-based cell indices, like the bounds checks.
        bad_cell = tuple(i + 1 for i in idx0)
        bad_value = float(arr[idx0])
    _trip(kind, bad_value, function=function, step_index=step_index,
          step_name=step_name, grid=grid, cell=bad_cell)


def _trip(kind: str, value: float, *, function: str, step_index: int,
          step_name: str, grid: str, cell: tuple[int, ...] | None) -> None:
    where = []
    if function:
        where.append(function)
    if step_index >= 0:
        where.append(f"step {step_index}"
                     + (f" ({step_name})" if step_name else ""))
    if grid:
        where.append(f"grid {grid!r}")
    if cell is not None:
        where.append(f"cell {tuple(cell)}")
    loc = " in " + ", ".join(where) if where else ""
    detail = f"numeric sentinel: {kind} detected{loc} (value {value!r})"

    from ..observe import get_decisions, get_metrics

    m = get_metrics()
    if m.enabled:
        m.counter(f"numeric.sentinel.{kind}").inc()
    dl = get_decisions()
    if dl.enabled:
        dl.record(
            f"numeric:{kind}", function, step_index, step_name, "detected",
            reasons=(detail,), grid=grid,
            cell=list(cell) if cell is not None else None, value=value,
        )
    raise NumericIntegrityError(
        detail, kind=kind, function=function, step_index=step_index,
        grid=grid, cell=cell,
    )
