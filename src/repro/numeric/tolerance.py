"""The tolerance-policy engine: how two numeric results may differ.

The paper's gates are tolerance checks — max-abs agreement at 1e-9 for
SARB's side-by-side comparison, RMS agreement at 1e-7 absolute for FUN3D
(§4.1.1, §4.2.1) — but naive float math makes those checks lie: ``nan >
tol`` is ``False`` (a NaN on both sides "passes"), ``inf - inf`` is NaN,
and a zero-length array has a vacuous maximum.  Every comparison in the
pipeline now routes through one of four named policies with explicit
special-value semantics:

==========  ==========================================================
``abs``     elementwise ``|got - ref| <= tol``
``rel``     elementwise ``|got - ref| <= tol * max(|got|, |ref|)``
``ulp``     elementwise units-in-the-last-place distance ``<= tol``
``rms``     whole-array ``|rms(got) - rms(ref)| <= tol`` (the paper gate)
==========  ==========================================================

Shared semantics, applied before any policy math:

* a NaN anywhere in either side **fails** the comparison — even NaN vs
  NaN, because agreement-of-garbage is not agreement;
* an infinity compares equal only to an infinity of the same sign at the
  same position; any other pairing fails with an infinite error;
* empty (zero-length) arrays and shape mismatches **raise**
  :class:`repro.errors.NumericIntegrityError` instead of returning a
  vacuous 0.0;
* signed zeros compare equal under every policy (``-0.0 == +0.0``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from ..errors import NumericIntegrityError

__all__ = [
    "POLICIES", "TolerancePolicy", "AbsolutePolicy", "RelativePolicy",
    "UlpPolicy", "RmsPolicy", "ComparisonResult", "compare_grids",
    "get_policy", "ulp_distance",
]


@dataclass(frozen=True)
class ComparisonResult:
    """Outcome of one policy comparison; truthy iff the arrays agree."""

    ok: bool
    policy: str
    tolerance: float
    max_error: float                    # worst metric value observed
    detail: str = ""
    first_bad: tuple[int, ...] | None = None   # 0-based index, when located

    def __bool__(self) -> bool:
        return self.ok


def _as_f64(arr: object, label: str) -> np.ndarray:
    a = np.asarray(arr, dtype=np.float64)
    if a.size == 0:
        raise NumericIntegrityError(
            f"cannot compare empty array ({label}): a zero-length "
            "comparison would pass vacuously")
    return a


def _check_shapes(got: np.ndarray, ref: np.ndarray) -> None:
    if got.shape != ref.shape:
        raise NumericIntegrityError(
            f"cannot compare arrays of different shapes "
            f"{got.shape} vs {ref.shape}")


def _special_values(
    got: np.ndarray, ref: np.ndarray
) -> tuple[np.ndarray, ComparisonResult | None]:
    """Apply the shared NaN/Inf semantics.

    Returns ``(finite_mask, failure)``: ``failure`` is a ready-made failed
    result when a special value sinks the comparison, else ``None``, and
    ``finite_mask`` selects the positions the policy math may compare
    (matching same-sign infinities are excluded — they already agree).
    """
    for label, arr in (("got", got), ("ref", ref)):
        nan = np.isnan(arr)
        if nan.any():
            idx = _first_index(nan, arr.shape)
            return nan, ComparisonResult(
                ok=False, policy="", tolerance=0.0, max_error=float("inf"),
                detail=f"NaN in {label} at index {idx} (NaN never compares "
                       "equal)", first_bad=idx)
    got_inf, ref_inf = np.isinf(got), np.isinf(ref)
    if got_inf.any() or ref_inf.any():
        # Same-sign infinities at the same position agree; anything else
        # (inf vs finite, +inf vs -inf) is an infinite error.
        mismatch = (got_inf != ref_inf) | (got_inf & ref_inf
                                           & (np.sign(got) != np.sign(ref)))
        if mismatch.any():
            idx = _first_index(mismatch, got.shape)
            return mismatch, ComparisonResult(
                ok=False, policy="", tolerance=0.0, max_error=float("inf"),
                detail=f"infinity mismatch at index {idx}: "
                       f"got {got[idx]!r}, ref {ref[idx]!r}", first_bad=idx)
    return ~(got_inf & ref_inf), None


def _first_index(mask: np.ndarray, shape: tuple) -> tuple[int, ...]:
    flat = int(np.argmax(mask))
    return tuple(int(i) for i in np.unravel_index(flat, shape))


@dataclass(frozen=True)
class TolerancePolicy:
    """Base policy: subclasses define ``name`` and the finite-value metric."""

    tolerance: float
    name = "abs"

    def compare(self, got: object, ref: object) -> ComparisonResult:
        g = _as_f64(got, "got")
        r = _as_f64(ref, "ref")
        _check_shapes(g, r)
        finite, failure = _special_values(g, r)
        if failure is not None:
            return ComparisonResult(
                ok=False, policy=self.name, tolerance=self.tolerance,
                max_error=failure.max_error, detail=failure.detail,
                first_bad=failure.first_bad)
        return self._compare_finite(g, r, finite)

    # -- elementwise default; RmsPolicy overrides with a whole-array metric
    def _compare_finite(self, got: np.ndarray, ref: np.ndarray,
                        finite: np.ndarray) -> ComparisonResult:
        err = np.zeros(got.shape, dtype=np.float64)
        err[finite] = self._metric(got[finite], ref[finite])
        worst = float(err.max())
        if worst <= self.tolerance:
            return ComparisonResult(ok=True, policy=self.name,
                                    tolerance=self.tolerance, max_error=worst)
        worst_idx = _first_index(err == worst, err.shape)
        return ComparisonResult(
            ok=False, policy=self.name, tolerance=self.tolerance,
            max_error=worst,
            detail=f"max {self.name} error {worst:.6g} > tolerance "
                   f"{self.tolerance:.6g} at index {worst_idx}",
            first_bad=worst_idx)

    def _metric(self, got: np.ndarray, ref: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class AbsolutePolicy(TolerancePolicy):
    """``|got - ref| <= tol`` elementwise."""

    name = "abs"

    def _metric(self, got: np.ndarray, ref: np.ndarray) -> np.ndarray:
        return np.abs(got - ref)


class RelativePolicy(TolerancePolicy):
    """``|got - ref| <= tol * max(|got|, |ref|)`` elementwise.

    The scale-free form: both values exactly zero (including signed
    zeros) yield zero relative error, so 0 vs 0 always agrees.
    """

    name = "rel"

    def _metric(self, got: np.ndarray, ref: np.ndarray) -> np.ndarray:
        scale = np.maximum(np.abs(got), np.abs(ref))
        diff = np.abs(got - ref)
        with np.errstate(invalid="ignore", divide="ignore"):
            rel = np.where(scale > 0.0, diff / np.maximum(scale, 1e-300), 0.0)
        return rel


def ulp_distance(got: object, ref: object) -> np.ndarray:
    """Units-in-the-last-place distance between two float64 arrays.

    Uses the signed-magnitude integer mapping (the IEEE-754 "adjacent
    floats have adjacent integers" trick), so ``+0.0`` and ``-0.0`` are 0
    ULPs apart.  The subtraction runs in exact (object) integer
    arithmetic — int64 would overflow for sign-crossing pairs — and the
    result is returned as float64 (``inf`` when the exact distance
    exceeds the float range).  Inputs must be finite.
    """
    g = np.ascontiguousarray(np.asarray(got, dtype=np.float64))
    r = np.ascontiguousarray(np.asarray(ref, dtype=np.float64))
    gi = g.view(np.int64)
    ri = r.view(np.int64)
    lo = np.int64(-(2 ** 63))
    gm = np.where(gi < 0, lo - gi, gi).astype(object)
    rm = np.where(ri < 0, lo - ri, ri).astype(object)
    dist = np.abs(gm - rm)
    return np.array([float(min(d, 2 ** 63)) for d in dist.ravel()],
                    dtype=np.float64).reshape(g.shape)


class UlpPolicy(TolerancePolicy):
    """ULP distance ``<= tol`` elementwise (``tol`` counts representable
    floats between the values; 0 means bit-identical up to signed zero)."""

    name = "ulp"

    def _metric(self, got: np.ndarray, ref: np.ndarray) -> np.ndarray:
        return ulp_distance(got, ref)


class RmsPolicy(TolerancePolicy):
    """``|rms(got) - rms(ref)| <= tol`` — the paper's FUN3D gate (§4.2.1).

    A whole-array policy: special values fail it outright (a NaN anywhere
    makes the RMS meaningless), and there is no per-element index.
    """

    name = "rms"

    def _compare_finite(self, got: np.ndarray, ref: np.ndarray,
                        finite: np.ndarray) -> ComparisonResult:
        if not finite.all():
            # Matching infinities elementwise still poison an RMS.
            idx = _first_index(~finite, got.shape)
            return ComparisonResult(
                ok=False, policy=self.name, tolerance=self.tolerance,
                max_error=float("inf"),
                detail=f"infinity at index {idx} makes the RMS undefined",
                first_bad=idx)
        rms_g = float(np.sqrt(np.mean(got * got)))
        rms_r = float(np.sqrt(np.mean(ref * ref)))
        err = abs(rms_g - rms_r)
        ok = err <= self.tolerance
        return ComparisonResult(
            ok=ok, policy=self.name, tolerance=self.tolerance, max_error=err,
            detail="" if ok else (
                f"|rms(got)={rms_g:.9g} - rms(ref)={rms_r:.9g}| = {err:.6g} "
                f"> tolerance {self.tolerance:.6g}"))


#: Registry of the named policies (``docs/NUMERICS.md`` documents each).
POLICIES: dict[str, type[TolerancePolicy]] = {
    "abs": AbsolutePolicy,
    "rel": RelativePolicy,
    "ulp": UlpPolicy,
    "rms": RmsPolicy,
}


def get_policy(name: str, tolerance: float) -> TolerancePolicy:
    """Instantiate a registered policy by name."""
    try:
        cls = POLICIES[name]
    except KeyError:
        raise NumericIntegrityError(
            f"unknown tolerance policy {name!r}; "
            f"registered: {', '.join(sorted(POLICIES))}") from None
    return cls(tolerance)


def compare_grids(got: Mapping[object, object], ref: Mapping[object, object],
                  policy: TolerancePolicy) -> ComparisonResult:
    """Compare a run's grids with a reference's, one grid at a time.

    The one differential oracle: the generated-Python and vectorized
    guards, the fuzz oracle, the SARB output gate and faultcheck all call
    it.  (Parallel annotations are judged by the access-conflict check of
    :mod:`repro.glafexec.conflicts`, which compares no values.)  It walks ``ref`` in order and compares each grid with
    ``policy.compare``, so NaN/Inf, empty-array and shape semantics stay
    the policy's own.  A zero-size reference grid is skipped (legitimately
    empty storage, not a vacuous comparison), and a grid missing from
    ``got`` fails with an infinite error.

    Returns the *worst* grid's result, with the grid named in the detail:
    the largest ``max_error``; at equal error a failure outranks a pass;
    otherwise the first grid wins.  With nothing to compare the result is
    ``ok`` with error ``0.0`` — a caller that must never pass vacuously
    checks for an empty reference itself.
    """
    worst: ComparisonResult | None = None
    worst_name: object = None
    for name, want in ref.items():
        if np.size(want) == 0:
            continue
        if name in got:
            res = policy.compare(got[name], want)
        else:
            res = ComparisonResult(
                ok=False, policy=policy.name, tolerance=policy.tolerance,
                max_error=float("inf"), detail="missing")
        if worst is None or ((res.max_error, not res.ok)
                             > (worst.max_error, not worst.ok)):
            worst, worst_name = res, name
    if worst is None:
        return ComparisonResult(ok=True, policy=policy.name,
                                tolerance=policy.tolerance, max_error=0.0)
    detail = f"grid {worst_name!r}" + (f": {worst.detail}" if worst.detail
                                       else "")
    return replace(worst, detail=detail)
