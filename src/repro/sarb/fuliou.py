"""NumPy reference implementation of the synthetic Fu-Liou-style kernels.

These functions define the ground-truth semantics of the six Table-1
subroutines.  Every other execution path — the GLAF IR interpreter, the
GLAF-generated Python, the GLAF-generated FORTRAN run by
:mod:`repro.fortranlib`, and the hand-written "legacy" FORTRAN — must
reproduce these outputs (the paper's side-by-side functional comparison,
§4.1.1).

The state record mirrors the legacy code's module and COMMON storage:
``fulw``/``fusw``/``fwin``/``slw``/``ssw`` live in ``rad_output_mod``;
``planck_tmp``/``scratch``/``olr_acc``/``swn_acc`` are the GLAF module-scope
scratch grids (§3.3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .atmosphere import AtmosphereInputs

__all__ = ["SarbState", "ref_lw_spectral_integration", "ref_sw_spectral_integration",
           "ref_longwave_entropy_model", "ref_shortwave_entropy_model",
           "ref_adjust2", "ref_entropy_interface", "fresh_state"]


@dataclass
class SarbState:
    """Mutable outputs + scratch, mirroring legacy module storage."""

    fulw: np.ndarray
    fusw: np.ndarray
    fwin: np.ndarray
    slw: np.ndarray
    ssw: np.ndarray
    planck_tmp: np.ndarray
    scratch: np.ndarray
    scr2: np.ndarray
    swtmp: np.ndarray
    olr_acc: float = 0.0
    swn_acc: float = 0.0


def fresh_state(nv: int) -> SarbState:
    z = lambda: np.zeros(nv, dtype=np.float64)
    return SarbState(fulw=z(), fusw=z(), fwin=z(), slw=z(), ssw=z(),
                     planck_tmp=z(), scratch=z(), scr2=z(), swtmp=z())


def ref_lw_spectral_integration(inp: AtmosphereInputs, st: SarbState,
                                flux: np.ndarray) -> None:
    """Longwave spectral integration (Table 1 row 1)."""
    nv, nb = inp.dims.nv, inp.dims.nblw
    flux[:] = 0.0
    st.planck_tmp[:] = inp.tsfc
    # Accumulate bands; vectorized sum is within rounding of the loop order.
    flux += (inp.wlw[None, :] * np.exp(-inp.taudp)).sum(axis=1) * st.planck_tmp
    flux[:] = flux * 0.5 + np.abs(inp.pres) * 0.001
    st.olr_acc += float(flux.sum())


def ref_sw_spectral_integration(inp: AtmosphereInputs, st: SarbState,
                                flux: np.ndarray) -> None:
    """Shortwave spectral integration (Table 1 row 3)."""
    flux[:] = 0.0
    flux += (inp.wsw[None, :] * np.exp(-inp.tausw * 2.0)).sum(axis=1)
    st.swtmp[:] = inp.wsw[0]
    flux[:] = np.sqrt(flux * flux + 1.0) - 1.0 + 0.05 * inp.cld * st.swtmp
    st.swn_acc += float((flux * inp.wsw[0]).sum())


def ref_longwave_entropy_model(inp: AtmosphereInputs, st: SarbState) -> None:
    """Longwave entropy model (Table 1 row 2) — the two 'large loops'."""
    nv, nb = inp.dims.nv, inp.dims.nblw
    st.slw[:] = 0.0
    st.scratch[:] = 0.0
    st.scr2[:] = 0.0
    st.fwin[:] = 0.0       # redundant init kept from the legacy code
    tmax = np.maximum(inp.temp, 180.0)
    thick = inp.taudp > 1.0
    # Large loop A: thick/thin branch per (level, band).
    contrib_scr = np.where(thick,
                           inp.wlw[None, :] * np.log(inp.taudp + 1.0),
                           inp.wlw[None, :] * inp.taudp)
    contrib_slw = np.where(
        thick,
        st.fulw[:, None] * inp.wlw[None, :] / tmax[:, None],
        st.fulw[:, None] * inp.wlw[None, :] * np.exp(-inp.taudp) / tmax[:, None],
    )
    st.scratch += contrib_scr.sum(axis=1)
    st.slw += contrib_slw.sum(axis=1)
    # Large loop B: cloudy/clear adjustment per (level, band).
    cloudy = inp.cld > 0.5
    adj = np.where(cloudy[:, None],
                   0.1 * inp.wlw[None, :] * inp.cld[:, None] * st.scratch[:, None],
                   0.01 * inp.wlw[None, :] * st.scratch[:, None])
    st.slw += adj.sum(axis=1)
    # Per-band window weighting of the optical depths.
    st.scr2 += (inp.wwin[None, :] * inp.taudp * 0.01).sum(axis=1)
    # Normalization + window flux.
    st.slw[:] = st.slw / np.maximum(st.scratch, 1.0)
    st.fwin[:] = st.slw * inp.wwin[0] + 0.5 * inp.wwin[1] + 0.001 * st.scr2


def ref_shortwave_entropy_model(inp: AtmosphereInputs, st: SarbState) -> None:
    """Shortwave entropy model (Table 1 row 4)."""
    st.ssw[:] = st.fusw / np.maximum(inp.temp, 180.0)


def ref_adjust2(inp: AtmosphereInputs, st: SarbState, flux: np.ndarray) -> None:
    """Flux adjustment (Table 1 row 6); middle step is order-dependent."""
    nv = inp.dims.nv
    flux[:] = flux * (1.0 + 0.01 * inp.wwin[0])
    for i in range(1, nv):  # loop-carried: deliberately serial
        flux[i] = flux[i] + flux[i - 1] * 0.05
    flux[:] = np.minimum(np.maximum(flux, 0.0), 1000.0)


def ref_entropy_interface(inp: AtmosphereInputs, st: SarbState) -> None:
    """Driver (Table 1 row 5): calls the other five in order."""
    ref_lw_spectral_integration(inp, st, st.fulw)
    ref_sw_spectral_integration(inp, st, st.fusw)
    ref_longwave_entropy_model(inp, st)
    ref_shortwave_entropy_model(inp, st)
    ref_adjust2(inp, st, st.fulw)
    ref_adjust2(inp, st, st.fusw)
    st.fwin[:] = st.fwin + 0.5 * (st.fulw + st.fusw) * inp.wwin[1]
