"""Synthetic atmospheric input generator for the SARB case study.

NASA's Synoptic SARB inputs (CERES instrument retrievals) are restricted;
this generator produces deterministic, physically-plausible column profiles
with the same structure the Fu-Liou-style kernels consume: pressure and
temperature profiles over ``nv`` levels, cloud fractions, and per-band
optical depths for the longwave and shortwave spectral ranges, plus the
band-weight tables that live in the ``/entwts/`` COMMON block.

Zones mirror the paper's description ("the earth is split into multiple
zones that run parallel to the equator ... the execution of each zone takes
time proportional to its size"): zone ``z`` of ``n_zones`` carries a size
factor proportional to the cosine of its central latitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SarbDimensions", "AtmosphereInputs", "make_inputs", "zone_sizes",
           "DEFAULT_DIMS"]


@dataclass(frozen=True)
class SarbDimensions:
    nv: int = 60       # atmospheric levels (the paper's 2x60 loops)
    nblw: int = 12     # longwave bands
    nbsw: int = 6      # shortwave bands


DEFAULT_DIMS = SarbDimensions()


@dataclass
class AtmosphereInputs:
    """One column's inputs (all float64, 1-based semantics left to callers)."""

    dims: SarbDimensions
    tsfc: float                     # surface temperature [K]
    pres: np.ndarray                # (nv,) pressure [hPa]
    temp: np.ndarray                # (nv,) temperature [K]
    cld: np.ndarray                 # (nv,) cloud fraction [0, 1]
    taudp: np.ndarray               # (nv, nblw) longwave optical depth
    tausw: np.ndarray               # (nv, nbsw) shortwave optical depth
    wlw: np.ndarray                 # (nblw,) longwave band weights
    wsw: np.ndarray                 # (nbsw,) shortwave band weights
    wwin: np.ndarray                # (nblw,) window-channel weights


def make_inputs(dims: SarbDimensions = DEFAULT_DIMS, seed: int = 2018) -> AtmosphereInputs:
    """Deterministic synthetic column (seeded, reproducible)."""
    rng = np.random.default_rng(seed)
    nv, nblw, nbsw = dims.nv, dims.nblw, dims.nbsw

    # Pressure: log-spaced from ~1 hPa (top) to 1013 hPa (surface).
    pres = np.logspace(np.log10(1.0), np.log10(1013.25), nv)
    # Temperature: stratosphere->troposphere profile with noise.
    temp = 210.0 + 80.0 * (pres / pres[-1]) ** 0.28 + rng.normal(0, 1.5, nv)
    temp = np.clip(temp, 180.0, 320.0)
    tsfc = float(temp[-1] + rng.uniform(0.0, 4.0))

    # Clouds: a couple of layers with fractional cover.
    cld = np.zeros(nv)
    for _ in range(3):
        center = rng.integers(nv // 4, nv - 2)
        width = int(rng.integers(2, 6))
        lo, hi = max(0, center - width), min(nv, center + width)
        cld[lo:hi] = np.maximum(cld[lo:hi], rng.uniform(0.2, 0.95))

    # Optical depths: increase toward the surface; band-dependent scale.
    col = (pres / pres[-1])[:, None] ** 1.7
    band_scale_lw = np.exp(rng.uniform(np.log(0.05), np.log(4.0), nblw))[None, :]
    taudp = col * band_scale_lw * (1.0 + 2.0 * cld[:, None])
    band_scale_sw = np.exp(rng.uniform(np.log(0.02), np.log(1.0), nbsw))[None, :]
    tausw = col * band_scale_sw * (1.0 + 1.5 * cld[:, None])

    # Band weights: positive, normalized.
    wlw = rng.uniform(0.3, 1.0, nblw)
    wlw /= wlw.sum()
    wsw = rng.uniform(0.3, 1.0, nbsw)
    wsw /= wsw.sum()
    wwin = np.zeros(nblw)
    wwin[: nblw // 3] = rng.uniform(0.5, 1.0, nblw // 3)  # window bands subset
    wwin /= max(wwin.sum(), 1e-12)

    return AtmosphereInputs(
        dims=dims, tsfc=tsfc,
        pres=pres.astype(np.float64), temp=temp.astype(np.float64),
        cld=cld.astype(np.float64),
        taudp=taudp.astype(np.float64), tausw=tausw.astype(np.float64),
        wlw=wlw.astype(np.float64), wsw=wsw.astype(np.float64),
        wwin=wwin.astype(np.float64),
    )


def zone_sizes(n_zones: int = 18) -> np.ndarray:
    """Relative zone sizes (proportional to the cosine of zone latitude).

    Synoptic SARB processes zones parallel to the equator; zones near the
    equator are larger than polar zones (paper §2.2).
    """
    lat_centers = np.linspace(-90.0, 90.0, n_zones + 1)
    lat_centers = 0.5 * (lat_centers[:-1] + lat_centers[1:])
    sizes = np.cos(np.deg2rad(lat_centers))
    return np.maximum(sizes, 0.05)
