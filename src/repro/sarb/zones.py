"""Zone-level Synoptic SARB driver (paper §2.2).

"For Synoptic SARB, the earth is split into multiple zones that run
parallel to the equator.  Computation for each zone can occur independently
(and hence in parallel) ... The execution of each zone takes time that is
proportional to its size.  Prior to our introduction to the code, Synoptic
SARB only used (coarse-grained) inter-zone parallelism via MPI."

This module provides that encompassing driver:

* :func:`run_synoptic` executes the entropy pipeline for every
  (zone, synoptic hour) column through the GLAF IR interpreter — the
  functional equivalent of the production driver — and returns per-zone
  flux summaries;
* :class:`MpiZoneModel` models the pre-existing coarse-grained MPI
  decomposition (static block distribution of zones over ranks, load
  imbalance from zone sizes) and composes it with the intra-zone OpenMP
  speed-ups of Figures 5/6, quantifying what the paper's intra-zone
  parallelization adds on top of the legacy MPI layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..glafexec import ExecutionContext, Interpreter
from .atmosphere import DEFAULT_DIMS, SarbDimensions, make_inputs, zone_sizes
from .kernels import build_sarb_program
from .validation import _context_values

__all__ = ["ZoneResult", "SynopticResult", "run_synoptic",
           "MpiZoneModel", "mpi_omp_speedup"]


@dataclass
class ZoneResult:
    zone: int
    hours: int
    size_factor: float
    mean_fulw: float
    mean_fusw: float
    olr_total: float


@dataclass
class SynopticResult:
    zones: list[ZoneResult] = field(default_factory=list)

    def olr_by_zone(self) -> np.ndarray:
        return np.array([z.olr_total for z in self.zones])


def run_synoptic(
    n_zones: int = 6,
    n_hours: int = 2,
    dims: SarbDimensions = DEFAULT_DIMS,
    seed: int = 2018,
) -> SynopticResult:
    """Run the full entropy pipeline for every (zone, hour) column.

    Each zone gets its own synthetic atmosphere (seeded per zone, so runs
    are reproducible); within a zone, hours are processed serially in
    synoptic order, exactly as the paper describes.
    """
    program = build_sarb_program(dims)
    sizes = zone_sizes(n_zones)
    result = SynopticResult()
    for z in range(n_zones):
        inp = make_inputs(dims, seed=seed + 101 * z)
        ctx = ExecutionContext(program, values=_context_values(inp))
        interp = Interpreter(program, ctx)
        fulw_sum = fusw_sum = 0.0
        for _hour in range(n_hours):
            interp.call("entropy_interface", [dims.nv, dims.nblw, dims.nbsw])
            fulw_sum += float(ctx.get("fulw").mean())
            fusw_sum += float(ctx.get("fusw").mean())
        result.zones.append(ZoneResult(
            zone=z,
            hours=n_hours,
            size_factor=float(sizes[z]),
            mean_fulw=fulw_sum / n_hours,
            mean_fusw=fusw_sum / n_hours,
            olr_total=float(ctx.value("olr_acc")),
        ))
    return result


@dataclass(frozen=True)
class MpiZoneModel:
    """The legacy coarse-grained decomposition: zones statically blocked
    over MPI ranks; a rank's time is the sum of its zones' sizes; the job
    finishes with the slowest rank."""

    n_zones: int = 18
    n_ranks: int = 4

    def zone_assignment(self) -> list[list[int]]:
        """Contiguous block distribution (the classic legacy layout)."""
        out: list[list[int]] = [[] for _ in range(self.n_ranks)]
        per = self.n_zones / self.n_ranks
        for z in range(self.n_zones):
            out[min(int(z / per), self.n_ranks - 1)].append(z)
        return out

    def rank_loads(self) -> np.ndarray:
        sizes = zone_sizes(self.n_zones)
        return np.array([
            sizes[zs].sum() for zs in self.zone_assignment()
        ])

    def makespan(self) -> float:
        """Wall time in zone-size units (slowest rank wins)."""
        return float(self.rank_loads().max())

    def serial_time(self) -> float:
        return float(zone_sizes(self.n_zones).sum())

    def mpi_speedup(self) -> float:
        return self.serial_time() / self.makespan()

    def load_imbalance(self) -> float:
        """max/mean rank load — 1.0 is perfect; block distribution of
        cosine-sized zones is notably imbalanced (equatorial ranks heavy)."""
        loads = self.rank_loads()
        return float(loads.max() / loads.mean())


def mpi_omp_speedup(model: MpiZoneModel, intra_zone_speedup: float) -> float:
    """Combined speed-up of MPI-over-zones x OpenMP-within-zone vs fully
    serial processing: every zone's work shrinks by the intra-zone factor,
    the makespan math is unchanged.

    This is the quantity the paper's intra-zone work unlocks: the legacy
    code already had ``mpi_speedup()``; multiplying in the Figure-6 v3
    speed-up gives the end-to-end gain.
    """
    if intra_zone_speedup <= 0:
        raise ValueError("intra-zone speedup must be positive")
    return model.mpi_speedup() * intra_zone_speedup
