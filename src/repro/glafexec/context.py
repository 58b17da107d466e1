"""Execution storage for GLAF programs.

The :class:`ExecutionContext` owns the storage of every global-scope grid —
module-scope grids of the generated module, COMMON-block members, grids
imported from existing modules, and TYPE elements (stored flat under the
element's grid name; the ``parent%name`` spelling is a code-generation
concern only).  Scalars are stored as 0-d NumPy arrays so that assignment
through any reference is visible everywhere, mirroring FORTRAN storage
association.
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np

from ..core.function import GlafProgram
from ..core.grid import Grid
from ..core.types import numpy_dtype
from ..errors import ExecutionError

__all__ = ["ExecutionContext", "as_storage"]


def as_storage(grid: Grid, value: Any = None, sizes: dict[str, int] | None = None) -> np.ndarray:
    """Materialize storage for a grid, optionally from an initial value."""
    dtype = numpy_dtype(grid.ty)
    if grid.rank == 0:
        cell = np.zeros((), dtype=dtype)
        if value is not None:
            cell[()] = value
        elif grid.init_data is not None:
            cell[()] = grid.init_data
        return cell
    shape = grid.shape(sizes)
    if value is not None:
        arr = np.asarray(value, dtype=dtype)
        if arr.shape != shape:
            raise ExecutionError(
                f"grid {grid.name!r}: initial value shape {arr.shape} != {shape}"
            )
        return arr.copy()
    arr = np.zeros(shape, dtype=dtype)
    if grid.init_data is not None:
        arr[...] = grid.init_data
    return arr


class ExecutionContext:
    """Global storage plus resolution of symbolic dimensions.

    Parameters
    ----------
    program:
        The GLAF program whose global grids this context stores.
    sizes:
        Values for symbolic dimensions of global grids (e.g. ``{"nl": 60}``).
    values:
        Initial contents for selected global grids.  Grids not listed are
        zero-initialized (or use their ``init_data``).
    """

    def __init__(
        self,
        program: GlafProgram,
        sizes: dict[str, int] | None = None,
        values: dict[str, Any] | None = None,
    ):
        self.program = program
        self.sizes = dict(sizes or {})
        values = values or {}
        unknown = set(values) - set(program.global_grids)
        if unknown:
            raise ExecutionError(f"values given for unknown global grids {sorted(unknown)}")
        self.globals: dict[str, np.ndarray] = {}
        for name, grid in program.global_grids.items():
            self.globals[name] = as_storage(grid, values.get(name), self._grid_sizes(grid))

    def _grid_sizes(self, grid: Grid) -> dict[str, int]:
        out = {}
        for d in grid.symbolic_dims():
            if d in self.sizes:
                out[d] = self.sizes[d]
            elif d in self.globals and self.program.global_grids[d].rank == 0:
                out[d] = int(self.globals[d][()])
            else:
                raise ExecutionError(
                    f"global grid {grid.name!r}: cannot resolve dimension {d!r}; "
                    "pass it in sizes= or define the scalar grid first"
                )
        return out

    # -- access ----------------------------------------------------------
    def get(self, name: str) -> np.ndarray:
        try:
            return self.globals[name]
        except KeyError:
            raise ExecutionError(f"no global grid {name!r}") from None

    def set(self, name: str, value: Any) -> None:
        store = self.get(name)
        if store.ndim == 0:
            store[()] = value
        else:
            store[...] = value

    def value(self, name: str) -> Any:
        """Python-native value of a scalar, array view otherwise."""
        store = self.get(name)
        return store[()] if store.ndim == 0 else store

    def snapshot(self, names: Iterable[str] | None = None) -> dict[str, np.ndarray]:
        """Deep copies, for before/after comparisons in tests."""
        names = list(names) if names is not None else list(self.globals)
        return {n: self.get(n).copy() for n in names}

    def common_block_view(self, block: str) -> dict[str, np.ndarray]:
        """Storage of one COMMON block, in declaration order (§3.2)."""
        grids = self.program.common_blocks().get(block)
        if grids is None:
            raise ExecutionError(f"no COMMON block {block!r}")
        return {g.name: self.globals[g.name] for g in grids}
