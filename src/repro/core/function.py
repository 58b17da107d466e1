"""Functions, modules and programs.

The GPI organizes a program as *modules* containing *functions* composed of
*steps* (paper §2.1).  A special module, ``Global Scope``, holds grids visible
across the whole program; that is where legacy-integration grids (existing
MODULE variables, COMMON-block members, TYPE elements — paper §3) are created.

A function whose header step selects the ``void`` return type is generated as
a FORTRAN SUBROUTINE (paper §3.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from ..errors import ValidationError
from .grid import Grid
from .step import Step
from .types import DerivedType, GlafType

__all__ = ["GlafFunction", "GlafModule", "GlafProgram", "GLOBAL_SCOPE"]

GLOBAL_SCOPE = "Global Scope"


@dataclass
class GlafFunction:
    """One GLAF function (or subroutine).

    ``params`` lists, in call order, the names of grids in ``grids`` that are
    dummy arguments.  All other grids in ``grids`` are function-local.
    """

    name: str
    return_type: GlafType = GlafType.T_VOID
    params: list[str] = field(default_factory=list)
    grids: dict[str, Grid] = field(default_factory=dict)
    steps: list[Step] = field(default_factory=list)
    comment: str = ""

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise ValidationError(f"bad function name {self.name!r}")
        for p in self.params:
            if p not in self.grids:
                raise ValidationError(f"{self.name}: parameter {p!r} has no grid")

    @property
    def is_subroutine(self) -> bool:
        """Paper §3.4: void return type selects the SUBROUTINE form."""
        return self.return_type is GlafType.T_VOID

    @property
    def return_grid_name(self) -> str:
        """Name of the implicit grid holding the return value."""
        return f"{self.name}_return"

    def local_grids(self) -> dict[str, Grid]:
        return {n: g for n, g in self.grids.items() if n not in self.params}

    def add_grid(self, grid: Grid, param: bool = False) -> Grid:
        if grid.name in self.grids:
            raise ValidationError(f"{self.name}: duplicate grid {grid.name!r}")
        self.grids[grid.name] = grid
        if param:
            self.params.append(grid.name)
        return grid

    def called_functions(self) -> set[str]:
        out: set[str] = set()
        for s in self.steps:
            out |= s.called_functions()
        return out

    def grids_referenced(self) -> set[str]:
        out: set[str] = set()
        for s in self.steps:
            out |= s.grids_referenced()
        return out


@dataclass
class GlafModule:
    """A GPI module: a named collection of functions."""

    name: str
    functions: dict[str, GlafFunction] = field(default_factory=dict)
    comment: str = ""

    def add_function(self, fn: GlafFunction) -> GlafFunction:
        if fn.name in self.functions:
            raise ValidationError(f"module {self.name}: duplicate function {fn.name!r}")
        self.functions[fn.name] = fn
        return fn


@dataclass
class GlafProgram:
    """A whole GLAF program: modules + the Global Scope grids.

    ``derived_types`` registers the shapes of existing FORTRAN TYPEs so that
    grids marked as TYPE elements can be checked and generated (paper §3.5).
    """

    name: str
    modules: dict[str, GlafModule] = field(default_factory=dict)
    global_grids: dict[str, Grid] = field(default_factory=dict)
    derived_types: dict[str, DerivedType] = field(default_factory=dict)

    def add_module(self, mod: GlafModule) -> GlafModule:
        if mod.name in self.modules:
            raise ValidationError(f"duplicate module {mod.name!r}")
        self.modules[mod.name] = mod
        return mod

    def add_global_grid(self, grid: Grid) -> Grid:
        if grid.name in self.global_grids:
            raise ValidationError(f"duplicate global grid {grid.name!r}")
        self.global_grids[grid.name] = grid
        return grid

    def add_derived_type(self, dt: DerivedType) -> DerivedType:
        if dt.name in self.derived_types:
            raise ValidationError(f"duplicate derived type {dt.name!r}")
        self.derived_types[dt.name] = dt
        return dt

    # -- lookup ----------------------------------------------------------
    def functions(self) -> Iterator[GlafFunction]:
        for mod in self.modules.values():
            yield from mod.functions.values()

    def find_function(self, name: str) -> GlafFunction:
        for mod in self.modules.values():
            if name in mod.functions:
                return mod.functions[name]
        raise KeyError(f"no function named {name!r}")

    def has_function(self, name: str) -> bool:
        try:
            self.find_function(name)
            return True
        except KeyError:
            return False

    def resolve_grid(self, fn: GlafFunction | None, name: str) -> Grid:
        """Resolve ``name`` in function scope, falling back to Global Scope."""
        if fn is not None and name in fn.grids:
            return fn.grids[name]
        if name in self.global_grids:
            return self.global_grids[name]
        where = f"function {fn.name!r}" if fn is not None else "global scope"
        raise KeyError(f"grid {name!r} not found in {where}")

    def scope_of(self, fn: GlafFunction | None, name: str) -> str:
        """``'local'``, ``'param'`` or ``'global'`` for a resolvable grid."""
        if fn is not None and name in fn.grids:
            return "param" if name in fn.params else "local"
        if name in self.global_grids:
            return "global"
        raise KeyError(name)

    def common_blocks(self) -> dict[str, list[Grid]]:
        """Global grids grouped by COMMON block, in creation order (§3.2)."""
        out: dict[str, list[Grid]] = {}
        for g in self.global_grids.values():
            if g.common_block is not None:
                out.setdefault(g.common_block, []).append(g)
        return out

    def imported_modules(self) -> dict[str, list[Grid]]:
        """Global grids grouped by the existing module they come from (§3.1)."""
        out: dict[str, list[Grid]] = {}
        for g in self.global_grids.values():
            if g.exists_in_module is not None:
                out.setdefault(g.exists_in_module, []).append(g)
        return out

    def module_scope_grids(self) -> list[Grid]:
        """Grids to declare at generated-module scope (§3.3).

        Global grids with no legacy-integration flags are owned by the
        generated module, so they are module-scope implicitly.
        """
        return [
            g
            for g in self.global_grids.values()
            if g.module_scope or not g.is_external
        ]
