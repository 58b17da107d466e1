"""The grid abstraction (paper §2.1, Figure 1) plus integration attributes (§3).

Every variable in GLAF — scalar, array, or element of a derived TYPE — is a
*grid*.  The internal representation carries the number of dimensions, the
element data type, per-dimension sizes, a caption (the variable name) and a
comment; the paper's Figure 1 shows exactly these fields.

This reproduction extends the grid record with the legacy-integration
attributes introduced in §3 of the paper:

* ``exists_in_module`` — the grid is declared in an existing FORTRAN MODULE;
  code generation must emit ``USE <module>`` instead of a declaration (§3.1).
* ``common_block``     — the grid lives in a named COMMON block; code
  generation groups and declares all grids of the block and emits
  ``COMMON /<name>/ v1, v2, ...`` (§3.2).
* ``module_scope``     — the grid is a module-scope variable of the
  *generated* module; it is declared (and optionally initialized) at the top
  of the generated MODULE (§3.3).
* ``type_parent`` / ``type_name`` — the grid is an element of an existing
  derived-TYPE variable; accesses are generated as ``parent%element`` (§3.5).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Sequence

from ..errors import ValidationError
from .expr import GridRef, E
from .types import GlafType

__all__ = ["Grid", "DimSize", "Intent", "scalar", "array"]

# A dimension size is either a compile-time integer or the name of a scalar
# integer grid (typically a parameter passed into the function).
DimSize = int | str


@dataclass(frozen=True)
class Grid:
    """One GLAF grid.

    Parameters
    ----------
    name:
        The caption shown in the GPI; also the generated variable name.
    ty:
        Element type.
    dims:
        Per-dimension sizes, outermost first.  Empty tuple = scalar.
    comment:
        Free-text comment; emitted above the declaration (Figure 1 shows the
        comment becoming a source comment).
    """

    name: str
    ty: GlafType
    dims: tuple[DimSize, ...] = ()
    comment: str = ""
    # --- integration attributes (paper §3) ---
    exists_in_module: str | None = None
    common_block: str | None = None
    module_scope: bool = False
    type_parent: str | None = None
    type_name: str | None = None
    # --- declaration attributes ---
    is_parameter: bool = False          # FORTRAN PARAMETER (compile-time const)
    intent: str | None = None           # 'in' | 'out' | 'inout' for dummy args
    save: bool = False                  # FORTRAN SAVE (FUN3D no-realloc tweak)
    allocatable: bool = False           # heap temporary, ALLOCATE'd on entry
    init_data: Any = None               # manual initial data (Figure 3 checkbox)

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise ValidationError(f"invalid grid name {self.name!r}")
        if self.name[0].isdigit():
            raise ValidationError(f"grid name {self.name!r} cannot start with a digit")
        if self.ty is GlafType.T_VOID:
            raise ValidationError(f"grid {self.name!r}: T_VOID is not a storage type")
        for d in self.dims:
            if isinstance(d, int) and d <= 0:
                raise ValidationError(f"grid {self.name!r}: non-positive dimension {d}")
            if isinstance(d, str) and not d:
                raise ValidationError(f"grid {self.name!r}: empty symbolic dimension")
        if self.common_block is not None and self.exists_in_module is not None:
            raise ValidationError(
                f"grid {self.name!r}: cannot belong to both a COMMON block and an "
                "existing module (the GPI configuration screen makes these exclusive)"
            )
        if self.type_parent is not None and self.exists_in_module is None:
            raise ValidationError(
                f"grid {self.name!r}: TYPE elements must come from an existing module "
                "(paper §3.5: a sub-case of using existing variables from imported modules)"
            )
        if self.intent not in (None, "in", "out", "inout"):
            raise ValidationError(f"grid {self.name!r}: bad intent {self.intent!r}")
        if self.is_parameter and self.init_data is None:
            raise ValidationError(f"grid {self.name!r}: PARAMETER requires init_data")

    # -- classification helpers -----------------------------------------
    @property
    def rank(self) -> int:
        return len(self.dims)

    @property
    def is_scalar(self) -> bool:
        return self.rank == 0

    @property
    def is_external(self) -> bool:
        """True if the grid's storage is owned by pre-existing legacy code.

        External grids are *used*, never declared, by generated subprograms
        (module import or COMMON reference instead).
        """
        return self.exists_in_module is not None or self.common_block is not None

    @property
    def is_type_element(self) -> bool:
        return self.type_parent is not None

    @property
    def needs_declaration(self) -> bool:
        """Whether generated code must declare this grid locally."""
        return not self.is_external

    # -- value helpers ----------------------------------------------------
    def shape(self, sizes: dict[str, int] | None = None) -> tuple[int, ...]:
        """Concrete shape, resolving symbolic dimensions via ``sizes``."""
        out: list[int] = []
        for d in self.dims:
            if isinstance(d, int):
                out.append(d)
            else:
                if sizes is None or d not in sizes:
                    raise ValidationError(
                        f"grid {self.name!r}: symbolic dimension {d!r} unresolved"
                    )
                out.append(int(sizes[d]))
        return tuple(out)

    def ref(self, *indices: object) -> GridRef:
        """An expression node referring to this grid."""
        return GridRef(self.name, tuple(E(i) for i in indices))

    def with_(self, **changes: Any) -> "Grid":
        """A copy with the given fields replaced."""
        return replace(self, **changes)

    def symbolic_dims(self) -> set[str]:
        return {d for d in self.dims if isinstance(d, str)}


def scalar(name: str, ty: GlafType, **kw: Any) -> Grid:
    """Convenience constructor for a scalar grid."""
    return Grid(name=name, ty=ty, dims=(), **kw)


def array(name: str, ty: GlafType, dims: Sequence[DimSize], **kw: Any) -> Grid:
    """Convenience constructor for an array grid."""
    return Grid(name=name, ty=ty, dims=tuple(dims), **kw)
