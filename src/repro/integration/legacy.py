"""Model of a legacy FORTRAN codebase.

A :class:`LegacyCodebase` holds the source files of an existing program
(e.g. our synthetic Synoptic SARB), parses them, and builds the indexes the
integration checks need: which modules export which variables and TYPEs,
which COMMON blocks exist with what member shapes, and the signature of
every subprogram (so a GLAF-generated replacement can be verified against
the original interface before splicing).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import DiagnosticBundle, IntegrationError
from ..fortranlib.ast import (
    FCommon,
    FDecl,
    FDeclEntity,
    FModule,
    FNum,
    FSourceFile,
    FSubprogram,
    FTypeDef,
    FVar,
)
from ..fortranlib.parser import parse_source

__all__ = ["LegacyCodebase", "SubprogramSignature", "ParamSpec", "CommonSpec"]


@dataclass(frozen=True)
class ParamSpec:
    name: str
    base: str                # 'integer' | 'real' | ...
    kind: int
    rank: int
    intent: str | None
    dims: tuple[str, ...]    # textual dims for reporting


@dataclass(frozen=True)
class SubprogramSignature:
    name: str
    kind: str                # 'subroutine' | 'function'
    module: str | None
    params: tuple[ParamSpec, ...]
    result_base: str | None = None
    result_kind: int | None = None


@dataclass(frozen=True)
class CommonSpec:
    block: str
    members: tuple[ParamSpec, ...]


def _dim_text(e) -> str:
    if isinstance(e, FNum):
        return str(e.value)
    if isinstance(e, FVar):
        return e.name
    return "<expr>"


def _param_spec(name: str, decl: tuple[FDecl, FDeclEntity] | None) -> ParamSpec:
    if decl is None:
        raise IntegrationError(f"parameter {name!r} lacks a declaration")
    d, ent = decl
    rank = len(ent.dims) if not ent.deferred_rank else ent.deferred_rank
    return ParamSpec(
        name=name,
        base=d.spec.base,
        kind=d.spec.kind,
        rank=rank,
        intent=d.intent,
        dims=tuple(_dim_text(x) for x in ent.dims),
    )


class LegacyCodebase:
    """Parsed legacy sources with integration-relevant indexes."""

    def __init__(self, name: str):
        self.name = name
        self.files: dict[str, str] = {}
        self.parsed: dict[str, FSourceFile] = {}
        # indexes
        self.module_exports: dict[str, set[str]] = {}     # module -> names
        self.module_types: dict[str, set[str]] = {}       # module -> TYPE names
        self.type_fields: dict[str, dict[str, tuple[str, int, int]]] = {}
        self.commons: dict[str, CommonSpec] = {}
        self.signatures: dict[str, SubprogramSignature] = {}
        self.subprogram_file: dict[str, str] = {}
        self.module_of_sub: dict[str, str | None] = {}
        # filename -> syntax errors skipped while indexing with recover=True
        self.diagnostics: dict[str, list] = {}

    # ------------------------------------------------------------------
    def add_file(self, filename: str, source: str, *, recover: bool = False) -> None:
        """Parse and index one legacy source file.

        With ``recover=True`` a file with syntax errors is still indexed
        from its partial parse (every unit that did parse); the skipped
        errors are kept in ``self.diagnostics[filename]`` so integration
        reports can surface them instead of losing the whole codebase.
        """
        if filename in self.files:
            raise IntegrationError(f"duplicate file {filename!r}")
        self.files[filename] = source
        if recover:
            try:
                tree = parse_source(source, recover=True)
            except DiagnosticBundle as bundle:
                tree = bundle.partial if bundle.partial is not None else FSourceFile()
                self.diagnostics[filename] = list(bundle.diagnostics)
        else:
            tree = parse_source(source)
        self.parsed[filename] = tree
        for mod in tree.modules:
            self._index_module(filename, mod)
        for sub in tree.subprograms:
            self._index_subprogram(filename, sub, None)
        for prog in tree.programs:
            for sub in prog.subprograms:
                self._index_subprogram(filename, sub, None)

    def _index_module(self, filename: str, mod: FModule) -> None:
        exports = self.module_exports.setdefault(mod.name, set())
        types = self.module_types.setdefault(mod.name, set())
        for d in mod.decls:
            if isinstance(d, FDecl):
                for ent in d.entities:
                    exports.add(ent.name)
            elif isinstance(d, FTypeDef):
                types.add(d.name)
                fields: dict[str, tuple[str, int, int]] = {}
                for fd in d.decls:
                    for ent in fd.entities:
                        fields[ent.name] = (fd.spec.base, fd.spec.kind, len(ent.dims))
                self.type_fields[d.name] = fields
        for sub in mod.subprograms:
            self._index_subprogram(filename, sub, mod.name)

    def _index_subprogram(self, filename: str, sub: FSubprogram, module: str | None) -> None:
        decls: dict[str, tuple[FDecl, FDeclEntity]] = {}
        for d in sub.decls:
            if isinstance(d, FDecl):
                for ent in d.entities:
                    decls[ent.name] = (d, ent)
            elif isinstance(d, FCommon):
                members = []
                for vname in d.names:
                    if vname in decls:
                        members.append(_param_spec(vname, decls[vname]))
                existing = self.commons.get(d.block)
                spec = CommonSpec(block=d.block, members=tuple(members))
                if existing is None or len(members) > len(existing.members):
                    self.commons[d.block] = spec
        params = tuple(_param_spec(p, decls.get(p)) for p in sub.params)
        result_base = result_kind = None
        if sub.kind == "function" and sub.result and sub.result in decls:
            d, _ = decls[sub.result]
            result_base, result_kind = d.spec.base, d.spec.kind
        self.signatures[sub.name] = SubprogramSignature(
            name=sub.name, kind=sub.kind, module=module, params=params,
            result_base=result_base, result_kind=result_kind,
        )
        self.subprogram_file[sub.name] = filename
        self.module_of_sub[sub.name] = module

    # ------------------------------------------------------------------
    def signature(self, name: str) -> SubprogramSignature:
        try:
            return self.signatures[name.lower()]
        except KeyError:
            raise IntegrationError(
                f"legacy codebase has no subprogram {name!r}"
            ) from None

    def has_module(self, name: str) -> bool:
        return name.lower() in self.module_exports

    def module_has(self, module: str, name: str) -> bool:
        return name.lower() in self.module_exports.get(module.lower(), set())
