"""Unit tests for project JSON persistence."""

import json

import pytest

from repro.core import GlafBuilder, I, T_INT, T_REAL8, T_VOID, lib, ref
from repro.core.builder import StepBuilder as SB
from repro.core.project import (
    expr_from_dict,
    expr_to_dict,
    load_project,
    program_from_dict,
    program_to_dict,
    save_project,
)
from repro.errors import ValidationError


def _demo_program():
    b = GlafBuilder("demo")
    b.derived_type("rad", {"tsfc": (T_REAL8, 0)}, defined_in_module="m")
    b.global_grid("tsfc", T_REAL8, exists_in_module="m",
                  type_parent="fin", type_name="rad")
    b.global_grid("w", T_REAL8, dims=(4,), common_block="blk")
    b.global_grid("acc", T_REAL8, module_scope=True)
    mod = b.module("M")
    f = mod.function("f", return_type=T_VOID)
    f.param("n", T_INT, intent="in")
    f.param("a", T_REAL8, dims=("n",), intent="inout")
    f.local("t", T_REAL8, save=True)
    s = f.step("s1")
    s.foreach(i=(1, "n"))
    s.condition(ref("n").gt(0))
    s.formula(ref("a", I("i")), lib("ABS", ref("a", I("i"))) + ref("tsfc"))
    s.if_(ref("a", I("i")).gt(100.0), [SB.exit_stmt()])
    g = mod.function("g", return_type=T_INT)
    g.param("x", T_REAL8, intent="in")
    g.returns(ref("x") * 0 + 1)
    return b.build()


class TestRoundTrip:
    def test_program_round_trip(self):
        p = _demo_program()
        d = program_to_dict(p)
        p2 = program_from_dict(d)
        assert program_to_dict(p2) == d

    def test_file_round_trip(self, tmp_path):
        p = _demo_program()
        path = tmp_path / "proj.json"
        save_project(p, path)
        p2 = load_project(path)
        assert program_to_dict(p2) == program_to_dict(p)

    def test_round_trip_preserves_integration_attrs(self):
        p = _demo_program()
        p2 = program_from_dict(program_to_dict(p))
        g = p2.global_grids["tsfc"]
        assert g.type_parent == "fin" and g.exists_in_module == "m"
        assert p2.global_grids["w"].common_block == "blk"
        assert p2.global_grids["acc"].module_scope

    def test_round_trip_preserves_save_attr(self):
        p = _demo_program()
        p2 = program_from_dict(program_to_dict(p))
        assert p2.find_function("f").grids["t"].save


class TestExprSerialization:
    def test_all_node_kinds(self):
        from repro.core.expr import FuncCall

        e = (lib("MAX", ref("a", I("i") + 1), 2.0)
             + (-ref("b")) * FuncCall("g", (ref("x"),)))
        d = expr_to_dict(e)
        assert expr_from_dict(d) == e

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            expr_from_dict({"kind": "mystery"})


class TestVersioning:
    def test_wrong_version_rejected(self):
        p = _demo_program()
        d = program_to_dict(p)
        d["format_version"] = 999
        with pytest.raises(ValidationError, match="format"):
            program_from_dict(d)

    def test_version_field_present(self):
        assert "format_version" in program_to_dict(_demo_program())


class TestHostileProjects:
    """A malformed project file is one typed ``error:`` line, exit 2."""

    @staticmethod
    def _sarb(tmp_path, edit):
        """The saved SARB project with ``edit`` applied to its first
        assignment, as text."""
        from repro.sarb import build_sarb_program

        path = tmp_path / "sarb.json"
        save_project(build_sarb_program(), path)
        doc = json.loads(path.read_text())
        edit(next(s for m in doc["modules"] for f in m["functions"]
                  for st in f["steps"] for s in st["stmts"]
                  if s["kind"] == "assign"))
        return json.dumps(doc)

    @staticmethod
    def _analyze(tmp_path, capsys, data):
        from repro.cli import main

        path = tmp_path / "bad.json"
        path.write_bytes(data if isinstance(data, bytes) else data.encode())
        with pytest.raises(ValidationError):
            load_project(path)
        assert main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        return err[0].replace(str(path), "P")

    def test_constant_assignment_target(self, tmp_path, capsys):
        text = self._sarb(tmp_path, lambda a: a.update(
            target={"kind": "const", "value": 1}))
        assert self._analyze(tmp_path, capsys, text) == \
            "error: formula target must be a grid reference"

    def test_document_that_is_not_an_object(self, tmp_path, capsys):
        assert self._analyze(tmp_path, capsys, "[]") == \
            "error: project document is a JSON list, not an object"

    def test_deeply_nested_expression(self, tmp_path, capsys):
        deep = ('{"kind": "unop", "op": "neg", "operand": ' * 3000
                + '{"kind": "const", "value": 1}' + "}" * 3000)
        text = self._sarb(tmp_path, lambda a: a.update(expr="@deep@"))
        assert self._analyze(tmp_path, capsys, text.replace(
            '"@deep@"', deep)) == "error: project file P is nested too deeply"

    def test_assignment_without_expression(self, tmp_path, capsys):
        text = self._sarb(tmp_path, lambda a: a.pop("expr"))
        assert self._analyze(tmp_path, capsys, text) == \
            "error: malformed project document: missing key 'expr'"

    def test_text_that_is_not_utf8(self, tmp_path, capsys):
        assert self._analyze(tmp_path, capsys, b"\xff\xfe{}") == \
            "error: project file P is not UTF-8 text"
