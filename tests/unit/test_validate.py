"""Unit tests for program validation."""

import pytest

from repro.core import GlafBuilder, I, T_INT, T_REAL8, T_VOID, ref
from repro.core.builder import StepBuilder as SB
from repro.core.function import GlafFunction, GlafModule, GlafProgram
from repro.core.grid import Grid
from repro.core.step import Assign, ExitLoop, Range, Return, Step
from repro.core.validate import validate_program
from repro.errors import ValidationError


def _program_with(fn: GlafFunction) -> GlafProgram:
    p = GlafProgram(name="t")
    mod = GlafModule(name="M")
    mod.add_function(fn)
    p.add_module(mod)
    return p


class TestScoping:
    def test_unknown_grid_rejected(self):
        fn = GlafFunction(name="f")
        fn.steps = [Step(name="s", stmts=[Assign(ref("nope"), 1.0)])]
        with pytest.raises(ValidationError, match="unknown grid"):
            validate_program(_program_with(fn))

    def test_unbound_index_rejected(self):
        fn = GlafFunction(name="f")
        fn.add_grid(Grid(name="a", ty=T_REAL8, dims=(4,)))
        fn.steps = [Step(name="s", stmts=[Assign(ref("a", I("i")), 1.0)])]
        with pytest.raises(ValidationError, match="unbound index"):
            validate_program(_program_with(fn))

    def test_rank_mismatch_on_read(self):
        fn = GlafFunction(name="f")
        fn.add_grid(Grid(name="a", ty=T_REAL8, dims=(4, 4)))
        fn.add_grid(Grid(name="x", ty=T_REAL8))
        fn.steps = [Step(name="s", ranges=[Range("i", 1, 4)],
                         stmts=[Assign(ref("x"), ref("a", I("i")))])]
        with pytest.raises(ValidationError, match="rank"):
            validate_program(_program_with(fn))

    def test_rank_mismatch_on_write(self):
        fn = GlafFunction(name="f")
        fn.add_grid(Grid(name="a", ty=T_REAL8, dims=(4,)))
        fn.steps = [Step(name="s", ranges=[Range("i", 1, 4), Range("j", 1, 4)],
                         stmts=[Assign(ref("a", I("i"), I("j")), 1.0)])]
        with pytest.raises(ValidationError, match="rank"):
            validate_program(_program_with(fn))

    def test_whole_array_assignment_rejected(self):
        fn = GlafFunction(name="f")
        fn.add_grid(Grid(name="a", ty=T_REAL8, dims=(4,)))
        fn.steps = [Step(name="s", stmts=[Assign(ref("a"), 1.0)])]
        with pytest.raises(ValidationError, match="whole array"):
            validate_program(_program_with(fn))

    def test_assign_to_parameter_rejected(self):
        fn = GlafFunction(name="f")
        fn.add_grid(Grid(name="c", ty=T_REAL8, is_parameter=True, init_data=1.0))
        fn.steps = [Step(name="s", stmts=[Assign(ref("c"), 2.0)])]
        with pytest.raises(ValidationError, match="PARAMETER"):
            validate_program(_program_with(fn))


class TestCalls:
    def test_unknown_callee(self):
        b = GlafBuilder("p")
        m = b.module("M")
        f = m.function("f")
        f.step().call("ghost", [])
        with pytest.raises(ValidationError, match="unknown function"):
            b.build()

    def test_arity_mismatch(self):
        b = GlafBuilder("p")
        m = b.module("M")
        g = m.function("g")
        g.param("x", T_REAL8, intent="in")
        g.step()
        f = m.function("f")
        f.step().call("g", [])
        with pytest.raises(ValidationError, match="argument"):
            b.build()

    def test_value_function_not_callable_as_statement(self):
        b = GlafBuilder("p")
        m = b.module("M")
        g = m.function("g", return_type=T_INT)
        g.returns(1)
        f = m.function("f")
        f.step().call("g", [])
        with pytest.raises(ValidationError, match="returns a value"):
            b.build()

    def test_subroutine_not_usable_in_expression(self):
        from repro.core.expr import FuncCall

        b = GlafBuilder("p")
        m = b.module("M")
        m.function("s").step()
        f = m.function("f")
        f.local("x", T_REAL8)
        f.step().formula(ref("x"), FuncCall("s", ()))
        with pytest.raises(ValidationError, match="subroutine"):
            b.build()

    def test_duplicate_function_names_across_modules(self):
        b = GlafBuilder("p")
        b.module("M1").function("f").step()
        b.module("M2").function("f").step()
        with pytest.raises(ValidationError, match="program-unique"):
            b.build()


class TestSubroutineRule:
    def test_subroutine_cannot_return_value(self):
        fn = GlafFunction(name="f", return_type=T_VOID)
        fn.steps = [Step(name="s", stmts=[Return(ref("f"))])]
        fn.add_grid(Grid(name="x", ty=T_REAL8))
        fn.steps = [Step(name="s", stmts=[Return(ref("x"))])]
        with pytest.raises(ValidationError, match="subroutine"):
            validate_program(_program_with(fn))

    def test_exit_outside_a_loop(self):
        fn = GlafFunction(name="f", return_type=T_VOID)
        fn.steps = [Step(name="s", stmts=[ExitLoop()])]
        with pytest.raises(ValidationError, match="f/s: EXIT outside a loop"):
            validate_program(_program_with(fn))
        fn.steps = [Step(name="s", ranges=[Range("i", 1, 2)],
                         stmts=[ExitLoop()])]
        validate_program(_program_with(fn))

    def test_unknown_lib_function(self):
        from repro.core.expr import LibCall

        fn = GlafFunction(name="f")
        fn.add_grid(Grid(name="x", ty=T_REAL8))
        fn.steps = [Step(name="s", stmts=[Assign(ref("x"), LibCall("NOPE", (ref("x"),)))])]
        with pytest.raises(ValidationError, match="library"):
            validate_program(_program_with(fn))

    def test_external_grid_must_live_in_global_scope(self):
        fn = GlafFunction(name="f")
        fn.grids["w"] = Grid(name="w", ty=T_REAL8, common_block="blk")
        with pytest.raises(ValidationError, match="Global Scope"):
            validate_program(_program_with(fn))


class TestCollectMode:
    """validate_program(collect=True) gathers every structural error into
    one DiagnosticBundle instead of raising on the first (mirroring
    parse_source(recover=True))."""

    def _two_error_program(self) -> GlafProgram:
        fn = GlafFunction(name="f")
        fn.steps = [
            Step(name="s1", stmts=[Assign(ref("nope"), 1.0)]),
            Step(name="s2", stmts=[Assign(ref("missing"), 2.0)]),
        ]
        return _program_with(fn)

    def test_all_errors_collected(self):
        from repro.errors import DiagnosticBundle

        with pytest.raises(DiagnosticBundle) as exc:
            validate_program(self._two_error_program(), collect=True)
        bundle = exc.value
        assert len(bundle.diagnostics) == 2
        joined = " ".join(str(d) for d in bundle.diagnostics)
        assert "nope" in joined and "missing" in joined

    def test_default_mode_raises_on_first(self):
        with pytest.raises(ValidationError, match="nope"):
            validate_program(self._two_error_program())

    def test_bundle_is_a_validation_error_subtype(self):
        # Callers that catch GlafError keep working.
        from repro.errors import DiagnosticBundle, GlafError

        assert issubclass(DiagnosticBundle, GlafError)

    def test_clean_program_passes_in_both_modes(self):
        fn = GlafFunction(name="f")
        fn.add_grid(Grid(name="a", ty=T_REAL8, dims=(4,)))
        fn.steps = [Step(name="s", ranges=[Range("i", 1, 4)],
                         stmts=[Assign(ref("a", I("i")), 1.0)])]
        p = _program_with(fn)
        validate_program(p)
        validate_program(p, collect=True)
