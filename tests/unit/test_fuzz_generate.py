"""The seeded corpus generator: deterministic, well-typed, exhaustive.

The generator is the foundation the whole ``repro fuzz`` campaign
stands on, so its contract is pinned hard: the same (seed, profile,
index) always draws the same spec, specs round-trip through JSON,
``build_program`` is a pure function of the spec, and a modest run of
the small profile exercises every step kind and every §3 integration
structure."""

import pytest

from repro.core.validate import validate_program
from repro.errors import ValidationError
from repro.fuzz import (
    PROFILES,
    STEP_KINDS,
    STRUCTURE_KINDS,
    CodebaseSpec,
    FuzzProfile,
    build_program,
    generate_codebase,
    generate_spec,
    get_profile,
)
from repro.optimize import make_plan
from repro.codegen import generate_fortran_module


class TestProfiles:
    def test_registry_has_small_and_full(self):
        assert set(PROFILES) == {"small", "full"}

    def test_get_profile_rejects_unknown_name(self):
        with pytest.raises(ValidationError, match="unknown fuzz profile"):
            get_profile("huge")

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ValidationError):
            FuzzProfile(name="bad", units=(3, 1))
        with pytest.raises(ValidationError):
            FuzzProfile(name="bad", extent=(0, 4))

    def test_small_is_bounded(self):
        small = get_profile("small")
        assert small.max_wall_seconds is not None


class TestSpecDrawing:
    def test_same_inputs_same_spec(self):
        a = generate_spec(7, "small", index=3)
        b = generate_spec(7, "small", index=3)
        assert a == b

    def test_index_and_seed_vary_the_draw(self):
        base = generate_spec(7, "small", index=0)
        assert base != generate_spec(7, "small", index=1)
        assert base != generate_spec(8, "small", index=0)

    def test_spec_respects_profile_bounds(self):
        prof = get_profile("small")
        for i in range(10):
            sp = generate_spec(11, "small", index=i)
            assert prof.extent[0] <= sp.extent <= prof.extent[1]
            assert prof.units[0] <= len(sp.units) <= prof.units[1]
            for u in sp.units:
                assert prof.steps[0] <= len(u.steps) <= prof.steps[1]
                assert all(s.kind in STEP_KINDS for s in u.steps)
                assert all(s in STRUCTURE_KINDS for s in u.structures)

    def test_json_round_trip(self):
        sp = generate_spec(7, "small", index=5)
        assert CodebaseSpec.from_json(sp.to_json()) == sp

    def test_small_profile_covers_every_kind_within_20_items(self):
        kinds, structs = set(), set()
        for i in range(20):
            sp = generate_spec(7, "small", index=i)
            for u in sp.units:
                kinds.update(s.kind for s in u.steps)
                structs.update(u.structures)
        assert kinds == set(STEP_KINDS)
        assert structs == set(STRUCTURE_KINDS)


class TestProgramRendering:
    def test_build_program_is_pure(self):
        sp = generate_spec(7, "small", index=2)
        text_a = generate_fortran_module(make_plan(build_program(sp)))
        text_b = generate_fortran_module(make_plan(build_program(sp)))
        assert text_a == text_b

    @pytest.mark.parametrize("index", range(6))
    def test_generated_programs_validate(self, index):
        cb = generate_codebase(7, "small", index=index)
        validate_program(cb.program)
        assert cb.sizes == {"n": cb.spec.extent}


class TestCrosscheck:
    """The fuzzer as a soundness oracle for the static bounds checker."""

    def test_static_claims_classify_a_literal_kernel(self):
        from repro.fortranlib.parser import parse_source
        from repro.fuzz.runner import _static_bounds_claims

        src = """\
subroutine k1(a)
  real(kind=8), intent(inout) :: a(10)
  integer :: i
  do i = 1, 10
    a(i) = a(i) + 1.0
  end do
end subroutine k1
"""
        claim = _static_bounds_claims(parse_source(src))["k1"]
        assert claim.possible == 0 and claim.unknown == 0
        assert claim.proven > 0

    def test_run_item_crosscheck_refutes_nothing_on_clean_corpus(self):
        from repro.fuzz.runner import run_item

        sp = generate_spec(7, "small", index=0)
        res = run_item(sp, "small", crosscheck=True)
        assert res.claims_refuted == 0
        assert not any(f.signature.stage == "crosscheck"
                       for f in res.failures)
        doc = res.to_json()
        assert doc["claims_proven"] == res.claims_proven
        assert doc["claims_refuted"] == 0

    def test_unparsable_module_fails_parse_lint_and_crosscheck(
            self, monkeypatch):
        # Lint and the crosscheck share the one recover-mode parse; when
        # it fails they report its first diagnostic, which is what a
        # strict parse of the same text raises.
        import repro.codegen
        from repro.fuzz.runner import run_item

        monkeypatch.setattr(
            repro.codegen, "generate_fortran_module",
            lambda plan: "SUBROUTINE k1(n)\n  x = = 1\nEND SUBROUTINE k1\n")
        res = run_item(generate_spec(7, "small", index=0), "small",
                       crosscheck=True)
        first = "unexpected token '=' (line 2, col 7)"
        got = [(f.signature.key, f.detail, f.diagnostics)
               for f in res.failures[:3]]
        assert got == [
            ("parse:DiagnosticBundle",
             f"1 error(s) collected; first: {first}", (first,)),
            ("lint:FortranSyntaxError", first, ()),
            ("crosscheck:FortranSyntaxError", first, ()),
        ]
        assert res.claims_proven == 0

    def test_corrupted_lex_reaches_every_stage(self):
        # One corrupted token stream is the only parse: lint and the
        # crosscheck fail on it too, and no bounds claim is made.
        from repro.fuzz.runner import run_item
        from repro.robust import FaultSpec

        sp = generate_spec(7, "small", index=0)
        assert run_item(sp, "small", crosscheck=True).claims_proven > 0
        res = run_item(sp, "small", crosscheck=True, faults=(
            FaultSpec.parse("fortran.lex.tokens:corrupt-token"),))
        keys = [f.signature.key for f in res.failures]
        assert keys == ["parse:DiagnosticBundle", "lint:FortranSyntaxError",
                        "crosscheck:FortranSyntaxError"]
        assert res.failures[1].detail == res.failures[0].diagnostics[0]
        assert res.claims_proven == 0

    def test_item_result_claims_round_trip(self):
        from repro.fuzz.runner import ItemResult

        sp = generate_spec(7, "small", index=1)
        res = ItemResult(index=1, spec=sp, claims_proven=3,
                         claims_refuted=1)
        back = ItemResult.from_json(res.to_json())
        assert back.claims_proven == 3 and back.claims_refuted == 1
