"""Unit tests for the grid abstraction and its integration attributes."""

import pytest

from repro.core.grid import Grid, array, scalar
from repro.core.types import T_INT, T_REAL8
from repro.errors import ValidationError


class TestConstruction:
    def test_scalar_and_array_helpers(self):
        s = scalar("x", T_REAL8)
        assert s.is_scalar and s.rank == 0
        a = array("a", T_REAL8, (4, 5))
        assert a.rank == 2 and a.dims == (4, 5)

    def test_bad_names_rejected(self):
        with pytest.raises(ValidationError):
            Grid(name="", ty=T_INT)
        with pytest.raises(ValidationError):
            Grid(name="2abc", ty=T_INT)
        with pytest.raises(ValidationError):
            Grid(name="a b", ty=T_INT)

    def test_nonpositive_dimension_rejected(self):
        with pytest.raises(ValidationError):
            Grid(name="a", ty=T_INT, dims=(0,))
        with pytest.raises(ValidationError):
            Grid(name="a", ty=T_INT, dims=(-3,))

    def test_void_storage_rejected(self):
        from repro.core.types import T_VOID

        with pytest.raises(ValidationError):
            Grid(name="a", ty=T_VOID)


class TestIntegrationAttributes:
    def test_common_and_module_exclusive(self):
        # The GPI configuration screen makes these mutually exclusive.
        with pytest.raises(ValidationError):
            Grid(name="w", ty=T_REAL8, common_block="blk", exists_in_module="m")

    def test_type_element_requires_module(self):
        with pytest.raises(ValidationError):
            Grid(name="tsfc", ty=T_REAL8, type_parent="fin")

    def test_is_external(self):
        g1 = Grid(name="w", ty=T_REAL8, common_block="blk")
        g2 = Grid(name="v", ty=T_REAL8, exists_in_module="m")
        g3 = Grid(name="u", ty=T_REAL8, module_scope=True)
        assert g1.is_external and g2.is_external
        assert not g3.is_external
        assert not g1.needs_declaration  # COMMON members declared via block
        assert g3.needs_declaration

    def test_type_element_spelling_attrs(self):
        g = Grid(name="tsfc", ty=T_REAL8, exists_in_module="m",
                 type_parent="fin", type_name="rad_input")
        assert g.is_type_element

    def test_parameter_needs_init(self):
        with pytest.raises(ValidationError):
            Grid(name="n", ty=T_INT, is_parameter=True)
        g = Grid(name="n", ty=T_INT, is_parameter=True, init_data=5)
        assert g.is_parameter

    def test_bad_intent(self):
        with pytest.raises(ValidationError):
            Grid(name="a", ty=T_INT, intent="both")


class TestStorage:
    def test_shape_resolution(self):
        g = array("a", T_REAL8, ("n", 4))
        assert g.shape({"n": 7}) == (7, 4)
        with pytest.raises(ValidationError):
            g.shape()

    def test_symbolic_dims(self):
        g = array("a", T_REAL8, ("n", 4, "m"))
        assert g.symbolic_dims() == {"n", "m"}

    def test_ref_builds_expression(self):
        from repro.core.expr import GridRef

        g = array("a", T_REAL8, (3,))
        r = g.ref(1)
        assert isinstance(r, GridRef) and r.grid == "a"

    def test_with_replaces_fields(self):
        g = scalar("x", T_REAL8)
        g2 = g.with_(save=True)
        assert g2.save and not g.save and g2.name == g.name
