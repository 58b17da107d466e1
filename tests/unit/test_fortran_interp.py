"""Unit tests for the FORTRAN-subset interpreter."""

import gc
import re
import warnings
import weakref

import numpy as np
import pytest

from repro.errors import FortranRuntimeError
from repro.fortranlib import FortranRuntime, StopSignal


def _rt(*sources: str) -> FortranRuntime:
    rt = FortranRuntime()
    for s in sources:
        rt.load(s)
    return rt


class TestArithmetic:
    IDIV = """
INTEGER FUNCTION idiv(a, b)
  INTEGER, INTENT(IN) :: a
  INTEGER, INTENT(IN) :: b
  idiv = a / b
END FUNCTION idiv
"""

    def test_integer_division_truncates(self):
        rt = _rt(self.IDIV)
        assert rt.call("idiv", [7, 2]) == 3
        assert rt.call("idiv", [-7, 2]) == -3
        assert rt.call("idiv", [7, -2]) == -3
        exact = rt.call("idiv", [2**53 + 1, 1])   # not rounded through float64
        assert exact == 2**53 + 1 and isinstance(exact, np.int64)

    def test_integer_division_by_zero_is_a_typed_error(self):
        rt = _rt(self.IDIV)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FortranRuntimeError, match="^integer division by zero$"):
                rt.call("idiv", [5, 0])

    def test_real_division(self):
        rt = _rt("""
REAL(KIND=8) FUNCTION rdiv(a, b)
  REAL(KIND=8), INTENT(IN) :: a
  REAL(KIND=8), INTENT(IN) :: b
  rdiv = a / b
END FUNCTION rdiv
""")
        assert rt.call("rdiv", [7.0, 2.0]) == 3.5

    def test_power_and_intrinsics(self):
        rt = _rt("""
REAL(KIND=8) FUNCTION f(x)
  REAL(KIND=8), INTENT(IN) :: x
  f = SQRT(x ** 2) + ABS(-x) + MAX(x, 0.0D0, 2.0D0)
END FUNCTION f
""")
        assert rt.call("f", [3.0]) == 3.0 + 3.0 + 3.0

    def test_logicals(self):
        rt = _rt("""
INTEGER FUNCTION f(x)
  REAL(KIND=8), INTENT(IN) :: x
  IF (x > 0.0D0 .AND. .NOT. (x > 10.0D0)) THEN
    f = 1
  ELSE
    f = 0
  END IF
END FUNCTION f
""")
        assert rt.call("f", [5.0]) == 1
        assert rt.call("f", [50.0]) == 0
        assert rt.call("f", [-5.0]) == 0


class TestControlFlow:
    def test_do_loop_and_exit_cycle(self):
        rt = _rt("""
INTEGER FUNCTION count_odd_until(v, n, stopv)
  INTEGER, INTENT(IN) :: n
  INTEGER, INTENT(IN) :: stopv
  INTEGER, INTENT(IN) :: v(n)
  INTEGER :: i
  count_odd_until = 0
  DO i = 1, n
    IF (v(i) == stopv) EXIT
    IF (MOD(v(i), 2) == 0) CYCLE
    count_odd_until = count_odd_until + 1
  END DO
END FUNCTION count_odd_until
""")
        v = np.array([1, 2, 3, 9, 5], dtype=np.int64)
        assert rt.call("count_odd_until", [v, 5, 9]) == 2

    def test_negative_step(self):
        rt = _rt("""
INTEGER FUNCTION f(n)
  INTEGER, INTENT(IN) :: n
  INTEGER :: i
  f = 0
  DO i = n, 1, -1
    f = f * 10 + i
  END DO
END FUNCTION f
""")
        assert rt.call("f", [3]) == 321

    # Fortran 2018 11.1.7.4: a completed DO leaves its variable one step
    # past the last iteration (the start value after zero trips); EXIT
    # leaves the current value.  Each loop runs lifted as written, and
    # on the scalar closure with the never-taken CYCLE in front.
    DO_VARIABLES = """
MODULE dv
  IMPLICIT NONE
  INTEGER :: fin(5)
  REAL(KIND=8) :: x(20)
CONTAINS
  SUBROUTINE s()
    INTEGER :: i, l, j, k, c
    j = -7
    DO i = 1, 10
      {guard}
      x(i) = 1.0D0
    END DO
    DO l = 1, 10, 3
      {guard}
      x(l) = x(l) + 2.0D0
    END DO
    DO j = 5, 1
      {guard}
      x(j) = 3.0D0
    END DO
    DO k = 1, 10
      IF (k == 4) EXIT
      x(k) = 4.0D0
    END DO
    DO c = 1, 10
      IF (c > 2) CYCLE
      x(c) = 5.0D0
    END DO
    fin(1) = i
    fin(2) = l
    fin(3) = j
    fin(4) = k
    fin(5) = c
  END SUBROUTINE s
END MODULE dv
"""

    @pytest.mark.parametrize("guard", ["", "IF (.FALSE.) CYCLE"])
    def test_do_variable_after_the_loop(self, guard):
        from repro import observe

        rt = _rt(self.DO_VARIABLES.format(guard=guard))
        with observe.observed() as obs:
            rt.call("s")
        fin = rt.modules["dv"].variables["fin"].store
        assert fin.tolist() == [11, 13, 5, 4, 11]
        lifted = obs.metrics.counter("exec.fortran.lifted").value
        assert lifted == (2 if guard == "" else 0)

    def test_do_while(self):
        rt = _rt("""
INTEGER FUNCTION f(n)
  INTEGER, INTENT(IN) :: n
  f = 1
  DO WHILE (f < n)
    f = f * 2
  END DO
END FUNCTION f
""")
        assert rt.call("f", [100]) == 128

    def test_stop_signal(self):
        rt = _rt("""
PROGRAM p
  PRINT *, 'before'
  STOP 'bye'
  PRINT *, 'after'
END PROGRAM p
""")
        rt.run_program()
        assert rt.output == [("before",)]


class TestStorageSemantics:
    def test_array_argument_by_reference(self):
        rt = _rt("""
SUBROUTINE fill(n, a)
  INTEGER, INTENT(IN) :: n
  REAL(KIND=8), INTENT(INOUT) :: a(n)
  INTEGER :: i
  DO i = 1, n
    a(i) = i * 1.0D0
  END DO
END SUBROUTINE fill
""")
        a = np.zeros(4)
        rt.call("fill", [4, a])
        assert np.array_equal(a, [1.0, 2.0, 3.0, 4.0])

    def test_scalar_element_argument_by_reference(self):
        rt = _rt("""
SUBROUTINE setit(x)
  REAL(KIND=8), INTENT(OUT) :: x
  x = 9.0D0
END SUBROUTINE setit

SUBROUTINE driver(a)
  REAL(KIND=8), INTENT(INOUT) :: a(3)
  CALL setit(a(2))
END SUBROUTINE driver
""")
        a = np.zeros(3)
        rt.call("driver", [a])
        assert np.array_equal(a, [0.0, 9.0, 0.0])

    def test_whole_array_assignment(self):
        rt = _rt("""
SUBROUTINE z(n, a)
  INTEGER, INTENT(IN) :: n
  REAL(KIND=8), INTENT(INOUT) :: a(n)
  a = 7.0D0
END SUBROUTINE z
""")
        a = np.zeros(3)
        rt.call("z", [3, a])
        assert np.all(a == 7.0)

    def test_save_persists_across_calls(self):
        rt = _rt("""
INTEGER FUNCTION counter()
  INTEGER, SAVE :: state
  state = state + 1
  counter = state
END FUNCTION counter
""")
        assert rt.call("counter", []) == 1
        assert rt.call("counter", []) == 2

    def test_allocatable_save_pattern(self):
        rt = _rt("""
INTEGER FUNCTION nalloc(n)
  INTEGER, INTENT(IN) :: n
  REAL(KIND=8), ALLOCATABLE, SAVE :: buf(:)
  IF (.NOT. ALLOCATED(buf)) ALLOCATE(buf(n))
  nalloc = 1
END FUNCTION nalloc
""")
        before = rt.allocation_count
        rt.call("nalloc", [8])
        mid = rt.allocation_count
        rt.call("nalloc", [8])
        assert mid == before + 1
        assert rt.allocation_count == mid  # no re-allocation

    def test_bounds_checked(self):
        rt = _rt("""
SUBROUTINE bad(a)
  REAL(KIND=8), INTENT(INOUT) :: a(3)
  a(5) = 1.0D0
END SUBROUTINE bad
""")
        with pytest.raises(FortranRuntimeError, match="bounds"):
            rt.call("bad", [np.zeros(3)])

    def test_undeclared_variable(self):
        rt = _rt("""
SUBROUTINE bad()
  mystery = 1.0D0
END SUBROUTINE bad
""")
        with pytest.raises(FortranRuntimeError):
            rt.call("bad", [])


class TestModulesCommonsTypes:
    MOD = """
MODULE data_mod
  IMPLICIT NONE
  TYPE pt
    REAL(KIND=8) :: x
    REAL(KIND=8) :: v(2)
  END TYPE pt
  TYPE(pt) :: p
  REAL(KIND=8) :: shared(3)
  INTEGER, PARAMETER :: nconst = 3
END MODULE data_mod
"""

    def test_module_variable_shared_between_units(self):
        rt = _rt(self.MOD, """
SUBROUTINE w()
  USE data_mod, ONLY: shared
  shared(1) = 5.0D0
END SUBROUTINE w

REAL(KIND=8) FUNCTION r()
  USE data_mod, ONLY: shared
  r = shared(1)
END FUNCTION r
""")
        rt.call("w", [])
        assert rt.call("r", []) == 5.0

    def test_derived_type_components(self):
        rt = _rt(self.MOD, """
SUBROUTINE setp()
  USE data_mod, ONLY: p
  p%x = 1.5D0
  p%v(2) = 2.5D0
END SUBROUTINE setp

REAL(KIND=8) FUNCTION getp()
  USE data_mod, ONLY: p
  getp = p%x + p%v(2)
END FUNCTION getp
""")
        rt.call("setp", [])
        assert rt.call("getp", []) == 4.0

    def test_module_parameter_as_dimension(self):
        rt = _rt(self.MOD, """
REAL(KIND=8) FUNCTION f()
  USE data_mod, ONLY: nconst
  REAL(KIND=8) :: local(nconst)
  local(3) = 2.0D0
  f = local(3)
END FUNCTION f
""")
        assert rt.call("f", []) == 2.0

    def test_common_block_shared_by_name(self):
        rt = _rt("""
SUBROUTINE setc()
  REAL(KIND=8) :: w(2)
  COMMON /blk/ w
  w(1) = 3.0D0
END SUBROUTINE setc

REAL(KIND=8) FUNCTION getc()
  REAL(KIND=8) :: w(2)
  COMMON /blk/ w
  getc = w(1)
END FUNCTION getc
""")
        rt.call("setc", [])
        assert rt.call("getc", []) == 3.0

    def test_common_kind_mismatch_rejected(self):
        rt = _rt("""
SUBROUTINE a1()
  REAL(KIND=8) :: w(2)
  COMMON /blk2/ w
  w(1) = 1.0D0
END SUBROUTINE a1

SUBROUTINE a2()
  INTEGER :: w(2)
  COMMON /blk2/ w
  w(1) = 1
END SUBROUTINE a2
""")
        rt.call("a1", [])
        with pytest.raises(FortranRuntimeError, match="kind"):
            rt.call("a2", [])


class TestOmpLogging:
    def test_parallel_do_logged_with_trip_count(self):
        rt = _rt("""
SUBROUTINE f(n, a)
  INTEGER, INTENT(IN) :: n
  REAL(KIND=8), INTENT(INOUT) :: a(n)
  INTEGER :: i
!$OMP PARALLEL DO PRIVATE(i)
  DO i = 1, n
    a(i) = 1.0D0
  END DO
!$OMP END PARALLEL DO
END SUBROUTINE f
""")
        rt.call("f", [6, np.zeros(6)])
        ev = [e for e in rt.omp_log if e.kind == "parallel_do"]
        assert len(ev) == 1 and ev[0].iterations == 6

    def test_results_identical_with_and_without_directives(self):
        src_base = """
SUBROUTINE g{tag}(n, a)
  INTEGER, INTENT(IN) :: n
  REAL(KIND=8), INTENT(INOUT) :: a(n)
  INTEGER :: i
{omp1}
  DO i = 1, n
    a(i) = a(i) + i * 0.5D0
  END DO
{omp2}
END SUBROUTINE g{tag}
"""
        rt = _rt(
            src_base.format(tag="p", omp1="!$OMP PARALLEL DO", omp2="!$OMP END PARALLEL DO"),
            src_base.format(tag="s", omp1="", omp2=""),
        )
        a, b = np.zeros(5), np.zeros(5)
        rt.call("gp", [5, a])
        rt.call("gs", [5, b])
        assert np.array_equal(a, b)


class TestFunctions:
    def test_recursion_depth_guard(self):
        # Mutual recursion (direct recursion would shadow the result var).
        rt = _rt("""
SUBROUTINE ping(n)
  INTEGER, INTENT(IN) :: n
  CALL pong(n + 1)
END SUBROUTINE ping

SUBROUTINE pong(n)
  INTEGER, INTENT(IN) :: n
  CALL ping(n + 1)
END SUBROUTINE pong
""")
        with pytest.raises(FortranRuntimeError, match="depth"):
            rt.call("ping", [0])

    def test_function_calls_function(self):
        rt = _rt("""
REAL(KIND=8) FUNCTION sq(x)
  REAL(KIND=8), INTENT(IN) :: x
  sq = x * x
END FUNCTION sq

REAL(KIND=8) FUNCTION quart(x)
  REAL(KIND=8), INTENT(IN) :: x
  quart = sq(sq(x))
END FUNCTION quart
""")
        assert rt.call("quart", [2.0]) == 16.0

    def test_wrong_arity(self):
        rt = _rt("""
SUBROUTINE s(a)
  REAL(KIND=8), INTENT(IN) :: a
END SUBROUTINE s
""")
        with pytest.raises(FortranRuntimeError, match="argument"):
            rt.call("s", [])


class TestModuleConstantFolding:
    def test_division_and_power_in_module_extents(self):
        rt = _rt("""
MODULE ext_mod
  IMPLICIT NONE
  INTEGER, PARAMETER :: n = 10
  REAL(KIND=8) :: a(n / 2)
  REAL(KIND=8) :: b(2 ** 3, -7 / 2 + 5)
END MODULE ext_mod
""")
        v = rt.modules["ext_mod"].variables
        assert v["a"].store.shape == (5,)
        assert v["b"].store.shape == (8, 2)

    def test_unsupported_node_is_a_typed_error(self):
        with pytest.raises(FortranRuntimeError,
                           match="unsupported constant expression at module scope"):
            _rt("""
MODULE bad_mod
  IMPLICIT NONE
  REAL(KIND=8) :: a(MAX(2, 3))
END MODULE bad_mod
""")


class TestCompiledUnits:
    def test_unexecuted_unknown_names_raise_only_when_run(self):
        rt = _rt("""
INTEGER FUNCTION f(flag)
  INTEGER, INTENT(IN) :: flag
  f = 0
  IF (flag == 1) THEN
    f = mystery + 1
  ELSE IF (flag == 2) THEN
    CALL nowhere(f)
  ELSE IF (flag == 3) THEN
    f = nofunc(2)
  ELSE IF (flag == 4) THEN
    undeclared = 1
  END IF
END FUNCTION f
""")
        assert rt.call("f", [0]) == 0
        for flag, message in [(1, "unknown name 'mystery'"),
                              (2, "no subprogram named 'nowhere'"),
                              (3, "unknown array/function 'nofunc'"),
                              (4, "assignment to undeclared 'undeclared'")]:
            with pytest.raises(FortranRuntimeError, match=f"^{re.escape(message)}$"):
                rt.call("f", [flag])
        assert rt.call("f", [0]) == 0

    def test_module_loaded_after_first_call_is_seen(self):
        rt = _rt("""
REAL(KIND=8) FUNCTION peek(flag)
  USE late_mod
  INTEGER, INTENT(IN) :: flag
  peek = -1.0D0
  IF (flag == 1) peek = payload + bump(1.0D0)
END FUNCTION peek
""")
        assert rt.call("peek", [0]) == -1.0
        with pytest.raises(FortranRuntimeError, match="unknown name 'payload'"):
            rt.call("peek", [1])
        rt.load("""
MODULE late_mod
  IMPLICIT NONE
  REAL(KIND=8) :: payload = 2.5D0
CONTAINS
  REAL(KIND=8) FUNCTION bump(x)
    REAL(KIND=8), INTENT(IN) :: x
    bump = x + 1.0D0
  END FUNCTION bump
END MODULE late_mod
""")
        assert rt.call("peek", [1]) == 4.5

    def test_contains_subprogram_registered_by_run_program_resolves(self):
        rt = _rt("""
INTEGER FUNCTION quad(n, flag)
  INTEGER, INTENT(IN) :: n
  INTEGER, INTENT(IN) :: flag
  quad = 0
  IF (flag == 1) quad = twice(twice(n))
END FUNCTION quad

PROGRAM p
  INTEGER :: k
  k = twice(21)
  PRINT *, k
CONTAINS
  INTEGER FUNCTION twice(n)
    INTEGER, INTENT(IN) :: n
    twice = 2 * n
  END FUNCTION twice
END PROGRAM p
""")
        assert rt.call("quad", [3, 0]) == 0
        rt.run_program()
        assert rt.output == [(42,)]
        assert rt.call("quad", [3, 1]) == 12

    def test_dropped_runtime_is_freed_without_the_cycle_collector(self):
        from repro.fun3d import make_mesh, run_generated_fortran
        from repro.sarb import make_inputs, run_legacy_fortran

        from repro import observe

        source = """
MODULE m
  IMPLICIT NONE
  REAL(KIND=8) :: acc(4)
CONTAINS
  REAL(KIND=8) FUNCTION sq(x)
    REAL(KIND=8), INTENT(IN) :: x
    sq = x * x
  END FUNCTION sq
  SUBROUTINE fill(n)
    INTEGER, INTENT(IN) :: n
    INTEGER :: i
    DO i = 1, n
      acc(i) = sq(i * 1.0D0)
    END DO
  END SUBROUTINE fill
END MODULE m
"""
        gc.collect()
        gc.disable()
        try:
            refs = []
            for _ in range(4):          # the last runtimes share fill
                rt = _rt(source)
                with observe.observed() as obs:
                    rt.call("fill", [4])
                    with pytest.raises(FortranRuntimeError, match="bounds"):
                        rt.call("fill", [5])
                refs += [weakref.ref(rt),
                         weakref.ref(rt.modules["m"].variables["acc"].store)]
                del rt
            assert obs.metrics.counter("fortran.unit_cache.hits").value > 0
            refs += [weakref.ref(run_legacy_fortran(make_inputs(seed=1))[1]),
                     # its lifted sweep's plan stays cached, its runtime
                     # does not
                     weakref.ref(run_generated_fortran(make_mesh(27))[1])]
            assert [r() for r in refs] == [None] * 10
        finally:
            gc.enable()
