"""Lifting FORTRAN DO nests must be invisible.

A differential over seeded random nests runs each nest as written and
again with ``IF (.FALSE.) CYCLE`` in front of its body, which keeps it on
the scalar closure (CYCLE does not lower), and compares every module
variable byte for byte, the error, the RuntimeWarnings, ``omp_log``, the
allocation count and the DO variables.  One test per guard pins the
cases that must run on the scalar closure before touching any state.
"""

import random
import warnings

import numpy as np
import pytest

from repro import observe
from repro.fortranlib import FortranRuntime

N = 6

MODULE = f"""
MODULE m
  IMPLICIT NONE
  REAL(KIND=8) :: a({N}, {N})
  REAL(KIND=8) :: b({N}, {N})
  REAL(KIND=8) :: c({N})
  REAL(KIND=4) :: r({N}, {N})
  REAL(KIND=4) :: r1({N})
  INTEGER :: k({N}, {N})
  INTEGER :: k1({N})
  REAL(KIND=8) :: s
  REAL(KIND=4) :: t
  INTEGER :: q
  INTEGER :: dv(2)
END MODULE m
"""

# name -> (rank, is integer)
ARRAYS = {"a": (2, False), "b": (2, False), "c": (1, False),
          "r": (2, False), "r1": (1, False), "k": (2, True), "k1": (1, True)}
SCALARS = {"s": False, "t": False, "q": True}

RANGES = (
    ("1", str(N), None),
    (str(N), "1", "-1"),
    ("2", str(N), "2"),
    (str(N), "1", "-2"),
    ("5", "1", None),                   # zero trips
    ("0", str(N), None),                # out of bounds
    ("1", str(N + 2), None),            # out of bounds
)
RANGE_WEIGHTS = (10, 3, 3, 2, 1, 1, 1)


class _Nests:
    """Seeded random DO nests over the module above."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def pick(self, seq, weights=None):
        return self.rng.choices(seq, weights=weights)[0]

    def read(self, loops, want_int=None):
        rng = self.rng
        names = [n for n, (_, is_int) in ARRAYS.items()
                 if want_int is None or is_int == want_int]
        name = self.pick(names)
        rank = ARRAYS[name][0]
        vars_ = list(loops)
        if rank == 1:
            sub = self.pick(vars_ + ["3"])
            return f"{name}({sub})"
        if len(vars_) == 1:
            v = vars_[0]
            pattern = self.pick([(v, "2"), ("4", v), (v, v)])
        else:
            pattern = self.pick([tuple(vars_), tuple(reversed(vars_)),
                                 (vars_[0], vars_[0])])
        return f"{name}({rng.choice([', '.join(pattern)])})"

    def expr(self, loops, depth=0, want_int=False):
        rng = self.rng
        if depth >= 2 or rng.random() < 0.35:
            roll = rng.random()
            if want_int:
                if roll < 0.6:
                    return self.read(loops, want_int=True)
                if roll < 0.8:
                    return self.pick(list(loops))
                return self.pick(["3", "-2", "1"])
            if roll < 0.6:
                return self.read(loops)
            if roll < 0.7:
                return self.pick(list(loops))
            return self.pick(["2.0D0", "-0.0D0", "0.5D0", "3", "1.5E0"])
        if want_int:
            op = self.pick(["+", "-", "*", "/", "MOD"])
            l, r = (self.expr(loops, depth + 1, True),
                    self.expr(loops, depth + 1, True))
            return f"MOD({l}, {r})" if op == "MOD" else f"({l} {op} {r})"
        kind = rng.random()
        if kind < 0.55:
            op = self.pick(["+", "-", "*", "/"])
            return (f"({self.expr(loops, depth + 1)} {op} "
                    f"{self.expr(loops, depth + 1)})")
        if kind < 0.65:
            return f"-{self.expr(loops, depth + 1)}"
        fn = self.pick(["ABS", "SQRT", "EXP", "MAX", "MIN"])
        x = self.expr(loops, depth + 1)
        if fn == "SQRT":
            return f"SQRT(ABS({x}))"
        if fn == "EXP":
            return f"EXP(MIN({x}, 3.0D0))"
        if fn in ("MAX", "MIN"):
            return f"{fn}({x}, {self.expr(loops, depth + 1)})"
        return f"ABS({x})"

    def cond(self, loops):
        op = self.pick(["<", ">", "<=", ">=", "==", "/="])
        return f"{self.expr(loops, 1)} {op} {self.expr(loops, 1)}"

    def stmt(self, loops, depth=0):
        rng = self.rng
        roll = rng.random()
        if roll < 0.15 and depth == 0:
            branches = [f"IF ({self.cond(loops)}) THEN"]
            branches += ["  " + s for s in self.stmts(loops, 1)]
            if rng.random() < 0.4:
                branches.append(f"ELSE IF ({self.cond(loops)}) THEN")
                branches += ["  " + s for s in self.stmts(loops, 1)]
            if rng.random() < 0.6:
                branches.append("ELSE")
                branches += ["  " + s for s in self.stmts(loops, 1)]
            return branches + ["END IF"]
        if roll < 0.55:
            # pointwise: an array of the nest's rank indexed by all vars
            rank = len(loops)
            name = self.pick([n for n, (rk, _) in ARRAYS.items()
                              if rk == rank])
            is_int = ARRAYS[name][1]
            subs = list(loops)
            if rank == 2 and rng.random() < 0.4:
                subs.reverse()
            return [f"{name}({', '.join(subs)}) = "
                    f"{self.expr(loops, want_int=is_int)}"]
        if roll < 0.8 and len(loops) == 2:
            # reduction into an array over the inner loop
            name = self.pick([n for n, (rk, _) in ARRAYS.items() if rk == 1])
            is_int = ARRAYS[name][1]
            acc = f"{name}({loops[0]})"
            term = self.expr(loops, want_int=is_int)
            form = self.pick(["{acc} + {t}", "{acc} - {t}", "{t} + {acc}",
                              "MAX({acc}, {t})", "MIN({t}, {acc})"])
            return [f"{acc} = {form.format(acc=acc, t=term)}"]
        name = self.pick(list(SCALARS))
        term = self.expr(loops, want_int=SCALARS[name])
        form = self.pick(["{acc} + {t}", "{acc} - {t}", "MAX({acc}, {t})"])
        return [f"{name} = {form.format(acc=name, t=term)}"]

    def stmts(self, loops, depth=0):
        out = []
        for _ in range(self.rng.choice([1, 1, 2, 3])):
            out += self.stmt(loops, depth)
        return out

    def nest(self):
        rng = self.rng
        loops = ("i", "j")[:rng.choice([1, 2, 2])]
        heads = []
        for v in loops:
            lo, hi, by = self.pick(RANGES, RANGE_WEIGHTS)
            heads.append(f"DO {v} = {lo}, {hi}" + (f", {by}" if by else ""))
        body = self.stmts(loops)
        omp = rng.random() < 0.15
        return heads, body, omp


def _unit(name, heads, body, omp, guard):
    indent = "    "
    lines = [f"  SUBROUTINE {name}()", "    USE m", "    IMPLICIT NONE",
             "    INTEGER :: i, j", "    i = -1", "    j = -1"]
    if omp:
        lines.append("!$OMP PARALLEL DO")
    for d, head in enumerate(heads):
        lines.append(indent * (d + 1) + head)
    inner = indent * (len(heads) + 1)
    if guard:
        lines.append(inner + "IF (.FALSE.) CYCLE")
    lines += [inner + s for s in body]
    for d in reversed(range(len(heads))):
        lines.append(indent * (d + 1) + "END DO")
    if omp:
        lines.append("!$OMP END PARALLEL DO")
    lines += ["    dv(1) = i", "    dv(2) = j", f"  END SUBROUTINE {name}"]
    return "\n".join(lines)


def _data(seed):
    rng = np.random.default_rng(seed)
    out = {}
    for name, (rank, is_int) in ARRAYS.items():
        shape = (N,) * rank
        if is_int:
            out[name] = rng.integers(-3, 4, size=shape)
        else:
            v = rng.normal(size=shape) * rng.choice([1.0, 4.0])
            v[rng.random(shape) < 0.1] = -0.0
            out[name] = v
    out.update(s=rng.normal(), t=-0.0, q=int(rng.integers(-5, 5)))
    return out


def _state(rt):
    return {name: (slot.store.dtype.str, slot.store.shape,
                   slot.store.tobytes())
            for name, slot in sorted(rt.modules["m"].variables.items())}


def _run(rt, name, data):
    for var, value in data.items():
        rt.modules["m"].variables[var].store[...] = value
    rt.modules["m"].variables["dv"].store[...] = 0
    rt.omp_log.clear()
    error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rt.call(name)
        except Exception as e:                  # compared, not judged
            error = (type(e).__name__, str(e))
    return {"state": _state(rt), "error": error,
            "warnings": [(w.category.__name__, str(w.message))
                         for w in caught],
            # The twins sit on other lines of other units: compare the rest.
            "omp": [(e.kind, e.collapse, e.reductions, e.private,
                     e.iterations) for e in rt.omp_log],
            "allocations": rt.allocation_count}


@pytest.mark.parametrize("seed", range(4))
def test_lift_is_invisible(seed):
    gen = _Nests(seed)
    count = 250
    nests = [gen.nest() for _ in range(count)]
    src = "\n".join(
        [MODULE, "MODULE nests", "CONTAINS"]
        + [_unit(f"p{k}", *nest, guard=False) for k, nest in enumerate(nests)]
        + [_unit(f"g{k}", *nest, guard=True) for k, nest in enumerate(nests)]
        + ["END MODULE nests"])
    rt = FortranRuntime()
    rt.load(src)
    lifted = 0
    for k, nest in enumerate(nests):
        data = _data(seed * 1000 + k)
        with observe.observed() as obs:
            got = _run(rt, f"p{k}", data)
        lifted += obs.metrics.counter("exec.fortran.lifted").value
        want = _run(rt, f"g{k}", data)
        assert got == want, "\n".join(nest[0] + nest[1])
    # Not vacuous: a fair share of the nests really ran lifted.
    assert lifted >= count // 5


GUARDED = """
MODULE gm
  IMPLICIT NONE
  REAL(KIND=8) :: x(8)
  REAL(KIND=8) :: y(8)
  INTEGER :: num(8)
  INTEGER :: den(8)
  INTEGER :: res(8)
  INTEGER :: ix(8)
  REAL(KIND=8) :: t
  REAL(KIND=8), ALLOCATABLE :: z(:)
CONTAINS
  SUBROUTINE double()
    INTEGER :: i
    DO i = 1, 8
      {guard}
      y(i) = x(i) * 2.0D0
    END DO
  END SUBROUTINE double
  SUBROUTINE carry(w)
    REAL(KIND=8), INTENT(INOUT) :: w(8)
    INTEGER :: i
    DO i = 2, 8
      {guard}
      w(i) = x(i - 1) + 1.0D0
    END DO
  END SUBROUTINE carry
  SUBROUTINE fill()
    INTEGER :: i
    DO i = 1, 8
      {guard}
      z(i) = 1.0D0
    END DO
  END SUBROUTINE fill
  SUBROUTINE frozen()
    INTEGER, PARAMETER :: p = 3
    INTEGER :: i
    DO i = 1, 8
      {guard}
      p = p + num(i)
    END DO
  END SUBROUTINE frozen
  SUBROUTINE temp()
    INTEGER :: i
    DO i = 1, 8
      {guard}
      t = x(i) * 2.0D0
      y(i) = t + 1.0D0
    END DO
  END SUBROUTINE temp
  SUBROUTINE scatter()
    INTEGER :: i
    DO i = 1, 8
      {guard}
      y(ix(i)) = y(ix(i)) + x(i)
    END DO
  END SUBROUTINE scatter
  SUBROUTINE ratio()
    INTEGER :: i
    DO i = 1, 8
      {guard}
      y(i) = x(i) + 1.0D0
      res(i) = MOD(num(i), den(i))
    END DO
  END SUBROUTINE ratio
END MODULE gm
"""


def _gm_state(rt):
    return {n: None if s.store is None else s.store.tobytes()
            for n, s in rt.modules["gm"].variables.items()}


def _both(name, prepare=lambda rt: None, args=lambda rt: (),
          action="error"):
    """Run ``name`` as written and on its scalar twin: per runtime the
    error, the module state, the fallback reasons and the lifted count."""
    out = []
    for guard in ("", "IF (.FALSE.) CYCLE"):
        rt = FortranRuntime()
        rt.load(GUARDED.format(guard=guard))
        v = rt.modules["gm"].variables
        v["x"].store[...] = np.arange(1.0, 9.0)
        v["num"].store[...] = np.arange(10, 18)
        v["den"].store[...] = [3, 2, 0, 5, 1, 4, 2, 3]
        prepare(rt)
        with observe.observed() as obs, warnings.catch_warnings():
            warnings.simplefilter(action)
            try:
                rt.call(name, list(args(rt)))
                error = None
            except Exception as e:
                error = (type(e).__name__, str(e))
        out.append((error, _gm_state(rt),
                    [d.reasons[0] for d in
                     obs.decisions.for_stage("executor:fallback")],
                    obs.metrics.counter("exec.fortran.lifted").value))
    written, twin = out
    assert written[:2] == twin[:2]          # the lift is invisible
    assert twin[2] == ["CYCLE statement in the loop body"]
    return written


class TestGuards:
    def test_lifts_when_no_guard_refuses(self):
        error, state, reasons, lifted = _both("double")
        assert (error, reasons, lifted) == (None, [], 1)
        assert np.frombuffer(state["y"]).tolist() == [
            2.0 * k for k in range(1, 9)]

    def test_sentinels(self):
        from repro.numeric import SentinelConfig
        from repro.runconfig import configured

        def poison(rt):
            rt.modules["gm"].variables["x"].store[4] = np.nan
        with configured(sentinels=SentinelConfig()):
            error, _, reasons, lifted = _both("double", poison)
        assert error[0] == "NumericIntegrityError" and "cell (5,)" in error[1]
        assert (reasons, lifted) == (["numeric sentinels are on"], 0)

    def test_dummy_argument_aliasing_a_module_array(self):
        # w is x, so w(i) = x(i - 1) + 1 is a loop-carried chain.
        error, state, reasons, lifted = _both(
            "carry", args=lambda rt: [rt.modules["gm"].variables["x"].store])
        assert error is None and lifted == 0
        assert np.frombuffer(state["x"]).tolist() == [
            float(k) for k in range(1, 9)]
        assert "may share memory" in reasons[0]
        _, _, reasons, lifted = _both("carry", args=lambda rt: [np.zeros(8)])
        assert (reasons, lifted) == ([], 1)

    def test_parameter_target(self):
        error, _, reasons, lifted = _both("frozen")
        assert error == ("FortranRuntimeError",
                         "cannot assign to PARAMETER 'p'")
        assert (reasons, lifted) == (["'p' is a PARAMETER"], 0)

    def test_unallocated_array(self):
        error, _, reasons, lifted = _both("fill")
        assert error == ("FortranRuntimeError", "'z' used before ALLOCATE")
        assert lifted == 0 and "unallocated" in reasons[0]

    def test_scalar_temporary_stays_scalar(self):
        # The IR executor expands a scalar written before it is read;
        # a FORTRAN nest keeps it on the scalar closure, so t ends with
        # the last iteration's value as the scalar loop leaves it.
        error, state, reasons, lifted = _both("temp")
        assert (error, lifted) == (None, 0)
        assert reasons == ["scalar temporary 't' needs a copy per "
                           "iteration"]
        assert np.frombuffer(state["t"]).tolist() == [16.0]

    def test_indirect_accumulator_stays_scalar(self):
        def prepare(rt):
            rt.modules["gm"].variables["ix"].store[...] = [
                1, 2, 2, 3, 1, 8, 8, 4]
        error, state, reasons, lifted = _both("scatter", prepare)
        assert (error, lifted) == (None, 0)
        assert reasons == ["indirect accumulator 'y'"]
        assert np.frombuffer(state["y"]).tolist() == [
            6.0, 5.0, 4.0, 8.0, 0.0, 0.0, 0.0, 13.0]

    @pytest.mark.parametrize("action", ["error", "ignore"])
    def test_integer_zero_divisor_mid_nest(self, action):
        # MOD(num, 0) warns on the scalar path.  The lift raises under
        # errstate after writing y, restores y and runs the scalar
        # closure, so the partial writes are the scalar path's.
        error, state, reasons, lifted = _both("ratio", action=action)
        assert lifted == 0
        assert reasons[0].startswith("runtime lift failure")
        if action == "error":
            assert error == ("RuntimeWarning",
                             "divide by zero encountered in remainder")
            assert np.frombuffer(state["y"]).tolist() == [
                2.0, 3.0, 4.0] + [0.0] * 5


def test_bounds_that_overflow_warn_once():
    # The lifted path evaluates the bounds before it runs.  When the lift
    # then fails (here on a zero divisor) and the scalar closure takes
    # over, the bounds' overflow warnings must still appear only once.
    src = """
MODULE ov
  IMPLICIT NONE
  INTEGER :: big
  REAL(KIND=8) :: x(8)
CONTAINS
  SUBROUTINE s()
    INTEGER :: i
    DO i = 1, big * 4 - big * 4 + 3
      {guard}
      x(i) = 1.0D0 / x(i)
    END DO
  END SUBROUTINE s
END MODULE ov
"""
    outcomes = []
    for guard in ("", "IF (.FALSE.) CYCLE"):
        rt = FortranRuntime()
        rt.load(src.format(guard=guard))
        rt.modules["ov"].variables["big"].store[()] = 2 ** 62
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rt.call("s")
        outcomes.append(([str(w.message) for w in caught],
                         rt.modules["ov"].variables["x"].store.tobytes()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == (["overflow encountered in scalar multiply"] * 2
                              + ["divide by zero encountered in scalar "
                                 "divide"] * 3)
