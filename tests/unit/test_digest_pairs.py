"""The verdict of ``scripts/digest_pairs.py``."""

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]


def _script():
    spec = importlib.util.spec_from_file_location(
        "digest_pairs", REPO / "scripts" / "digest_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_any_difference_or_unexpected_exit_fails(monkeypatch, capsys):
    pairs = _script()
    names = [o[0] for o in pairs.OUTPUTS]
    sides = {}
    monkeypatch.setattr(pairs, "export", lambda rev, dest: Path(rev))
    monkeypatch.setattr(pairs, "digests", lambda tree, work: sides[str(tree)])

    sides["a"] = {n: f"{k:064x}" for k, n in enumerate(names)}
    sides["b"] = dict(sides["a"])
    assert pairs.main(["a", "b"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["same"] * len(names)

    sides["b"][names[-1]] = "f" * 64
    assert pairs.main(["a", "b"]) == 1
    assert capsys.readouterr().out.splitlines()[-1].startswith("DIFF")

    # Both sides failing the same way is no pass.
    sides["a"][names[0]] = sides["b"][names[0]] = "exit 2, not 0"
    sides["b"][names[-1]] = sides["a"][names[-1]]
    assert pairs.main(["a", "b"]) == 1


def test_lift_decisions_digest_ignores_times_and_other_counters():
    pairs = _script()
    name, args, status, path, key = next(
        o for o in pairs.OUTPUTS if o[0] == "lift decisions")
    assert args[:5] == ["experiments", "C1", "C2", "--executor",
                        "vectorized"] and "--profile" in args
    assert key is pairs.lift_decisions

    def record(t=0.5, reason="r", lifted=3, other=1):
        return {"decisions": [{"stage": "executor:fallback", "function": "f",
                               "step_index": 1, "reasons": [reason],
                               "t": t}],
                "metrics": {"counters": {"exec.fortran.lifted": lifted,
                                         "lint.findings": other}}}

    base = key(record())
    assert len(base) == 64
    assert key(record(t=9.0, other=7)) == base
    assert key(record(reason="s")) != base
    assert key(record(lifted=4)) != base
