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
