"""The alternating-pairs summary of ``scripts/wallbench_pairs.py``."""

import importlib.util
import json
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]


def _script():
    spec = importlib.util.spec_from_file_location(
        "wallbench_pairs", REPO / "scripts" / "wallbench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _set(values: dict[int, tuple[float, float]]) -> dict:
    """A synthetic set file: per seed, (ops_per_s, op_p50_ms)."""
    runs = [{"workload": "legacy-fortran", "seed": seed, "trace": 0,
             "result": {"metrics": {
                 "ops_per_s": {"value": ops, "unit": "op/s"},
                 "op_p50_ms": {"value": p50, "unit": "ms"}}}}
            for seed, (ops, p50) in values.items()]
    # A traced run and another workload's run must not count.
    runs.append({"workload": "legacy-fortran", "seed": 1, "trace": 1,
                 "result": {"metrics": {}}})
    runs.append({"workload": "ir-executors", "seed": 1, "trace": 0,
                 "result": {"metrics": {
                     "ops_per_s": {"value": 1.0, "unit": "op/s"},
                     "op_p50_ms": {"value": 1.0, "unit": "ms"}}}})
    return {"schema": "wallbench.set/v1", "machine": {}, "runs": runs}


def test_pair_rows_quartiles_and_wins(tmp_path):
    pairs = _script()
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    base = _set({1: (10.0, 80.0), 2: (11.0, 70.0), 3: (12.0, 60.0),
                 4: (13.0, 50.0), 5: (20.0, 40.0)})
    head = _set({1: (16.0, 40.0), 2: (17.0, 45.0), 3: (18.0, 30.0),
                 4: (19.0, 60.0), 5: (15.0, 20.0), 6: (99.0, 1.0)})
    # Round-trip through files, as the script reads them.
    for name, doc in (("base", base), ("head", head)):
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        doc.update(json.loads((tmp_path / f"{name}.json").read_text()))
    rows = {r["metric"]: r
            for r in pairs.pair_rows(base, head, bench, "legacy-fortran")}
    assert set(rows) == {"ops_per_s", "op_p50_ms"}
    ops = rows["ops_per_s"]
    assert ops["pairs"] == 5                  # seed 6 has no base run
    assert ops["won"] == 4                    # higher is better
    assert ops["base"] == (10.5, 12.0, 16.5)
    assert ops["head"][1] == 17.0
    p50 = rows["op_p50_ms"]
    assert p50["won"] == 4                    # lower is better: seed 4 lost
    assert p50["head"][1] == 40.0
    # 4 of 5 wins is short of nine in ten: no gain on either metric.
    assert not ops["gain"] and not p50["gain"]
    text = pairs.render(list(rows.values()))
    assert "ops_per_s" in text and "4/5" in text and "  no" in text


def _row(base, head, won, pairs=10):
    return {"base": base, "head": (0.0, head, 0.0), "won": won,
            "pairs": pairs}


def test_gain_needs_nine_in_ten_wins_and_a_median_gap_beyond_the_iqr():
    gain = _script().gain
    # base quartiles 10 / 11 / 12: the IQR is 2.
    assert gain(_row((10.0, 11.0, 12.0), 13.5, 9), lower=False)
    assert not gain(_row((10.0, 11.0, 12.0), 13.5, 8), lower=False)
    assert not gain(_row((10.0, 11.0, 12.0), 13.0, 10), lower=False)
    assert not gain(_row((10.0, 11.0, 12.0), 8.5, 10), lower=False)
    # Lower is better: the gap is measured downwards.
    assert gain(_row((10.0, 11.0, 12.0), 8.5, 10), lower=True)
    assert not gain(_row((10.0, 11.0, 12.0), 13.5, 10), lower=True)
    # 18 of 20 is nine in ten; no pairs is no gain.
    assert gain(_row((10.0, 11.0, 12.0), 14.0, 18, 20), lower=False)
    assert not gain(_row((10.0, 11.0, 12.0), 14.0, 0, 0), lower=False)


def test_render_states_the_verdict(tmp_path):
    pairs = _script()
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    base = _set({s: (10.0 + 0.1 * s, 80.0) for s in range(1, 11)})
    head = _set({s: (20.0 + 0.1 * s, 80.0) for s in range(1, 11)})
    rows = {r["metric"]: r
            for r in pairs.pair_rows(base, head, bench, "legacy-fortran")}
    assert rows["ops_per_s"]["gain"] and not rows["op_p50_ms"]["gain"]
    lines = pairs.render(list(rows.values())).splitlines()
    assert lines[0].split()[-1] == "gain"
    verdicts = {line.split()[0]: line.split()[-1] for line in lines[1:]}
    assert verdicts == {"ops_per_s": "yes", "op_p50_ms": "no"}
