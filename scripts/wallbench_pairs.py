#!/usr/bin/env python
"""Alternating-pairs protocol: compare two revisions with wallbench.

    python scripts/wallbench_pairs.py BASE HEAD --workload W --pairs N --seed S

Both revisions are exported with ``git archive`` into a temporary
directory.  Pair ``i`` runs ``python -m wallbench run --trace 0`` once on
each side with seed ``S + i``; the side that goes first alternates from
pair to pair, so a slow drift of the host's speed lands on both sides
alike.  Each side's runs go to that side's set file (``--json``), which is
kept in ``--out`` (a new temporary directory by default).

At the end the script prints ``python -m wallbench compare BASE HEAD``
and, per end-to-end metric of ``BENCHMARK.json``, both sides' median and
quartiles, in how many pairs HEAD was better, and the gain verdict: HEAD
gains on a metric when it wins at least nine in ten pairs (ties count for
neither side) and its median is better than BASE's by more than BASE's
interquartile range.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def export(rev: str, dest: Path, repo: Path = REPO) -> Path:
    """Extract revision ``rev`` of ``repo`` into ``dest``."""
    tar = subprocess.run(["git", "-C", str(repo), "archive", rev],
                         check=True, capture_output=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        t.extractall(dest, filter="data")
    return dest


def run_once(tree: Path, workload: str, seed: int, set_file: Path,
             seconds: float | None) -> None:
    cmd = [sys.executable, "-m", "wallbench", "run", "--workload", workload,
           "--seed", str(seed), "--trace", "0", "--json", str(set_file)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    subprocess.run(cmd, cwd=tree, check=True, stdout=subprocess.DEVNULL)


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def _by_seed(doc: dict, workload: str) -> dict[int, dict[str, float]]:
    return {run["seed"]: {k: m["value"]
                          for k, m in run["result"]["metrics"].items()}
            for run in doc["runs"]
            if run["workload"] == workload and not run["trace"]}


#: A gain needs HEAD to win at least this share of the pairs.
GAIN_WIN_SHARE = 0.9


def gain(row: dict, lower: bool) -> bool:
    """Did HEAD gain on ``row``'s metric?  It must win at least
    :data:`GAIN_WIN_SHARE` of the pairs, and its median must be better
    than BASE's by more than BASE's interquartile range."""
    (q1, base_med, q3), head_med = row["base"], row["head"][1]
    better = base_med - head_med if lower else head_med - base_med
    return (row["pairs"] > 0
            and row["won"] >= GAIN_WIN_SHARE * row["pairs"]
            and better > q3 - q1)


def pair_rows(base: dict, head: dict, bench: dict, workload: str
              ) -> list[dict]:
    """Per end-to-end metric: each side's quartiles over its runs, how
    many of the pairs (runs sharing a seed) HEAD won, and whether that
    is a gain (:func:`gain`)."""
    a, b = _by_seed(base, workload), _by_seed(head, workload)
    seeds = sorted(set(a) & set(b))
    rows = []
    for m in bench["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        if not seeds or any(name not in a[s] or name not in b[s]
                            for s in seeds):
            continue
        xs = [a[s][name] for s in seeds]
        ys = [b[s][name] for s in seeds]
        won = sum((y < x) if lower else (y > x) for x, y in zip(xs, ys))
        row = {"metric": name, "unit": m["unit"],
               "base": _quartiles(xs), "head": _quartiles(ys),
               "won": won, "pairs": len(seeds)}
        row["gain"] = gain(row, lower)
        rows.append(row)
    return rows


def render(rows: list[dict]) -> str:
    lines = [f"{'metric':14s} {'base q1':>9s} {'median':>9s} {'q3':>9s}"
             f"   {'head q1':>9s} {'median':>9s} {'q3':>9s}  head won"
             "  gain"]
    for r in rows:
        (a1, am, a3), (b1, bm, b3) = r["base"], r["head"]
        won = f"{r['won']}/{r['pairs']}"
        lines.append(f"{r['metric']:14s} {a1:9.4g} {am:9.4g} {a3:9.4g}   "
                     f"{b1:9.4g} {bm:9.4g} {b3:9.4g}  {won:>8s}  "
                     f"{'yes' if r['gain'] else 'no'}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="wallbench_pairs.py",
        description="Alternating wallbench pairs of two git revisions.")
    parser.add_argument("base", help="base revision (e.g. a commit)")
    parser.add_argument("head", help="revision judged against the base")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="pair i runs seed SEED + i")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default: wallbench's)")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for the two set files")
    args = parser.parse_args(argv)

    out = args.out or Path(tempfile.mkdtemp(prefix="wallbench-pairs-"))
    out.mkdir(parents=True, exist_ok=True)
    sets = {"base": out / "base.json", "head": out / "head.json"}
    with tempfile.TemporaryDirectory(prefix="wallbench-trees-") as tmp:
        trees = {side: export(getattr(args, side), Path(tmp) / side)
                 for side in ("base", "head")}
        for i in range(args.pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                run_once(trees[side], args.workload, args.seed + i,
                         sets[side], args.seconds)
            print(f"pair {i + 1}/{args.pairs} done (seed {args.seed + i}, "
                  f"{order[0]} first)", file=sys.stderr, flush=True)
        compare = subprocess.run(
            [sys.executable, "-m", "wallbench", "compare",
             str(sets["base"]), str(sets["head"])],
            cwd=trees["head"], capture_output=True, text=True)
        bench = json.loads((trees["head"] / "BENCHMARK.json").read_text())
    print(compare.stdout, end="")
    docs = {side: json.loads(path.read_text()) for side, path in sets.items()}
    print()
    print(render(pair_rows(docs["base"], docs["head"], bench,
                           args.workload)))
    print(f"\nset files: {sets['base']} {sets['head']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
