"""Command line: ``python -m wallbench run|compare|child``.

``run`` prints, per workload run, one JSON line
``{"correct", "attempted", "failed", "metrics"}`` on stdout (the last
line is the last run's) and a readable summary on stderr.  It exits 0
whenever metrics were produced; failed ops show in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
from importlib import metadata
from pathlib import Path

from . import WallbenchError


def _benchmark(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def _finalize(raw: dict, bench: dict, trace: bool) -> dict:
    """The result line: every declared metric of the run's kind, with its
    unit.  A per-layer metric the workload does not produce is 0: the
    workload never calls that layer."""
    declared = bench["per_layer" if trace else "end_to_end"]
    values = raw["metrics"]
    unknown = set(values) - {m["name"] for m in declared}
    if unknown:
        raise WallbenchError(f"undeclared metric(s): {sorted(unknown)}")
    metrics = {}
    for m in declared:
        if not trace and m["name"] not in values:
            raise WallbenchError(f"missing end-to-end metric {m['name']!r}")
        value = float(values.get(m["name"], 0.0))
        if not math.isfinite(value):
            raise WallbenchError(f"metric {m['name']!r} is {value}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": bool(raw["correct"]), "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


def _machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "machine": platform.machine(), "system": platform.system()}


def cmd_run(args) -> int:
    from .compare import load_set
    from .harness import ROOT, run_workload
    from .workloads import WORKLOADS

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"wallbench: no src/repro package in {ROOT}; run from a "
              "repository checkout", file=sys.stderr)
        return 2
    bench = _benchmark(ROOT)
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    names = args.workload or list(WORKLOADS)
    runs = []
    for i in range(args.repeat):
        for name in names:
            seed = args.seed + i
            raw = run_workload(name, seed, seconds, bool(args.trace))
            result = _finalize(raw, bench, bool(args.trace))
            runs.append({"workload": name, "seed": seed, "trace": args.trace,
                         "seconds": seconds, "rounds": raw["rounds"],
                         "op_samples": raw["op_samples"],
                         "reference_ms": raw["reference_ms"],
                         "result": result})
            shown = "  ".join(f"{k}={m['value']:.4g}{m['unit']}"
                              for k, m in result["metrics"].items()
                              if not args.trace or m["value"])
            print(f"{name} seed={seed}: failed {result['failed']}/"
                  f"{result['attempted']}  {shown}", file=sys.stderr)
            print(json.dumps(result), flush=True)
    if args.json:
        out = Path(args.json)
        doc = (load_set(out) if out.exists() else
               {"schema": "wallbench.set/v1", "machine": _machine(),
                "runs": []})
        doc["runs"] += runs
        out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


def cmd_child(args) -> int:
    import tempfile
    from time import perf_counter

    from .harness import WORK, launch_clock, measure

    # Set-up counts from the parent's launch of this process.
    start = perf_counter() - (launch_clock() - args.launched)
    # Whatever the program puts in the temp dir stays in the checkout.
    WORK.mkdir(exist_ok=True)
    tempfile.tempdir = str(WORK)
    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace), setup_only=args.setup_only,
                     start=start)
    print(json.dumps(result), flush=True)
    return 0


def cmd_compare(args) -> int:
    from .compare import baseline, compare_sets, load_set, render
    from .harness import ROOT

    a, b = load_set(args.a), load_set(args.b)
    rows = compare_sets(a, b, _benchmark(ROOT))
    print(render(rows))
    if args.baseline:
        Path(args.baseline).write_text(
            json.dumps(baseline(a, b), indent=1, sort_keys=True) + "\n")
    return 0 if rows and all(r["verdict"] == "within-bound"
                             for r in rows) else 1


def main(argv: list[str] | None = None) -> int:
    from .workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="python -m wallbench")
    sub = parser.add_subparsers(dest="command", required=True)

    def seed(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("seed must be >= 0")
        return value

    run = sub.add_parser("run", help="measure workloads in fresh processes")
    run.add_argument("--workload", action="extend", nargs="+",
                     choices=list(WORKLOADS),
                     help="workload(s) to run (default: all)")
    run.add_argument("--seed", type=seed, default=1)
    run.add_argument("--seconds", type=float, default=None,
                     help="timed seconds per run (default: run_seconds "
                          "from BENCHMARK.json)")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="1: per-layer metrics from a traced run")
    run.add_argument("--repeat", type=int, default=1,
                     help="runs per workload, with seeds SEED, SEED+1, ...")
    run.add_argument("--json", metavar="OUT",
                     help="add the runs to the set file OUT (for compare)")
    run.set_defaults(fn=cmd_run)

    child = sub.add_parser("child", help=argparse.SUPPRESS)
    child.add_argument("workload", choices=list(WORKLOADS))
    child.add_argument("--seed", type=seed, required=True)
    child.add_argument("--seconds", type=float, required=True)
    child.add_argument("--trace", type=int, choices=(0, 1), required=True)
    child.add_argument("--setup-only", action="store_true")
    child.add_argument("--launched", type=float, required=True,
                       help="launch time on the shared monotonic clock")
    child.set_defaults(fn=cmd_child)

    cmp_ = sub.add_parser("compare",
                          help="judge set B against set A per metric bound")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    cmp_.add_argument("--baseline", metavar="OUT",
                      help="also write both sets' medians and IQRs, one "
                           "traced run's per-layer numbers and the machine")
    cmp_.set_defaults(fn=cmd_compare)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except WallbenchError as e:
        print(f"wallbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
