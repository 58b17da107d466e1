#!/usr/bin/env python
"""Byte-identity check: do two revisions write the same outputs?

    python scripts/digest_pairs.py BASE HEAD

Both revisions (commits or tree ids) are exported with ``git archive``
(:func:`wallbench_pairs.export`).  Each side then runs, in a scratch
directory of its own, with ``REPRO_LEDGER=0`` and ``PYTHONPATH`` set to
its tree's ``src``:

* ``experiments C1 C2`` (on the configured executor, then with
  ``--executor guarded``, then with ``--sentinels --executor
  vectorized``), ``faultcheck`` and ``lint --level all --case all``,
  each with ``--json FILE``: the file's sha256;
* ``fuzz --seed 7 --count 25 --profile small --crosscheck --json FILE``:
  the summary's ``content_sha256``;
* CI's two batch-smoke commands: each manifest's ``content_sha256``.
  The first command must exit 1, as in CI (its poison item is
  quarantined), and every other command must exit 0.

It prints one line per output with both digests, and exits 1 when any
output differs or any command exits otherwise than expected.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from wallbench_pairs import export  # noqa: E402

_BATCH = ["--jobs", "2", "--cache", ".repro/batch-smoke/cache",
          "--checkpoint", ".repro/batch-smoke/ckpt",
          "--quarantine", ".repro/batch-smoke/quarantine"]

#: (output, ``repro`` arguments, expected exit status, file written, the
#: key of its digest, or ``None`` for the file's sha256), in run order.
OUTPUTS = (
    ("experiments C1 C2", ["experiments", "C1", "C2", "--json", "exp.json"],
     0, "exp.json", None),
    ("experiments guarded", ["experiments", "C1", "C2", "--executor",
                             "guarded", "--json", "exp-guarded.json"],
     0, "exp-guarded.json", None),
    ("experiments sentinels", ["experiments", "C1", "C2", "--sentinels",
                               "--executor", "vectorized", "--json",
                               "exp-sentinels.json"],
     0, "exp-sentinels.json", None),
    ("faultcheck", ["faultcheck", "--json", "faultcheck.json"], 0,
     "faultcheck.json", None),
    ("lint all/all", ["lint", "--level", "all", "--case", "all", "--json",
                      "lint.json"], 0, "lint.json", None),
    ("fuzz seed 7", ["fuzz", "--seed", "7", "--count", "25", "--profile",
                     "small", "--crosscheck", "--json", "fuzz.json"], 0,
     "fuzz.json", "content_sha256"),
    ("batch smoke", ["batch", "fuzz:7:8", "poison:crash", *_BATCH,
                     "--retries", "1", "--timeout", "10", "--manifest",
                     ".repro/batch-smoke/manifest.json"], 1,
     ".repro/batch-smoke/manifest.json", "content_sha256"),
    ("batch smoke warm", ["batch", "fuzz:7:8", *_BATCH, "--manifest",
                          ".repro/batch-smoke/warm.json"], 0,
     ".repro/batch-smoke/warm.json", "content_sha256"),
)


def digests(tree: Path, work: Path) -> dict[str, str]:
    """Run every output's command on ``tree`` in ``work``: its digest, or
    why there is none."""
    work.mkdir()
    env = dict(os.environ, REPRO_LEDGER="0", PYTHONPATH=str(tree / "src"))
    out = {}
    for name, args, status, path, key in OUTPUTS:
        rc = subprocess.run([sys.executable, "-m", "repro", *args], cwd=work,
                            env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL).returncode
        target = work / path
        if rc != status:
            out[name] = f"exit {rc}, not {status}"
        elif not target.exists():
            out[name] = f"no {path}"
        elif key is None:
            out[name] = hashlib.sha256(target.read_bytes()).hexdigest()
        else:
            out[name] = str(json.loads(target.read_text()).get(key))
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", help="base revision (commit or tree id)")
    ap.add_argument("head", help="head revision (commit or tree id)")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="digest-pairs-") as tmp:
        root = Path(tmp)
        sides = [digests(export(rev, root / side / "tree"),
                         root / side / "work")
                 for side, rev in (("base", args.base), ("head", args.head))]
    same = True
    for name, *_ in OUTPUTS:
        base, head = sides[0][name], sides[1][name]
        ok = base == head and len(base) == 64
        same &= ok
        print(f"{'same' if ok else 'DIFF'}  {name:21}  {base}  {head}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
