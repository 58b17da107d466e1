"""wallbench: seeded wall-clock workloads for the repro pipeline.

``python -m wallbench run`` measures each workload in fresh
``python -m wallbench child`` processes and prints one JSON result line
per run; ``python -m wallbench compare A.json B.json`` applies the bounds
in ``BENCHMARK.json`` to two sets of runs.  See ``wallbench/README.md``.
"""


class WallbenchError(Exception):
    """A run that cannot produce trustworthy metrics; never counted as a
    failed op, always fatal."""
