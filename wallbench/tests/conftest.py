import sys
from pathlib import Path

# The benchmark drives the package under src/ without installing it.
_SRC = str(Path(__file__).resolve().parents[2] / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
