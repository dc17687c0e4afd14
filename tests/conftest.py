"""Put ``src`` on the ``PYTHONPATH`` that subprocesses inherit.

``pythonpath = ["src"]`` in pyproject.toml reaches only pytest's own
process; tests that start ``python -m fpboot`` need it in the environment.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
