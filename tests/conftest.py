"""Makes the checkout's ``src`` importable by the interpreters some tests
start, as ``pythonpath`` in pyproject.toml does for the test process."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
