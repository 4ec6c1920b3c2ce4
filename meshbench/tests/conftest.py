"""Import the benchmark's modules and meshprof from this repository's src.

Run with ``python3 -m pytest meshbench/tests`` from the repository root.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

from worker import import_meshprof_from_src  # noqa: E402

import_meshprof_from_src()
