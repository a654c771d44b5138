"""Put the benchmark's modules on the import path.

Run with ``python3 -m pytest perfbench/tests``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
