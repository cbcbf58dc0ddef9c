import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
# The benchmark's modules sit next to run.py; the program is imported from src/.
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]
