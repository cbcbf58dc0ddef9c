import os
import sys
from pathlib import Path

# Only one BLAS thread promises bits, as `leda.cli.main` pins it; the BLAS
# pools are sized when numpy loads, which no module has imported yet.
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

# Oracle helpers live next to the tests, outside the installed package.
sys.path.insert(0, str(Path(__file__).parent))
