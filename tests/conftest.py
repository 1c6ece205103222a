"""Tier-1 runs numpy's BLAS on one thread unless the environment says otherwise.

The products of these tests are small, and on a 2-vCPU host a second BLAS
thread made them two to nine times slower while another process kept the
other core busy.
This module runs before any test module imports numpy, and neither pytest
nor hypothesis imports it earlier, so the setting reaches the BLAS library.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
