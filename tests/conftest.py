"""Pin BLAS to one thread for the whole test session.

The operator's image products are ``(m x n) @ (n x n)`` with n <= 3, where
a multithreaded BLAS gains nothing and spins when another process holds a
core.  The pool size is read once, when numpy loads its BLAS, so it is set
here, before any test module imports numpy; a value already in the
environment wins.
"""

import os
import sys

assert "numpy" not in sys.modules, "numpy was imported before tests/conftest.py"

for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(name, "1")
