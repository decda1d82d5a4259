"""Self-supervised graph-enhanced next-POI recommendation pipeline."""

import os

# The pipeline's matrix products are small, so BLAS worker threads cost more
# in hand-off than they save; pin them to one unless the user has set a
# count. This must run before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .config import RunConfig  # noqa: E402

__all__ = ["RunConfig"]
__version__ = "0.1.0"
