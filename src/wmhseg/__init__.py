"""Two-stage white-matter-hyperintensity segmentation at desk scale:
a from-scratch residual U-Net with a globally class-balanced loss, the
five-metric challenge evaluation and ranking suite, and a synthetic
phantom that makes everything trainable and verifiable without the
original challenge data."""

import os

# The GEMMs here are small, so a second BLAS thread doubles the CPU time
# for no wall-time gain. BLAS reads these when numpy is first imported;
# a value already set in the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"

from .volume_io import BinaryMask3D, Volume3D  # noqa: F401
