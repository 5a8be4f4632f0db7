"""rumourlab: rumour detection and analysis toolkit.

Thread ingestion, tweet-aware text processing, TF-IDF and handcrafted
features, propagation trees, a built-in reverse-mode gradient engine,
four classifier families, evaluation and experiment running, and the
tweet analysis suite.
"""

import os

# One BLAS thread, set before any submodule imports numpy: a threaded
# product sums in another order, which would change checkpoint bytes.
os.environ.update(dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

__version__ = "0.1.0"

from .errors import ParseError, ValidationError

__all__ = ["ParseError", "ValidationError", "__version__"]
