"""NaN-sticky worst residual, shared by the residual functions and the report."""

from __future__ import annotations

from functools import reduce

import numpy as np


def worst_of(residuals):
    """Largest of non-negative residuals, NaN if any of them is NaN.

    Unlike max(), which drops a NaN that is not its first argument,
    np.maximum keeps a NaN wherever it comes, so a check with a NaN or inf
    sample fails.  Residuals of a stack of samples are arrays over its
    sample axes, and their worst is taken sample by sample.
    """
    return reduce(np.maximum, residuals, 0.0)
