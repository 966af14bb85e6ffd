"""NaN-sticky running maximum, shared by the residual functions and the report."""

from __future__ import annotations

import math
from functools import reduce

import numpy as np


class Worst:
    """Running maximum of a check's residuals.

    Unlike max(), which drops a NaN that is not its first argument, any NaN
    or inf sample leaves the value non-finite for good, so the check fails.
    """

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def add(self, *residuals):
        for r in map(float, residuals):
            if math.isnan(self.value):
                return
            if math.isnan(r) or r > self.value:
                self.value = r


def worst_of(residuals) -> float:
    """Largest of non-negative residuals, NaN if any of them is NaN.

    Residuals of a stack of samples are arrays over its sample axes; their
    worst is taken sample by sample with np.maximum, which keeps a NaN too.
    """
    residuals = tuple(residuals)
    if any(isinstance(r, np.ndarray) for r in residuals):
        return reduce(np.maximum, residuals)
    w = Worst()
    w.add(*residuals)
    return w.value
