"""The jet multiply kernel against a plain truncated polynomial product.

The reference is built from `monomials()` alone, not from the kernel's
index table, so a wrong grouping of product terms shows up here.
"""

import numpy as np
import pytest

from gl3schwarz import jets


def reference_product(dim, order, a, b):
    monos = jets.monomials(dim, order)
    out = dict.fromkeys(monos, 0j)
    for ma, x in zip(monos, a):
        for mb, y in zip(monos, b):
            m = tuple(p + q for p, q in zip(ma, mb))
            if sum(m) <= order:
                out[m] += x * y
    return np.array([out[m] for m in monos])


def test_backend_reports_a_known_kernel():
    assert jets.BACKEND == "pure"


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_product_matches_reference(dim, order):
    n = len(jets.monomials(dim, order))
    for seed in range(4):
        rng = np.random.default_rng(1000 * dim + 10 * order + seed)
        a, b = (rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(2))
        got = (jets.Jet(dim, order, a) * jets.Jet(dim, order, b))._c
        np.testing.assert_allclose(
            got, reference_product(dim, order, a, b), rtol=1e-13, atol=1e-14
        )
