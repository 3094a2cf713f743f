"""Child ``python -m fracspec`` processes import the package under test, also
when the suite runs uninstalled through pytest's ``pythonpath`` setting.  The
``route_kernel`` fixture reads single kernel weights off the private
exact-kernel quadrature route and the test-only 1F2 series, which the tests
use as references."""

import os
from pathlib import Path

import pytest

import fracspec
import series_oracle
from fracspec import exactops

_ROOT = str(Path(fracspec.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_ROOT, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def route_kernel():
    """K(m) from the 1F2 series of ``series_oracle`` (``"series"``,
    |m| <= 4) or exactops' private ``"quadrature"`` route: E(|m|) mapped
    through ``_kernel_pairs``."""

    def kernel(route: str, order: float, m: int) -> float:
        if route == "series":
            e = series_oracle.series_integrals(order, abs(m))
        else:
            e = exactops._quadrature_integrals(order, abs(m))[abs(m)]
        pos, neg = exactops._kernel_pairs(order, e)
        return float(neg if m < 0 else pos)

    return kernel
