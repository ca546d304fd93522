"""The simulation twins reproduce the measured tables they were fitted to."""

import pytest

from semperf.profiles import builtin_profiles
from semperf.refdata import DEGREE_SWEEP_ROWS


@pytest.mark.parametrize("degree, rate", [r[:2] for r in DEGREE_SWEEP_ROWS])
def test_degree_twin_rate_within_3_percent(degree, rate):
    # the worst rows of the frozen fit are -2.98% at N=7 and +2.71% at N=6
    machine = builtin_profiles()["cray-xt3-sim"]
    assert machine.rate_at_degree(degree) == pytest.approx(rate, rel=0.03)
