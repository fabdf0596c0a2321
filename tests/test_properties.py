"""Property-based checks over random physical parameters."""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from lossfish import ChannelParams, TwoModeProbe, build_two_mode  # noqa: E402
from lossfish.qfi import (_output_moments, _sld_qfi_batch,  # noqa: E402
                          _two_mode_closed_raw)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(eta=st.floats(0.05, 0.95), n_s=st.floats(0.1, 10.0),
       n_b=st.floats(0.1, 10.0), zeta=st.floats(0.0, 1.0),
       r_pos=st.floats(0.0, 1.0))
def test_sld_kernel_matches_two_mode_closed_form(eta, n_s, n_b, zeta, r_pos):
    # r log-uniform in [r_min, 1]
    r_min = TwoModeProbe(n_s, zeta, 1.0).r_min
    r = math.exp((1.0 - r_pos) * math.log(r_min))
    p = ChannelParams(eta, n_b)
    probe = build_two_mode(TwoModeProbe(n_s, zeta, r))
    _, sigma, ddt, dst = _output_moments(probe, p)
    value = _sld_qfi_batch(sigma[None], dst[None], ddt[None])[0]
    closed = _two_mode_closed_raw(n_s, zeta, r, 0.0, eta, n_b)
    assert value == pytest.approx(closed, rel=1e-8)
