"""Property-based checks over random physical parameters."""

import json
import math
import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from lossfish import (ChannelParams, SingleModeProbe, TwoModeProbe,  # noqa: E402
                      apply_channel, build_single_mode, build_two_mode,
                      make_state, optimize_xi, qfi_if_closed, tmsv)
from lossfish.channel import moment_derivatives, output_moments  # noqa: E402
from lossfish.cli import _render  # noqa: E402
from lossfish.qfi import (_FLOAT_OPS, SLD_RESIDUAL_TOL, _eigh_basis,  # noqa: E402
                          _sld_qfi_batch, _stein, _two_mode_closed_raw, _williamson_sum)
from test_optimize import reference_optimize_xi  # noqa: E402

TINY = float(np.finfo(float).tiny)


def flush_subnormal(n_b):
    """A drawn bath occupation, with subnormals (which no channel takes) as 0."""
    return n_b if n_b >= TINY else 0.0


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
    _, sigma = output_moments(probe.d, probe.sigma, p)
    ddt, dst = moment_derivatives(probe.d, probe.sigma, p)
    (value,) = _sld_qfi_batch(sigma[..., None], dst[..., None], ddt[..., None])
    closed = _two_mode_closed_raw(n_s, zeta, r, 0.0, eta, n_b)
    assert value == pytest.approx(closed, rel=1e-8)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(n_s=st.floats(0.1, 10.0), eta=st.floats(0.05, 0.95),
       n_b=st.one_of(st.just(0.0), st.floats(0.1, 100.0)),
       normalized=st.booleans(), zeta=st.floats(0.0, 1.0),
       r_pos=st.floats(0.0, 1.0), theta=st.floats(0.0, math.pi))
def test_accepted_stein_value_is_the_eigh_basis_sum(n_s, eta, n_b, normalized,
                                                    zeta, r_pos, theta):
    # a value the Stein route accepts is the Williamson-basis sum in the
    # basis that eigh builds, to 1e-12
    r = TwoModeProbe(n_s, zeta, 1.0).r_min ** (1.0 - r_pos)
    probe = build_two_mode(TwoModeProbe(n_s, zeta, r, theta))
    p = ChannelParams(eta, n_b, normalized)
    _, sigma = output_moments(probe.d, probe.sigma, p)
    ddt, dst = moment_derivatives(probe.d, probe.sigma, p)
    value, rel, _ = _stein(_FLOAT_OPS, sigma.tolist(), dst.tolist(), ddt.tolist())
    s, ds, dd = sigma[None], dst[None], ddt[None]
    (general,), (bound,), _, _ = _williamson_sum(*_eigh_basis(s), s, ds, dd)
    assert bound <= SLD_RESIDUAL_TOL
    if rel <= SLD_RESIDUAL_TOL:
        assert value == pytest.approx(general, rel=1e-12)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["single_mode", "tmsv", "two_mode"]),
       n_s=st.floats(0.0, 1e3), mix=st.floats(0.0, 1.0),
       r_pos=st.floats(0.0, 1.0), theta=st.floats(0.0, 2.0 * math.pi),
       phi=st.floats(0.0, 2.0 * math.pi), eta=st.floats(0.0, 1.0 - 1e-7),
       n_b=st.floats(0.0, 1e3).map(flush_subnormal), normalized=st.booleans())
def test_channel_outputs_pass_make_state(kind, n_s, mix, r_pos, theta, phi,
                                         eta, n_b, normalized):
    # apply_channel skips validation; its output must be the state that
    # make_state would build from the same moments, bit for bit
    if kind == "single_mode":
        state = build_single_mode(SingleModeProbe(n_s, mix, theta))
    elif kind == "tmsv":
        state = tmsv(n_s)
    else:
        # r log-uniform in [r_min, 1]
        r = TwoModeProbe(n_s, mix, 1.0).r_min ** (1.0 - r_pos)
        state = build_two_mode(TwoModeProbe(n_s, mix, r, theta, phi))
    out = apply_channel(state, ChannelParams(eta, n_b, normalized))
    checked = make_state(out.d, out.sigma)
    assert out.modes == checked.modes == state.modes
    assert out.d.tobytes() == checked.d.tobytes()
    assert out.sigma.tobytes() == checked.sigma.tobytes()
    assert not (out.d.flags.writeable or out.sigma.flags.writeable)


def log_uniform(lo, hi):
    """A float log-uniform in [lo, hi] (clamped against exp's rounding)."""
    return st.floats(math.log(lo), math.log(hi)).map(
        lambda u: min(max(math.exp(u), lo), hi))


def zero_or_log_uniform(lo, hi):
    """0, or a float log-uniform in [lo, hi]."""
    return st.one_of(st.just(0.0), log_uniform(lo, hi))


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(n_b=zero_or_log_uniform(TINY, 1e100),
       n_coh=zero_or_log_uniform(1e-300, 1e100),
       n_sq=zero_or_log_uniform(1e-300, 1e6),
       eta=st.floats(0.0, 1.0 - 1e-7), normalized=st.booleans())
def test_idler_free_terms_are_finite(n_b, n_coh, n_sq, eta, normalized):
    # the closed forms' denominators A and B stay positive for every bath a
    # channel admits (0 or a normal float), so no term is inf or nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = qfi_if_closed(n_coh, n_sq, ChannelParams(eta, n_b, normalized))
    for term in (q.term_displacement, q.term_squeeze, q.term_shadow, q.total):
        assert math.isfinite(term)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(points=st.lists(st.tuples(log_uniform(1e-4, 1e4),
                                 st.floats(0.0, 1.0 - 1e-7)), min_size=1, max_size=6),
       n_b=zero_or_log_uniform(1e-3, 1e3),
       normalized=st.booleans())
def test_optimize_xi_is_the_per_point_search(points, n_b, normalized):
    # one lockstep over random (N_S, eta) pairs, with the channel factors
    # computed once and frozen brackets dropped, gives each point the bits of
    # the per-point Python-float search
    n_s, eta = (np.array(column) for column in zip(*points))
    p = ChannelParams(eta, n_b, normalized)
    res = optimize_xi(n_s, p)
    for k, (n, e) in enumerate(points):
        assert (res.xi_opt[k], res.qfi_opt[k], res.boundary[k]) == \
            reference_optimize_xi(n, ChannelParams(e, n_b, normalized))


@settings(max_examples=2000, deadline=None, derandomize=True, database=None)
@given(x=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
@example(math.nan).via("nan")
@example(math.inf).via("inf")
@example(-math.inf).via("-inf")
@example(0.0).via("+0")
@example(-0.0).via("-0")
@example(5e-324).via("smallest subnormal")
@example(TINY).via("smallest normal")
@example(1.7976931348623157e308).via("largest double")
@example(100000000000.5).via("12-digit rounding tie, round down")
@example(100000000001.5).via("12-digit rounding tie, round up")
def test_csv_cell_is_format_12g(x):
    # the CSV table is one %-format over the whole table, and a JSON cell is
    # that table's cell; both must equal format(x, ".12g") for every double
    want = format(x, ".12g")
    for column in ([x], [np.float64(x)], np.array([x]), np.array([x, x])):
        cells = _render(["x"], [column], "csv").split("\n")[1:-1]
        assert cells == [want] * len(column)
    for column in ([x], [np.float64(x)], np.array([x])):
        assert json.loads(_render(["x"], [column], "json")) == [{"x": want}]
