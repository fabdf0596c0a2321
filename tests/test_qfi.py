import hashlib
import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest

from lossfish import (ChannelParams, EtaTooClose, NonPhysical, NonPhysicalParams,
                      SingularSystem, SingleModeProbe, TwoModeProbe, apply_channel,
                      build_single_mode, build_two_mode, channel_derivative,
                      homodyne_fisher, make_state,
                      optimize_two_mode, qfi_coherent, qfi_fidelity_fd,
                      qfi_gamma, qfi_if_closed, qfi_shadow,
                      qfi_single_mode_form, qfi_sld, qfi_squeezed_vacuum,
                      qfi_tmsv, qfi_two_mode_closed, squeeze_parameter,
                      tmsv, vacuum)
import lossfish.optimize as optimize
import lossfish.qfi as qfi
from lossfish.optimize import two_mode_grid
from lossfish.probes import two_mode_r_min
from lossfish.qfi import (_ARRAY_OPS, SLD_RESIDUAL_TOL, _sld_qfi_batch, _stein,
                          _two_mode_closed_raw, _williamson_sum)
from lossfish.channel import _derivative_entries, _output_entries
from lossfish.states import _williamson
from test_states import random_physical_covariance

SQRT_HALF = 1.0 / np.sqrt(2.0)


def single_mode_state(n_s, xi, theta=0.0):
    return build_single_mode(SingleModeProbe(n_s, xi, theta))


# ---------------------------------------------------------------------------
# anchor values
# ---------------------------------------------------------------------------

def test_coherent_anchor():
    p = ChannelParams(0.5, 0.0)
    state = single_mode_state(1.0, 0.0)
    assert qfi_sld(state, p) == pytest.approx(4.0, rel=1e-12)
    assert qfi_single_mode_form(state, p) == pytest.approx(4.0, rel=1e-12)
    assert qfi_coherent(1.0, p) == pytest.approx(4.0, rel=1e-14)
    # zero-temperature coherent QFI is 4 N_S at any transmission
    assert qfi_coherent(1.0, ChannelParams(0.9, 0.0)) == pytest.approx(4.0, rel=1e-14)


def test_shadow_anchor():
    # 4 eta^2 N_B / [(1-eta^2)(1+N_B(1-eta^2))] = 8/3 at eta = 1/sqrt(2), N_B = 1
    p = ChannelParams(SQRT_HALF, 1.0)
    assert qfi_shadow(p) == pytest.approx(8.0 / 3.0, rel=1e-12)
    assert qfi_sld(vacuum(), p) == pytest.approx(8.0 / 3.0, rel=1e-12)
    assert qfi_shadow(ChannelParams(0.0, 5.0)) == 0.0


def test_tmsv_anchors():
    assert qfi_tmsv(1.0, ChannelParams(SQRT_HALF, 0.0)) == pytest.approx(8.0, rel=1e-12)
    assert qfi_tmsv(1.0, ChannelParams(SQRT_HALF, 1.0)) == pytest.approx(8.0, rel=1e-12)
    assert qfi_sld(tmsv(1.0), ChannelParams(SQRT_HALF, 0.0)) == pytest.approx(8.0, rel=1e-9)
    # constant-background model: 4(2 + 1.5)/(1.5 (2 + 2.5))
    norm = qfi_tmsv(1.0, ChannelParams(SQRT_HALF, 1.0, normalized=True))
    assert norm == pytest.approx(14.0 / 6.75, rel=1e-12)


def test_if_closed_breakdown():
    p = ChannelParams(0.0, 1.0)
    res = qfi_if_closed(1.0, 0.0, p)
    assert res.total == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert res.term_shadow == 0.0
    assert res.total == pytest.approx(
        res.term_displacement + res.term_squeeze + res.term_shadow, rel=1e-12)
    # vacuum probe reduces to the shadow term alone
    for eta, nb in [(0.3, 0.5), (0.8, 2.0)]:
        res = qfi_if_closed(0.0, 0.0, ChannelParams(eta, nb))
        assert res.total == pytest.approx(res.term_shadow, rel=1e-12)
        assert res.term_displacement == 0.0 and res.term_squeeze == 0.0


def test_squeezed_saturation_at_large_power():
    # large squeezing saturates to 2[(1-e)^2 + e^2] / [e (1-e)^2], e = eta^2
    p = ChannelParams(0.5, 0.0)
    e2, one = 0.25, 0.75
    limit = 2.0 * (one ** 2 + e2 ** 2) / (e2 * one ** 2)
    assert limit == pytest.approx(8.888888888888889, rel=1e-12)
    assert qfi_squeezed_vacuum(1e6, p) == pytest.approx(limit, rel=1e-4)


def test_squeezed_vacuum_divergence_near_full_transmission():
    # leading order [2 N_S (1+2N_B) + 2 N_B] / (1 - eta) near eta = 1
    p = ChannelParams(0.999, 0.0)
    assert qfi_squeezed_vacuum(1.0, p) == pytest.approx(2.0 / 0.001, rel=0.05)


def test_single_mode_form_matches_sld():
    rng = np.random.default_rng(9)
    for _ in range(20):
        p = ChannelParams(rng.uniform(0.05, 0.95), rng.choice([0.0, 1.0, 50.0]))
        state = single_mode_state(rng.uniform(0.05, 5.0), rng.uniform(0.0, 1.0))
        a = qfi_sld(state, p)
        b = qfi_single_mode_form(state, p)
        assert b == pytest.approx(a, rel=1e-9)


def purity_form_reference(state, p):
    """The purity form at 50 digits, on the channel's own output entries:
    ``Tr[(S^-1 dS)^2] / (2 (1 + mu^2)) + 2 mu'^2 / (1 - mu^4) + dd^T S^-1 dd``."""
    d, sigma = state.d.tolist(), state.sigma.tolist()
    dd, ds = _derivative_entries(d, sigma, p)
    with mpmath.workdps(50):
        s, ds, dd = (mpmath.matrix(x) for x in (_output_entries(d, sigma, p)[1], ds, dd))
        s_inv = s ** -1
        ratio = s_inv * ds
        square = ratio * ratio
        mu = 1 / mpmath.sqrt(4 * mpmath.det(s))
        dmu = -mu * (ratio[0, 0] + ratio[1, 1]) / 2
        value = ((square[0, 0] + square[1, 1]) / (2 * (1 + mu ** 2))
                 + (0 if dmu == 0 else 2 * dmu ** 2 / (1 - mu ** 4))
                 + (dd.T * s_inv * dd)[0])
    return value


def test_single_mode_form_matches_a_50_digit_reference():
    # both models, every bath of the panel and eta down to 1e-3, where an
    # output near the vacuum makes 1 - mu^4 cancel; a random phase fills
    # the x-p entries of every other state
    rng = np.random.default_rng(29)
    errors = []
    for k in range(320):
        state = single_mode_state(math.exp(rng.uniform(math.log(0.01), math.log(100.0))),
                                  rng.uniform(0.0, 1.0),
                                  rng.uniform(0.0, 2.0 * np.pi) if k % 2 else 0.0)
        eta = (rng.uniform(1e-3, 0.95) if k % 3 else
               math.exp(rng.uniform(math.log(1e-3), math.log(0.95))))
        p = ChannelParams(eta, (0.0, 1e-3, 1.0, 100.0)[k % 4], normalized=k % 8 >= 4)
        exact = purity_form_reference(state, p)
        errors.append(float(abs(qfi_single_mode_form(state, p) - exact) / exact))
    assert max(errors) <= 2e-13


TINY = float(np.finfo(float).tiny)
# the brightest single-mode probe: 2 N_coh is the largest double
BRIGHTEST = float(np.finfo(float).max) / 2.0


@pytest.mark.parametrize("normalized", [False, True])
@pytest.mark.parametrize("n_s, xi, eta, n_b, expected", [
    (2.0, 0.0, 0.5, 0.0, 8.0),                      # coherent: a pure output
    (0.0, 0.0, 0.5, 0.0, 0.0),                      # vacuum: a pure output
    (1.0, 1.0, 0.0, 0.0, 0.0),                      # eta = 0: mu = 1, mu' = 0
    (3.0, 0.5, 0.0, 0.0, 5.999999999999999),
    (3.0, 0.5, 0.0, 1.0, 1.9999999999999998),
    (BRIGHTEST, 0.0, 0.5, 1.0, {False: 1.4381545078898524e+308,
                                True: 1.1984620899082101e+308}),
    (2.0, 0.0, 0.5, 1e100, {False: 1.7777777777777777, True: 4e-100}),
    (0.0, 0.0, 0.5, 1e100, {False: 1.7777777777777777, True: 0.0}),
    (3.0, 0.5, 0.5, 1e100, {False: 1.7777777777777777, True: 2.9999999999999996e-100}),
    (2.0, 0.0, 0.5, TINY, 8.0),
    (0.0, 0.0, 0.5, TINY, 0.0),
    (3.0, 0.5, 0.5, TINY, 10.875047067911119),
], ids=["coherent_pure", "vacuum_pure", "eta0_pure", "eta0_displaced", "eta0_bath",
        "brightest", "coherent_huge_bath", "vacuum_huge_bath", "displaced_huge_bath",
        "coherent_tiny_bath", "vacuum_tiny_bath", "displaced_tiny_bath"])
def test_single_mode_form_edges_keep_their_values(n_s, xi, eta, n_b, expected, normalized):
    # the values of the numpy form (numpy 2.4.6), to 1e-12, with no warning
    # and a Python float on the way out
    if isinstance(expected, dict):
        expected = expected[normalized]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = qfi_single_mode_form(single_mode_state(n_s, xi),
                                     ChannelParams(eta, n_b, normalized))
    assert type(value) is float
    assert value == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("state, p, message", [
    # the QFI of the brightest coherent probe at N_B = 0 is past the doubles
    (single_mode_state(BRIGHTEST, 0.0), ChannelParams(0.5, 0.0),
     "is not a finite double: inf"),
    (single_mode_state(BRIGHTEST, 0.0), ChannelParams(0.5, 0.0, normalized=True),
     "is not a finite double: inf"),
    # make_state's roundoff slack admits det Sigma < 0 at |Sigma| = 1e8
    (make_state([0.0, 0.0], [[1e8, 1e4], [1e4, 1.0 - 1e-5]]),
     ChannelParams(1.0 - 1e-7, 0.0), r"needs det S > 0, got -9\.900e\+02"),
    # the output rounds to the vacuum while dS does not vanish
    (single_mode_state(1.0, 1.0), ChannelParams(1e-9, 0.0),
     r"divides by 1 - mu\^4 = 0"),
    # the output rounds to a purity above 1: the numpy form gave -0.036
    (single_mode_state(0.1, 1.0), ChannelParams(1e-8, 0.0),
     r"needs mu < 1, got 1/mu\^2 - 1 = -1\.110e-16"),
], ids=["brightest", "brightest_normalized", "negative_det", "rounds_to_pure",
        "rounds_above_pure"])
def test_single_mode_form_raises_where_numpy_signals(state, p, message):
    # the numpy form warned here (overflow in matmul, an invalid power, a
    # division by zero) and returned an inf or a nan; the float form raises
    # FloatingPointError, never an inf, a complex or a ZeroDivisionError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match=message):
            qfi_single_mode_form(state, p)


def test_fidelity_fd_matches_sld():
    cases = [
        (single_mode_state(1.0, 0.0), ChannelParams(0.5, 0.0)),
        (vacuum(), ChannelParams(SQRT_HALF, 1.0)),
        (tmsv(1.0), ChannelParams(SQRT_HALF, 0.0)),
        (single_mode_state(2.0, 0.5), ChannelParams(0.8, 10.0)),
    ]
    for state, p in cases:
        ref = qfi_sld(state, p)
        assert qfi_fidelity_fd(state, p) == pytest.approx(ref, rel=1e-4)


def test_fidelity_fd_validates_step():
    # the lower end of the pair must stay at a physical transmission
    with pytest.raises(ValueError, match=r"^eta - FD_STEP/2 = -4\.99e-05 must be "
                                         r"non-negative$"):
        qfi_fidelity_fd(vacuum(), ChannelParams(1e-7, 1.0))


@pytest.mark.parametrize("probe", [single_mode_state(1.0, 0.0), tmsv(1.0),
                                   single_mode_state(1.0, 0.5)],
                         ids=["coherent", "tmsv", "dsq"])
def test_fidelity_fd_takes_eta_below_the_step(probe):
    # at eta = 7e-5 the pair [2e-5, 1.2e-4] is physical, though eta < FD_STEP
    p = ChannelParams(7e-5, 1.0)
    assert qfi_fidelity_fd(probe, p) == pytest.approx(qfi_sld(probe, p), rel=1e-4)


@pytest.mark.parametrize("eta", [0.99995, 1.0 - 1e-7])
@pytest.mark.parametrize("probe", [single_mode_state(1.0, 0.0), tmsv(1.0)],
                         ids=["coherent", "tmsv"])
def test_fidelity_fd_pair_inside_guard_band_raises(probe, eta):
    # the upper end eta + FD_STEP/2 of the centred pair is inside the band
    with pytest.raises(EtaTooClose):
        qfi_fidelity_fd(probe, ChannelParams(eta, 1.0))


def test_eta_guard():
    with pytest.raises(EtaTooClose):
        qfi_sld(vacuum(), ChannelParams(1.0, 0.0))
    with pytest.raises(EtaTooClose):
        qfi_coherent(1.0, ChannelParams(1.0 - 1e-9, 0.0))


def test_breakdown_consistency_specializations():
    p = ChannelParams(0.7, 3.0)
    assert qfi_coherent(2.0, p) == pytest.approx(qfi_if_closed(2.0, 0.0, p).total, rel=1e-14)
    assert qfi_squeezed_vacuum(2.0, p) == pytest.approx(qfi_if_closed(0.0, 2.0, p).total, rel=1e-14)
    assert qfi_shadow(p) == pytest.approx(qfi_if_closed(0.0, 0.0, p).total, rel=1e-14)


# ---------------------------------------------------------------------------
# three-route agreement on a reduced grid (full grid in test_acceptance)
# ---------------------------------------------------------------------------

def closed_form_for(kind, n_s, p):
    if kind == "coherent":
        return qfi_coherent(n_s, p)
    if kind == "squeezed":
        return qfi_squeezed_vacuum(n_s, p)
    if kind == "displaced_squeezed":
        return qfi_if_closed(0.5 * n_s, 0.5 * n_s, p).total
    return qfi_tmsv(n_s, p)


def state_for(kind, n_s):
    if kind == "coherent":
        return single_mode_state(n_s, 0.0)
    if kind == "squeezed":
        return single_mode_state(n_s, 1.0)
    if kind == "displaced_squeezed":
        return single_mode_state(n_s, 0.5)
    return tmsv(n_s)


def test_routes_reject_out_of_domain_calls():
    p = ChannelParams(0.5, 1.0)
    with pytest.raises(ValueError, match="single-mode states"):
        qfi_single_mode_form(tmsv(1.0), p)
    probe = TwoModeProbe(1.0, 0.5, 1.0)
    with pytest.raises(ValueError, match="bare channel only"):
        qfi_two_mode_closed(probe, ChannelParams(0.5, 1.0, normalized=True))
    with pytest.raises(ValueError, match="indeterminate at eta = 0"):
        qfi_two_mode_closed(probe, ChannelParams(0.0, 1.0))
    with pytest.raises(ValueError, match=r"r must lie in \(0, 1\]"):
        homodyne_fisher(1.0, 1.5, p)


@pytest.mark.parametrize("kind", ["coherent", "squeezed", "displaced_squeezed", "tmsv"])
def test_three_routes_agree(kind):
    for eta in (0.2, SQRT_HALF, 0.9):
        for nb in (0.0, 1.0):
            p = ChannelParams(eta, nb)
            n_s = 1.0
            closed = closed_form_for(kind, n_s, p)
            sld = qfi_sld(state_for(kind, n_s), p)
            fd = qfi_fidelity_fd(state_for(kind, n_s), p)
            assert sld == pytest.approx(closed, rel=1e-8)
            assert fd == pytest.approx(sld, rel=1e-4)


# ---------------------------------------------------------------------------
# generic two-mode closed form
# ---------------------------------------------------------------------------

def test_two_mode_closed_against_sld():
    rng = np.random.default_rng(13)
    for _ in range(15):
        n_s = rng.uniform(0.1, 5.0)
        zeta = rng.uniform(0.0, 1.0)
        probe = TwoModeProbe(n_s, zeta, 1.0, theta=rng.uniform(0, np.pi))
        probe = TwoModeProbe(n_s, zeta, rng.uniform(probe.r_min, 1.0),
                             theta=probe.theta, phi=rng.uniform(0, np.pi))
        p = ChannelParams(rng.uniform(0.05, 0.95), rng.choice([0.0, 0.5, 2.0]))
        closed = qfi_two_mode_closed(probe, p)
        sld = qfi_sld(build_two_mode(probe), p)
        assert closed == pytest.approx(sld, rel=1e-8)


def test_two_mode_closed_special_points():
    p = ChannelParams(SQRT_HALF, 0.0)
    assert qfi_two_mode_closed(TwoModeProbe(1.0, 1.0, 1.0), p) == \
        pytest.approx(qfi_tmsv(1.0, p), rel=1e-10)
    # uncorrelated vacuum idler adds nothing: coherent (x) vacuum = coherent
    p2 = ChannelParams(0.5, 0.0)
    assert qfi_two_mode_closed(TwoModeProbe(1.0, 0.0, 1.0), p2) == \
        pytest.approx(4.0, rel=1e-10)


def test_two_mode_closed_raw_broadcasts():
    # (zeta, r, N_B) = (0, 1, 0) is the corner where the first fraction is 0/0
    zetas = np.array([0.0, 0.0, 0.3, 1.0])
    rs = np.array([1.0, 0.7, 0.9, 1.0])
    for nb in (0.0, 0.5):
        got = _two_mode_closed_raw(1.0, zetas, rs, 0.0, 0.6, nb)
        want = [_two_mode_closed_raw(1.0, float(z), float(r), 0.0, 0.6, nb)
                for z, r in zip(zetas, rs)]
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)
    # the corner is a coherent state times a vacuum idler: I = 4 N_S at N_B = 0
    assert _two_mode_closed_raw(1.0, zetas, rs, 0.0, 0.6, 0.0)[0] == \
        pytest.approx(4.0, rel=1e-12)


def test_two_mode_matches_squeezed_vacuum_near_full_transmission():
    # at the r_min edge (all photons in local squeezing) the two-mode QFI
    # approaches the single-mode squeezed-vacuum one as eta -> 1
    n_s = 1.0
    p = ChannelParams(0.999, 0.0)
    probe = TwoModeProbe(n_s, 1.0, TwoModeProbe(n_s, 1.0, 1.0).r_min)
    assert qfi_two_mode_closed(probe, p) == pytest.approx(
        qfi_squeezed_vacuum(n_s, p), rel=0.01)


def test_two_mode_displacement_angle_preference():
    # theta = 0 maximizes the two-mode QFI; degenerate when r = 1
    p = ChannelParams(0.6, 0.5)
    n_s, zeta = 2.0, 0.6
    rmin = TwoModeProbe(n_s, zeta, 1.0).r_min
    r = 0.5 * (rmin + 1.0)
    base = qfi_two_mode_closed(TwoModeProbe(n_s, zeta, r, 0.0), p)
    for theta in np.linspace(0.0, np.pi, 9):
        val = qfi_two_mode_closed(TwoModeProbe(n_s, zeta, r, theta), p)
        assert val <= base + 1e-9
    flat = [qfi_two_mode_closed(TwoModeProbe(n_s, zeta, 1.0, th), p)
            for th in (0.0, 0.7, 2.1)]
    assert np.ptp(flat) < 1e-9 * flat[0]


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------

def test_vacuum_idler_does_not_change_qfi():
    p = ChannelParams(0.7, 1.5)
    single = qfi_sld(single_mode_state(1.0, 0.0), p)
    padded = qfi_sld(build_two_mode(TwoModeProbe(1.0, 0.0, 1.0)), p)
    assert padded == pytest.approx(single, rel=1e-9)


def test_shadow_monotone_in_background():
    for eta in (0.3, 0.7, 0.95):
        values = [qfi_shadow(ChannelParams(eta, nb))
                  for nb in np.linspace(0.1, 50.0, 12)]
        assert all(b > a for a, b in zip(values, values[1:]))


def test_displacement_angle_identity_single_mode():
    # I(theta=0) - I(theta) = 4 eta^2 (1-r^2) N_coh sin^2(theta)
    #                         / [(eta^2 + 2 r y)(r eta^2 + 2 y)]
    rng = np.random.default_rng(17)
    for _ in range(8):
        eta = rng.uniform(0.1, 0.95)
        nb = rng.choice([0.0, 0.4, 3.0])
        n_s = rng.uniform(0.2, 3.0)
        xi = rng.uniform(0.1, 0.9)
        theta = rng.uniform(0.0, np.pi)
        p = ChannelParams(eta, nb)
        probe = SingleModeProbe(n_s, xi, 0.0)
        r, n_coh = probe.r, probe.n_coh
        y = (1 - eta ** 2) * (nb + 0.5)
        predicted = 4 * eta ** 2 * (1 - r ** 2) * n_coh * np.sin(theta) ** 2 \
            / ((eta ** 2 + 2 * r * y) * (r * eta ** 2 + 2 * y))
        gap = qfi_sld(single_mode_state(n_s, xi, 0.0), p) \
            - qfi_sld(single_mode_state(n_s, xi, theta), p)
        assert gap == pytest.approx(predicted, rel=1e-7, abs=1e-12)
        assert gap >= -1e-12


# ---------------------------------------------------------------------------
# homodyne Fisher information
# ---------------------------------------------------------------------------

def test_homodyne_matches_derivative_construction():
    # H = (dm)^2/V + (dV)^2/(2 V^2) for the measured Gaussian quadrature
    h = 1e-6
    for eta, nb, n_coh, r in [(0.1, 0.0, 1.0, 1.0), (0.5, 1000.0, 1.0, 1.0),
                              (0.9, 1.0, 0.5, 0.2), (0.7, 0.0, 0.0, 0.17)]:
        def mean_var(e):
            return e * np.sqrt(2 * n_coh), e ** 2 * r / 2 + (1 - e ** 2) * (nb + 0.5)

        m_hi, v_hi = mean_var(eta + h)
        m_lo, v_lo = mean_var(eta - h)
        _, v0 = mean_var(eta)
        dm = (m_hi - m_lo) / (2 * h)
        dv = (v_hi - v_lo) / (2 * h)
        expected = dm ** 2 / v0 + 0.5 * dv ** 2 / v0 ** 2
        assert homodyne_fisher(n_coh, r, ChannelParams(eta, nb)) == \
            pytest.approx(expected, rel=1e-8)


def test_homodyne_never_beats_qfi():
    rng = np.random.default_rng(31)
    for _ in range(20):
        eta = rng.uniform(0.05, 0.95)
        nb = rng.choice([0.0, 1.0, 100.0])
        n_s = rng.uniform(0.1, 5.0)
        xi = rng.uniform(0.0, 1.0)
        probe = SingleModeProbe(n_s, xi)
        p = ChannelParams(eta, nb)
        h = homodyne_fisher(probe.n_coh, probe.r, p)
        q = qfi_if_closed(probe.n_coh, probe.n_sq, p).total
        assert h <= q + 1e-9


def test_homodyne_regimes():
    # ideal at very low transmission
    p = ChannelParams(0.01, 0.0)
    ratio = homodyne_fisher(1.0, 1.0, p) / qfi_coherent(1.0, p)
    assert ratio >= 0.99
    # factor-two loss in the bright-background regime
    p = ChannelParams(0.5, 1000.0)
    ratio = homodyne_fisher(1.0, 1.0, p) / qfi_coherent(1.0, p)
    assert ratio == pytest.approx(0.5, abs=0.02)
    # misses the (1-eta^2)^{-1} divergence near full transmission
    p = ChannelParams(0.999, 0.0)
    probe = SingleModeProbe(1.0, 1.0)
    ratio = homodyne_fisher(probe.n_coh, probe.r, p) / qfi_squeezed_vacuum(1.0, p)
    assert ratio <= 0.1


# ---------------------------------------------------------------------------
# loss-rate reparametrization
# ---------------------------------------------------------------------------

def test_qfi_gamma():
    probe = single_mode_state(1.0, 0.0)
    base = ChannelParams(0.5, 0.0)
    with pytest.raises(EtaTooClose):
        qfi_gamma(0.0, 1.0, probe, base)
    assert qfi_gamma(2.0, 0.0, probe, base) == 0.0
    # gamma and t are checked before the t = 0 shortcut
    for gamma, t in [(1.0, math.inf), (-1.0, 0.0), (math.nan, 0.0), (0.0, math.nan)]:
        with pytest.raises(NonPhysicalParams, match="finite and non-negative"):
            qfi_gamma(gamma, t, probe, base)
    # eta = 1/2, I_eta = 4: (t^2/4) e^{-gamma t} I = 0.25
    val = qfi_gamma(2.0 * np.log(2.0), 1.0, probe, base)
    assert val == pytest.approx(0.25, rel=1e-10)


# ---------------------------------------------------------------------------
# the batched SLD kernel
# ---------------------------------------------------------------------------

def states_stack(states, p):
    """Channel outputs (st, dst, ddt) of states, each from `apply_channel`
    and `channel_derivative`, stacked with the item axis last."""
    st = [apply_channel(state, p).sigma for state in states]
    ddt, dst = zip(*(channel_derivative(state, p) for state in states))
    return tuple(np.stack(x, axis=-1) for x in (st, dst, ddt))


def kernel_tables(*stacks):
    """Item-last ndarray stacks in the kernel's two layouts: a stack of one
    item as nested Python floats, any other as nested lists of its rows."""
    if stacks[-1].shape[-1] == 1:
        return tuple(x[..., 0].tolist() for x in stacks)
    return tuple([list(row) for row in x] if x.ndim == 3 else list(x) for x in stacks)


def output_stack(probes, p):
    """Channel outputs (st, dst, ddt) of two-mode probes, stacked."""
    return states_stack([build_two_mode(probe) for probe in probes], p)


def random_two_mode_probes(rng, count):
    probes = []
    for _ in range(count):
        n_s = rng.uniform(0.1, 5.0)
        zeta = rng.uniform(0.0, 1.0)
        r_min = TwoModeProbe(n_s, zeta, 1.0).r_min
        probes.append(TwoModeProbe(n_s, zeta, r_min ** rng.uniform(0.0, 1.0),
                                   theta=rng.uniform(0.0, np.pi)))
    return probes


def test_grid_with_singular_row_never_calls_lstsq(monkeypatch):
    # the r = r_min row of every zeta has a pure, uncorrelated idler (a = 1/2),
    # so its SLD system is exactly singular; the kernel must solve it in batch
    calls = []
    real_lstsq = np.linalg.lstsq

    def counting_lstsq(*args, **kwargs):
        calls.append(1)
        return real_lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
    zeta, r, best = optimize_two_mode(1.0, ChannelParams(0.5, 1.0), grid=(64, 64))
    assert (zeta, r) == (1.0, 1.0)
    assert best == pytest.approx(qfi_tmsv(1.0, ChannelParams(0.5, 1.0)), rel=1e-9)
    assert calls == []


@pytest.mark.parametrize("n_s,eta,n_b", [
    (1.0, 0.7071, 1.0),   # the README sweep-twomode grid
    (1.0, 0.5, 1.0),      # a criterion-07 grid
    (1e3, 0.5, 0.0),      # a pure-loss output: one symplectic eigenvalue 1/2
    (1e3, 0.999, 1.0),    # criterion-07 corners where the Stein solve leaves
    (1e3, 0.999, 1e-3),   # items above the residual tolerance
])
def test_canonical_grid_never_calls_eigh(monkeypatch, n_s, eta, n_b):
    # the items that the Stein solve leaves unsettled take the sum in Stein's
    # basis, so a canonical stack never builds a basis by eigh
    calls = []
    real_eigh = np.linalg.eigh

    def counting_eigh(*args, **kwargs):
        calls.append(1)
        return real_eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    zeta, r, _ = optimize_two_mode(n_s, ChannelParams(eta, n_b), grid=(64, 64))
    assert (zeta, r) == (1.0, 1.0)
    assert calls == []


def test_non_finite_stack_raises_nonphysical():
    # the kernel checks its input once, before any solve, and names the
    # first such item, in a stack's rows and in the grid's rows alike; a
    # float entry of the grid, which every item shares, fails item 0; a
    # batch of one, of either mode count, is checked on Python floats
    p = ChannelParams(0.6, 0.7)
    stack = output_stack(random_two_mode_probes(np.random.default_rng(4), 8), p)
    singles = [states_stack([state], p) for state in
               (single_mode_state(1.0, 0.5), build_two_mode(TwoModeProbe(1.0, 0.5, 0.8)))]
    for value, which in itertools.product((np.inf, -np.inf, np.nan), range(3)):
        bad = [moments.copy() for moments in stack]
        bad[which][..., 5].flat[0] = value
        bad_rows = qfi._two_mode_outputs(1.0, np.linspace(0.1, 1.0, 8), np.full(8, 0.9), p)
        row = bad_rows[which][0] if which == 2 else bad_rows[which][0][0]
        row[[5, 7]] = value
        for tables in (kernel_tables(*bad), bad_rows):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NonPhysical, match="item 5 "):
                    _sld_qfi_batch(*tables)
        shared = qfi._two_mode_outputs(1.0, np.linspace(0.1, 1.0, 8), np.full(8, 0.9), p)
        entries, index = ((shared[0][0], 1), (shared[1][2], 2), (shared[2], 1))[which]
        assert isinstance(entries[index], float)
        entries[index] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonPhysical, match="item 0 "):
                _sld_qfi_batch(*shared)
        for single, entry in itertools.product(singles, (0, 1, -1)):
            bad = [moments.copy() for moments in single]
            bad[which].flat[entry] = value
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NonPhysical, match="^SLD stack item 0 has a "
                                                      "non-finite moment or derivative$"):
                    _sld_qfi_batch(*kernel_tables(*bad))


def test_float_x_p_entry_takes_the_general_route_as_its_row():
    # a non-zero float x-p entry, which every item shares, makes the stack
    # non-canonical; the general route gathers it as the same row would be
    p = ChannelParams(0.6, 0.7)
    stack = output_stack(random_two_mode_probes(np.random.default_rng(6), 8), p)
    values = []
    for entry in (0.05, np.full(8, 0.05)):
        s, ds, dd = kernel_tables(*stack)
        s[0][1] = s[1][0] = ds[2][3] = ds[3][2] = entry
        values.append(_sld_qfi_batch(s, ds, dd))
    assert np.isfinite(values[0]).all()
    assert_same_bits(*values)


@pytest.mark.parametrize("state", [vacuum(), tmsv(3.0)], ids=["one_mode", "two_mode"])
def test_too_large_batch_of_one_raises_singular_system(state):
    # a batch of one is checked on Python floats and raises what the grid
    # raises (test_two_mode_grid_too_large_output_raises_without_a_warning);
    # at the bound and just below it, it does what a stack of two copies does
    m = 2 * state.modes
    bound = qfi._NU_MAX / m
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularSystem, match=r"^SLD item 0: S is so large that "
                                                 r"g = 4 nu_j nu_k overflows$"):
            qfi_sld(state, ChannelParams(0.5, 1.7e308))
        for big in (bound, np.nextafter(bound, 0.0)):
            one = (np.eye(m)[..., None] * big, np.eye(m)[..., None], np.zeros((m, 1)))
            outcomes = []
            for tables in (one, [np.concatenate([x, x], axis=-1) for x in one]):
                try:
                    outcomes.append(_sld_qfi_batch(*kernel_tables(*tables))[0])
                except SingularSystem as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]
            assert ("overflows" in str(outcomes[0])) == (big == bound)


def test_stein_value_past_the_doubles_raises_singular_system():
    # the Stein route settles the brightest coherent probe at N_B = 0 with a
    # QFI of inf; it is kept only if finite, so the state takes the
    # Williamson sum, which fails, alone and as item 1 of a stack
    p = ChannelParams(0.5, 0.0)
    bright = single_mode_state(BRIGHTEST, 0.0)
    with pytest.raises(SingularSystem, match=r"^SLD item 0 "):
        qfi_sld(bright, p)
    with pytest.raises(SingularSystem, match=r"^SLD item 1 "):
        _sld_qfi_batch(*kernel_tables(*states_stack([single_mode_state(1.0, 0.5),
                                                     bright], p)))


def test_kernel_values_do_not_depend_on_chunking():
    # a stack takes the Stein route's array path, a batch of one its float
    # path
    p = ChannelParams(0.6, 0.7)
    rng = np.random.default_rng(5)
    two_mode = output_stack(random_two_mode_probes(rng, 1000), p)
    one_mode = states_stack([single_mode_state(rng.uniform(0.1, 5.0),
                                               rng.uniform(0.0, 1.0),
                                               rng.uniform(0.0, np.pi))
                             for _ in range(1000)], p)
    for st, dst, ddt in (two_mode, one_mode):
        assert not (st[0::2, 1::2].any() or dst[0::2, 1::2].any())
        whole = _sld_qfi_batch(*kernel_tables(st, dst, ddt))
        singles = [_sld_qfi_batch(*kernel_tables(st[..., g:g + 1], dst[..., g:g + 1],
                                                 ddt[..., g:g + 1]))[0]
                   for g in range(st.shape[-1])]
        np.testing.assert_allclose(whole, singles, rtol=1e-12)


def test_singular_item_leaves_other_items_unchanged():
    p = ChannelParams(0.8, 0.3)
    probes = random_two_mode_probes(np.random.default_rng(8), 20)
    before = _sld_qfi_batch(*kernel_tables(*output_stack(probes, p)))
    # coherent signal with a vacuum idler: the idler output is exactly pure
    singular = TwoModeProbe(1.0, 0.0, 1.0)
    st, dst, ddt = output_stack(probes[:7] + [singular] + probes[7:], p)
    np.testing.assert_array_equal(st[2:, 2:, 7], 0.5 * np.eye(2))
    after = _sld_qfi_batch(*kernel_tables(st, dst, ddt))
    np.testing.assert_allclose(np.delete(after, 7), before, rtol=1e-12)
    assert after[7] == pytest.approx(qfi_coherent(1.0, p), rel=1e-9)


def test_exactly_singular_output_is_a_bad_item():
    # at N_S = 1e14 and eta = 0.999 the output S of a TMSV is singular to
    # double precision: its Williamson basis has no digit left, and the stack
    # raises naming that item; without it, every item keeps its value
    p = ChannelParams(0.999, 0.0)
    # rotated idlers (phi != 0) send the whole stack to the general route
    probes = [TwoModeProbe(q.n_s, q.zeta, q.r, q.theta, 0.3)
              for q in random_two_mode_probes(np.random.default_rng(9), 6)]
    stack = output_stack(probes[:3] + [TwoModeProbe(1e14, 1.0, 1.0)] + probes[3:], p)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(stack[0][..., 3], stack[2][..., 3])
    with pytest.raises(SingularSystem,
                       match=r"^SLD item 3 has no finite Williamson basis$"):
        _sld_qfi_batch(*kernel_tables(*stack))
    values = _sld_qfi_batch(*kernel_tables(*output_stack(probes, p)))
    np.testing.assert_allclose(values, [qfi_two_mode_closed(q, p) for q in probes],
                               rtol=1e-9)


@pytest.mark.parametrize("n_s,eta", [
    (1e12, 0.99999),  # the float Stein route divides by zero
    (1e14, 0.999),    # a math domain error in the float Stein route
    (1e15, 0.999),
    (1e16, 0.999),
])
def test_sld_route_failures_raise_singular_system(n_s, eta):
    # the array route takes over from the float one; Stein's basis is finite
    # but off by O(1) at 1e12, and not finite at the others
    message = (r"SLD item 0: error bound 8\.840e\+00 exceeds 1e-08" if n_s == 1e12
               else "SLD item 0 has no finite Williamson basis")
    with pytest.raises(SingularSystem, match=f"^{message}$"):
        qfi_sld(tmsv(n_s), ChannelParams(eta, 0.0))


def moments(state, p):
    """The channel output of one state as Python-float entries for `_stein`."""
    ddt, dst = channel_derivative(state, p)
    return apply_channel(state, p).sigma.tolist(), dst.tolist(), ddt.tolist()


def item_first(*stacks):
    """Item-last stacks with the item axis moved first, as `_williamson_sum`
    takes them."""
    return tuple(np.moveaxis(x, -1, 0) for x in stacks)


def test_sld_route_answers_where_stein_misses_the_tolerance():
    # a bright TMSV at eta -> 1: the Stein solve leaves its residual above
    # SLD_RESIDUAL_TOL, and the sum in Stein's basis takes the item
    p = ChannelParams(0.999, 1e-3)
    _, rel, _ = _stein(*moments(tmsv(1e3), p))
    assert rel > SLD_RESIDUAL_TOL
    assert qfi_sld(tmsv(1e3), p) == pytest.approx(qfi_tmsv(1e3, p), rel=1e-9, abs=0)


def test_sld_route_raises_where_its_bound_exceeds_the_tolerance():
    # a brighter TMSV: the sum's error bound passes 1e-8, and the route
    # raises rather than return a value it cannot vouch for
    with pytest.raises(SingularSystem,
                       match=r"^SLD item 0: error bound 1\.572e-07 exceeds 1e-08$"):
        qfi_sld(tmsv(1e8), ChannelParams(0.5, 0.0))


def test_error_bound_covers_nearly_pure_items():
    # at eta = 1e-3 and N_B = 0 the outputs at r = r_min of small zeta are
    # nearly pure: the rounding of S moves their g - 1 terms, and their QFI,
    # by more than 1e-8.  Weighting those terms by g/(g - 1), the bound
    # covers the error against a 50-digit closed form, and refuses the items
    n_s, p = 1e-3, ChannelParams(1e-3, 0.0)
    zeta = np.array([1.0, 2.0, 4.0]) / 63.0
    r = two_mode_r_min(n_s, zeta)
    rows = qfi._two_mode_outputs(n_s, zeta, r, p)
    _, rel, basis = _stein(*rows)
    assert (rel > SLD_RESIDUAL_TOL).all()
    moments = item_first(*(np.array(as_rows(t, zeta.size)) for t in rows))
    values, bound, _, _ = _williamson_sum(*basis(lambda x: x, moments[0]), *moments[1:])
    with mpmath.workdps(50):
        exact = np.array([float(_two_mode_closed_raw(
            mpmath.mpf(n_s), mpmath.mpf(z), mpmath.mpf(x), 0.0, mpmath.mpf(p.eta), 0))
            for z, x in zip(zeta, r)])
    err = np.abs(values - exact) / exact
    assert (err > SLD_RESIDUAL_TOL).all()
    assert (err <= bound).all() and (bound > SLD_RESIDUAL_TOL).all()


@pytest.mark.parametrize("sigma", [
    np.diag([0.5, 0.5]),                            # vacuum: the Stein route
    np.array([[0.625, 0.375], [0.375, 0.625]]),     # squeezed along x = p: the
])                                                  # general route
def test_pure_output_whose_purity_changes_diverges(sigma):
    # dS = S scales a pure state up: its purity changes with eta, and the
    # cut g - 1 term keeps a numerator, so the QFI is infinite
    st = sigma[..., None]
    with pytest.raises(SingularSystem, match=r"^SLD item 0 has a pure mode whose "
                                             r"purity changes with eta: the QFI "
                                             r"diverges$"):
        _sld_qfi_batch(*kernel_tables(st, st, np.zeros((2, 1))))


def test_decoupled_system_splits_by_parity():
    # canonical probes keep S and dS free of x-p entries through the channel;
    # Stein's basis, which takes the x and p blocks apart, then gives the
    # sum that the eigh-built basis gives
    p = ChannelParams(0.6, 0.7)
    rng = np.random.default_rng(3)
    two_mode = output_stack(random_two_mode_probes(rng, 64), p)
    one_mode = states_stack([single_mode_state(rng.uniform(0.1, 5.0),
                                               rng.uniform(0.0, 1.0))
                             for _ in range(64)], p)
    for st, dst, ddt in (two_mode, one_mode):
        assert not st[0::2, 1::2].any() and not dst[0::2, 1::2].any()
        moments = item_first(st, dst, ddt)
        basis = _stein(*kernel_tables(st, dst, ddt))[2]
        stein = _williamson_sum(*basis(lambda x: x, moments[0]), *moments[1:])
        general = _williamson_sum(*_williamson(moments[0]), *moments[1:])
        np.testing.assert_allclose(stein[0], general[0], rtol=1e-12)
        assert (stein[1] <= SLD_RESIDUAL_TOL).all()
        assert (general[1] <= SLD_RESIDUAL_TOL).all()


class Reads(list):
    """A table, as nested lists, that logs every array entry read from it."""

    def __init__(self, table, log):
        super().__init__(Reads(row, log) if isinstance(row, list) else row
                         for row in table)
        self.log = log

    def __getitem__(self, index):
        entry = super().__getitem__(index)
        if isinstance(entry, np.ndarray):
            self.log.append(entry)
        return entry


def test_stein_reads_the_grid_as_contiguous_rows(monkeypatch):
    # the grid hands the Stein route its ten distinct non-zero entries as
    # rows over the items, and no (m, m, G) stack
    p = ChannelParams(0.6, 0.7)
    zeta, r = np.linspace(0.1, 1.0, 5), np.linspace(0.5, 1.0, 5)
    arrays, reads = [], []
    stein = qfi._stein

    def leaves(table):
        if isinstance(table, np.ndarray):
            arrays.append(table)
        else:
            for entry in table:
                leaves(entry)

    def spy(s, ds, dd):
        leaves(as_rows((s, ds, dd), zeta.size))
        return stein(*(Reads(table, reads) for table in (s, ds, dd)))

    monkeypatch.setattr(qfi, "_stein", spy)
    qfi._two_mode_qfi(1.0, zeta, r, p)
    assert arrays and all(x.ndim == 1 for x in arrays)
    rows = {id(x): x for x in reads if x.any()}
    assert len(rows) == 10
    for row in rows.values():
        assert row.shape == (5,) and row.flags.c_contiguous


def grid_points(monkeypatch, n_s, p):
    """The flat ``(zeta, r)`` points of `two_mode_grid`'s 64x64 search."""
    seen = []

    def record(n_s, zeta, r, p):
        seen.append((zeta, r))
        return np.zeros(zeta.shape)

    with monkeypatch.context() as patch:
        patch.setattr(optimize, "_two_mode_qfi", record)
        two_mode_grid(n_s, p)
    return seen[0]


def as_rows(table, count):
    """`table` with each float entry, which every item shares, repeated
    over the `count` items as a row."""
    if isinstance(table, float):
        return np.full(count, table)
    return table if isinstance(table, np.ndarray) else [as_rows(x, count) for x in table]


def grid_tables(n_s, zeta, r, p):
    """The grid's output rows as ndarray tables: (4, 4, G), (4, 4, G), (4, G)."""
    return tuple(np.array(as_rows(t, zeta.size))
                 for t in qfi._two_mode_outputs(n_s, zeta, r, p))


def stack_qfi(n_s, zeta, r, p):
    """QFI of the canonical probes from the rows of the grid's ndarray
    tables, a row at every entry where the grid has a shared float."""
    return _sld_qfi_batch(*kernel_tables(*grid_tables(n_s, zeta, r, p)))


def assert_same_bits(a, b):
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("n_s,n_b,eta,normalized", [
    (n_s, n_b, eta, False) for n_s in (1e-3, 1.0, 1e3) for n_b in (1e-3, 1.0, 1e3)
    for eta in (1e-3, 0.5, 0.999)] + [(1.0, 1.0, 0.5, True), (0.3, 1e-3, 0.9, True)])
def test_entry_route_keeps_the_bits_of_the_stack_route(monkeypatch, n_s, n_b, eta,
                                                        normalized):
    # the criterion-07 grids and two normalized ones: the kernel reads the
    # grid's shared floats as it reads full rows, and gives the same values
    p = ChannelParams(eta, n_b, normalized)
    zeta, r = grid_points(monkeypatch, n_s, p)
    assert_same_bits(qfi._two_mode_qfi(n_s, zeta, r, p), stack_qfi(n_s, zeta, r, p))


def test_entry_route_gathers_stein_rejected_items_as_the_stack_route(monkeypatch):
    # a criterion-07 corner where the Stein solve leaves items above the
    # residual tolerance: the grid's tables and full rows gather them alike
    # for the Williamson sum
    n_s, p = 1e3, ChannelParams(0.999, 1.0)
    zeta, r = grid_points(monkeypatch, n_s, p)
    tables = kernel_tables(*grid_tables(n_s, zeta, r, p))
    _, rel, _ = _stein(*tables)
    assert (rel > SLD_RESIDUAL_TOL).any()
    assert_same_bits(qfi._two_mode_qfi(n_s, zeta, r, p), _sld_qfi_batch(*tables))


def test_entry_route_raises_as_the_stack_route(monkeypatch):
    # the strict-xfail grid of test_optimize: nearly pure outputs near r = 1
    n_s, p = 1e-3, ChannelParams(1e-3, 0.0)
    zeta, r = grid_points(monkeypatch, n_s, p)
    with pytest.raises(SingularSystem) as stack:
        stack_qfi(n_s, zeta, r, p)
    with pytest.raises(SingularSystem) as entry:
        qfi._two_mode_qfi(n_s, zeta, r, p)
    assert str(entry.value) == str(stack.value)
    assert "error bound" in str(entry.value)


@pytest.mark.parametrize("n_s,n_b,eta,normalized", [
    (1.0, 1.0, 0.7071, False),  # the README sweep-twomode grid
    (1.0, 1.0, 0.5, True),
    (1e3, 1.0, 0.999, False),   # a bright corner with Stein-rejected items
    (1e-3, 0.0, 1e-3, False),   # N_B = 0
], ids=["readme", "normalized", "bright", "vacuum_bath"])
def test_grid_rows_are_the_probes_built_alone(monkeypatch, n_s, n_b, eta,
                                              normalized):
    # every point of the grid has, bit for bit, the output moments and
    # derivatives of its probe built alone and sent through the channel
    p = ChannelParams(eta, n_b, normalized)
    zeta, r = grid_points(monkeypatch, n_s, p)
    s, ds, dd = grid_tables(n_s, zeta, r, p)
    for k in range(zeta.size):
        state = build_two_mode(TwoModeProbe(n_s, float(zeta[k]), float(r[k])))
        ddt, dst = channel_derivative(state, p)
        assert_same_bits(s[..., k], apply_channel(state, p).sigma)
        assert_same_bits(ds[..., k], dst)
        assert_same_bits(dd[..., k], ddt)


def test_array_cutoff_divides_once_and_cuts_to_zero():
    rng = np.random.default_rng(31)
    den = np.concatenate([rng.uniform(-2.0, 2.0, 200), 10.0 ** rng.uniform(-320, 300, 200),
                          [0.0, -0.0, 1e-310, -1e-310, 1e-20, -1e-20, 5e-13, math.nan,
                           math.inf, -math.inf]])
    for tol in (0.0, 1e-12, rng.uniform(0.0, 1e-12, den.size)):
        cut = np.abs(den) <= tol
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # outside any np.errstate
            inv = _ARRAY_OPS.cutoff(den, tol)
        with np.errstate(over="ignore"):  # a kept subnormal den
            kept = np.divide(1.0, den, out=np.zeros_like(den), where=~cut)
        assert_same_bits(inv, kept)
        assert (inv[cut] == 0.0).all() and inv[den == 0.0].tolist() == [0.0, 0.0]
        assert np.isnan(inv[np.isnan(den)]).all()


@pytest.mark.parametrize("density", [0.0, 0.2, 0.6, 0.95, 1.0])
def test_array_pick_is_where(density):
    # the arrays of a refinement step: 13 entries, the last the residual norm,
    # with NaN norms on either side (NaN < x is False, so `old` stays)
    rng = np.random.default_rng(int(100 * density))
    count = 4096
    new = [rng.normal(size=count) for _ in range(13)]
    old = [rng.normal(size=count) for _ in range(13)]
    new[-1] = np.where(rng.random(count) < density, 0.5, 2.0)
    old[-1] = np.ones(count)
    new[-1][:7], old[-1][7:14] = math.nan, math.nan
    cond = new[-1] < old[-1]
    assert cond.mean() == pytest.approx(density, abs=0.03)
    expected = [np.where(cond, a, b) for a, b in zip(new, old)]
    picked = _ARRAY_OPS.pick(cond, new, old)
    assert len(picked) == 13
    for got, want in zip(picked, expected):
        assert_same_bits(got, want)


def congruence_reference(m, x):
    """``M X M^T`` written out, one fresh result per operation."""
    m11, m12, m21, m22 = m
    x11, x12, x22 = x
    r11, r12 = m11 * x11 + m12 * x12, m11 * x12 + m12 * x22
    r21, r22 = m21 * x11 + m22 * x12, m21 * x12 + m22 * x22
    return r11 * m11 + r12 * m12, r11 * m21 + r12 * m22, r21 * m21 + r22 * m22


def test_congruence_keeps_the_bits_of_the_written_out_form():
    # _congruence accumulates into the arrays it makes; every entry keeps
    # the bits of the written-out form, NaN payloads and signed zeros
    # included, and no input is written to
    rng = np.random.default_rng(41)
    rows = [rng.normal(size=4096) * 10.0 ** rng.uniform(-120, 120, 4096) for _ in range(7)]
    for row in rows:
        row[rng.integers(0, 4096, 40)] = rng.choice([0.0, -0.0, 1e-310, -1e300, np.inf,
                                                     np.nan], 40)
    cases = {"symmetric": ((rows[0], rows[1], rows[1], rows[3]), rows[4:]),
             "non-symmetric": (rows[:4], rows[4:]),
             "float entry": ((rows[0], rows[1], 0.0, rows[3]), rows[4:])}
    with np.errstate(all="ignore"):
        for name, (m, x) in cases.items():
            kept = [a.copy() for a in rows]
            got = qfi._congruence(m, x)
            for out, want in zip(got, congruence_reference(m, x), strict=True):
                assert_same_bits(out, want)
                assert not any(out is a for a in rows), name
            for after, before in zip(rows, kept):
                assert_same_bits(after, before)
    # Python floats, as a batch of one takes them; every other M symmetric
    for k in range(4096):
        m = [float(row[k]) for row in rows[:4]]
        if k % 2:
            m[2] = m[1]
        x = [float(row[k]) for row in rows[4:]]
        got = qfi._congruence(m, x)
        assert all(type(v) is float for v in got)
        assert [v.hex() for v in got] == [v.hex() for v in congruence_reference(m, x)]


def squeeze_parameter_reference(n_sq):
    """`squeeze_parameter` written out, one fresh result per operation."""
    return 1.0 + 2.0 * n_sq - 2.0 * np.sqrt(n_sq * (n_sq + 1.0))


def if_terms_reference(n_coh, n_sq, c):
    """`qfi._if_terms` written out, one fresh result per operation."""
    r = squeeze_parameter_reference(n_sq)
    if c[0] == qfi._VACUUM:
        _, e2, one, sq_gain = c
        i_disp = 4.0 * n_coh / (e2 * r + one)
        a_den = one * n_sq * e2
        i_sq = 4.0 * n_sq * sq_gain / (one * (2.0 * a_den + 1.0))
        i_shadow = 0.0
    elif c[0] == qfi._HELD:
        _, e2, e4, two_nb, nb_nb1, tnb1, tnb1_sq = c
        i_disp = 4.0 * n_coh / (r * e2 + two_nb + 1.0 - e2)
        b_den = nb_nb1 + n_sq * e2 * tnb1 - n_sq * e4
        i_sq = (4.0 * n_sq * e2 / b_den) * (
            (n_sq + 1.0) * tnb1_sq / (2.0 * b_den + 1.0) - 1.0)
        i_shadow = 0.0
    else:
        _, e2, one, nb_nb1, tnb1, one_tnb1, nb_sq_e2, shadow = c
        i_disp = 4.0 * n_coh / (e2 * r + one_tnb1)
        a_den = one * (nb_nb1 + n_sq * e2 * tnb1 - nb_sq_e2)
        i_sq = (4.0 * n_sq * e2 * tnb1 / a_den) * (
            (n_sq + 1.0) * tnb1 / (2.0 * a_den + 1.0) - 1.0)
        i_shadow = shadow / a_den
    return i_disp, i_sq, i_shadow


def assert_same_values(got, want):
    """Same type, shape and bits, signbits and NaN payloads included."""
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert_same_bits(np.asarray(got, dtype=float), np.asarray(want, dtype=float))


def closed_form_cases():
    """``(name, n_coh, n_sq, c)`` for each branch of `qfi._if_terms`: flat
    arrays with xi in {0, 1}, signed zeros, subnormals and overflowing
    photon numbers; the scan's broadcast shapes; and np.float64 scalars."""
    rng = np.random.default_rng(47)
    n = 10.0 ** rng.uniform(-12, 12, 512)
    n[:6] = [0.0, -0.0, 5e-324, 1e-310, 1e154, 1e308]
    xi = rng.uniform(0.0, 1.0, 512)
    xi[::7], xi[3::7] = 0.0, 1.0
    ns_scan = 10.0 ** rng.uniform(-2, 2, 5)[:, None, None]
    scan_xi = np.linspace(0.0, 1.0, 64)
    channels = {"vacuum": (0.0, False), "held": (0.7, True), "bare": (0.7, False)}
    for branch, (n_b, normalized) in channels.items():
        eta = rng.uniform(0.0, 0.999, 512)
        eta[:3] = [0.0, 1e-8, 0.999]
        yield (f"{branch}-flat", (1.0 - xi) * n, xi * n,
               qfi._if_channel(ChannelParams(eta, n_b, normalized)))
        eta_scan = ChannelParams(eta[:9], n_b, normalized)
        yield (f"{branch}-scan", (1.0 - scan_xi) * ns_scan, scan_xi * ns_scan,
               qfi._take(qfi._if_channel(eta_scan), np.s_[..., None]))
        for k in range(0, 512, 37):
            c = qfi._if_channel(ChannelParams(float(eta[k]), n_b, normalized))
            yield (f"{branch}-scalar-{k}", np.float64((1.0 - xi[k]) * n[k]),
                   np.float64(xi[k] * n[k]), c)


def test_closed_form_keeps_the_bits_of_the_written_out_form():
    # _if_terms, _if_total and squeeze_parameter accumulate into the arrays
    # they make: every value keeps the bits of the written-out form, and no
    # argument, channel factor included, is written to
    seen = set()
    with np.errstate(all="ignore"):
        for name, n_coh, n_sq, c in closed_form_cases():
            seen.add(c[0])
            args = (n_coh, n_sq, *c)
            kept = [x.copy() if isinstance(x, np.ndarray) else x for x in args]
            want = if_terms_reference(n_coh, n_sq, c)
            for got, ref in zip(qfi._if_terms(n_coh, n_sq, c), want, strict=True):
                assert_same_values(got, ref)
                assert not any(got is x for x in args), name
            assert_same_values(qfi._if_total(n_coh, n_sq, c), want[0] + want[1] + want[2])
            assert_same_values(squeeze_parameter(n_sq), squeeze_parameter_reference(n_sq))
            for after, before in zip(args, kept, strict=True):
                assert_same_values(after, before)
    assert seen == {qfi._VACUUM, qfi._HELD, qfi._BARE}
    # squeeze_parameter on Python floats, as SingleModeProbe.r takes it
    for n_sq in (0.0, -0.0, 5e-324, 0.5, 1e8, 1e300):
        assert_same_values(squeeze_parameter(n_sq), squeeze_parameter_reference(n_sq))


def table_snapshot(table):
    """Each leaf of a table, an array copied or a float as it is, with the
    identity of every object in it."""
    if isinstance(table, np.ndarray):
        return id(table), table.copy()
    if isinstance(table, float):
        return id(table), table.hex()
    return id(table), [table_snapshot(entry) for entry in table]


def one_mode_float_table(count):
    """A one-mode stack with shared float entries, -0.0 among them."""
    rng = np.random.default_rng(43)
    a, c = rng.uniform(0.6, 3.0, count), rng.uniform(0.6, 3.0, count)
    return ([[a, 0.0], [0.0, c]], [[rng.normal(size=count), -0.0], [-0.0, 0.5]],
            [rng.normal(size=count), 0.0])


@pytest.mark.parametrize("kind", ["grid_rows", "ndarray_stack", "float_entries"])
def test_kernel_leaves_its_inputs_unchanged(monkeypatch, kind):
    # the Stein route writes only into arrays it made: every input array
    # keeps its bits, signbits included, and every table its objects, also
    # where one array stands for two entries; the bright corner's grid has
    # Stein-rejected items, which take the Williamson sum
    n_s, p = 1e3, ChannelParams(0.999, 1.0)
    if kind == "float_entries":
        tables = one_mode_float_table(64)
    else:
        zeta, r = grid_points(monkeypatch, n_s, p)
        tables = (qfi._two_mode_outputs(n_s, zeta, r, p) if kind == "grid_rows"
                  # the rows of the same grid's (4, 4, G) and (4, G) arrays
                  else kernel_tables(*grid_tables(n_s, zeta, r, p)))
    if kind == "grid_rows":
        assert tables[0][0][2] is tables[0][2][0]
        assert tables[0][1][3] is tables[0][3][1]
    before = table_snapshot(tables)
    _, rel, _ = _stein(*tables)
    _sld_qfi_batch(*tables)
    if kind != "float_entries":
        assert (rel > SLD_RESIDUAL_TOL).any()
    after = table_snapshot(tables)

    def same(a, b):
        assert a[0] == b[0]
        if isinstance(a[1], np.ndarray):
            assert_same_bits(b[1], a[1])
        elif isinstance(a[1], list):
            for x, y in zip(a[1], b[1], strict=True):
                same(x, y)
        else:
            assert a[1] == b[1]
    same(before, after)


@pytest.mark.parametrize("state", [vacuum(), single_mode_state(1.0, 0.5), tmsv(1.0),
                                   build_two_mode(TwoModeProbe(1.0, 0.5, 0.8))])
def test_float_stein_returns_python_floats(state):
    # a batch of one is solved on Python floats and yields no numpy scalar
    p = ChannelParams(0.6, 0.7)
    ddt, dst = channel_derivative(state, p)
    one = (apply_channel(state, p).sigma.tolist(), dst.tolist(), ddt.tolist())
    values, rel, _ = _stein(*one)
    assert type(values) is float and type(rel) is float
    assert values.hex() == float(_sld_qfi_batch(*one)[0]).hex()


def kernel_pin_lines(monkeypatch):
    """`float.hex` of the SLD kernel's values, or the message it raises, on
    the criterion-07 grids, two normalized grids, the README grid and a
    seeded panel of single states."""
    grids = [(n_s, n_b, eta, False) for n_s in (1e-3, 1.0, 1e3)
             for n_b in (1e-3, 1.0, 1e3) for eta in (1e-3, 0.5, 0.999)]
    grids += [(1.0, 1.0, 0.5, True), (0.3, 1e-3, 0.9, True), (1.0, 1.0, 0.7071, False),
              (1e-3, 0.0, 1e-3, False)]  # the last raises (strict xfail)
    lines = []
    for n_s, n_b, eta, normalized in grids:
        p = ChannelParams(eta, n_b, normalized)
        zeta, r = grid_points(monkeypatch, n_s, p)
        try:
            lines += [float(v).hex() for v in qfi._two_mode_qfi(n_s, zeta, r, p)]
        except SingularSystem as exc:
            lines.append(str(exc))
    # one state at a time takes the Stein route's float path
    rng = np.random.default_rng(23)
    for k in range(120):
        n_s = rng.uniform(0.01, 50.0)
        if k % 2:
            state = single_mode_state(n_s, rng.uniform(0.0, 1.0), rng.uniform(0.0, np.pi))
        else:
            zeta = rng.uniform(0.0, 1.0)
            r_min = TwoModeProbe(n_s, zeta, 1.0).r_min
            r = r_min if k % 6 == 0 else r_min ** rng.uniform(0.0, 1.0)
            state = build_two_mode(TwoModeProbe(n_s, zeta, r,
                                                theta=rng.uniform(0.0, np.pi)))
        n_b = (0.0, 1e-3, 1.0, 100.0)[k % 4]
        p = ChannelParams(rng.uniform(0.001, 0.999), n_b, normalized=k % 5 == 0)
        try:
            lines.append(float(qfi_sld(state, p)).hex())
        except SingularSystem as exc:
            lines.append(str(exc))
    return lines


# recorded before the Stein route's passes were trimmed; the kernel must
# keep every bit (numpy 2.4, x86_64)
KERNEL_DIGEST = "9b2c5d14d6688a2176b5bdc234ea7e96493999ba72de0b1065572074fb2d5329"


def test_kernel_values_are_pinned(monkeypatch):
    lines = kernel_pin_lines(monkeypatch)
    assert "SLD item 64: error bound" in lines[-121]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == KERNEL_DIGEST


def spectrum_pin_lines(monkeypatch):
    """`float.hex` of Williamson bases ``(Y, nu)``, their soundness (a
    finite error) and the sums ``(values, bound)`` that `_williamson_sum`
    takes in them: the eigh basis on the seeded covariance panel of
    `test_states`, with two TMSVs too bright for a sound basis, and Stein's
    basis on the items of the (N_S, eta, N_B) = (1e3, 0.999, 1) grid that
    the Stein route rejects."""
    panel, draws = np.random.default_rng(17), np.random.default_rng(19)
    cases = []
    for modes in (1, 2):
        s = [random_physical_covariance(panel, modes) for _ in range(150)]
        if modes == 2:
            s += [tmsv(1e8).sigma, tmsv(1e10).sigma]
        s = np.array(s)
        ds = draws.normal(size=s.shape)
        ds, dd = ds + np.swapaxes(ds, 1, 2), draws.normal(size=s.shape[:2])
        cases.append((_williamson(s), ds, dd))
    n_s, p = 1e3, ChannelParams(0.999, 1.0)
    rows = qfi._two_mode_outputs(n_s, *grid_points(monkeypatch, n_s, p), p)
    _, rel, basis = _stein(*rows)
    items = np.flatnonzero(~(rel <= SLD_RESIDUAL_TOL))
    s, ds, dd = item_first(*(np.array(as_rows(t, rel.size))[..., items] for t in rows))
    cases.append((basis(lambda x: x[items], s), ds, dd))
    lines = []
    for (y, nu, err), ds, dd in cases:
        values, bound, _, _ = _williamson_sum(y, nu, err, ds, dd)
        lines += [v.hex() for x in (y, nu, values, bound) for v in x.ravel().tolist()]
        lines += [str(x) for x in np.isfinite(err).tolist()]
    return lines


# recorded before the eigh basis moved to `states` and its soundness into
# the basis error; every bit must hold (numpy 2.4, x86_64)
SPECTRUM_DIGEST = "4a26f315184bfa8f71a8f7a678503189e451870cba3bbc3c874375ea2f8c260b"


def test_williamson_bases_and_sums_are_pinned(monkeypatch):
    lines = spectrum_pin_lines(monkeypatch)
    assert lines.count("False") == 2  # the two bright TMSVs
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SPECTRUM_DIGEST


def rotate_signal(state, angle):
    """The state after a phase rotation of its first mode, built by make_state."""
    rot = np.eye(len(state.d))
    rot[:2, :2] = [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
    return make_state(rot @ state.d, rot @ state.sigma @ rot.T)


@pytest.mark.parametrize("modes", [1, 2])
def test_split_solve_is_phase_covariant(modes):
    # the channel commutes with a signal rotation, which leaves the QFI alone
    # but fills the x-p entries, so the rotated state takes the full system
    rng = np.random.default_rng(11 + modes)
    for k in range(100):
        n_s = rng.uniform(0.1, 5.0)
        if modes == 1:
            state = single_mode_state(n_s, rng.uniform(0.0, 1.0),
                                      rng.uniform(0.0, np.pi))
        else:
            zeta = rng.uniform(0.0, 1.0)
            r_min = TwoModeProbe(n_s, zeta, 1.0).r_min
            r = r_min if k % 4 == 0 else r_min ** rng.uniform(0.0, 1.0)
            state = build_two_mode(TwoModeProbe(n_s, zeta, r,
                                                theta=rng.uniform(0.0, np.pi)))
        n_b = 0.0 if k % 3 == 0 else rng.uniform(0.1, 10.0)
        p = ChannelParams(rng.uniform(0.05, 0.95), n_b, normalized=k % 2 == 1)
        rotated = rotate_signal(state, rng.uniform(0.1, 2.0 * np.pi - 0.1))
        assert not apply_channel(state, p).sigma[0::2, 1::2].any()
        assert apply_channel(rotated, p).sigma[0::2, 1::2].any()
        assert qfi_sld(state, p) == pytest.approx(qfi_sld(rotated, p), rel=1e-12)


@pytest.mark.parametrize("n_b", [0.5, 3.0])
def test_x_p_entries_of_ds_alone_take_the_general_route(n_b):
    # at eta = 0 the output S of a rotated two-mode probe has no x-p entries,
    # but dS keeps the input's cross block, which has; the Stein route would
    # drop them, and accept its wrong value with a zero residual
    p = ChannelParams(0.0, n_b)
    state = build_two_mode(TwoModeProbe(1.0, 0.6, 0.7, theta=0.3))
    rotated = rotate_signal(state, 0.9)
    assert not apply_channel(rotated, p).sigma[0::2, 1::2].any()
    assert channel_derivative(rotated, p)[1][0::2, 1::2].any()
    expected = qfi_sld(state, p)
    assert qfi_sld(rotated, p) == pytest.approx(expected, rel=1e-12)
    pair = _sld_qfi_batch(*kernel_tables(*states_stack([rotated, rotated], p)))
    np.testing.assert_allclose(pair, expected, rtol=1e-12)


def sweep_probes(n_s):
    """A TMSV, a canonical two-mode and a single-mode probe at `n_s` photons,
    and a TMSV with a rotated idler for the general route, each with the
    closed form of its QFI; a squeezing r that rounds to 0 (past ~1e8
    squeezed photons) leaves its probe out."""
    r = TwoModeProbe(n_s, 0.5, 1.0).r_min ** 0.5
    single = SingleModeProbe(n_s, 0.5)
    probes = [(lambda: tmsv(n_s), lambda p: qfi_tmsv(n_s, p)),
              (lambda: build_two_mode(TwoModeProbe(n_s, 1.0, 1.0, phi=0.7)),
               lambda p: qfi_tmsv(n_s, p))]
    if r > 0.0:  # a probe with r = 0 is refused
        two_mode = TwoModeProbe(n_s, 0.5, r)
        probes.append((lambda: build_two_mode(two_mode),
                       lambda p: qfi_two_mode_closed(two_mode, p)))
    if single.r > 0.0:
        probes.append((lambda: build_single_mode(single),
                       lambda p: qfi_if_closed(single.n_coh, single.n_sq, p).total))
    return probes


def test_sld_route_returns_no_silent_wrong_value():
    # N_S = 10^0 ... 10^16 in half decades, four eta and four baths: a value
    # that qfi_sld returns is within 1e-8 of the closed form unless the Stein
    # solve settled it, which keeps the values it had (off by up to ~1e-6
    # here); every other point raises SingularSystem
    sums = raised = 0
    for n_s in 10.0 ** (np.arange(33) / 2):
        for build, closed in sweep_probes(n_s):
            try:
                state = build()
            except NonPhysical:  # r too small for the Heisenberg check
                continue
            for eta in (0.5, 0.9, 0.999, 0.99999):
                for n_b in (0.0, 1e-3, 1.0, 1e3):
                    p = ChannelParams(eta, n_b)
                    try:
                        value = qfi_sld(state, p)
                    except SingularSystem:
                        raised += 1
                        continue
                    s, ds, dd = moments(state, p)
                    canonical = not (np.array(s)[0::2, 1::2].any()
                                     or np.array(ds)[0::2, 1::2].any())
                    if canonical and _stein(s, ds, dd)[1] <= SLD_RESIDUAL_TOL:
                        continue
                    sums += 1
                    exact = closed(p)
                    assert abs(value - exact) <= 1e-8 * exact, (n_s, eta, n_b)
    assert sums > 50 and raised > 50
