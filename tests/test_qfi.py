import math
import warnings

import numpy as np
import pytest

from lossfish import (ChannelParams, EtaTooClose, NonPhysical, NonPhysicalParams,
                      SingularSystem, SingleModeProbe, TwoModeProbe, build_single_mode,
                      build_two_mode, homodyne_fisher, make_state,
                      optimize_two_mode, qfi_coherent, qfi_fidelity_fd,
                      qfi_gamma, qfi_if_closed, qfi_shadow,
                      qfi_single_mode_form, qfi_sld, qfi_squeezed_vacuum,
                      qfi_tmsv, qfi_two_mode_closed, tmsv, vacuum)
import lossfish.qfi as qfi
from lossfish.channel import moment_derivatives, output_moments
from lossfish.probes import two_mode_moments, two_mode_r_min
from lossfish.qfi import (_ARRAY_OPS, _FLOAT_OPS, SLD_RESIDUAL_TOL, _eigh_basis,
                          _sld_qfi_batch, _stein, _two_mode_closed_raw, _williamson_sum)

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
    with pytest.raises(ValueError):
        qfi_fidelity_fd(vacuum(), ChannelParams(1e-7, 1.0))


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

def output_stack(probes, p):
    """Channel outputs (st, dst, ddt) of two-mode probes, stacked."""
    states = [build_two_mode(probe) for probe in probes]
    d = np.stack([state.d for state in states], axis=-1)
    sigma = np.stack([state.sigma for state in states], axis=-1)
    _, st = output_moments(d, sigma, p)
    ddt, dst = moment_derivatives(d, sigma, p)
    return st, dst, ddt


def single_mode_stack(states, p):
    """Channel outputs (st, dst, ddt) of single-mode states, stacked."""
    d = np.stack([state.d for state in states], axis=-1)
    sigma = np.stack([state.sigma for state in states], axis=-1)
    _, st = output_moments(d, sigma, p)
    ddt, dst = moment_derivatives(d, sigma, p)
    return st, dst, ddt


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
    # the kernel checks its input once, before any solve, and names the item
    p = ChannelParams(0.6, 0.7)
    stack = output_stack(random_two_mode_probes(np.random.default_rng(4), 8), p)
    for which in range(3):
        bad = [moments.copy() for moments in stack]
        bad[which][..., 5].flat[0] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonPhysical, match="item 5"):
                _sld_qfi_batch(*bad)


def test_kernel_values_do_not_depend_on_chunking():
    # a stack takes the Stein route's array path, a batch of one its float
    # path
    p = ChannelParams(0.6, 0.7)
    rng = np.random.default_rng(5)
    two_mode = output_stack(random_two_mode_probes(rng, 1000), p)
    one_mode = single_mode_stack([single_mode_state(rng.uniform(0.1, 5.0),
                                                    rng.uniform(0.0, 1.0),
                                                    rng.uniform(0.0, np.pi))
                                  for _ in range(1000)], p)
    for st, dst, ddt in (two_mode, one_mode):
        assert not (st[0::2, 1::2].any() or dst[0::2, 1::2].any())
        whole = _sld_qfi_batch(st, dst, ddt)
        # a copy per item: BLAS may round differently at another memory alignment
        singles = [_sld_qfi_batch(st[..., g:g + 1].copy(), dst[..., g:g + 1].copy(),
                                  ddt[..., g:g + 1].copy())[0]
                   for g in range(st.shape[-1])]
        np.testing.assert_allclose(whole, singles, rtol=1e-12)


def test_singular_item_leaves_other_items_unchanged():
    p = ChannelParams(0.8, 0.3)
    probes = random_two_mode_probes(np.random.default_rng(8), 20)
    before = _sld_qfi_batch(*output_stack(probes, p))
    # coherent signal with a vacuum idler: the idler output is exactly pure
    singular = TwoModeProbe(1.0, 0.0, 1.0)
    st, dst, ddt = output_stack(probes[:7] + [singular] + probes[7:], p)
    np.testing.assert_array_equal(st[2:, 2:, 7], 0.5 * np.eye(2))
    after = _sld_qfi_batch(st, dst, ddt)
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
        _sld_qfi_batch(*stack)
    values = _sld_qfi_batch(*output_stack(probes, p))
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
    _, st = output_moments(state.d, state.sigma, p)
    ddt, dst = moment_derivatives(state.d, state.sigma, p)
    return st.tolist(), dst.tolist(), ddt.tolist()


def item_first(*stacks):
    """Item-last stacks with the item axis moved first, as `_williamson_sum`
    takes them."""
    return tuple(np.moveaxis(x, -1, 0) for x in stacks)


def test_sld_route_answers_where_stein_misses_the_tolerance():
    # a bright TMSV at eta -> 1: the Stein solve leaves its residual above
    # SLD_RESIDUAL_TOL, and the sum in Stein's basis takes the item
    p = ChannelParams(0.999, 1e-3)
    _, rel, _ = _stein(_FLOAT_OPS, *moments(tmsv(1e3), p))
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
    mpmath = pytest.importorskip("mpmath")
    n_s, p = 1e-3, ChannelParams(1e-3, 0.0)
    zeta = np.array([1.0, 2.0, 4.0]) / 63.0
    r = two_mode_r_min(n_s, zeta)
    d, sigma = two_mode_moments(n_s, zeta, r)
    _, st = output_moments(d, sigma, p)
    ddt, dst = moment_derivatives(d, sigma, p)
    _, rel, basis = _stein(_ARRAY_OPS, st, dst, ddt)
    assert (rel > SLD_RESIDUAL_TOL).all()
    values, bound, _, _ = _williamson_sum(*basis(lambda x: x),
                                          *item_first(st, dst, ddt))
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
        _sld_qfi_batch(st, st.copy(), np.zeros((2, 1)))


def test_decoupled_system_splits_by_parity():
    # canonical probes keep S and dS free of x-p entries through the channel;
    # Stein's basis, which takes the x and p blocks apart, then gives the
    # sum that the eigh-built basis gives
    p = ChannelParams(0.6, 0.7)
    rng = np.random.default_rng(3)
    two_mode = output_stack(random_two_mode_probes(rng, 64), p)
    one_mode = single_mode_stack([single_mode_state(rng.uniform(0.1, 5.0),
                                                    rng.uniform(0.0, 1.0))
                                  for _ in range(64)], p)
    for st, dst, ddt in (two_mode, one_mode):
        assert not st[0::2, 1::2].any() and not dst[0::2, 1::2].any()
        moments = item_first(st, dst, ddt)
        stein = _williamson_sum(*_stein(_ARRAY_OPS, st, dst, ddt)[2](lambda x: x),
                                *moments)
        general = _williamson_sum(*_eigh_basis(moments[0]), *moments)
        np.testing.assert_allclose(stein[0], general[0], rtol=1e-12)
        assert (stein[1] <= SLD_RESIDUAL_TOL).all()
        assert (general[1] <= SLD_RESIDUAL_TOL).all()


def test_stacks_put_the_item_axis_last(monkeypatch):
    # the Stein route reads each entry of S, dS and dd as one contiguous row
    # over the stack; a transposed (item-first) stack would give it views
    # strided across items
    p = ChannelParams(0.6, 0.7)
    zeta, r = np.linspace(0.1, 1.0, 5), np.linspace(0.5, 1.0, 5)
    d, sigma = two_mode_moments(1.0, zeta, r)
    _, st = output_moments(d, sigma, p)
    ddt, dst = moment_derivatives(d, sigma, p)
    assert d.shape == ddt.shape == (4, 5)
    assert sigma.shape == st.shape == dst.shape == (4, 4, 5)
    rows = []
    stein = qfi._stein

    def spy(ops, s, ds, dd):
        rows.extend([s[i][j] for i in range(4) for j in range(4)]
                    + [ds[i][j] for i in range(4) for j in range(4)] + list(dd))
        return stein(ops, s, ds, dd)

    monkeypatch.setattr(qfi, "_stein", spy)
    qfi._two_mode_qfi(1.0, zeta, r, p)
    assert len(rows) == 36
    for row in rows:
        assert row.shape == (5,) and row.flags.c_contiguous


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
        assert not output_moments(state.d, state.sigma, p)[1][0::2, 1::2].any()
        assert output_moments(rotated.d, rotated.sigma, p)[1][0::2, 1::2].any()
        assert qfi_sld(state, p) == pytest.approx(qfi_sld(rotated, p), rel=1e-12)


def sweep_probes(n_s):
    """A TMSV, a canonical two-mode and a single-mode probe at `n_s` photons,
    and a TMSV with a rotated idler for the general route, each with the
    closed form of its QFI; a squeezing r that rounds to 0 (past ~1e8
    squeezed photons) leaves its probe out."""
    two_mode = TwoModeProbe(n_s, 0.5, TwoModeProbe(n_s, 0.5, 1.0).r_min ** 0.5)
    single = SingleModeProbe(n_s, 0.5)
    probes = [(lambda: tmsv(n_s), lambda p: qfi_tmsv(n_s, p)),
              (lambda: build_two_mode(TwoModeProbe(n_s, 1.0, 1.0, phi=0.7)),
               lambda p: qfi_tmsv(n_s, p))]
    if two_mode.r > 0.0:
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
                    if canonical and _stein(_FLOAT_OPS, s, ds, dd)[1] <= SLD_RESIDUAL_TOL:
                        continue
                    sums += 1
                    exact = closed(p)
                    assert abs(value - exact) <= 1e-8 * exact, (n_s, eta, n_b)
    assert sums > 50 and raised > 50
