import numpy as np
import pytest

from lossfish import (ChannelParams, EtaTooClose, SingleModeProbe,
                      TwoModeProbe, build_single_mode, build_two_mode,
                      homodyne_fisher, optimize_two_mode, qfi_coherent,
                      qfi_fidelity_fd, qfi_gamma, qfi_if_closed, qfi_shadow,
                      qfi_single_mode_form, qfi_sld, qfi_squeezed_vacuum,
                      qfi_tmsv, qfi_two_mode_closed, tmsv, vacuum)
from lossfish.channel import moment_derivatives, output_moments
from lossfish.qfi import SLD_CHUNK, _sld_qfi_batch, _two_mode_closed_raw

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
    # eta = 1/2, I_eta = 4: (t^2/4) e^{-gamma t} I = 0.25
    val = qfi_gamma(2.0 * np.log(2.0), 1.0, probe, base)
    assert val == pytest.approx(0.25, rel=1e-10)


# ---------------------------------------------------------------------------
# the batched SLD kernel
# ---------------------------------------------------------------------------

def output_stack(probes, p):
    """Channel outputs (st, dst, ddt) of two-mode probes, stacked."""
    states = [build_two_mode(probe) for probe in probes]
    d = np.stack([state.d for state in states])
    sigma = np.stack([state.sigma for state in states])
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


def test_kernel_values_do_not_depend_on_chunking():
    p = ChannelParams(0.6, 0.7)
    st, dst, ddt = output_stack(random_two_mode_probes(np.random.default_rng(5),
                                                       1000), p)
    assert len(st) % SLD_CHUNK != 0
    whole = _sld_qfi_batch(st, dst, ddt)
    # a copy per item: BLAS may round differently at another memory alignment
    singles = [_sld_qfi_batch(st[g:g + 1].copy(), dst[g:g + 1].copy(),
                              ddt[g:g + 1].copy())[0] for g in range(len(st))]
    np.testing.assert_allclose(whole, singles, rtol=1e-12)
    head = _sld_qfi_batch(st[:SLD_CHUNK + 1], dst[:SLD_CHUNK + 1],
                          ddt[:SLD_CHUNK + 1])
    np.testing.assert_allclose(head, whole[:SLD_CHUNK + 1], rtol=1e-12)


def test_singular_item_leaves_other_items_unchanged():
    p = ChannelParams(0.8, 0.3)
    probes = random_two_mode_probes(np.random.default_rng(8), 20)
    before = _sld_qfi_batch(*output_stack(probes, p))
    # coherent signal with a vacuum idler: the idler output is exactly pure
    singular = TwoModeProbe(1.0, 0.0, 1.0)
    st, dst, ddt = output_stack(probes[:7] + [singular] + probes[7:], p)
    np.testing.assert_array_equal(st[7, 2:, 2:], 0.5 * np.eye(2))
    after = _sld_qfi_batch(st, dst, ddt)
    np.testing.assert_allclose(np.delete(after, 7), before, rtol=1e-12)
    assert after[7] == pytest.approx(qfi_coherent(1.0, p), rel=1e-9)
