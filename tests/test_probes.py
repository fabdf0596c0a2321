import itertools
import warnings
from dataclasses import astuple

import numpy as np
import pytest

from lossfish import (ChannelParams, LossfishError, NotPure, NotTwoMode,
                      ProbeRangeError, SingleModeProbe, TwoModeProbe,
                      build_single_mode, build_two_mode, canonicalize,
                      make_state, purity, qfi_sld, thermal, tmsv,
                      two_mode_r_min, vacuum)
from lossfish.states import _purity


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def test_coherent_probe():
    state = build_single_mode(SingleModeProbe(1.0, 0.0, 0.0))
    assert np.allclose(state.d, [np.sqrt(2.0), 0.0])
    assert np.allclose(state.sigma, 0.5 * np.eye(2))


def test_squeezed_vacuum_probe_r_value():
    probe = SingleModeProbe(1.0, 1.0)
    assert probe.r == pytest.approx(3.0 - 2.0 * np.sqrt(2.0), rel=1e-14)
    state = build_single_mode(probe)
    assert np.allclose(state.d, 0.0)
    assert purity(state) == pytest.approx(1.0, abs=1e-12)


def test_zero_energy_probe_is_vacuum():
    state = build_single_mode(SingleModeProbe(0.0, 0.7, 1.2))
    assert np.allclose(state.d, 0.0)
    assert np.allclose(state.sigma, 0.5 * np.eye(2))


@pytest.mark.parametrize("n_s", [0.01, 0.5, 1.0, 10.0])
@pytest.mark.parametrize("xi", [0.0, 0.3, 0.5, 1.0])
def test_single_mode_photon_accounting(n_s, xi):
    state = build_single_mode(SingleModeProbe(n_s, xi, 0.4))
    assert state.mode_photons(0) == pytest.approx(n_s, abs=1e-10)
    assert 0.0 < SingleModeProbe(n_s, xi).r <= 1.0


def test_tmsv_construction():
    state = tmsv(1.0)
    assert state.sigma[0, 0] == pytest.approx(1.5, rel=1e-14)
    assert state.sigma[0, 2] == pytest.approx(np.sqrt(2.0), rel=1e-14)
    assert np.allclose(state.d, 0.0)
    assert purity(state) == pytest.approx(1.0, abs=1e-9)

    big = tmsv(10.0)
    assert big.sigma[0, 0] == pytest.approx(10.5, rel=1e-14)
    assert big.sigma[0, 2] == pytest.approx(np.sqrt(110.0), rel=1e-14)

    assert np.allclose(tmsv(0.0).sigma, 0.5 * np.eye(4))


def test_coherent_times_vacuum_idler():
    state = build_two_mode(TwoModeProbe(1.0, 0.0, 1.0, 0.0))
    assert np.allclose(state.d, [np.sqrt(2.0), 0.0, 0.0, 0.0])
    assert np.allclose(state.sigma, 0.5 * np.eye(4))


def test_minimum_r_gives_local_squeezing_with_uncorrelated_idler():
    n_s = 1.0
    r_min = two_mode_r_min(n_s, 1.0)
    state = build_two_mode(TwoModeProbe(n_s, 1.0, r_min))
    assert purity(state) == pytest.approx(1.0, abs=1e-9)
    assert state.mode_photons(0) == pytest.approx(n_s, abs=1e-10)
    # a = 1/2 at the lower edge: no photons left for correlations
    assert np.max(np.abs(state.sigma[:2, 2:])) < 1e-7


@pytest.mark.parametrize("n_s", [0.1, 1.0, 5.0])
@pytest.mark.parametrize("zeta", [0.0, 0.4, 0.8, 1.0])
def test_two_mode_purity_photons_and_invariant(n_s, zeta):
    r_min = two_mode_r_min(n_s, zeta)
    for r in np.linspace(r_min, 1.0, 4):
        probe = TwoModeProbe(n_s, zeta, r, theta=0.3, phi=0.7)
        state = build_two_mode(probe)
        assert purity(state) == pytest.approx(1.0, abs=1e-9)
        assert state.mode_photons(0) == pytest.approx(n_s, abs=1e-10)
        # symplectic invariant of pure two-mode states:
        # det S_s + det S_i + 2 det S_si = 1/2
        s = state.sigma
        delta = np.linalg.det(s[:2, :2]) + np.linalg.det(s[2:, 2:]) \
            + 2.0 * np.linalg.det(s[:2, 2:])
        assert delta == pytest.approx(0.5, abs=1e-10)


def test_r_outside_range_rejected():
    with pytest.raises(ProbeRangeError):
        TwoModeProbe(1.0, 1.0, 1.2)
    with pytest.raises(ProbeRangeError, match="zeta must lie in"):
        TwoModeProbe(1.0, 1.5, 1.0)
    with pytest.raises(ProbeRangeError):
        TwoModeProbe(1.0, 1.0, 0.9 * two_mode_r_min(1.0, 1.0))
    with pytest.raises(ProbeRangeError):
        SingleModeProbe(1.0, 1.5)


def test_qfi_independent_of_phi():
    p = ChannelParams(0.6, 0.7)
    base = qfi_sld(build_two_mode(TwoModeProbe(1.0, 0.7, 0.5, 0.3, 0.0)), p)
    for phi in np.linspace(0.0, 2 * np.pi, 7):
        val = qfi_sld(build_two_mode(TwoModeProbe(1.0, 0.7, 0.5, 0.3, phi)), p)
        assert val == pytest.approx(base, rel=1e-9)


def test_canonicalize_tmsv_fixed_point():
    probe = canonicalize(tmsv(1.0))
    assert probe.zeta == pytest.approx(1.0, abs=1e-9)
    assert probe.r == pytest.approx(1.0, abs=1e-9)
    assert probe.n_s == pytest.approx(1.0, abs=1e-9)


def test_canonicalize_absorbs_idler_rotation():
    rng = np.random.default_rng(21)
    state = tmsv(1.0)
    p = ChannelParams(0.7, 0.5)
    reference = qfi_sld(state, p)
    for _ in range(5):
        rot = rotation(rng.uniform(0, 2 * np.pi))
        full = np.eye(4)
        full[2:, 2:] = rot
        rotated = make_state(full @ state.d, full @ state.sigma @ full.T)
        probe = canonicalize(rotated)
        assert probe.zeta == pytest.approx(1.0, abs=1e-8)
        assert probe.r == pytest.approx(1.0, abs=1e-8)
        assert qfi_sld(build_two_mode(probe), p) == pytest.approx(reference, rel=1e-9)


def test_canonicalize_product_of_squeezed_vacua():
    s_sig, s_idl = 0.35, 0.6
    sigma = np.diag([np.exp(-2 * s_sig) / 2, np.exp(2 * s_sig) / 2,
                     np.exp(-2 * s_idl) / 2, np.exp(2 * s_idl) / 2])
    state = make_state(np.zeros(4), sigma)
    probe = canonicalize(state)
    rebuilt = build_two_mode(probe)
    assert rebuilt.sigma[:2, 2:] == pytest.approx(np.zeros((2, 2)), abs=1e-9)
    p = ChannelParams(0.8, 0.2)
    assert qfi_sld(rebuilt, p) == pytest.approx(qfi_sld(state, p), rel=1e-9)


def test_canonicalize_random_local_ops_preserve_qfi():
    rng = np.random.default_rng(42)
    p = ChannelParams(0.65, 0.8)
    for _ in range(6):
        base = TwoModeProbe(n_s=rng.uniform(0.2, 2.0),
                            zeta=rng.uniform(0.1, 1.0),
                            r=1.0, theta=rng.uniform(0, 2 * np.pi),
                            phi=rng.uniform(0, 2 * np.pi))
        rmin = base.r_min
        base = TwoModeProbe(base.n_s, base.zeta,
                            rng.uniform(rmin, 1.0), base.theta, base.phi)
        state = build_two_mode(base)
        # local idler symplectic (rotation * squeeze * rotation) and a signal rotation
        idler_op = rotation(rng.uniform(0, 2 * np.pi)) \
            @ np.diag([np.exp(0.3), np.exp(-0.3)]) \
            @ rotation(rng.uniform(0, 2 * np.pi))
        full = np.eye(4)
        full[:2, :2] = rotation(rng.uniform(0, 2 * np.pi))
        full[2:, 2:] = idler_op
        moved = make_state(full @ state.d, full @ state.sigma @ full.T)
        probe = canonicalize(moved)
        rebuilt = build_two_mode(probe)
        # the local operations commute with the channel: QFI must be unchanged
        assert qfi_sld(rebuilt, p) == pytest.approx(qfi_sld(state, p), rel=1e-9)


def test_canonicalize_two_mode_vacuum_is_the_zero_energy_probe():
    assert canonicalize(vacuum(2)) == TwoModeProbe(0.0, 0.0, 1.0)


def test_canonicalize_rejects_bad_inputs():
    with pytest.raises(NotTwoMode):
        canonicalize(thermal(0.5))
    mixed = make_state(np.zeros(4), np.eye(4))
    with pytest.raises(NotPure):
        canonicalize(mixed)


@pytest.mark.parametrize("n_s", [1e2, 1e4, 1e5, 3.16e5, 1e6])
def test_canonicalize_takes_bright_tmsvs(n_s):
    # the rounding of Sigma's entries moves the purity of a bright TMSV off
    # 1 (by 7e-4 at N_S = 1e6), within the slack of its basis error
    probe = canonicalize(tmsv(n_s))
    assert (probe.n_s, probe.zeta, probe.r) == (n_s, 1.0, 1.0)


def test_canonicalize_refuses_a_nearly_pure_tmsv():
    # purity 0.992, where the basis error is 2e-9 (thermal noise is refused
    # in test_canonicalize_rejects_bad_inputs)
    with pytest.raises(NotPure):
        canonicalize(make_state(np.zeros(4), tmsv(1e3).sigma + 1e-6 * np.eye(4)))


def test_canonicalize_passes_a_lost_purity_through():
    # a pure TMSV too bright for a sound Williamson basis has no purity to
    # test: the FloatingPointError of `purity` comes through, not NotPure
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError):
            canonicalize(tmsv(1e40))


def canonicalize_reference(state):
    """`canonicalize` as two 4x4 congruences on a copy of the whole covariance."""
    if state.modes != 2:
        raise NotTwoMode("canonical form is defined for two-mode states")
    mu, err = _purity(state.sigma)
    if not abs(mu - 1.0) <= 4.0 * err:
        raise NotPure(f"state purity {mu} is not 1 within 4 err = {4.0 * err:.3e}")
    sig = state.sigma.copy()
    evals, vecs = np.linalg.eigh(sig[2:, 2:])
    order = np.argsort(evals)[::-1]
    evals, vecs = evals[order], vecs[:, order]
    if np.linalg.det(vecs) < 0:
        vecs = vecs * np.array([1.0, -1.0])
    a = float(np.sqrt(evals[0] * evals[1]))
    t_full = np.eye(4)
    t_full[2:, 2:] = np.diag(np.sqrt(a / evals)) @ vecs.T
    sig = t_full @ sig @ t_full.T
    evals_s, vecs_s = np.linalg.eigh(sig[:2, :2])
    if np.linalg.det(vecs_s) < 0:
        vecs_s = vecs_s * np.array([1.0, -1.0])
    t_full = np.eye(4)
    t_full[:2, :2] = vecs_s.T
    sig = t_full @ sig @ t_full.T
    d_signal = vecs_s.T @ state.d[:2]
    r = float(np.sqrt(evals_s[0] / evals_s[1]))
    c = np.sqrt(max(a * a - 0.25, 0.0))
    if c > 1e-12:
        refl = np.diag([1.0 / np.sqrt(r), np.sqrt(r)]) @ sig[:2, 2:] / c
        phi = float(np.arctan2(refl[0, 1] + refl[1, 0], refl[0, 0] - refl[1, 1]))
    else:
        phi = 0.0
    n_coh = 0.5 * float(d_signal @ d_signal)
    theta = float(np.arctan2(d_signal[1], d_signal[0])) if n_coh > 0 else 0.0
    n_sq_th = 0.5 * a * (r + 1.0 / r) - 0.5
    n_s = n_coh + n_sq_th
    if n_s <= 0:
        return TwoModeProbe(n_s=0.0, zeta=0.0, r=1.0)
    zeta = float(np.sqrt(min(max(n_sq_th / n_s, 0.0), 1.0)))
    r = float(min(max(r, two_mode_r_min(n_s, zeta)), 1.0))
    return TwoModeProbe(n_s=n_s, zeta=zeta, r=r, theta=theta, phi=phi)


def test_canonicalize_keeps_the_bits_of_the_4x4_congruences():
    # moving only the 2x2 blocks it reads, canonicalize returns the fields
    # of the whole-matrix form bit for bit, or raises as it does
    def outcome(f, state):
        try:
            return [float(v).hex() for v in astuple(f(state))]
        except (LossfishError, FloatingPointError) as exc:
            return type(exc), str(exc)

    # canonical probes at random angles, the same moved by a signal rotation
    # and an idler symplectic, bright TMSVs, the two-mode vacuum, and states
    # that it refuses
    rng = np.random.default_rng(31)
    panel = []
    for _ in range(1024):
        n_s, zeta = 10.0 ** rng.uniform(-3, 3), rng.uniform(0.0, 1.0)
        r = 10.0 ** rng.uniform(np.log10(two_mode_r_min(n_s, zeta)), 0.0)
        state = build_two_mode(TwoModeProbe(n_s, zeta, r, *rng.uniform(0, 2 * np.pi, 2)))
        full = np.eye(4)
        full[:2, :2] = rotation(rng.uniform(0, 2 * np.pi))
        full[2:, 2:] = rotation(rng.uniform(0, 2 * np.pi)) \
            @ np.diag(np.exp(np.array([1.0, -1.0]) * rng.uniform(-1.0, 1.0))) \
            @ rotation(rng.uniform(0, 2 * np.pi))
        panel += [state, make_state(full @ state.d, full @ state.sigma @ full.T)]
    panel += [tmsv(n_s) for n_s in np.geomspace(1e2, 1e6, 41)]
    panel += [vacuum(2), tmsv(1e40), thermal(0.5), make_state(np.zeros(4), np.eye(4))]
    kinds = set()
    for state in panel:
        got = outcome(canonicalize, state)
        assert got == outcome(canonicalize_reference, state)
        kinds.add(got[0] if isinstance(got, tuple) else TwoModeProbe)
    assert kinds == {TwoModeProbe, FloatingPointError, NotTwoMode, NotPure}


def build_two_mode_reference(p):
    """`build_two_mode` with its moments written out entry by entry, each
    with the IEEE operations it takes, a zero sine times its factors too."""
    z2, inv_r = p.zeta * p.zeta, 1.0 / p.r
    a = (2.0 * (p.n_s * z2) + 1.0) / (p.r + inv_r)
    c = np.sqrt(np.maximum(a * a - 0.25, 0.0))
    sr, si, amp = np.sqrt(p.r), np.sqrt(inv_r), np.sqrt(2.0 * (p.n_s * (1.0 - z2)))
    xc, xs = c * (sr * np.cos(p.phi)), c * (sr * np.sin(p.phi))
    pc, ps = c * (-si * np.cos(p.phi)), c * (si * np.sin(p.phi))
    sigma = [[a * p.r, 0.0, xc, xs], [0.0, a / p.r, ps, pc],
             [xc, ps, a, 0.0], [xs, pc, 0.0, a]]
    return make_state([amp * np.cos(p.theta), amp * np.sin(p.theta), 0.0, 0.0], sigma)


def test_build_two_mode_keeps_the_bits_of_the_written_out_form():
    # signed-zero angles, whose zero sines the shared canonical table turns
    # into float entries, and seeded ones, at r_min, zeta = 0 and 1 and
    # inside: every moment keeps its bits, signbits included
    rng = np.random.default_rng(37)
    angles = [0.0, -0.0, np.pi, -np.pi / 2, *rng.uniform(-np.pi, np.pi, 6)]
    for k, (theta, phi) in enumerate(itertools.product(angles, angles)):
        n_s = rng.uniform(0.0, 20.0)
        zeta = (0.0, 1.0)[k % 2] if k % 7 == 0 else rng.uniform(0.0, 1.0)
        r_min = two_mode_r_min(n_s, zeta)
        r = r_min if k % 5 == 0 else r_min ** rng.uniform(0.0, 1.0)
        p = TwoModeProbe(n_s, zeta, r, theta, phi)
        got, want = build_two_mode(p), build_two_mode_reference(p)
        for x, y in ((got.d, want.d), (got.sigma, want.sigma)):
            np.testing.assert_array_equal(x.view(np.uint64), y.view(np.uint64))


@pytest.mark.parametrize("field", ["n_s", "theta", "phi"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_probe_parameters_rejected(field, bad):
    two_mode = dict(n_s=1.0, zeta=0.5, r=1.0, theta=0.0, phi=0.0)
    with pytest.raises(ProbeRangeError):
        TwoModeProbe(**{**two_mode, field: bad})
    if field != "phi":
        single_mode = dict(n_s=1.0, xi=0.5, theta=0.0)
        with pytest.raises(ProbeRangeError):
            SingleModeProbe(**{**single_mode, field: bad})


@pytest.mark.parametrize("build", [
    lambda: tmsv(1e200),
    lambda: build_two_mode(TwoModeProbe(1e308, 0.0, 1.0)),
    lambda: build_single_mode(SingleModeProbe(1e308, 0.0)),
], ids=["tmsv", "two-mode-displaced", "single-mode-displaced"])
def test_too_bright_probe_raises_without_a_warning(build):
    # a * a or 2 N_coh overflows to inf, and inf times sin(0) would be a nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ProbeRangeError,
                           match=r"^n_s = 1e\+(200|308) is too large: the moments "
                                 r"are not finite$"):
            build()


@pytest.mark.parametrize("build", [
    lambda: TwoModeProbe(1e8, 1.0, 0.0),
    lambda: TwoModeProbe(1e8, 1.0, -1e-13),
    lambda: build_single_mode(SingleModeProbe(1e8, 1.0)),
], ids=["two-mode-zero", "two-mode-negative", "single-mode"])
def test_probe_whose_r_rounds_to_zero_raises_without_a_warning(build):
    # r_min and the squeezing r of 1e8 photons round to 0, and a probe with
    # r <= 0 would divide by zero or take the square root of a negative number
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ProbeRangeError,
                           match=r"^n_s = 100000000\.0 is too large: r(_min)? rounds to 0$"):
            build()
