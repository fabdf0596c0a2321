import warnings

import numpy as np
import pytest

from lossfish import (ChannelParams, NotPure, NotTwoMode, ProbeRangeError,
                      SingleModeProbe, TwoModeProbe, build_single_mode,
                      build_two_mode, canonicalize, make_state, purity,
                      qfi_sld, thermal, tmsv, two_mode_r_min, vacuum)


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
