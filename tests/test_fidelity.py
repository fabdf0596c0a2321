import numpy as np
import pytest

from lossfish import (ChannelParams, DimensionMismatch, apply_channel,
                      gaussian_fidelity, make_state, thermal, tmsv, vacuum)

from lossfish.states import GaussianState

from fock_oracle import (fock_fidelity, moments, one_mode_rho,
                         two_mode_squeezed_thermal_rho)


def coherent(q, p):
    return make_state([q, p], 0.5 * np.eye(2))


def test_self_fidelity_is_one():
    for state in (vacuum(), thermal(1.3), tmsv(0.7)):
        assert gaussian_fidelity(state, state) == pytest.approx(1.0, abs=1e-10)


def test_mode_count_mismatch():
    with pytest.raises(DimensionMismatch):
        gaussian_fidelity(vacuum(), tmsv(1.0))


def test_three_modes_rejected():
    state = GaussianState(3, np.zeros(6), 0.5 * np.eye(6))
    with pytest.raises(DimensionMismatch, match="1 and 2 modes only"):
        gaussian_fidelity(state, state)


def test_coherent_displacement_law():
    # identical covariances 0.5*I: F = exp(-|delta|^2 / 2)
    a = coherent(0.7, -0.3)
    b = coherent(-0.1, 0.5)
    delta = a.d - b.d
    assert gaussian_fidelity(a, b) == pytest.approx(
        np.exp(-0.5 * delta @ delta), rel=1e-12)


def test_thermal_vs_vacuum_matches_fock_sum():
    # brute force: F(thermal, |0><0|) = <0|rho|0> = p0 = 1/(N_B + 1)
    nb = 1.0
    weights = (nb / (1 + nb)) ** np.arange(200) / (1 + nb)
    assert weights[0] == pytest.approx(0.5, abs=1e-15)
    assert gaussian_fidelity(thermal(nb), vacuum()) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("n1,n2", [(1.0, 0.0), (0.5, 2.0), (3.0, 3.0)])
def test_thermal_thermal_closed_form(n1, n2):
    expected = 1.0 / (1 + n1 + n2 + 2 * n1 * n2
                      - 2 * np.sqrt(n1 * n2 * (n1 + 1) * (n2 + 1)))
    assert gaussian_fidelity(thermal(n1), thermal(n2)) == pytest.approx(
        expected, rel=1e-12)


@pytest.mark.parametrize("s1,s2", [(0.6, 0.0), (0.9, -0.4), (0.3, 0.3)])
def test_squeezed_vacuum_overlap(s1, s2):
    # |<0| S(s1)^dag S(s2) |0>|^2 = sech(s1 - s2)
    c1 = make_state([0, 0], np.diag([np.exp(-2 * s1), np.exp(2 * s1)]) / 2)
    c2 = make_state([0, 0], np.diag([np.exp(-2 * s2), np.exp(2 * s2)]) / 2)
    assert gaussian_fidelity(c1, c2) == pytest.approx(1 / np.cosh(s1 - s2), rel=1e-12)


def test_symmetry_and_range():
    rng = np.random.default_rng(3)
    for _ in range(10):
        v1 = rng.uniform(0.5, 2.0, size=2)
        v2 = rng.uniform(0.5, 2.0, size=2)
        a = make_state(rng.normal(scale=0.5, size=2), np.diag(v1))
        b = make_state(rng.normal(scale=0.5, size=2), np.diag(v2))
        f_ab = gaussian_fidelity(a, b)
        f_ba = gaussian_fidelity(b, a)
        assert abs(f_ab - f_ba) < 1e-12
        assert 0.0 <= f_ab <= 1.0 + 1e-10


def test_distinct_states_below_one():
    assert gaussian_fidelity(vacuum(), thermal(0.2)) < 1.0 - 1e-4
    assert gaussian_fidelity(coherent(0.1, 0.0), vacuum()) < 1.0 - 1e-4


@pytest.mark.parametrize("da,va,db,vb", [
    ([0.5, 0.2], [0.9, 0.62], [-0.1, 0.4], [0.55, 1.4]),
    ([1.2, 0.0], [0.5, 0.5], [0.9, 0.1], [1.5, 1.5]),
    ([0.0, 0.3], [0.52, 0.75], [0.2, 0.0], [2.3, 0.61]),
])
def test_one_mode_mixed_states_match_fock_oracle(da, va, db, vb):
    cut = 80
    rho_a = one_mode_rho(np.array(da), np.diag(va), cut)
    rho_b = one_mode_rho(np.array(db), np.diag(vb), cut)
    state_a = make_state(*moments(rho_a, cut, 1))
    state_b = make_state(*moments(rho_b, cut, 1))
    brute = fock_fidelity(rho_a, rho_b)
    assert gaussian_fidelity(state_a, state_b) == pytest.approx(brute, rel=1e-6)


def test_two_mode_product_states_factorize():
    a1 = make_state([0.5, 0.2], np.diag([0.9, 0.62]))
    a2 = make_state([0.3, 0.0], np.diag([0.52, 0.52]))
    b1 = make_state([-0.1, 0.4], np.diag([0.55, 1.4]))
    b2 = make_state([0.0, 0.0], np.diag([1.1, 0.9]))
    prod_a = make_state(np.concatenate([a1.d, a2.d]),
                        np.block([[a1.sigma, np.zeros((2, 2))],
                                  [np.zeros((2, 2)), a2.sigma]]))
    prod_b = make_state(np.concatenate([b1.d, b2.d]),
                        np.block([[b1.sigma, np.zeros((2, 2))],
                                  [np.zeros((2, 2)), b2.sigma]]))
    expected = gaussian_fidelity(a1, b1) * gaussian_fidelity(a2, b2)
    assert gaussian_fidelity(prod_a, prod_b) == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("ns_a,ns_b", [(1.0, 0.0), (1.0, 2.0), (0.3, 0.7)])
def test_tmsv_overlap_analytic(ns_a, ns_b):
    lam_a = np.sqrt(ns_a / (ns_a + 1.0))
    lam_b = np.sqrt(ns_b / (ns_b + 1.0))
    expected = (1 - lam_a ** 2) * (1 - lam_b ** 2) / (1 - lam_a * lam_b) ** 2
    assert gaussian_fidelity(tmsv(ns_a), tmsv(ns_b)) == pytest.approx(
        expected, rel=1e-10)


def test_two_mode_mixed_states_match_fock_oracle():
    cut = 18
    rho_a = two_mode_squeezed_thermal_rho(0.45, 0.15, 0.05, 0.3, cut)
    rho_b = two_mode_squeezed_thermal_rho(0.30, 0.05, 0.20, 0.1, cut)
    state_a = make_state(*moments(rho_a, cut, 2))
    state_b = make_state(*moments(rho_b, cut, 2))
    assert np.trace(rho_a).real == pytest.approx(1.0, abs=1e-9)
    brute = fock_fidelity(rho_a, rho_b)
    assert gaussian_fidelity(state_a, state_b) == pytest.approx(brute, rel=1e-6)


def test_channel_outputs_stay_comparable():
    # fidelity of two channel outputs feeds the finite-difference QFI route
    probe = tmsv(1.0)
    out1 = apply_channel(probe, ChannelParams(0.8, 0.4))
    out2 = apply_channel(probe, ChannelParams(0.7, 0.4))
    f = gaussian_fidelity(out1, out2)
    assert 0.0 < f < 1.0
    assert gaussian_fidelity(out1, out1) == pytest.approx(1.0, abs=1e-10)
