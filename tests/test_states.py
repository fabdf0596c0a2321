import re
import warnings

import numpy as np
import pytest

from lossfish import (ChannelParams, DimensionMismatch, NonPhysical,
                      apply_channel, heisenberg_margin, make_state, purity,
                      symplectic_form, thermal, tmsv, vacuum)
import lossfish.states as states


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def test_symplectic_form_properties():
    for modes in (1, 2):
        omega = symplectic_form(modes)
        assert np.allclose(omega @ omega, -np.eye(2 * modes))
        assert np.allclose(omega.T, -omega)


def test_symplectic_form_is_fresh_and_the_cached_form_read_only():
    # the public form is the caller's to write; the fidelity and the eigh
    # basis share one read-only copy per mode count
    for modes in (1, 2):
        omega = symplectic_form(modes)
        omega[0, 1] = 7.0
        assert symplectic_form(modes)[0, 1] == 1.0
        assert symplectic_form(modes) is not symplectic_form(modes)
        cached = states._omega(modes)
        assert cached is states._omega(modes)
        assert not cached.flags.writeable
        np.testing.assert_array_equal(cached, symplectic_form(modes))


def test_vacuum_is_valid_and_saturates_heisenberg():
    state = make_state([0.0, 0.0], 0.5 * np.eye(2))
    assert state.modes == 1
    assert heisenberg_margin(state.sigma) == pytest.approx(0.0, abs=1e-12)


def test_below_vacuum_variance_rejected():
    with pytest.raises(NonPhysical):
        make_state([0.0, 0.0], 0.4 * np.eye(2))
    # a Heisenberg margin of -1e-11 passes its tolerance; the determinant not
    with pytest.raises(NonPhysical, match="det\\(Sigma\\) below the pure-state minimum"):
        make_state(np.zeros(2), (0.5 - 1e-11) * np.eye(2))


@pytest.mark.parametrize("sigma, low", [
    (np.diag([1e8, -1e-5]), "-1.000e-05"),
    (np.diag([1e8, 0.0]), "0.000e+00"),
    (np.diag([-0.0, 1e8]), "-0.000e+00"),
    (np.diag([1e8, 1e8, 1e8, -1e-12]), "-1.000e-12"),
], ids=["negative", "zero", "negative_zero", "two_mode"])
def test_non_positive_variance_rejected(sigma, low):
    # at |Sigma| = 1e8 the determinant slack (1e4) and the Heisenberg slack
    # (-1e-2) both admit these; a variance must be positive
    message = re.escape(f"covariance has a variance {low} <= 0")
    with pytest.raises(NonPhysical, match=f"^{message}$"):
        make_state(np.zeros(len(sigma)), sigma)
    # a negative det Sigma that every variance keeps positive still passes
    make_state([0.0, 0.0], [[1e8, 1e4], [1e4, 1.0 - 1e-5]])


def test_tmsv_covariance_is_valid_two_mode_pure_state():
    # a = 1.5, c = sqrt(2): eigenvalues of Sigma + i Omega/2 checked numerically
    a, c = 1.5, np.sqrt(2.0)
    sigma = np.block([[a * np.eye(2), c * np.diag([1.0, -1.0])],
                      [c * np.diag([1.0, -1.0]), a * np.eye(2)]])
    state = make_state(np.zeros(4), sigma)
    assert heisenberg_margin(state.sigma) >= -1e-10
    assert purity(state) == pytest.approx(1.0, abs=1e-12)


def test_dimension_mismatches():
    with pytest.raises(DimensionMismatch):
        make_state([0.0, 0.0, 0.0], 0.5 * np.eye(3))
    with pytest.raises(DimensionMismatch):
        make_state([0.0, 0.0], 0.5 * np.eye(4))
    with pytest.raises(DimensionMismatch):
        make_state(np.zeros(6), 0.5 * np.eye(6))


def test_asymmetric_covariance_rejected():
    sigma = 0.5 * np.eye(2)
    sigma[0, 1] = 1e-6
    with pytest.raises(NonPhysical):
        make_state([0.0, 0.0], sigma)


def test_purity_examples():
    assert purity(vacuum()) == pytest.approx(1.0, abs=1e-12)
    # thermal with N_B = 1: mu = 1/(2 N_B + 1) = 1/3
    assert purity(thermal(1.0)) == pytest.approx(1.0 / 3.0, abs=1e-12)
    for r in (1.0, 0.5, 0.1716):
        state = make_state([0.0, 0.0], np.diag([0.5 * r, 0.5 / r]))
        assert purity(state) == pytest.approx(1.0, abs=1e-12)


def test_purity_of_a_bright_pure_state_raises_without_a_warning():
    # the eigenvalues of a TMSV's Sigma span more than 1/eps from N_S ~ 2e7:
    # no sound Williamson basis, so no purity, and no warning with an inf
    for n_s in (1e10, 1e76):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="no sound Williamson basis"):
                purity(tmsv(n_s))


def test_heisenberg_margin_examples():
    assert heisenberg_margin(0.5 * np.eye(2)) == pytest.approx(0.0, abs=1e-12)
    # eigenvalues 1 +- 1/2
    assert heisenberg_margin(np.eye(2)) == pytest.approx(0.5, abs=1e-12)
    # eigenvalues 0.4 +- 0.5
    assert heisenberg_margin(0.4 * np.eye(2)) == pytest.approx(-0.1, abs=1e-12)


def test_purity_invariant_under_symplectic_rotations():
    rng = np.random.default_rng(11)
    base = make_state([0.3, -0.2], np.diag([0.8, 0.45]))
    mu = purity(base)
    for _ in range(20):
        rot = rotation(rng.uniform(0, 2 * np.pi))
        rotated = make_state(rot @ base.d, rot @ base.sigma @ rot.T)
        assert purity(rotated) == pytest.approx(mu, abs=1e-12)


def test_random_accepted_states_have_nonnegative_margin():
    rng = np.random.default_rng(5)
    for _ in range(50):
        r = np.exp(rng.uniform(-1.0, 0.0))
        extra = rng.uniform(0.0, 2.0)
        rot = rotation(rng.uniform(0, 2 * np.pi))
        sigma = rot @ np.diag([0.5 * r + extra, 0.5 / r + extra]) @ rot.T
        state = make_state(rng.normal(size=2), sigma)
        assert heisenberg_margin(state.sigma) >= -1e-10


def test_states_are_immutable():
    # a validated state, and a channel output, which is built trusted
    for state in (vacuum(), apply_channel(tmsv(1.0), ChannelParams(0.6, 0.4))):
        with pytest.raises(ValueError):
            state.sigma[0, 0] = 2.0
        with pytest.raises(ValueError):
            state.d[0] = 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_covariance_rejected(bad):
    one_mode = [[bad, 0.0], [0.0, bad]]
    with pytest.raises(NonPhysical, match="finite"):
        make_state([0.0, 0.0], one_mode)
    with pytest.raises(NonPhysical, match="finite"):
        heisenberg_margin(one_mode)
    sigma = 0.5 * np.eye(4)
    sigma[1, 3] = sigma[3, 1] = bad
    with pytest.raises(NonPhysical, match="finite"):
        make_state(np.zeros(4), sigma)
    with pytest.raises(NonPhysical, match="finite"):
        heisenberg_margin(sigma)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_first_moments_rejected(bad):
    with pytest.raises(NonPhysical, match="finite"):
        make_state([bad, 0.0], 0.5 * np.eye(2))
    with pytest.raises(NonPhysical, match="finite"):
        make_state([0.0, 0.0, 0.0, bad], 0.5 * np.eye(4))


@pytest.mark.parametrize("make,norm", [
    (lambda: tmsv(1e80), r"2\.828e\+80 .*\|Sigma\|\^4"),
    (lambda: thermal(1e200), r"inf .*\|Sigma\|\^2"),
], ids=["tmsv", "thermal"])
def test_covariance_too_large_to_check_raises_without_a_warning(make, norm):
    # |Sigma|^(2 modes), the determinant's roundoff scale, is past the double
    # range: a Python float raised OverflowError there, and |Sigma| itself
    # overflows in numpy at entries above ~1e154
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonPhysical, match=f"^covariance norm {norm} is not a "
                                              "finite double$"):
            make()


def test_bright_state_below_the_size_limit_is_accepted():
    # |Sigma|^4 = 6.4e305 is still a double
    assert tmsv(1e76).sigma[0, 0] == 1e76 + 0.5


@pytest.mark.parametrize("n_bar", [np.nan, np.inf, -1.0])
def test_thermal_rejects_out_of_domain_photons(n_bar):
    with pytest.raises(NonPhysical):
        thermal(n_bar)


@pytest.mark.parametrize("shape", [(3, 3), (2, 4), (4, 2), (2,), (0, 0), (2, 2, 2)])
def test_heisenberg_margin_shape_errors_are_typed(shape):
    with pytest.raises(DimensionMismatch):
        heisenberg_margin(np.ones(shape))


def test_heisenberg_margin_any_even_size():
    assert heisenberg_margin(np.eye(6)) == 0.5
    assert heisenberg_margin(0.5 * np.eye(8)) == pytest.approx(0.0, abs=1e-12)


def block_margin(sigma):
    """The margin from an embedding assembled with np.block."""
    half_omega = 0.5 * symplectic_form(len(sigma) // 2)
    embed = np.block([[sigma, -half_omega], [half_omega, sigma]])
    return float(np.linalg.eigvalsh(embed)[0])


def random_physical_covariance(rng, modes):
    """S diag(nu_k, nu_k) S^T with a random symplectic S (squeezings and
    rotations, a beam splitter between two modes); nu_k >= 1/2."""
    nu = 0.5 + rng.exponential(10.0 ** rng.uniform(-3.0, 3.0), size=modes)
    sigma = np.diag(np.repeat(nu, 2))
    for _ in range(2):
        symp = np.zeros((2 * modes, 2 * modes))
        for k in range(modes):
            r = np.exp(rng.uniform(-2.0, 2.0))
            symp[2 * k:2 * k + 2, 2 * k:2 * k + 2] = \
                rotation(rng.uniform(0, 2 * np.pi)) @ np.diag([r, 1.0 / r])
        if modes == 2:
            angle = rng.uniform(0, np.pi)
            c, s = np.cos(angle), np.sin(angle)
            mix = np.block([[c * np.eye(2), s * np.eye(2)],
                            [-s * np.eye(2), c * np.eye(2)]])
            symp = mix @ symp
        sigma = symp @ sigma @ symp.T
    return 0.5 * (sigma + sigma.T)


def test_heisenberg_margin_equals_block_embedding_exactly():
    rng = np.random.default_rng(17)
    norms = []
    for modes in (1, 2):
        for _ in range(150):
            sigma = make_state(np.zeros(2 * modes),
                               random_physical_covariance(rng, modes)).sigma
            norms.append(np.linalg.norm(sigma))
            assert heisenberg_margin(sigma) == block_margin(sigma)
    # bright covariances are covered
    assert max(norms) > 1e5


def williamson_panel(rng):
    """Seeded covariances of one and two modes, item-first: mixed ones from
    `random_physical_covariance`, and pure ones (squeezed vacua, TMSVs up
    to N_S = 1e7)."""
    squeezed = [np.diag([0.5 * r, 0.5 / r]) for r in np.geomspace(1e-6, 1.0, 13)]
    one = [random_physical_covariance(rng, 1) for _ in range(200)] + squeezed
    two = [random_physical_covariance(rng, 2) for _ in range(200)]
    two += [tmsv(n_s).sigma for n_s in np.geomspace(1e-3, 1e7, 21)]
    return np.array(one), np.array(two)


def test_williamson_basis_is_within_its_error():
    # Y S Y^T = I and nu >= 1/2, each to the basis error that _williamson
    # reports, which is finite on every physical state of the panel
    for s in williamson_panel(np.random.default_rng(29)):
        y, nu, err = states._williamson(s)
        assert np.isfinite(err).all()
        gap = np.abs(y @ s @ np.swapaxes(y, 1, 2) - np.eye(s.shape[-1]))
        assert (gap.max(axis=(1, 2)) <= err).all()
        assert (nu >= 0.5 * (1.0 - err[:, None])).all()


def test_purity_is_the_determinant_formula_within_the_basis_error():
    # mu = prod 1/(2 nu) multiplies m/2 factors, each as accurate as the
    # basis: within m err of the determinant formula, relative
    for s in williamson_panel(np.random.default_rng(31)):
        m = s.shape[-1]
        for sigma in s:
            mu, err = states._purity(sigma)
            reference = (4.0 ** (m // 2) * np.linalg.det(sigma)) ** -0.5
            assert abs(mu - reference) <= m * err * mu


def test_mode_photons_bookkeeping():
    state = make_state([np.sqrt(2.0), 0.0], 0.5 * np.eye(2))
    assert state.mode_photons(0) == pytest.approx(1.0, abs=1e-12)
    assert thermal(2.5).mode_photons(0) == pytest.approx(2.5, abs=1e-12)
