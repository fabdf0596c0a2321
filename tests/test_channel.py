import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from lossfish import (ChannelParams, DivergentNoise, EtaTooClose, GaussianState,
                      HypothesisSpec, NonPhysicalParams, SingleModeProbe,
                      TwoModeProbe, apply_channel, build_single_mode,
                      build_two_mode, channel_derivative, effective_noise,
                      gamma_to_eta, gaussian_fidelity, heisenberg_margin,
                      homodyne_fisher, make_state,
                      optimize_two_mode, qfi_coherent, qfi_fidelity_fd,
                      qfi_single_mode_form, qfi_sld, qfi_two_mode_closed,
                      thermal, tmsv, tmsv_stationarity_check, vacuum)
from lossfish.channel import _output_entries
from lossfish.optimize import two_mode_grid

from test_qfi import rotate_signal


def test_param_validation():
    with pytest.raises(NonPhysicalParams):
        ChannelParams(eta=1.2)
    with pytest.raises(NonPhysicalParams):
        ChannelParams(eta=-0.1)
    for n_b in (-1.0, float("nan"), float("inf"), 5e-324, 1e-320):
        with pytest.raises(NonPhysicalParams, match=f"got {n_b}$"):
            ChannelParams(eta=0.5, n_b=n_b)
    # a bath is 0 or at least the smallest normal float
    ChannelParams(eta=0.5, n_b=np.finfo(float).tiny)
    with pytest.raises(DivergentNoise):
        ChannelParams(eta=1.0, n_b=1.0, normalized=True)
    # eta = 1 with zero background is fine in the normalized model
    ChannelParams(eta=1.0, n_b=0.0, normalized=True)


def test_array_eta_validated_elementwise():
    p = ChannelParams([0.2, 0.5], 1.0)
    assert p.eta.dtype == float and not p.eta.flags.writeable
    # the error names the first entry that fails, in C order
    for etas, got in (([0.5, 1.2, -0.1], "1.2"), ([[0.5], [np.nan]], "nan"),
                      ([0.5, -0.1, 1.2], "-0.1")):
        with pytest.raises(NonPhysicalParams, match=f"got {got}$"):
            ChannelParams(etas, 1.0)
    with pytest.raises(DivergentNoise):
        ChannelParams([0.5, 1.0], 1.0, normalized=True)
    ChannelParams([0.5, 1.0], 0.0, normalized=True)
    # the guard band names the first entry inside it
    with pytest.raises(EtaTooClose, match="eta = 0.99999999 is inside"):
        qfi_coherent(1.0, ChannelParams([0.5, 0.99999999, 1.0], 0.0))


P_ARRAY = ChannelParams(np.array([0.5, 0.6]), 1.0)
COHERENT = build_single_mode(SingleModeProbe(1.0, 0.0))


@pytest.mark.parametrize("call", [
    lambda p: qfi_sld(COHERENT, p),
    lambda p: qfi_single_mode_form(COHERENT, p),
    lambda p: qfi_fidelity_fd(COHERENT, p),
    lambda p: apply_channel(COHERENT, p),
    lambda p: channel_derivative(COHERENT, p),
    lambda p: effective_noise(p),
    lambda p: qfi_two_mode_closed(TwoModeProbe(1.0, 1.0, 1.0), p),
    lambda p: two_mode_grid(1.0, p, grid=(32, 32)),
    lambda p: optimize_two_mode(1.0, p, grid=(32, 32)),
    lambda p: tmsv_stationarity_check(1.0, p),
    lambda p: homodyne_fisher(1.0, 1.0, p),
    lambda p: HypothesisSpec(0.9, 0.8, 10, COHERENT, p),
], ids=["qfi_sld", "qfi_single_mode_form", "qfi_fidelity_fd", "apply_channel",
        "channel_derivative", "effective_noise", "qfi_two_mode_closed",
        "two_mode_grid", "optimize_two_mode", "tmsv_stationarity_check",
        "homodyne_fisher", "HypothesisSpec"])
def test_scalar_routes_reject_array_eta(call):
    with pytest.raises(ValueError, match="one scalar eta"):
        call(P_ARRAY)


def test_identity_at_full_transmission():
    out = apply_channel(vacuum(), ChannelParams(1.0, 5.0))
    assert np.allclose(out.sigma, 0.5 * np.eye(2), atol=1e-14)
    assert np.allclose(out.d, 0.0)


def test_full_loss_replaces_by_bath():
    out = apply_channel(vacuum(), ChannelParams(0.0, 1.0))
    assert np.allclose(out.sigma, 1.5 * np.eye(2), atol=1e-14)


def test_coherent_through_pure_loss():
    # y = (1 - 0.64)/2 = 0.18 and 0.64*0.5 + 0.18 = 0.5
    probe = make_state([np.sqrt(2.0), 0.0], 0.5 * np.eye(2))
    out = apply_channel(probe, ChannelParams(0.8, 0.0))
    assert out.d[0] == pytest.approx(0.8 * np.sqrt(2.0), abs=1e-14)
    assert np.allclose(out.sigma, 0.5 * np.eye(2), atol=1e-14)


def test_two_mode_blocks_transform():
    state = tmsv(1.0)
    eta = 0.6
    out = apply_channel(state, ChannelParams(eta, 0.5))
    assert np.allclose(out.sigma[:2, 2:], eta * state.sigma[:2, 2:], atol=1e-14)
    assert np.allclose(out.sigma[2:, 2:], state.sigma[2:, 2:], atol=1e-14)


@pytest.mark.parametrize("normalized", [False, True])
def test_derivative_matches_finite_differences(normalized):
    rng = np.random.default_rng(7)
    h = 1e-6
    for _ in range(12):
        eta = rng.uniform(0.05, 0.95)
        nb = rng.choice([0.0, 0.3, 2.0])
        state = tmsv(rng.uniform(0.1, 3.0)) if rng.random() < 0.5 else \
            make_state(rng.normal(size=2), np.diag(rng.uniform(0.5, 1.5, 2)))
        p = ChannelParams(eta, nb, normalized)
        d_dot, s_dot = channel_derivative(state, p)
        hi = apply_channel(state, ChannelParams(eta + h, nb, normalized))
        lo = apply_channel(state, ChannelParams(eta - h, nb, normalized))
        d_fd = (hi.d - lo.d) / (2 * h)
        s_fd = (hi.sigma - lo.sigma) / (2 * h)
        scale = max(np.max(np.abs(s_fd)), 1.0)
        assert np.max(np.abs(d_dot - d_fd)) < 1e-6 * max(np.max(np.abs(d_fd)), 1.0)
        assert np.max(np.abs(s_dot - s_fd)) < 1e-6 * scale


def test_derivative_of_vacuum_input_at_zero_temperature_vanishes():
    d_dot, s_dot = channel_derivative(vacuum(), ChannelParams(0.5, 0.0))
    assert np.allclose(d_dot, 0.0)
    assert np.allclose(s_dot, 0.0, atol=1e-15)


def test_derivative_of_displacement_is_input_displacement():
    probe = make_state([np.sqrt(2.0), 0.0], 0.5 * np.eye(2))
    d_dot, _ = channel_derivative(probe, ChannelParams(0.5, 0.0))
    assert np.allclose(d_dot, probe.d)


def test_normalized_vs_bare_derivative_difference():
    # bare model keeps a -2 eta N_B contribution that normalization removes
    nb, eta = 1.0, 0.5
    _, s_bare = channel_derivative(vacuum(), ChannelParams(eta, nb))
    _, s_norm = channel_derivative(vacuum(), ChannelParams(eta, nb, normalized=True))
    assert np.allclose(s_bare - s_norm, -2.0 * eta * nb * np.eye(2), atol=1e-14)


def test_zero_temperature_semigroup_composition():
    probe = make_state([0.4, -0.2], np.diag([0.7, 0.6]))
    for eta1, eta2 in [(0.9, 0.8), (0.5, 0.7), (0.99, 0.3)]:
        once = apply_channel(probe, ChannelParams(eta1 * eta2, 0.0))
        twice = apply_channel(apply_channel(probe, ChannelParams(eta2, 0.0)),
                              ChannelParams(eta1, 0.0))
        assert np.max(np.abs(once.sigma - twice.sigma)) < 1e-12
        assert np.max(np.abs(once.d - twice.d)) < 1e-12


def test_cross_entries_are_shared_only_where_the_input_shares_them():
    # a table that hands one object to both cross entries, as the (zeta, r)
    # grid does, gets one product for both; distinct objects, as in a
    # hand-made state whose idler rows differ from its signal rows, keep a
    # product each
    rng = np.random.default_rng(28)
    p = ChannelParams(0.6, 0.7)
    a, b, c, e, f, g = (rng.uniform(0.5, 2.0, 8) for _ in range(6))
    table = [[a, 0.0, c, 0.0], [0.0, b, 0.0, e], [c, 0.0, f, 0.0], [0.0, e, 0.0, g]]
    _, out = _output_entries([], table, p)
    assert out[2][0] is out[0][2] and out[3][1] is out[1][3]
    table[2][0], table[3][1] = c + 0.25, e.copy()
    _, out = _output_entries([], table, p)
    assert out[3][1] is not out[1][3]
    np.testing.assert_array_equal(out[2][0], (c + 0.25) * 0.6)
    sigma = 0.5 * np.eye(4)
    sigma[0, 2], sigma[2, 0] = 0.1, 0.2
    state = GaussianState(2, np.zeros(4), sigma)  # not symmetric: no make_state
    out = apply_channel(state, p).sigma
    assert (out[0, 2], out[2, 0]) == (0.1 * 0.6, 0.2 * 0.6)


def test_physicality_preserved_on_grid():
    states = [vacuum(), thermal(2.0), tmsv(1.5),
              make_state([1.0, 0.0], np.diag([0.1, 2.5]))]
    for eta in np.linspace(0.0, 1.0, 9):
        for nb in (0.0, 1.0, 100.0):
            for state in states:
                out = apply_channel(state, ChannelParams(eta, nb))
                assert heisenberg_margin(out.sigma) >= -1e-10


def test_effective_noise():
    assert effective_noise(ChannelParams(0.5, 1.0)) == 1.0
    assert effective_noise(ChannelParams(0.5, 1.0, normalized=True)) == \
        pytest.approx(4.0 / 3.0, rel=1e-14)
    assert effective_noise(ChannelParams(1.0, 0.0, normalized=True)) == 0.0
    for eta in (0.0, 0.5, 1.0):
        for n_b in (0.0, 2.0):
            assert effective_noise(ChannelParams(eta, n_b)) == n_b
            if n_b > 0 and eta == 1.0:
                with pytest.raises(DivergentNoise):
                    ChannelParams(eta, n_b, normalized=True)
            else:
                want = n_b / (1.0 - eta ** 2) if n_b > 0 else 0.0
                assert effective_noise(ChannelParams(eta, n_b, normalized=True)) == want


def test_array_eta_compares_and_hashes_by_value():
    p = ChannelParams([0.5, 0.6], 1.0)
    assert p == ChannelParams(np.array([0.5, 0.6]), 1.0)
    assert hash(p) == hash(ChannelParams(np.array([0.5, 0.6]), 1.0))
    for other in (ChannelParams([0.5, 0.7], 1.0), ChannelParams([[0.5, 0.6]], 1.0),
                  ChannelParams([0.5, 0.6], 2.0),
                  ChannelParams([0.5, 0.6], 1.0, normalized=True),
                  ChannelParams(0.5, 1.0)):
        assert p != other
    zero, minus_zero = ChannelParams([0.0, 0.5], 0.0), ChannelParams([-0.0, 0.5], 0.0)
    assert zero == minus_zero and hash(zero) == hash(minus_zero)
    assert len({p, ChannelParams([0.5, 0.6], 1.0), zero, minus_zero}) == 2
    # scalar eta: as a plain dataclass of floats
    assert ChannelParams(0.5, 1.0) == ChannelParams(0.5, 1)
    assert hash(ChannelParams(0.5, 1.0)) == hash(ChannelParams(0.5, 1))
    assert ChannelParams(0.0, 0.0) == ChannelParams(-0.0, 0.0)
    assert hash(ChannelParams(np.array(0.5), 1.0)) == hash(ChannelParams(0.5, 1.0))
    assert ChannelParams(0.5, 1.0).__eq__("channel") is NotImplemented


def test_gamma_to_eta():
    assert gamma_to_eta(0.0, 3.0) == 1.0
    assert gamma_to_eta(2.0, 0.0) == 1.0
    assert gamma_to_eta(2.0 * np.log(2.0), 1.0) == pytest.approx(0.5, rel=1e-14)
    for gamma, t in [(-1.0, 1.0), (1.0, -1.0), (math.inf, 0.0), (0.0, math.inf),
                     (math.nan, 0.0), (1.0, math.nan)]:
        with pytest.raises(NonPhysicalParams, match="finite and non-negative"):
            gamma_to_eta(gamma, t)


def channel_pin_lines():
    """`float.hex` of every entry of `apply_channel` and `channel_derivative`,
    of `gaussian_fidelity` between outputs and of `qfi_fidelity_fd`, on a
    seeded panel of 1- and 2-mode states; `float.hex` tells -0.0 from 0.0."""
    rng = np.random.default_rng(25)
    # signed zeros in every block, including the signal's off-diagonal
    states = [make_state([-0.0, 0.0], [[0.7, -0.0], [-0.0, 0.9]]),
              make_state([0.3, -0.0, -0.0, 0.0],
                         [[1.2, -0.0, 0.4, -0.0], [-0.0, 0.8, -0.0, -0.2],
                          [0.4, -0.0, 1.1, -0.0], [-0.0, -0.2, -0.0, 0.9]]),
              vacuum(), vacuum(2), tmsv(0.7)]
    for k in range(60):
        n_s = rng.uniform(0.01, 20.0)
        if k % 2:
            state = build_single_mode(SingleModeProbe(n_s, rng.uniform(0.0, 1.0),
                                                      rng.uniform(0.0, np.pi)))
        else:
            # zeta = 0 leaves the idler in vacuum and the cross block -0.0
            zeta = rng.uniform(0.0, 1.0) * (k % 10 != 0)
            r_min = TwoModeProbe(n_s, zeta, 1.0).r_min
            state = build_two_mode(TwoModeProbe(
                n_s, zeta, r_min ** rng.uniform(0.0, 1.0), theta=rng.uniform(0.0, np.pi),
                phi=rng.uniform(0.0, np.pi) if k % 4 == 0 else 0.0))
        if k % 3 == 0:
            # a signal rotation fills the x-p entries
            state = rotate_signal(state, rng.uniform(0.1, 2.0 * np.pi - 0.1))
        states.append(state)
    lines = []
    for k, state in enumerate(states):
        n_b = (0.0, 1e-3, 1.0, 100.0)[k % 4]
        p = ChannelParams(rng.uniform(0.001, 0.95), n_b, normalized=k % 5 == 0)
        for q in (p, replace(p, eta=0.0), replace(p, eta=0.999)):
            out = apply_channel(state, q)
            d_dot, s_dot = channel_derivative(state, q)
            for x in (out.d, out.sigma, d_dot, s_dot):
                lines += [v.hex() for v in x.ravel().tolist()]
        out = apply_channel(state, p)
        other = states[k - 2] if states[k - 2].modes == state.modes else state
        near = apply_channel(state, replace(p, eta=0.9 * p.eta))
        lines += [float(gaussian_fidelity(out, near)).hex(),
                  float(gaussian_fidelity(out, apply_channel(other, p))).hex(),
                  float(qfi_fidelity_fd(state, p)).hex()]
    return lines


# recorded before the channel action moved to Python floats and the fidelity
# to one stacked det; both must keep every bit (numpy 2.4, x86_64)
CHANNEL_DIGEST = "b017ed85234f8fa135a84e847322faf52c0e7cf7b2a195afae908339bae516c0"


def test_channel_and_fidelity_values_are_pinned():
    lines = channel_pin_lines()
    assert "-0x0.0p+0" in lines
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == CHANNEL_DIGEST
