import math

import pytest

from lossfish import (ChannelParams, HypothesisSpec, SingleModeProbe,
                      apply_channel, build_single_mode, fidelity_error_bound,
                      gaussian_fidelity, qfi_error_approx, qfi_sld,
                      threshold_strategy_error, tmsv)


def coherent_state(n_s):
    return build_single_mode(SingleModeProbe(n_s, 0.0))


def make_spec(eta_plus, eta_minus, m, probe, nb=0.0, normalized=False):
    base = ChannelParams(eta_plus, nb, normalized)
    return HypothesisSpec(eta_plus=eta_plus, eta_minus=eta_minus, m=m,
                          probe=probe, channel_base=base)


def test_spec_validation():
    with pytest.raises(ValueError):
        make_spec(0.5, 0.6, 1, coherent_state(1.0))
    with pytest.raises(ValueError):
        make_spec(0.5, 0.5, 1, coherent_state(1.0))
    with pytest.raises(ValueError):
        make_spec(0.6, 0.5, 0, coherent_state(1.0))
    with pytest.raises(ValueError):
        make_spec(0.6, 0.5, math.nan, coherent_state(1.0))
    with pytest.raises(ValueError, match=r"^m must be finite and at least 1, got inf$"):
        make_spec(0.6, 0.5, math.inf, coherent_state(1.0))


def test_m_beyond_the_double_range_is_rejected():
    # no double holds m, so m / 2 in the bound would raise OverflowError
    big = 10 ** 400
    with pytest.raises(ValueError, match=r"^m = 10{400} is larger than any double$"):
        make_spec(0.6, 0.5, big, coherent_state(1.0))
    for error_form in (qfi_error_approx, threshold_strategy_error):
        with pytest.raises(ValueError, match=r"at most the largest double; .*m = 10{400},"):
            error_form(0.1, big, 1.0)


@pytest.mark.parametrize("m", [10 ** 6, 10 ** 18, 10 ** 19, 10 ** 300],
                         ids=["1e6", "1e18", "1e19", "1e300"])
def test_bound_stays_at_most_half(m):
    # the fidelity of outputs 1e-9 apart rounds above 1; raised to m/2 it
    # once gave a bound above 1/2, or an OverflowError
    spec = make_spec(0.075, 0.074999999, m, coherent_state(1.0), nb=1.0)
    assert fidelity_error_bound(spec) <= 0.5


def test_bound_approaches_half_for_indistinguishable_hypotheses():
    spec = make_spec(0.5 + 1e-9, 0.5, 1, coherent_state(1.0))
    assert fidelity_error_bound(spec) == pytest.approx(0.5, abs=1e-9)


def test_bound_monotone_in_copies_and_separation():
    probe = coherent_state(1.0)
    values = [fidelity_error_bound(make_spec(0.9, 0.8, m, probe))
              for m in (1, 2, 5, 20, 100)]
    assert all(b < a for a, b in zip(values, values[1:]))
    values = [fidelity_error_bound(make_spec(0.8 + d, 0.8, 4, probe))
              for d in (0.01, 0.05, 0.1, 0.15)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_coherent_bound_closed_form():
    # zero-temperature coherent outputs share Sigma = I/2, so
    # F = exp(-|delta|^2/2) with delta = d_eta sqrt(2 N_S) along q
    n_s, eta_p, eta_m, m = 1.0, 0.9, 0.8, 10
    spec = make_spec(eta_p, eta_m, m, coherent_state(n_s))
    delta_sq = 2 * n_s * (eta_p - eta_m) ** 2
    expected = 0.5 * math.exp(-delta_sq / 2.0) ** (m / 2.0)
    assert fidelity_error_bound(spec) == pytest.approx(expected, rel=1e-10)


def test_qfi_error_approx_values():
    assert qfi_error_approx(0.0, 5, 8.0) == 0.5
    assert qfi_error_approx(0.01, 100, 8.0) == pytest.approx(
        0.5 * math.exp(-0.01), rel=1e-12)
    with pytest.warns(UserWarning):
        qfi_error_approx(0.5, 1, 8.0)


def test_threshold_strategy_values():
    with pytest.warns(UserWarning):
        assert threshold_strategy_error(0.0, 1, 0.0) == 1.0
    val = threshold_strategy_error(0.05, 1000, 8.0)
    assert val == pytest.approx(1.0 - math.erf(math.sqrt(2.5)), rel=1e-12)
    # decay rate agrees with the exponential bound for large arguments
    arg = 50.0
    d_eta = math.sqrt(8 * arg / (1000 * 8.0))
    rate = -math.log(threshold_strategy_error(d_eta, 1000, 8.0)) / arg
    assert rate == pytest.approx(1.0, rel=0.1)
    # monotone decay with copies
    vals = [threshold_strategy_error(0.05, m, 8.0) for m in (500, 1000, 4000)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("error_form", [qfi_error_approx, threshold_strategy_error])
@pytest.mark.parametrize("args", [
    (math.nan, 10, 1.0), (math.inf, 10, 1.0), (0.1, 10, math.nan),
    (0.1, 10, math.inf), (0.1, math.nan, 1.0), (-0.1, 10, 1.0), (0.1, 0, 1.0),
    # inf * 0 in the exponent was a silent nan
    (0.0, math.inf, 1.0), (0.1, math.inf, 0.0),
    # d_eta ** 2 overflowed past the double range; d_eta is at most 1
    (1e200, 10, 1.0), (1.5, 10, 1.0)],
    ids=["d_eta-nan", "d_eta-inf", "i_eta-nan", "i_eta-inf", "m-nan",
         "d_eta-negative", "m-zero", "m-inf-d_eta-zero", "m-inf-i_eta-zero",
         "d_eta-huge", "d_eta-above-one"])
def test_error_forms_reject_out_of_domain_arguments(error_form, args):
    with pytest.raises(ValueError, match="finite and non-negative"):
        error_form(*args)


def test_bound_and_approx_agree_in_validity_regime():
    probe = tmsv(1.0)
    eta_p, eta_m = 0.62, 0.58
    mid = 0.5 * (eta_p + eta_m)
    i_eta = qfi_sld(probe, ChannelParams(mid, 0.5))
    d_eta = eta_p - eta_m
    assert d_eta ** 2 * i_eta <= 0.01
    spec = make_spec(eta_p, eta_m, 3, probe, nb=0.5)
    bound = fidelity_error_bound(spec)
    approx = qfi_error_approx(d_eta, 3, i_eta)
    assert bound == pytest.approx(approx, rel=0.01)


def test_coherent_bound_independent_of_energy_split():
    # at N_B = 0 coherent outputs share covariances; the bound depends only on
    # the total displacement energy, not on how it is split over copies
    total = 2.0
    results = []
    for m in (1, 2, 4):
        spec = make_spec(0.9, 0.85, m, coherent_state(total / m))
        results.append(fidelity_error_bound(spec))
    assert results[0] == pytest.approx(results[1], rel=1e-12)
    assert results[0] == pytest.approx(results[2], rel=1e-12)


def test_log_fidelity_flattens_for_undisplaced_probes():
    # without displacement the single-copy log-fidelity saturates in photon
    # number, so exponential decay needs broadband operation instead
    nb = 0.5
    etas = (0.9, 0.8)
    log_f = []
    for n_s in (1.0, 10.0, 100.0):
        probe = tmsv(n_s)
        out_p = apply_channel(probe, ChannelParams(etas[0], nb))
        out_m = apply_channel(probe, ChannelParams(etas[1], nb))
        log_f.append(math.log(gaussian_fidelity(out_p, out_m)))
    slope_low = abs(log_f[1] - log_f[0]) / 9.0
    slope_high = abs(log_f[2] - log_f[1]) / 90.0
    assert slope_high < slope_low


def test_exponent_gap_linear_in_copies():
    probe = coherent_state(1.0)
    b1 = fidelity_error_bound(make_spec(0.9, 0.8, 5, probe))
    b2 = fidelity_error_bound(make_spec(0.9, 0.8, 10, probe))
    assert math.log(2 * b2) == pytest.approx(2 * math.log(2 * b1), rel=1e-10)
