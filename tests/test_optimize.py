import hashlib
import math
import warnings
from dataclasses import astuple, is_dataclass, replace

import numpy as np
import pytest

from lossfish import (ChannelParams, EtaTooClose, ProbeRangeError, SingularSystem,
                      TwoModeProbe, advantage_ratio, f1, g1, g2,
                      homodyne_fisher, optimize_bandwidth, optimize_two_mode,
                      optimize_xi, qfi_coherent, qfi_gamma, qfi_if_closed,
                      qfi_shadow, qfi_squeezed_vacuum, qfi_tmsv, qfi_two_mode_closed,
                      threshold_constant_large_ns,
                      tmsv_stationarity_check, total_qfi, vacuum, xi_threshold_nbar)
from lossfish.optimize import (BOUNDARY_COHERENT, BOUNDARY_SQUEEZED,
                               FAMILY_COHERENT, FAMILY_IDLER_FREE, FAMILY_SQUEEZED,
                               FAMILY_TMSV, _golden_max, grid_argmax, two_mode_grid)
from lossfish.probes import two_mode_r_min
from lossfish.qfi import (_ARRAY_OPS, SLD_RESIDUAL_TOL, _stein, _two_mode_closed_raw,
                          _two_mode_outputs)

SQRT_HALF = 1.0 / np.sqrt(2.0)


def if_qfi(n_s, xi, p):
    return qfi_if_closed((1.0 - xi) * n_s, xi * n_s, p).total


# ---------------------------------------------------------------------------
# edge-slope diagnostics
# ---------------------------------------------------------------------------

def test_f1_zero_at_sqrt_half():
    assert f1(SQRT_HALF, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_f1_at_zero_power():
    # explicit expression gives eta^2 (2 eta^2 - 1)/(1 - eta^2) at N_S = 0
    eta = 0.9
    expected = eta ** 2 * (2 * eta ** 2 - 1) / (1 - eta ** 2)
    assert f1(eta, 0.0) == pytest.approx(expected, rel=1e-12)


def test_f1_is_the_edge_derivative_of_the_qfi():
    # one-sided second-order difference of the N_B = 0 QFI in xi at xi = 1
    h = 1e-6
    for eta, n_s in [(0.6, 0.5), (0.8, 2.0), (0.9, 0.1)]:
        p = ChannelParams(eta, 0.0)
        deriv = (3 * if_qfi(n_s, 1.0, p) - 4 * if_qfi(n_s, 1.0 - h, p)
                 + if_qfi(n_s, 1.0 - 2 * h, p)) / (2 * h)
        assert f1(eta, n_s) == pytest.approx(deriv / (4 * n_s), rel=1e-4, abs=1e-9)


def test_f1_decreasing_in_ns_and_large_ns_limit():
    eta = 0.85
    values = [f1(eta, n) for n in np.geomspace(1e-3, 1e3, 25)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert f1(0.9, 1e6) == pytest.approx(-1.0 / (1 - 0.81), rel=1e-3)


def test_out_of_domain_calls_rejected():
    with pytest.raises(ValueError, match=r"eta must lie in \(0, 1\)"):
        xi_threshold_nbar(1.0)
    with pytest.raises(ValueError, match="bare-channel closed form"):
        tmsv_stationarity_check(1.0, ChannelParams(0.5, 1.0, normalized=True))


def test_threshold_below_sqrt_half_is_zero():
    assert xi_threshold_nbar(0.7) == 0.0
    assert xi_threshold_nbar(0.3) == 0.0


@pytest.mark.parametrize("eta", [0.75, 0.9, 0.95])
def test_threshold_is_root_of_f1(eta):
    nbar = xi_threshold_nbar(eta)
    assert nbar > 0
    assert abs(f1(eta, nbar)) <= 1e-10


def test_threshold_large_ns_asymptote():
    # inverse of eta_bar ~ 1 - 1/(c N_S)
    c1 = threshold_constant_large_ns()
    eta = 0.999
    assert xi_threshold_nbar(eta) == pytest.approx(1.0 / (c1 * (1 - eta)), rel=0.02)


@pytest.mark.parametrize("gap", [1e-7, 1e-9, 1e-12])
def test_threshold_follows_large_ns_asymptote_near_unit_eta(gap):
    # f1 is free of cancellation at large N_S, so the root keeps following
    # 1/(c (1 - eta)) as eta -> 1 instead of stalling near 3.4e7
    c1 = threshold_constant_large_ns()
    eta = 1.0 - gap
    assert xi_threshold_nbar(eta) == pytest.approx(1.0 / (c1 * (1.0 - eta)), rel=1e-4)


def test_threshold_small_ns_asymptote():
    # eta_bar ~ (1 + sqrt(N_S)/2)/sqrt(2) inverts to N_S at the 5% level
    n_s = 1e-3
    eta = SQRT_HALF * (1.0 + np.sqrt(n_s) / 2.0)
    assert xi_threshold_nbar(eta) == pytest.approx(n_s, rel=0.05)


def test_threshold_constant():
    c1 = threshold_constant_large_ns()
    assert abs(c1 ** 3 - 64 * c1 - 128) < 1e-9
    assert c1 == pytest.approx(8.86, abs=0.01)
    # the closed-form root equals a bisection to the last bit
    lo, hi = 1.0, 100.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid ** 3 - 64.0 * mid - 128.0 < 0.0:
            lo = mid
        else:
            hi = mid
    assert c1 == 0.5 * (lo + hi)


def test_g1_values():
    assert g1(0.0, 3.0) == 0.0
    assert g1(1.0, 2.0) == pytest.approx(-(1 + 2 * 2.0), rel=1e-14)
    # low-transmission expansion: I ~ 4 N_S (1 + g1 eta^2)
    eta, n_s = 0.01, 1.0
    p = ChannelParams(eta, 0.0)
    for xi in (0.2, 0.5, 0.8):
        expansion = 4 * n_s * (1 + g1(xi, n_s) * eta ** 2)
        assert if_qfi(n_s, xi, p) == pytest.approx(expansion, rel=1e-6)


def test_g2_is_the_low_power_squeezed_slope():
    for eta, nb in [(0.3, 100.0), (0.9, 100.0), (0.5, 1.0), (0.97, 10.0)]:
        p = ChannelParams(eta, nb)
        n_s = 1e-9
        slope = (qfi_squeezed_vacuum(n_s, p) - qfi_shadow(p)) / (4 * n_s)
        assert g2(eta, nb) == pytest.approx(slope, rel=1e-4)
    with pytest.raises(ValueError):
        g2(0.5, 0.0)


@pytest.mark.parametrize("x", [math.nan, math.inf])
def test_f1_rejects_non_finite(x):
    for args in ((x, 1.0), (0.8, x), (0.8, np.array([1.0, x]))):
        with pytest.raises(ValueError):
            f1(*args)


@pytest.mark.parametrize("x", [math.nan, math.inf])
def test_g1_rejects_non_finite(x):
    for args in ((x, 1.0), (0.5, x)):
        with pytest.raises(ValueError):
            g1(*args)


@pytest.mark.parametrize("x", [math.nan, math.inf])
def test_g2_rejects_non_finite(x):
    for args in ((x, 1.0), (0.5, x)):
        with pytest.raises(ValueError):
            g2(*args)


def f1_python(eta, n_s):
    # the edge slope in Python floats: libm pow for the square, math.sqrt
    e2 = eta ** 2
    one = 1.0 - e2
    first = (one ** 2 + e2 ** 2) / (one * (1.0 + 2.0 * n_s * e2 * one) ** 2)
    root = math.sqrt(n_s)
    return first - 1.0 / (1.0 - 2.0 * e2 * (root / (math.sqrt(n_s + 1.0) + root)))


def pow_sensitive_etas():
    # transmissions where a multiply squares eta, 1 - eta^2 or eta^2 to other
    # bits than libm pow (Python's `**`), two for each base: an array `** 2`
    # in place of np.float_power changes results on them
    rng = np.random.default_rng(11)
    found = {"eta": [], "one": [], "e2": []}
    for eta in rng.uniform(0.05, 0.99, 50000):
        eta = float(eta)
        e2 = eta ** 2
        for name, base in (("eta", eta), ("one", 1.0 - e2), ("e2", e2)):
            if base * base != base ** 2 and len(found[name]) < 2:
                found[name].append(eta)
    assert all(len(v) == 2 for v in found.values())
    return sorted(sum(found.values(), []))


POW_ETAS = pow_sensitive_etas()


def test_f1_array_equals_python_float_arithmetic():
    # an array square is rounded unlike Python's `**` in about one case per
    # thousand; f1 must keep the Python-float values, bit for bit, for an
    # array of n_s and for an (n_s, eta) grid
    rng = np.random.default_rng(5)
    n_s = np.exp(rng.uniform(np.log(1e-4), np.log(1e4), 2000))
    for eta in (0.72, 0.9, 0.999):
        np.testing.assert_array_equal(f1(eta, n_s),
                                      [f1_python(eta, float(n)) for n in n_s])
    etas = np.array([0.05, *POW_ETAS, 0.72, 0.999])
    np.testing.assert_array_equal(
        f1(etas[None, :], n_s[:200, None]),
        [[f1_python(float(e), float(n)) for e in etas] for n in n_s[:200]])


def test_g2_crossing_matches_abrupt_transition():
    # crossing of g2 with the coherent slope locates the low-power flip;
    # for N_B = 100 it sits within 2% (in eta) of 1 - 3/(2 N_B)
    nb = 100.0

    def gap(eta):
        return g2(eta, nb) - 1.0 / (1 + 2 * nb * (1 - eta ** 2))

    lo, hi = 0.9, 0.9995
    assert gap(lo) < 0 < gap(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0:
            lo = mid
        else:
            hi = mid
    crossing = 0.5 * (lo + hi)
    assert crossing == pytest.approx(1 - 3 / (2 * nb), rel=0.02)
    # the optimizer flips between the edges across the crossing
    below = optimize_xi(1e-4, ChannelParams(crossing - 2e-3, nb))
    above = optimize_xi(1e-4, ChannelParams(crossing + 2e-3, nb))
    assert below.xi_opt < 1e-3
    assert above.xi_opt == 1.0


# ---------------------------------------------------------------------------
# single-mode optimization
# ---------------------------------------------------------------------------

def test_optimize_xi_squeezed_region():
    res = optimize_xi(0.01, ChannelParams(0.9, 0.0))
    assert res.xi_opt == 1.0
    assert res.boundary == BOUNDARY_SQUEEZED


def test_optimize_xi_large_power_asymptote():
    for nb in (0.0, 1.0):
        res = optimize_xi(1e4, ChannelParams(0.9, nb))
        asym = 0.9 / np.sqrt(4e4 * (1 - 0.81) * (1 + 2 * nb))
        assert res.xi_opt == pytest.approx(asym, rel=0.10)


def test_optimize_xi_noisy_low_power_prefers_coherent():
    res = optimize_xi(0.01, ChannelParams(0.3, 10.0))
    assert res.xi_opt < 1e-4
    assert res.boundary != BOUNDARY_SQUEEZED


def test_optimize_xi_result_invariant():
    rng = np.random.default_rng(23)
    for _ in range(10):
        p = ChannelParams(rng.uniform(0.05, 0.95), rng.choice([0.0, 0.5, 20.0]))
        n_s = rng.uniform(0.05, 20.0)
        res = optimize_xi(n_s, p)
        edge = max(if_qfi(n_s, 0.0, p), if_qfi(n_s, 1.0, p))
        assert res.qfi_opt >= edge - 1e-10
        assert 0.0 <= res.xi_opt <= 1.0


def test_coherent_edge_never_optimal_at_zero_temperature():
    # the xi-derivative diverges at xi = 0+, so a touch of squeezing always helps
    for eta in (0.1, 0.4, 0.7, 0.9):
        p = ChannelParams(eta, 0.0)
        for n_s in (0.01, 1.0, 100.0):
            assert if_qfi(n_s, 1e-6, p) > if_qfi(n_s, 0.0, p)
            assert optimize_xi(n_s, p).boundary != BOUNDARY_COHERENT


def test_zero_temperature_concavity_in_xi():
    xis = np.arange(0.0, 1.0 + 1e-9, 1e-2)
    for eta in np.arange(0.1, 0.95, 0.1):
        p = ChannelParams(eta, 0.0)
        vals = np.array([if_qfi(1.0, x, p) for x in xis])
        second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
        assert np.all(second <= 1e-9)


def test_zero_temperature_bound():
    # no N_B = 0 QFI exceeds 4 N_S / (1 - eta^2)
    for eta in np.linspace(0.05, 0.95, 7):
        p = ChannelParams(eta, 0.0)
        cap = lambda n: 4 * n / (1 - eta ** 2) + 1e-9
        for n_s in (0.1, 1.0, 10.0):
            for xi in np.linspace(0, 1, 11):
                assert if_qfi(n_s, xi, p) <= cap(n_s)
            assert qfi_tmsv(n_s, p) <= cap(n_s)


# ---------------------------------------------------------------------------
# two-mode optimization
# ---------------------------------------------------------------------------

def test_two_mode_grid_argmax_is_tmsv():
    p = ChannelParams(SQRT_HALF, 1.0)
    zeta, r, best = optimize_two_mode(1.0, p, grid=(32, 32))
    assert zeta == 1.0 and r == 1.0
    assert best == pytest.approx(qfi_tmsv(1.0, p), rel=1e-9)


def test_two_mode_grid_rejects_small_grids():
    with pytest.raises(ValueError):
        optimize_two_mode(1.0, ChannelParams(0.5, 0.0), grid=(16, 64))


def loop_argmax(zetas, r_grid, qfi):
    # reference: the last q >= best in (zeta, r) order wins; NaN never does
    best = (-math.inf, 0.0, 0.0)
    for iz, z in enumerate(zetas):
        for ir in range(qfi.shape[1]):
            if qfi[iz, ir] >= best[0]:
                best = (qfi[iz, ir], z, r_grid[iz, ir])
    return best[1], best[2], best[0]


@pytest.mark.parametrize("grid", [
    [[1.0, 3.0, 2.0], [3.0, 0.5, 3.0]],
    [[3.0, np.nan, 1.0], [np.nan, 2.0, 3.0]],
    [[np.inf, 1.0, np.inf], [0.0, np.nan, -1.0]],
    [[-np.inf, np.nan, -np.inf], [np.nan, -np.inf, np.nan]],
    [[np.nan, np.nan, np.nan], [np.nan, np.nan, np.nan]],
])
def test_grid_argmax_matches_loop_tie_break(grid):
    qfi = np.array(grid)
    zetas = np.array([0.0, 1.0])
    r_grid = np.array([[0.2, 0.5, 1.0], [0.3, 0.6, 1.0]])
    got = grid_argmax(zetas, r_grid, qfi)
    want = loop_argmax(zetas, r_grid, qfi)
    assert got == want


@pytest.mark.parametrize("call", [
    lambda p: optimize_two_mode(1.0, p, grid=(32, 32)),
    lambda p: two_mode_grid(1.0, p, grid=(32, 32)),
])
def test_two_mode_grid_guard_band(call):
    with pytest.raises(EtaTooClose):
        call(ChannelParams(0.99999999, 1.0))


def test_two_mode_grid_rejects_non_finite_power():
    for n_s in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            two_mode_grid(n_s, ChannelParams(0.5, 1.0), grid=(32, 32))


@pytest.mark.parametrize("n_s,eta", [(1e3, 0.999), (1.0, 0.7071), (1e3, 0.5)])
def test_two_mode_grid_normalized_without_background_is_bare(n_s, eta):
    # at N_B = 0 the two models are one channel, Stein-basis sum included
    bare = two_mode_grid(n_s, ChannelParams(eta, 0.0))
    held = two_mode_grid(n_s, ChannelParams(eta, 0.0, normalized=True))
    for a, b in zip(bare, held):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("n_s", [1e-3, 0.37, 1.0, 5.5, 1e3])
def test_two_mode_r_grid_matches_row_by_row_build(n_s):
    zetas, r_grid, _ = two_mode_grid(n_s, ChannelParams(0.5, 1.0))
    rows = np.stack([np.geomspace(two_mode_r_min(n_s, z), 1.0, 64) for z in zetas])
    np.testing.assert_array_equal(r_grid, rows)


def test_optimize_two_mode_normalized_without_background():
    # the grid is ill-conditioned at eta = 0.999, so hold the value to the
    # bare channel exactly and to the TMSV closed form within its accuracy
    held = optimize_two_mode(1e3, ChannelParams(0.999, 0.0, normalized=True))
    assert held == optimize_two_mode(1e3, ChannelParams(0.999, 0.0))
    assert held[:2] == (1.0, 1.0)
    exact = qfi_tmsv(1e3, ChannelParams(0.999, 0.0))
    assert abs(held[2] - exact) <= 1e-10 * exact


def test_normalized_grid_with_unsettled_items_is_tmsv():
    # the normalized model has no closed form; the items that the Stein solve
    # leaves above the tolerance take the sum in Stein's basis
    p = ChannelParams(0.999, 1e-3, normalized=True)
    zeta, r, best = optimize_two_mode(1e3, p)
    assert (zeta, r) == (1.0, 1.0)
    assert best == pytest.approx(qfi_tmsv(1e3, p), rel=1e-10, abs=0)


@pytest.mark.xfail(strict=True, raises=SingularSystem,
                   reason="3 items near r = 1 have nearly pure outputs: the "
                          "rounding of S moves their QFI by up to 6e-8, and "
                          "their error bound (1.1e-7) exceeds 1e-8")
def test_zero_temperature_small_eta_grid_argmax_is_tmsv():
    assert optimize_two_mode(1e-3, ChannelParams(1e-3, 0.0))[:2] == (1.0, 1.0)


def test_two_mode_grid_rejects_r_min_rounded_to_zero():
    # squeeze_parameter cancels to exactly 0 at N = 1e8
    with pytest.raises(ProbeRangeError, match=r"^n_s = 100000000\.0 is too large"):
        optimize_two_mode(1e8, ChannelParams(0.5, 1.0))


@pytest.mark.parametrize("n_s", [1e300, 1e308])
def test_two_mode_grid_rejects_r_min_overflow_without_a_warning(n_s):
    # r_min overflows to -inf at 1e300 and to nan at 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ProbeRangeError, match=r"is too large: r_min is not finite$"):
            optimize_two_mode(n_s, ChannelParams(0.5, 1.0))


def test_two_mode_grid_too_large_output_raises_without_a_warning():
    # at N_B = 1.7e308 the output S is too large for g = 4 nu_j nu_k; the size
    # check divides the bound by m rather than multiply each entry by it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularSystem, match=r"^SLD item 0: S is so large that "
                                                 r"g = 4 nu_j nu_k overflows$"):
            optimize_two_mode(3.0, ChannelParams(0.5, 1.7e308))


def test_grid_fallback_is_the_scalar_closed_form():
    # bright probes at eta -> 1: the Stein solve leaves many points above the
    # residual tolerance, and the sum in Stein's basis that takes them is the
    # scalar closed form, which is exact there
    n_s, p = 1e3, ChannelParams(0.999, 1e-3)
    zetas, r_grid, qfi = two_mode_grid(n_s, p)
    zz, rr = np.repeat(zetas, r_grid.shape[1]), r_grid.reshape(-1)
    _, rel, _ = _stein(_ARRAY_OPS, *_two_mode_outputs(n_s, zz, rr, p))
    bad = ~(rel <= SLD_RESIDUAL_TOL)
    assert bad.sum() > 0
    scalar = [_two_mode_closed_raw(n_s, float(z), float(r), 0.0, p.eta, p.n_b)
              for z, r in zip(zz[bad], rr[bad])]
    np.testing.assert_allclose(qfi.reshape(-1)[bad], scalar, rtol=1e-9, atol=0)


def test_two_mode_grid_refinement_stability():
    p = ChannelParams(0.5, 0.5)
    coarse = optimize_two_mode(1.0, p, grid=(32, 32))
    fine = optimize_two_mode(1.0, p, grid=(96, 96))
    assert coarse[:2] == fine[:2] == (1.0, 1.0)


@pytest.mark.parametrize("n_s,eta,nb", [
    (1.0, SQRT_HALF, 1.0), (10.0, 0.2, 0.1), (0.1, 0.95, 100.0)])
def test_tmsv_stationarity_signs(n_s, eta, nb):
    p = ChannelParams(eta, nb)
    d_r, d2_r, d_zeta = tmsv_stationarity_check(n_s, p)
    qfi = qfi_tmsv(n_s, p)
    assert abs(d_r) <= 1e-6 * abs(qfi)
    assert d2_r < 0
    assert d_zeta > 0

    # the same bits as the stencil that evaluates every term on its own
    def value(zeta, r):
        return _two_mode_closed_raw(n_s, zeta, r, 0.0, eta, nb)

    h = 1e-5
    assert (d_r, d2_r, d_zeta) == (
        float((value(1.0, 1.0 + h) - value(1.0, 1.0 - h)) / (2.0 * h)),
        float((value(1.0, 1.0 + h) - 2.0 * value(1.0, 1.0)
               + value(1.0, 1.0 - h)) / h ** 2),
        float((value(1.0 + h, 1.0) - value(1.0 - h, 1.0)) / (2.0 * h)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("nb", [0.0, 1.0])
def test_tmsv_stationarity_at_zero_eta_raises(nb):
    # the closed form is 0/0 at eta = 0: the check refuses it as
    # qfi_two_mode_closed does, with no RuntimeWarning and no nan
    with pytest.raises(ValueError, match=r"^closed form is indeterminate at eta = 0"):
        tmsv_stationarity_check(1.0, ChannelParams(0.0, nb))


# ---------------------------------------------------------------------------
# total QFI and bandwidth
# ---------------------------------------------------------------------------

def test_total_qfi_coherent_is_bandwidth_free():
    p = ChannelParams(0.6, 0.0)
    for m in (1.0, 3.0, 50.0, math.inf):
        assert total_qfi(5.0, m, p, FAMILY_COHERENT) == pytest.approx(20.0, rel=1e-12)


def test_total_qfi_squeezed_bandwidth_formula():
    # M copies of xi = 1 probes: 4 T [(1-e)^2 + e^2] / {(1-e)[1 + 2 (T/M) e (1-e)]}
    eta, total, m = 0.6, 3.0, 7.0
    e2 = eta ** 2
    expected = 4 * total * ((1 - e2) ** 2 + e2 ** 2) \
        / ((1 - e2) * (1 + 2 * (total / m) * e2 * (1 - e2)))
    p = ChannelParams(eta, 0.0)
    assert total_qfi(total, m, p, FAMILY_IDLER_FREE, xi=1.0) == \
        pytest.approx(expected, rel=1e-12)


def test_total_qfi_normalized_tmsv_saturation():
    p = ChannelParams(0.5, 1.0, normalized=True)
    limit = 4.0 / (1.0 + 1.0 - 0.25)
    assert total_qfi(1.0, 1e6, p, FAMILY_TMSV) == pytest.approx(limit, rel=1e-4)
    assert total_qfi(1.0, math.inf, p, FAMILY_TMSV) == pytest.approx(limit, rel=1e-14)


def test_total_qfi_broadband_limits_match_numerics():
    # closed-form M = inf limits vs direct evaluation at M = 1e9; the
    # per-copy expansion has an O(N_S^{3/2}) term, so totals converge as
    # O(M^{-1/2}) ~ 3e-5 here
    for p in (ChannelParams(0.8, 0.0), ChannelParams(0.7, 2.0, normalized=True)):
        for xi in (0.0, 0.5, 1.0):
            lim = total_qfi(1.0, math.inf, p, FAMILY_IDLER_FREE, xi=xi)
            big = total_qfi(1.0, 1e9, p, FAMILY_IDLER_FREE, xi=xi)
            assert big == pytest.approx(lim, rel=1e-4)


def test_total_qfi_diverges_in_bare_thermal_channel():
    p = ChannelParams(0.5, 1.0)
    assert math.isinf(total_qfi(1.0, math.inf, p, FAMILY_IDLER_FREE, xi=0.3))
    assert math.isinf(total_qfi(1.0, math.inf, p, FAMILY_TMSV))


def test_optimize_bandwidth_single_shot_region():
    for tns in (0.1, 1.0, 10.0):
        plan = optimize_bandwidth(tns, ChannelParams(0.5, 0.0))
        assert plan.m == 1.0 and not plan.divergent


def test_optimize_bandwidth_broadband_region():
    plan = optimize_bandwidth(0.01, ChannelParams(0.9, 0.0))
    assert math.isinf(plan.m)
    assert plan.xi_opt == 1.0
    assert not plan.divergent


def test_optimize_bandwidth_divergent_region():
    for family in (FAMILY_IDLER_FREE, FAMILY_TMSV, FAMILY_COHERENT):
        plan = optimize_bandwidth(4.0, ChannelParams(0.5, 1.0), family)
        assert plan.divergent and math.isinf(plan.m) and math.isinf(plan.total_qfi)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("normalized", [False, True], ids=["bare", "normalized"])
@pytest.mark.parametrize("family", [FAMILY_IDLER_FREE, FAMILY_TMSV, FAMILY_COHERENT])
def test_optimize_bandwidth_overflow_is_not_divergent(family, normalized):
    # without a background no shadow term diverges; a huge finite budget
    # only overflows its total
    for eta in (0.5, 0.9999):
        plan = optimize_bandwidth(1e306, ChannelParams(eta, 0.0, normalized), family)
        assert plan.divergent is False
    grid = optimize_bandwidth(np.array([1.0, 1e306]),
                              ChannelParams(np.array([[0.5], [0.9999]]), 0.0, normalized),
                              family)
    np.testing.assert_array_equal(grid.divergent, np.zeros((2, 2), dtype=bool))


@pytest.mark.parametrize("call", [
    lambda p: qfi_if_closed(1e306, 1e306, p),
    lambda p: qfi_tmsv(1e306, p),
    lambda p: qfi_two_mode_closed(TwoModeProbe(1e306, 0.5, 1.0), p),
    lambda p: tmsv_stationarity_check(1e306, p),
    lambda p: f1(p.eta, 1e306),
    lambda p: optimize_xi(1e306, p),
    lambda p: total_qfi(1e306, 1.0, p, FAMILY_TMSV),
    # the copies' total overflows, each copy's QFI does not
    lambda p: total_qfi(1e305, 1e152, p, FAMILY_TMSV),
    lambda p: optimize_bandwidth(1e306, p, FAMILY_TMSV),
    # a huge bath enters g2 and homodyne_fisher as a numpy float too
    lambda p: g2(p.eta, 1e200),
    lambda p: homodyne_fisher(1.0, 0.5, replace(p, n_b=1e200)),
    # gamma t = 1, but t^2 passes the double range
    lambda p: qfi_gamma(1e-200, 1e200, vacuum(), replace(p, n_b=1.0)),
], ids=["qfi_if_closed", "qfi_tmsv", "qfi_two_mode_closed",
        "tmsv_stationarity_check", "f1", "optimize_xi", "total_qfi",
        "total_qfi-copies", "optimize_bandwidth", "g2", "homodyne_fisher",
        "qfi_gamma"])
def test_scalar_overflow_signals(call):
    # a scalar photon number enters the closed forms as a numpy float, so its
    # overflow signals as on arrays; on Python floats a product overflows to
    # inf silently, so a single-point search step must not use them
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        call(ChannelParams(0.9999, 0.0))


def test_g2_out_of_double_range_raises_without_a_warning():
    # A0 and B^2 overflow past N_B ~ 1e154: g2 raises, with no warning and no
    # nan or inf returned
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="overflow"):
            g2(0.5, 1e200)


def test_stationarity_check_huge_bath_raises_without_a_warning():
    # N_B enters the closed form as a numpy float under the check's own
    # errstate; as a Python float, nb ** 2 raised a bare OverflowError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="overflow"):
            tmsv_stationarity_check(1.0, ChannelParams(0.5, 1e200))


def test_qfi_gamma_prefactor_overflow_raises_without_a_warning():
    # the prefactor t^2/4 is evaluated on a numpy float under its own
    # errstate, not on Python floats, which raise a bare OverflowError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="overflow"):
            qfi_gamma(1e-200, 1e200, vacuum(), ChannelParams(0.5, 1.0))


@pytest.mark.parametrize("n_b", [1e-30, 1e-160, 1e-200, 2.2250738585072014e-308])
def test_g2_tiny_bath_is_the_limit(n_b):
    # N_B cancels from both terms before any rounding, so a tiny bath gives
    # the N_B -> 0 limit eta^4/(1 - eta^2), 1/12 at eta = 0.5; the literal
    # form rounded its first term to 0 and returned -1/12 down to ~1e-154,
    # then raised
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert g2(0.5, n_b) == pytest.approx(1.0 / 12.0, rel=1e-15, abs=0)


def test_optimize_bandwidth_normalized_tmsv_prefers_broadband():
    plan = optimize_bandwidth(1.0, ChannelParams(0.5, 1.0, normalized=True),
                              FAMILY_TMSV)
    assert math.isinf(plan.m)
    assert plan.total_qfi == pytest.approx(4.0 / 1.75, rel=1e-12)


def test_total_qfi_coherent_is_idler_free_at_xi_zero():
    for p in (ChannelParams(0.6, 0.0), ChannelParams(0.6, 1.0),
              ChannelParams(0.6, 1e-3, normalized=True)):
        for m in (1.0, 3.0, 1e6, math.inf):
            assert total_qfi(10.0, m, p, FAMILY_COHERENT) == \
                total_qfi(10.0, m, p, FAMILY_IDLER_FREE, xi=0.0)


def test_optimize_bandwidth_normalized_idler_free_edges():
    # broadband idler-free slopes in the normalized model: 4 T/(2N_B+1) at the
    # coherent edge, 4 T 2 eta^2/(2N_B(N_B+1)+1) at the squeezed edge
    def slopes(eta, nb):
        return 1.0 / (2 * nb + 1), 2 * eta ** 2 / (2 * nb * (nb + 1) + 1)

    # squeezed edge wins broadband, and beats the single shot
    total, eta, nb = 0.1, 0.9, 0.5
    coh, sq = slopes(eta, nb)
    assert sq > coh
    plan = optimize_bandwidth(total, ChannelParams(eta, nb, normalized=True))
    assert math.isinf(plan.m) and plan.xi_opt == 1.0 and not plan.divergent
    assert plan.total_qfi == pytest.approx(4 * total * sq, rel=1e-14)

    # coherent edge wins broadband; its total is M-independent, so the
    # xi-optimized single shot matches or beats it
    total, eta, nb = 1.0, 0.5, 1.0
    p = ChannelParams(eta, nb, normalized=True)
    coh, sq = slopes(eta, nb)
    assert coh > sq
    assert total_qfi(total, math.inf, p, FAMILY_IDLER_FREE, xi=0.0) == \
        pytest.approx(4 * total * coh, rel=1e-15)
    plan = optimize_bandwidth(total, p)
    assert plan.m == 1.0 and not plan.divergent
    assert plan.total_qfi == optimize_xi(total, p).qfi_opt
    assert plan.total_qfi >= 4 * total * coh


@pytest.mark.parametrize("p", [ChannelParams(0.5, 0.0), ChannelParams(0.5, 1.0),
                               ChannelParams(0.5, 1.0, normalized=True)])
def test_unknown_family_rejected_in_every_model(p):
    with pytest.raises(ValueError, match="unknown probe family"):
        optimize_bandwidth(1.0, p, "bogus")
    for m in (1.0, math.inf):
        with pytest.raises(ValueError, match="unknown probe family"):
            total_qfi(1.0, m, p, "bogus")
    with pytest.raises(ValueError, match="unknown probe family 'bogus'"):
        advantage_ratio("bogus", FAMILY_COHERENT, p, 1.0)


P_BARE = ChannelParams(0.5, 1.0)
P_NORM = ChannelParams(0.5, 1.0, normalized=True)


@pytest.mark.parametrize("x", [math.nan, math.inf])
@pytest.mark.parametrize("call", [
    lambda x: optimize_xi(x, P_BARE),
    lambda x: total_qfi(x, 1.0, P_BARE),
    lambda x: total_qfi(1.0, -x, P_NORM),  # m = inf is the broadband limit
    lambda x: total_qfi(1.0, math.inf, P_NORM, FAMILY_IDLER_FREE, xi=x),
    lambda x: optimize_bandwidth(x, P_NORM),
    lambda x: tmsv_stationarity_check(x, P_BARE),
    lambda x: homodyne_fisher(x, 1.0, P_BARE),
    lambda x: qfi_if_closed(x, 0.0, P_BARE),
    lambda x: qfi_if_closed(0.0, x, P_BARE),
    lambda x: optimize_xi(np.array([1.0, x]), P_BARE),
    lambda x: total_qfi(np.array([1.0, x]), 1.0, P_BARE),
    lambda x: optimize_bandwidth(np.array([1.0, x]), P_NORM),
    lambda x: qfi_tmsv(np.array([1.0, x]), P_BARE),
    lambda x: qfi_if_closed(np.array([1.0, x]), 0.0, P_BARE),
], ids=["optimize_xi", "total_qfi_photons", "total_qfi_m", "total_qfi_xi",
        "optimize_bandwidth", "tmsv_stationarity_check", "homodyne_fisher",
        "qfi_if_closed_coh", "qfi_if_closed_sq", "optimize_xi_array",
        "total_qfi_array", "optimize_bandwidth_array", "qfi_tmsv_array",
        "qfi_if_closed_array"])
def test_library_boundary_rejects_non_finite(call, x):
    with pytest.raises(ValueError):
        call(x)


def test_total_qfi_rejects_xi_outside_unit_interval():
    # the broadband closed form would extrapolate, to a negative QFI at 1.5
    for m in (1.0, math.inf):
        for xi in (-0.5, 1.5):
            with pytest.raises(ValueError):
                total_qfi(1.0, m, P_NORM, FAMILY_IDLER_FREE, xi=xi)


def test_normalized_total_bound():
    # no normalized total QFI exceeds 4 T / (N_B + 1 - eta^2)
    for eta in (0.1, 0.5, 0.9):
        for nb in (0.5, 1.0, 10.0):
            p = ChannelParams(eta, nb, normalized=True)
            cap = 4.0 / (nb + 1 - eta ** 2) + 1e-9
            for family in (FAMILY_COHERENT, FAMILY_TMSV):
                for m in (1.0, 7.0, 1e3, math.inf):
                    assert total_qfi(1.0, m, p, family) <= cap
            for xi in (0.0, 0.5, 1.0):
                for m in (1.0, 7.0, math.inf):
                    assert total_qfi(1.0, m, p, FAMILY_IDLER_FREE, xi=xi) <= cap


# ---------------------------------------------------------------------------
# quantum advantage
# ---------------------------------------------------------------------------

def test_advantage_trivial_and_closed_form():
    p = ChannelParams(0.5, 0.0)
    assert advantage_ratio(FAMILY_COHERENT, FAMILY_COHERENT, p, 1.0) == 1.0
    # TMSV 4/(1-e) over coherent 4 N_S
    assert advantage_ratio(FAMILY_TMSV, FAMILY_COHERENT, p, 1.0) == \
        pytest.approx((4 / 0.75) / 4.0, rel=1e-12)


def test_advantage_low_transmission_expansion():
    # shadow-free comparison: ratio -> 1 + 1/(2 N_S + 1 + (N_S+1)/N_B)
    p = ChannelParams(0.01, 1000.0, normalized=True)
    expected = 1 + 1 / (0.02 + 1 + 1.01 / 1000)
    assert advantage_ratio(FAMILY_TMSV, FAMILY_COHERENT, p, 0.01) == \
        pytest.approx(expected, rel=0.02)


def test_advantage_vanishes_at_zero_temperature_low_transmission():
    p = ChannelParams(1e-4, 0.0)
    assert advantage_ratio(FAMILY_TMSV, FAMILY_COHERENT, p, 1.0) == \
        pytest.approx(1.0, abs=1e-6)


def test_advantage_division_by_zero_flagged():
    # squeezed vacuum has zero QFI at eta = 0 in the bare thermal channel
    with pytest.raises(ZeroDivisionError):
        advantage_ratio(FAMILY_COHERENT, "squeezed_vacuum",
                        ChannelParams(0.0, 10.0), 1.0)
    with pytest.raises(ZeroDivisionError):
        advantage_ratio(FAMILY_COHERENT, "squeezed_vacuum",
                        ChannelParams(0.0, 10.0), np.array([1.0, 2.0]))


# ---------------------------------------------------------------------------
# array calls: every element equals the scalar call, bit for bit
# ---------------------------------------------------------------------------

CHANNELS = [ChannelParams(0.5, 0.0), ChannelParams(0.9, 0.0),
            ChannelParams(0.6, 1.0), ChannelParams(0.95, 1.0),
            ChannelParams(0.99, 100.0), ChannelParams(0.6, 1.0, normalized=True),
            ChannelParams(0.95, 1.0, normalized=True), ChannelParams(0.6, 1e-3),
            ChannelParams(0.6, 0.5, normalized=True),
            ChannelParams(0.9, 1000.0, normalized=True)]
CHANNEL_IDS = ["nb0-below", "nb0-above", "bare", "bare-squeezed-scan",
               "bare-coherent-scan", "normalized", "normalized-squeezed-scan",
               "bare-weak", "normalized-weak", "normalized-strong"]
NS_WIDE = np.geomspace(1e-4, 1e3, 15)
# N_S across the f1 edge of the xi search at eta = 0.9, N_B = 0
NS_F1_EDGE = xi_threshold_nbar(0.9) * np.array([0.5, 0.999999, 1.0, 1.000001, 2.0])
# eta across 1/sqrt(2), where the N_B = 0 search turns its f1 rule on, and
# the transmissions of the scan branches above
ETAS = np.array([0.05, 0.5, np.nextafter(SQRT_HALF, 0.0), SQRT_HALF,
                 np.nextafter(SQRT_HALF, 1.0), 0.9, 0.95, 0.99])


def eta_grid(p, etas=ETAS):
    """`p` with an array of transmissions instead of its scalar eta."""
    return replace(p, eta=np.asarray(etas))


def assert_columns_equal(grid, p, etas, call):
    # column j of the array-eta `grid` equals `call` at the scalar etas[j]
    assert grid.shape[-1] == len(etas)
    for j, eta in enumerate(etas):
        np.testing.assert_array_equal(grid[..., j], call(replace(p, eta=float(eta))))


def golden_python(f, lo, hi, tol):
    # one bracket's golden-section search in Python floats: its midpoint and
    # the number of points it evaluates (none if it starts within tol)
    if not hi - lo > tol:
        return 0.5 * (lo + hi), 0
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - golden * (hi - lo), lo + golden * (hi - lo)
    f_1, f_2 = f(x1), f(x2)
    count = 2
    while hi - lo > tol:
        if f_1 < f_2:
            lo, x1, f_1 = x1, x2, f_2
            x2 = lo + golden * (hi - lo)
            f_2 = f(x2)
        else:
            hi, x2, f_2 = x2, x1, f_1
            x1 = hi - golden * (hi - lo)
            f_1 = f(x1)
        count += 1
    return 0.5 * (lo + hi), count


def reference_optimize_xi(n_s, p, xi_tol=1e-8):
    # the per-point search in Python floats: f1 edge rule, 64-point scan with
    # its first maximum, golden section, edge comparisons
    def value(xi):
        return qfi_if_closed((1.0 - xi) * n_s, xi * n_s, p).total

    if p.n_b == 0.0 and p.eta > SQRT_HALF and f1_python(p.eta, n_s) >= 0.0:
        return 1.0, value(1.0), BOUNDARY_SQUEEZED
    if p.n_b == 0.0:
        lo, hi = 0.0, 1.0
    else:
        grid = np.linspace(0.0, 1.0, 64)
        best = int(np.argmax([value(x) for x in grid]))
        lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, 63)]
    xi_star, _ = golden_python(value, float(lo), float(hi), xi_tol)
    q_star, q_coh, q_sq = value(xi_star), value(0.0), value(1.0)
    if q_coh >= q_star and q_coh >= q_sq:
        return 0.0, q_coh, BOUNDARY_COHERENT
    if q_sq >= q_star:
        return 1.0, q_sq, BOUNDARY_SQUEEZED
    return float(xi_star), float(q_star), "interior"


def scan_argmax(n_s, p):
    return int(np.argmax([if_qfi(n_s, x, p) for x in np.linspace(0.0, 1.0, 64)]))


def test_exactness_cases_reach_every_branch():
    # the cases below cross the f1 edge and put the scan maximum at both ends
    assert [optimize_xi(n, ChannelParams(0.9, 0.0)).boundary
            for n in NS_F1_EDGE[[1, 3]]] == [BOUNDARY_SQUEEZED, "interior"]
    maxima = {scan_argmax(n, p) for p in CHANNELS if p.n_b > 0 for n in NS_WIDE}
    assert {0, 63} <= maxima


@pytest.mark.parametrize("p", CHANNELS, ids=CHANNEL_IDS)
def test_optimize_xi_array_equals_scalar_calls(p):
    n_s = np.concatenate([NS_WIDE, NS_F1_EDGE])
    res = optimize_xi(n_s, p)
    scalar = [astuple(optimize_xi(float(n), p)) for n in n_s]
    assert scalar == [reference_optimize_xi(float(n), p) for n in n_s]
    for k, field in enumerate(astuple(res)):
        np.testing.assert_array_equal(field, [r[k] for r in scalar])
    assert optimize_xi(n_s.reshape(4, 5), p).boundary.shape == (4, 5)

    # one lockstep over the (N_S, eta) grid: each column equals the call at
    # its scalar eta, and each point the per-point reference search
    etas = np.append(ETAS, p.eta)
    grid = optimize_xi(n_s[:, None], eta_grid(p, etas))
    for k, field in enumerate(astuple(grid)):
        assert field.shape == (len(n_s), len(etas))
        assert_columns_equal(field, p, etas,
                             lambda q: astuple(optimize_xi(n_s, q))[k])
    reference = [[reference_optimize_xi(float(n), replace(p, eta=float(e)))
                  for e in etas] for n in n_s]
    for k, field in enumerate(astuple(grid)):
        np.testing.assert_array_equal(field, [[r[k] for r in row] for row in reference])

    # the scan keeps the broadcast shape of its inputs: every other shape
    # gives the grid's per-point values, in its own layout
    rolled = np.stack([np.roll(n_s, j) for j in range(len(etas))], axis=1)
    shapes = [  # (n_s, eta, the grid field -> the expected field)
        (n_s, etas[:, None], lambda f: f.T),
        (rolled, etas, lambda f: np.stack([np.roll(f[:, j], j)
                                           for j in range(len(etas))], axis=1)),
        (n_s.reshape(4, 5, 1), etas, lambda f: f.reshape(4, 5, len(etas))),
        *((float(n), etas, lambda f, i=i: f[i]) for i, n in enumerate(n_s)),
    ]
    for n, e, layout in shapes:
        res = optimize_xi(n, eta_grid(p, e))
        for field, want in zip(astuple(res), astuple(grid)):
            np.testing.assert_array_equal(field, layout(want), strict=True)


def test_golden_max_steps_only_live_brackets():
    # brackets of the scan's widths (1/63, 2/63), the N_B = 0 search's [0, 1]
    # and two already within tol, in one lockstep: every midpoint has the bits
    # of its own Python-float search, and the landscape evaluates each bracket
    # as often as that search does, so a frozen bracket is never evaluated
    tol = 1e-8
    lo = np.array([0.0, 20 / 63, 40 / 63, 0.0, 0.3, 0.5])
    hi = np.array([1.0, 21 / 63, 42 / 63, 1.0, 0.3 + 0.5 * tol, 0.5])
    peaks = np.array([0.3, 0.2, 0.65, 1.5, 0.3, 0.1])
    evaluated = []

    def landscape(live):
        def f(x):
            assert x.shape[-1] == live.size
            evaluated.append(x.size)
            return -(x - peaks[live]) * (x - peaks[live])
        return f

    reference = [golden_python(lambda x, t=t: -(x - t) * (x - t), a, b, tol)
                 for a, b, t in zip(lo.tolist(), hi.tolist(), peaks.tolist())]
    np.testing.assert_array_equal(_golden_max(landscape, lo, hi, tol),
                                  [mid for mid, _ in reference])
    assert sum(evaluated) == sum(count for _, count in reference)
    assert [count for _, count in reference][-2:] == [0, 0]
    assert len({count for _, count in reference}) == 4

    # an empty live set returns at once
    evaluated.clear()
    np.testing.assert_array_equal(_golden_max(landscape, lo[4:], hi[4:], tol),
                                  0.5 * (lo[4:] + hi[4:]))
    assert sum(evaluated) == 0


def test_optimize_xi_without_search_points():
    # N_B = 0 and every point below the f1 threshold: all take the squeezed
    # edge, and the golden-section search gets no bracket at all
    res = optimize_xi(np.array([[1e-3], [1e-2]]), ChannelParams([0.95, 0.99], 0.0))
    assert (res.boundary == BOUNDARY_SQUEEZED).all()
    np.testing.assert_array_equal(res.xi_opt, np.ones((2, 2)))


@pytest.mark.parametrize("p", CHANNELS, ids=CHANNEL_IDS)
def test_closed_forms_array_equal_scalar_calls(p):
    parts = qfi_if_closed(NS_WIDE[:, None], NS_F1_EDGE[None, :], p)
    assert parts.total.shape == (15, 5)
    scalar = [[astuple(qfi_if_closed(float(a), float(b), p))[:4] for b in NS_F1_EDGE]
              for a in NS_WIDE]
    for k, field in enumerate(astuple(parts)[:4]):
        # each term broadcasts over the photon numbers it depends on
        np.testing.assert_array_equal(np.broadcast_to(field, (15, 5)),
                                      [[row[k] for row in line] for line in scalar])
    for fn in (qfi_tmsv, qfi_coherent, qfi_squeezed_vacuum):
        np.testing.assert_array_equal(fn(NS_WIDE, p), [fn(float(n), p) for n in NS_WIDE])
    np.testing.assert_array_equal(
        advantage_ratio(FAMILY_TMSV, FAMILY_COHERENT, p, NS_WIDE),
        [advantage_ratio(FAMILY_TMSV, FAMILY_COHERENT, p, float(n)) for n in NS_WIDE])

    # an array eta on a third axis: each column equals its scalar-eta call
    etas = np.concatenate([ETAS, POW_ETAS])
    parts = qfi_if_closed(NS_WIDE[:, None, None], NS_F1_EDGE[None, :, None],
                          eta_grid(p, etas))
    for k, field in enumerate(astuple(parts)[:4]):
        assert_columns_equal(np.broadcast_to(field, (15, 5, len(etas))), p, etas,
                             lambda q: np.broadcast_to(astuple(qfi_if_closed(
                                 NS_WIDE[:, None], NS_F1_EDGE[None, :], q))[k], (15, 5)))
    for fn in (qfi_tmsv, qfi_coherent, qfi_squeezed_vacuum,
               lambda n, q: advantage_ratio(FAMILY_TMSV, FAMILY_COHERENT, q, n)):
        assert_columns_equal(fn(NS_WIDE[:, None], eta_grid(p, etas)), p, etas,
                             lambda q: fn(NS_WIDE, q))


@pytest.mark.parametrize("p", CHANNELS, ids=CHANNEL_IDS)
def test_total_qfi_and_bandwidth_arrays_equal_scalar_calls(p):
    totals = np.concatenate([NS_WIDE, NS_F1_EDGE])
    etas = np.concatenate([ETAS, POW_ETAS])
    for family in (FAMILY_IDLER_FREE, FAMILY_TMSV, FAMILY_COHERENT):
        for m in (1.0, 3.0, math.inf):
            for xi in (0.0, 0.3, 1.0):
                np.testing.assert_array_equal(
                    total_qfi(totals, m, p, family, xi),
                    [total_qfi(float(t), m, p, family, xi) for t in totals])
                assert_columns_equal(
                    total_qfi(totals[:, None], m, eta_grid(p, etas), family, xi),
                    p, etas, lambda q: total_qfi(totals, m, q, family, xi))
        plan = optimize_bandwidth(totals, p, family)
        scalar = [optimize_bandwidth(float(t), p, family) for t in totals]
        for field in ("total_photons", "m", "total_qfi", "divergent"):
            np.testing.assert_array_equal(getattr(plan, field),
                                          [getattr(s, field) for s in scalar])
        if plan.xi_opt is None:
            assert all(s.xi_opt is None for s in scalar)
        else:
            np.testing.assert_array_equal(
                plan.xi_opt, [math.nan if s.xi_opt is None else s.xi_opt
                              for s in scalar])
        # an (N_S total, eta) grid plans every column as its scalar eta does
        grid = optimize_bandwidth(totals[:, None], eta_grid(p), family)
        for field in ("total_photons", "m", "total_qfi", "divergent", "xi_opt"):
            if getattr(grid, field) is not None:  # a TMSV plan has no xi
                assert_columns_equal(
                    getattr(grid, field), p, ETAS,
                    lambda q: getattr(optimize_bandwidth(totals, q, family), field))


def test_scalar_arguments_give_python_floats():
    p = ChannelParams(0.6, 1.0)
    values = [qfi_if_closed(1.0, 0.5, p).total, qfi_if_closed(1.0, 0.5, p).term_shadow,
              qfi_tmsv(1.0, p), qfi_coherent(1.0, p), total_qfi(1.0, 2.0, p),
              total_qfi(1.0, math.inf, ChannelParams(0.6, 1.0, normalized=True)),
              total_qfi(1.0, math.inf, p), f1(0.9, 1.0),
              advantage_ratio(FAMILY_TMSV, FAMILY_COHERENT, p, 1.0),
              *astuple(optimize_xi(1.0, p))[:2]]
    plan = optimize_bandwidth(1.0, ChannelParams(0.6, 0.0))
    values += [plan.total_photons, plan.m, plan.total_qfi, plan.xi_opt]
    assert all(type(v) is float for v in values)
    assert type(optimize_xi(1.0, p).boundary) is str
    assert type(plan.divergent) is bool


def test_array_photon_numbers_must_be_positive():
    for call in (lambda n: optimize_xi(n, P_BARE), lambda n: total_qfi(n, 1.0, P_BARE)):
        with pytest.raises(ValueError):
            call(np.array([1.0, 0.0]))


# ---------------------------------------------------------------------------
# the plan layer, pinned: SHA-256 of every outcome on a fixed grid
# ---------------------------------------------------------------------------

PIN_ETAS = np.concatenate([np.linspace(0.05, 0.95, 19), [0.99, 0.9999, 1.0 - 2e-7]])
PIN_TOTALS = np.geomspace(1e-3, 1e3, 13)
PIN_CALLS = {
    "plan": [lambda t, p, family=family: optimize_bandwidth(t, p, family)
             for family in (FAMILY_IDLER_FREE, FAMILY_TMSV, FAMILY_COHERENT)],
    "total": [lambda t, p, m=m, family=family, xi=xi: total_qfi(t, m, p, family, xi)
              for family in (FAMILY_IDLER_FREE, FAMILY_TMSV, FAMILY_COHERENT)
              for m in (1.0, 3.0, math.inf) for xi in (0.0, 0.3, 1.0)],
    "ratio": [lambda t, p, pair=pair: advantage_ratio(*pair, p, t)
              for pair in ((FAMILY_TMSV, FAMILY_COHERENT),
                           (FAMILY_SQUEEZED, FAMILY_COHERENT))],
}


def outcome(call):
    """The shape and `float.hex` of every field of `call()`, or the type and
    message of the exception it raises."""
    try:
        result = call()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    fields = astuple(result) if is_dataclass(result) else (result,)
    return repr([x if x is None or isinstance(x, str) else
                 (np.shape(x), [float(v).hex() for v in np.ravel(x)])
                 for x in fields])


def pin_digest(kind, n_b, normalized):
    """Digest of every `kind` call on the (total, eta) grid: one scalar call
    per point, then one call on the whole (total, eta) array."""
    lines = []
    for call in PIN_CALLS[kind]:
        for eta in PIN_ETAS:
            for t in PIN_TOTALS:
                p = ChannelParams(float(eta), n_b, normalized)
                lines.append(outcome(lambda: call(float(t), p)))
        p = ChannelParams(PIN_ETAS[None, :], n_b, normalized)
        lines.append(outcome(lambda: call(PIN_TOTALS[:, None], p)))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# recorded before the plan layer was rewritten around the channel's
# shadow-effect predicate; every value must stay as it was
PLAN_DIGESTS = {
    ('plan', 0.0, False):
        "651139d2b83fbc4aa4e26a8406da2c2bc0aca74eca9aceb86e54646a195a201a",
    ('plan', 0.0, True):
        "651139d2b83fbc4aa4e26a8406da2c2bc0aca74eca9aceb86e54646a195a201a",
    ('plan', 0.001, False):
        "937886564783e3be099c8342a2a815894c82efd956ebf12f7e187b97c5a731c2",
    ('plan', 0.001, True):
        "8a26acad2fdeefe4eed77c7e486b0318e8e2808ccbaa69c579ab0bcdbb01d713",
    ('plan', 1.0, False):
        "937886564783e3be099c8342a2a815894c82efd956ebf12f7e187b97c5a731c2",
    ('plan', 1.0, True):
        "730fbdd7fd2baaa91c1801b64da7b74b6fc08f5665aa9fe00b86aa921f75b9e7",
    ('plan', 100.0, False):
        "937886564783e3be099c8342a2a815894c82efd956ebf12f7e187b97c5a731c2",
    ('plan', 100.0, True):
        "18d101f9447654423199ae5b7f1890e7997e99ca6bcc639d86cc90ea5b5302ea",
    ('total', 0.0, False):
        "77b5cf57ca8bdc5c7093b858fd4f1c733d15eb92697e8d41bc0b1e43e0dfbfef",
    ('total', 0.0, True):
        "77b5cf57ca8bdc5c7093b858fd4f1c733d15eb92697e8d41bc0b1e43e0dfbfef",
    ('total', 0.001, False):
        "dfd31171e2ae8f15255e98ef2ed1e3811c8577b2a6aed37aeb0e1bfc6446328b",
    ('total', 0.001, True):
        "8524cbac0049f370f038a646010e23e2200050f92fb81ffec4238d9c1dab2889",
    ('total', 1.0, False):
        "98a29262b4683add7c573f904dbd606d25db58aec8ea682506d8768b0508a673",
    ('total', 1.0, True):
        "2f9821c14eacae85507b35263d4c84dc983396ab91f1b761df0b83acb5cb459c",
    ('total', 100.0, False):
        "7dcddaa66226ebb1f1db8f21dcb81ff1d946625fd41009d0d245c1398688ab58",
    ('total', 100.0, True):
        "a573543f24749991fa3254d49bba696f11a32cc7072d72ffb5527baa74ef4512",
    ('ratio', 0.0, False):
        "4a19b0b7a7a27636b441dbb101b513d0e848466eb397eabbe4d9729a130d3cf3",
    ('ratio', 0.0, True):
        "4a19b0b7a7a27636b441dbb101b513d0e848466eb397eabbe4d9729a130d3cf3",
    ('ratio', 0.001, False):
        "f601ff4180015065eed5a26efec399eac2e9c999a378b4a33ef4322774c8a4d7",
    ('ratio', 0.001, True):
        "2f1865ad0c1a34f426861fcbafc5ee01a9182e22c61cac374f09c8c501f4bcfa",
    ('ratio', 1.0, False):
        "5bf024dcca1a65754cd08f221d09e6da4d7f3d04479e827ae35f32e08dae9ac7",
    ('ratio', 1.0, True):
        "ac9a66a011ec12cef513b9bf9602e35c7787e3a66d0ba76fac12d1ce5e0f4f79",
    ('ratio', 100.0, False):
        "b7c70b1a58eade08ea9a4014decc21d6d1c31513b116a24afcb3788d001a032e",
    ('ratio', 100.0, True):
        "7182377eee3b4422d26b29e8221b7a8c47d946fa3235f7748343e87040fda540",
}


@pytest.mark.parametrize("normalized", [False, True], ids=["bare", "normalized"])
@pytest.mark.parametrize("n_b", [0.0, 1e-3, 1.0, 100.0])
@pytest.mark.parametrize("kind", list(PIN_CALLS))
def test_plan_layer_is_pinned(kind, n_b, normalized):
    assert pin_digest(kind, n_b, normalized) == PLAN_DIGESTS[kind, n_b, normalized]
