"""Probe optimization, optimality thresholds and total-QFI bandwidth planning.

Covers the three optimization layers:

* single-mode squeezed fraction ``xi`` at fixed ``N_S`` (golden-section search,
  the zero-temperature landscape being concave in ``xi``),
* two-mode ``(zeta, r)`` exhaustive grid search (the two-mode squeezed vacuum
  ``(1, 1)`` wins everywhere),
* bandwidth ``M`` at fixed total power: splitting ``N_S_total`` over ``M``
  probes, where the optimum sits at ``M = 1`` or ``M -> infinity``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, moment_derivatives, output_moments
from .errors import SingularSystem
from .probes import two_mode_moments, two_mode_r_min
from .qfi import (_check_eta, _sld_qfi_batch, _two_mode_closed_raw, qfi_coherent,
                  qfi_if_closed, qfi_squeezed_vacuum, qfi_tmsv)

INV_SQRT2 = 1.0 / math.sqrt(2.0)
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

BOUNDARY_INTERIOR = "interior"
BOUNDARY_COHERENT = "coherent_edge"
BOUNDARY_SQUEEZED = "squeezed_edge"

FAMILY_IDLER_FREE = "idler_free"
FAMILY_TMSV = "tmsv"
FAMILY_COHERENT = "coherent"
FAMILY_SQUEEZED = "squeezed_vacuum"


@dataclass(frozen=True)
class XiOptResult:
    """Optimal squeezed fraction, its QFI, and which edge (if any) it sits on."""

    xi_opt: float
    qfi_opt: float
    boundary: str


@dataclass(frozen=True)
class BandwidthPlan:
    """Energy split over probe copies: `m` copies of `total_photons / m` each.

    ``m = math.inf`` denotes the broadband limit; `divergent` marks plans whose
    total QFI grows without bound (shadow term times an unbounded number of
    copies in the bare thermal channel).
    """

    total_photons: float
    m: float
    total_qfi: float
    probe_family: str
    divergent: bool = False
    xi_opt: float | None = None


# ---------------------------------------------------------------------------
# derivative diagnostics of the zero-temperature single-mode QFI
# ---------------------------------------------------------------------------

def f1(eta: float, n_s: float) -> float:
    """Edge slope (1/4N_S) d/dxi of the N_B=0 QFI at xi=1.

    Explicitly,

        f1 = [(1-e)^2 + e^2] / {(1-e) [1 + 2 N_S e (1-e)]^2}
             - 1 / [1 - 2 e (sqrt(N_S(N_S+1)) - N_S)]

    with ``e = eta^2``.  It is strictly decreasing in ``N_S``, tends to
    ``-1/(1-eta^2)`` as ``N_S -> infinity``, and its sign decides whether the
    squeezed vacuum sits at the optimum.
    """
    e2 = eta ** 2
    one = 1.0 - e2
    first = (one ** 2 + e2 ** 2) / (one * (1.0 + 2.0 * n_s * e2 * one) ** 2)
    second = 1.0 / (1.0 - 2.0 * e2 * (math.sqrt(n_s * (n_s + 1.0)) - n_s))
    return first - second


def g1(xi: float, n_s: float) -> float:
    """Low-transmission slope: 2(1-xi) sqrt(xi N_S (1+xi N_S)) - xi (1+2N_S)."""
    return 2.0 * (1.0 - xi) * math.sqrt(xi * n_s * (1.0 + xi * n_s)) \
        - xi * (1.0 + 2.0 * n_s)


def g2(eta: float, n_b: float) -> float:
    """Squeezing payoff coefficient of the low-power expansion at N_B > 0.

    Defined by ``I = I_shadow + 4 N_S [(1-xi)/(1+2N_B(1-eta^2)) + xi g2]``
    as ``N_S -> 0`` at fixed ``N_B > 0``, i.e. the exact squeezed-branch slope

        g2 = eta^2 (2N_B+1)/A0 [ (2N_B+1)/(2A0+1) - 1 ] - N_B^2 eta^2 A1/A0^2

    with ``A0 = (1-eta^2) N_B (N_B+1-N_B eta^2)`` and
    ``A1 = (1-eta^2) eta^2 (2N_B+1)``, obtained by linearizing the closed-form
    QFI in the squeezed photon number.  The optimal low-power probe flips
    abruptly from coherent to squeezed vacuum where ``g2`` crosses
    ``1/[1+2N_B(1-eta^2)]``; for large ``N_B`` the flip sits close to
    ``eta = 1 - 3/(2 N_B)`` on an eta scale.
    """
    if n_b <= 0:
        raise ValueError("g2 is defined for the N_S << N_B regime; need n_b > 0")
    e2 = eta ** 2
    one = 1.0 - e2
    a0 = one * n_b * (n_b + 1.0 - n_b * e2)
    a1 = one * e2 * (2.0 * n_b + 1.0)
    first = e2 * (2.0 * n_b + 1.0) / a0 * ((2.0 * n_b + 1.0) / (2.0 * a0 + 1.0) - 1.0)
    second = -n_b ** 2 * e2 * a1 / a0 ** 2
    return first + second


def xi_threshold_nbar(eta: float) -> float:
    """Largest N_S for which the squeezed vacuum is the optimal probe (N_B=0).

    Zero for ``eta <= 1/sqrt(2)``; otherwise the unique root of
    ``f1(eta, .)``, found by bisection (f1 is monotone in N_S).
    """
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must lie in (0, 1)")
    if eta <= INV_SQRT2:
        return 0.0
    lo = 0.0
    hi = 1e-6
    while f1(eta, hi) > 0.0:
        hi *= 2.0
        if hi > 1e30:  # unreachable: f1 -> -1/(1-eta^2) < 0
            raise ArithmeticError("no sign change found for f1")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f1(eta, mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * hi:
            break
    return 0.5 * (lo + hi)


def threshold_constant_large_ns() -> float:
    """Root of c^3 = 128 + 64 c, the constant in eta_bar = 1 - 1/(c N_S).

    Found by bisection; approximately 8.857.
    """
    lo, hi = 1.0, 100.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid ** 3 - 64.0 * mid - 128.0 < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# single-mode optimization
# ---------------------------------------------------------------------------

def _golden_max(f, lo: float, hi: float, tol: float = 1e-8) -> float:
    x1 = hi - GOLDEN * (hi - lo)
    x2 = lo + GOLDEN * (hi - lo)
    f1_, f2_ = f(x1), f(x2)
    while hi - lo > tol:
        if f1_ < f2_:
            lo, x1, f1_ = x1, x2, f2_
            x2 = lo + GOLDEN * (hi - lo)
            f2_ = f(x2)
        else:
            hi, x2, f2_ = x2, x1, f1_
            x1 = hi - GOLDEN * (hi - lo)
            f1_ = f(x1)
    return 0.5 * (lo + hi)


def optimize_xi(n_s: float, p: ChannelParams, xi_tol: float = 1e-8) -> XiOptResult:
    """Maximize the idler-free QFI over the squeezed fraction xi in [0, 1].

    At ``N_B = 0`` the landscape is concave and the xi = 1 edge case is
    decided exactly by the sign of :func:`f1`; otherwise a 64-point scan
    brackets the maximum before the golden-section refinement (the low-power
    thermal landscape switches abruptly between the two edges).
    """
    if not 0.0 < n_s < math.inf:
        raise ValueError(f"n_s must be finite and positive, got {n_s}")
    _check_eta(p)

    def value(xi):
        return qfi_if_closed((1.0 - xi) * n_s, xi * n_s, p).total

    if p.n_b == 0.0 and p.eta > INV_SQRT2 and f1(p.eta, n_s) >= 0.0:
        return XiOptResult(1.0, value(1.0), BOUNDARY_SQUEEZED)

    if p.n_b == 0.0:
        lo, hi = 0.0, 1.0
    else:
        grid = np.linspace(0.0, 1.0, 64)
        vals = [value(x) for x in grid]
        best = int(np.argmax(vals))
        lo = grid[max(best - 1, 0)]
        hi = grid[min(best + 1, 63)]
    xi_star = _golden_max(value, lo, hi, xi_tol)
    q_star = value(xi_star)

    q_coh, q_sq = value(0.0), value(1.0)
    if q_coh >= q_star and q_coh >= q_sq:
        return XiOptResult(0.0, q_coh, BOUNDARY_COHERENT)
    if q_sq >= q_star:
        return XiOptResult(1.0, q_sq, BOUNDARY_SQUEEZED)
    return XiOptResult(float(xi_star), float(q_star), BOUNDARY_INTERIOR)


# ---------------------------------------------------------------------------
# two-mode optimization
# ---------------------------------------------------------------------------

def _two_mode_grid_qfi(n_s: float, zetas: np.ndarray, r_grid: np.ndarray,
                       p: ChannelParams) -> np.ndarray:
    """QFI on a (zeta, r) grid, vectorized over grid points.

    `r_grid` has shape (len(zetas), n_r), one row of r values per zeta.  The
    canonical probe moments, then the channel output and its eta-derivative,
    go through one batched SLD kernel call, singular points (a pure idler at
    r_min) included.  The SLD route is primary: the closed form loses up to
    ~4 digits to cancellation at small eta with bright backgrounds, enough to
    corrupt an argmax over a nearly flat landscape.  Points whose SLD residual
    stays above tolerance (bright probes at eta -> 1, where the closed form is
    well-behaved) fall back to the closed form, in one array call, provided
    its cancellation estimate stays below 1e-9.  Raises `EtaTooClose` inside
    the eta guard band.
    """
    _check_eta(p)
    zz = np.repeat(zetas, r_grid.shape[1])
    rr = r_grid.reshape(-1)
    d, sigma = two_mode_moments(n_s, zz, rr)
    _, st = output_moments(d, sigma, p)
    ddt, dst = moment_derivatives(d, sigma, p)

    values, bad = _sld_qfi_batch(st, dst, ddt, raise_on_bad=False)
    if np.any(bad):
        if p.normalized:
            raise SingularSystem("SLD solve ill-conditioned and no closed-form "
                                 "fallback exists for the normalized model")
        val = _two_mode_closed_raw(n_s, zz[bad], rr[bad], 0.0, p.eta, p.n_b)
        # leading-term cancellation estimate of the closed form; the output
        # idler block is a * I
        lead = (4.0 * st[bad, 2, 2] ** 2 + 1.0) / p.eta ** 2 \
            + 2.0 * p.eta ** 2 / (1.0 - p.eta ** 2) ** 2
        if np.any(~np.isfinite(val) | (np.abs(val) < 1e-15 * lead * 1e7)):
            raise SingularSystem("no well-conditioned QFI route at this grid point")
        values[bad] = val
    return values.reshape(len(zetas), -1)


def two_mode_grid(n_s: float, p: ChannelParams, grid=(64, 64)):
    """QFI over the exhaustive (zeta, r) search grid.

    Uses a linear zeta grid on [0, 1] and, for each zeta, a logarithmic r grid
    on [r_min(zeta), 1].  Returns ``(zetas, r_grid, qfi)``, with `r_grid` and
    `qfi` of shape ``grid``, one row per zeta.
    """
    n_zeta, n_r = grid
    if n_zeta < 32 or n_r < 32:
        raise ValueError("grid must be at least 32x32")
    if not 0.0 <= n_s < math.inf:
        raise ValueError(f"n_s must be finite and non-negative, got {n_s}")
    zetas = np.linspace(0.0, 1.0, n_zeta)
    r_grid = np.stack([np.geomspace(two_mode_r_min(n_s, z), 1.0, n_r)
                       for z in zetas])
    return zetas, r_grid, _two_mode_grid_qfi(n_s, zetas, r_grid, p)


def grid_argmax(zetas: np.ndarray, r_grid: np.ndarray, qfi: np.ndarray):
    """``(zeta, r, qfi)`` at the maximum of a (zeta, r) QFI grid.

    Ties go to the last maximum in row-major order: larger zeta, then larger
    r.  NaN entries never win; an all-NaN grid gives ``(0.0, 0.0, -inf)``.
    """
    flat = qfi.reshape(-1)
    hits = np.flatnonzero(flat == np.max(flat, initial=-math.inf,
                                         where=~np.isnan(flat)))
    if hits.size == 0:
        return 0.0, 0.0, -math.inf
    iz, ir = np.unravel_index(hits[-1], qfi.shape)
    return zetas[iz], r_grid[iz, ir], qfi[iz, ir]


def optimize_two_mode(n_s: float, p: ChannelParams, grid=(64, 64)):
    """Exhaustive (zeta, r) search for the optimal two-mode probe.

    Searches the grid of :func:`two_mode_grid`; ties are broken toward larger
    zeta, then larger r.  Returns ``(zeta_opt, r_opt, qfi_opt)``; the maximum
    lands on the TMSV corner (1, 1) for every parameter set we know of.
    """
    return grid_argmax(*two_mode_grid(n_s, p, grid))


def tmsv_stationarity_check(n_s: float, p: ChannelParams, step: float = 1e-5):
    """Central finite differences of the two-mode QFI at the TMSV corner (1, 1).

    Returns ``(d_r, d2_r, d_zeta)``; stationarity of the maximum demands
    d_r ~ 0, d2_r < 0, and d_zeta > 0 (the zeta = 1 edge is approached from
    inside).  The closed form extends smoothly past r = 1 and zeta = 1, which
    the centred stencils exploit.
    """
    if not 0.0 < n_s < math.inf:
        raise ValueError(f"n_s must be finite and positive, got {n_s}")
    if p.normalized and p.n_b > 0:
        raise ValueError("stationarity check uses the bare-channel closed form")
    _check_eta(p)

    def value(zeta, r):
        return _two_mode_closed_raw(n_s, zeta, r, 0.0, p.eta, p.n_b)

    q0 = value(1.0, 1.0)
    d_r = (value(1.0, 1.0 + step) - value(1.0, 1.0 - step)) / (2.0 * step)
    d2_r = (value(1.0, 1.0 + step) - 2.0 * q0 + value(1.0, 1.0 - step)) / step ** 2
    d_zeta = (value(1.0 + step, 1.0) - value(1.0 - step, 1.0)) / (2.0 * step)
    return float(d_r), float(d2_r), float(d_zeta)


# ---------------------------------------------------------------------------
# total QFI at fixed total power
# ---------------------------------------------------------------------------

def _broadband_limit(total_photons, p, family, xi):
    """``lim M->inf M I(total / M)`` for the TMSV or the idler-free family."""
    if p.n_b > 0.0 and not p.normalized:
        # shadow effect: every copy adds the power-independent vacuum term
        return math.inf
    e2 = p.eta ** 2
    if family == FAMILY_TMSV:
        return 4.0 * total_photons / (p.n_b + 1.0 - e2)
    one = 1.0 - e2
    if p.n_b == 0.0:
        return 4.0 * total_photons * ((1.0 - xi) + xi * (one ** 2 + e2 ** 2) / one)
    nb = p.n_b
    return 4.0 * total_photons * ((1.0 - xi) / (2.0 * nb + 1.0)
                                  + 2.0 * xi * e2 / (2.0 * nb * (nb + 1.0) + 1.0))


def total_qfi(total_photons: float, m: float, p: ChannelParams,
              family: str = FAMILY_IDLER_FREE, xi: float = 0.0) -> float:
    """Total QFI ``M I(N_S = total / M)`` for a probe family and bandwidth M.

    `xi` in [0, 1] is the squeezed fraction of the idler-free family; the
    coherent family is the idler-free one at ``xi = 0``, for every M.
    ``m = math.inf`` evaluates the closed-form broadband limits; in the bare
    thermal channel (``N_B > 0``, unnormalized) that limit diverges because
    every extra copy contributes the power-independent shadow term, and
    ``math.inf`` is returned.
    """
    if family not in (FAMILY_IDLER_FREE, FAMILY_TMSV, FAMILY_COHERENT):
        raise ValueError(f"unknown probe family {family!r}")
    if not 0.0 < total_photons < math.inf:
        raise ValueError("total_photons must be finite and positive, "
                         f"got {total_photons}")
    if not m >= 1:
        raise ValueError("m must be at least 1")
    if not 0.0 <= xi <= 1.0:
        raise ValueError("xi must lie in [0, 1]")
    if family == FAMILY_COHERENT:
        family, xi = FAMILY_IDLER_FREE, 0.0
    if math.isinf(m):
        return _broadband_limit(total_photons, p, family, xi)
    n_s = total_photons / m
    if family == FAMILY_TMSV:
        return m * qfi_tmsv(n_s, p)
    return m * qfi_if_closed((1.0 - xi) * n_s, xi * n_s, p).total


def optimize_bandwidth(total_photons: float, p: ChannelParams,
                       family: str = FAMILY_IDLER_FREE) -> BandwidthPlan:
    """Choose the bandwidth (M = 1 vs the broadband limit) for a probe family.

    Every total comes from :func:`total_qfi`.  Where the broadband
    (``m = math.inf``) total diverges, i.e. in the bare thermal channel where
    every family rides the shadow term, the plan is the divergent
    M = infinity one.  Otherwise the coherent total, and the TMSV total at
    ``N_B = 0``, are M-independent (reported as M = 1); in the normalized
    model the TMSV total increases with M and saturates the ultimate bound at
    M = infinity.  The idler-free family compares the jointly xi-optimized
    single-shot value against the better broadband edge, coherent
    (``xi = 0``) or squeezed (``xi = 1``).
    """
    if family == FAMILY_TMSV:
        m = 1.0 if p.n_b == 0.0 else math.inf
        total = total_qfi(total_photons, m, p, family)
        return BandwidthPlan(total_photons, m, total, family,
                             divergent=math.isinf(total))
    if family == FAMILY_IDLER_FREE:
        coh, sq = (total_qfi(total_photons, math.inf, p, family, xi)
                   for xi in (0.0, 1.0))
        xi_inf, broadband = (1.0, sq) if sq > coh else (0.0, coh)
    else:
        broadband = total_qfi(total_photons, math.inf, p, family)
    if math.isinf(broadband):
        return BandwidthPlan(total_photons, math.inf, math.inf, family,
                             divergent=True)
    if family == FAMILY_COHERENT:
        return BandwidthPlan(total_photons, 1.0,
                             total_qfi(total_photons, 1.0, p, family),
                             family, xi_opt=0.0)
    single = optimize_xi(total_photons, p)
    if broadband > single.qfi_opt:
        return BandwidthPlan(total_photons, math.inf, broadband, family,
                             xi_opt=xi_inf)
    return BandwidthPlan(total_photons, 1.0, single.qfi_opt, family,
                         xi_opt=single.xi_opt)


def advantage_ratio(family_a: str, family_b: str, p: ChannelParams,
                    n_s: float) -> float:
    """Ratio of single-copy QFIs of two probe families at equal photon number."""
    evaluators = {
        FAMILY_COHERENT: qfi_coherent,
        FAMILY_TMSV: qfi_tmsv,
        FAMILY_SQUEEZED: qfi_squeezed_vacuum,
    }
    try:
        num = evaluators[family_a](n_s, p)
        den = evaluators[family_b](n_s, p)
    except KeyError as exc:
        raise ValueError(f"unknown probe family {exc.args[0]!r}") from None
    if den == 0.0:
        raise ZeroDivisionError("reference QFI vanishes at these parameters")
    return float(num / den)
