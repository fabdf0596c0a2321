"""Probe optimization, optimality thresholds and total-QFI bandwidth planning.

Search and planning only (`qfi` routes every value), in three layers:

* single-mode squeezed fraction ``xi`` at fixed ``N_S`` (golden-section search,
  the zero-temperature landscape being concave in ``xi``),
* two-mode ``(zeta, r)`` exhaustive grid search (the two-mode squeezed vacuum
  ``(1, 1)`` wins everywhere),
* bandwidth ``M`` at fixed total power: splitting ``N_S_total`` over ``M``
  probes, where the optimum sits at ``M = 1`` or ``M -> infinity``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import (ChannelParams, _any, _first_failing, _held_background, _scalar_eta,
                      _shadow_diverges)
from .errors import ProbeRangeError
from .probes import two_mode_r_min
from .qfi import (_as_output, _check_eta, _if_channel, _if_total, _photons, _sq, _take,
                  _two_mode_closed_raw, _two_mode_qfi, qfi_coherent, qfi_if_closed,
                  qfi_squeezed_vacuum, qfi_tmsv)

INV_SQRT2 = 1.0 / math.sqrt(2.0)
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
XI_TOL = 1e-8
STATIONARITY_STEP = 1e-5

BOUNDARY_INTERIOR = "interior"
BOUNDARY_COHERENT = "coherent_edge"
BOUNDARY_SQUEEZED = "squeezed_edge"

FAMILY_IDLER_FREE = "idler_free"
FAMILY_TMSV = "tmsv"
FAMILY_COHERENT = "coherent"
FAMILY_SQUEEZED = "squeezed_vacuum"


@dataclass(frozen=True)
class XiOptResult:
    """Optimal squeezed fraction, its QFI, and which edge (if any) it sits on.

    From an array of photon numbers, or an array eta, every field is an array
    of their broadcast shape, `boundary` one of strings.
    """

    xi_opt: float
    qfi_opt: float
    boundary: str


@dataclass(frozen=True)
class BandwidthPlan:
    """Energy split over probe copies: `m` copies of `total_photons / m` each.

    ``m = math.inf`` denotes the broadband limit.  `divergent` marks the
    shadow effect of the bare thermal channel (``N_B > 0``, unnormalized),
    where the shadow term times an unbounded number of copies makes the total
    QFI grow without bound; a finite budget whose total overflows to ``inf``
    is not divergent.  A plan for an array of total photon numbers, or for
    an array eta, holds arrays of their broadcast shape in every field but
    `probe_family`; there `xi_opt` is NaN where a scalar plan has None.
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

def _check_eta_domain(eta):
    bad = _first_failing(eta, (0.0 <= eta) & (eta < 1.0))
    if bad is not None:
        raise ValueError(f"eta must lie in [0, 1), got {bad}")


def f1(eta: float | np.ndarray, n_s: float | np.ndarray) -> float | np.ndarray:
    """Edge slope (1/4N_S) d/dxi of the N_B=0 QFI at xi=1.

    Explicitly,

        f1 = [(1-e)^2 + e^2] / {(1-e) [1 + 2 N_S e (1-e)]^2}
             - 1 / [1 - 2 e (sqrt(N_S(N_S+1)) - N_S)]

    with ``e = eta^2``; ``sqrt(N_S(N_S+1)) - N_S`` is evaluated as
    ``sqrt(N_S) / (sqrt(N_S+1) + sqrt(N_S))``, which does not cancel.  It is
    strictly decreasing in ``N_S``, tends to ``-1/(1-eta^2)`` as
    ``N_S -> infinity``, and its sign decides whether the squeezed vacuum
    sits at the optimum.  Broadcasts over `eta` and `n_s`, each element with
    the bits of the Python-float evaluation.  Raises `ValueError` unless every
    ``0 <= eta < 1`` and every `n_s` is finite and non-negative.
    """
    _check_eta_domain(eta)
    n_s = _photons(n_s, "n_s")
    e2 = _sq(eta)
    one = 1.0 - e2
    first = (_sq(one) + _sq(e2)) / (one * _sq(1.0 + 2.0 * n_s * e2 * one))
    root = np.sqrt(n_s)
    second = 1.0 / (1.0 - 2.0 * e2 * (root / (np.sqrt(n_s + 1.0) + root)))
    return _as_output(first - second)


def g1(xi: float, n_s: float) -> float:
    """Low-transmission slope: 2(1-xi) sqrt(xi N_S (1+xi N_S)) - xi (1+2N_S)."""
    if not (math.isfinite(xi) and math.isfinite(n_s)):
        raise ValueError(f"xi and n_s must be finite, got xi = {xi}, n_s = {n_s}")
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

    ``A0 = (1-eta^2) N_B B`` with ``B = N_B+1-N_B eta^2``, and
    ``(2N_B+1)/(2A0+1) - 1 = 2 N_B (eta^2 - (1-eta^2)^2 N_B)/(2A0+1)``, so
    the factor N_B cancels from both terms before any rounding:

        g2 = 2 eta^2 (2N_B+1)(eta^2 - (1-eta^2)^2 N_B) / [(1-eta^2) B (2A0+1)]
             - eta^4 (2N_B+1) / [(1-eta^2) B^2]

    which tends to ``eta^4/(1-eta^2)`` as N_B -> 0 and keeps every digit
    down to the smallest normal N_B.  The literal form loses the first term
    to cancellation below N_B ~ 1e-8 (its bracket rounds to 0 below
    ~1e-16).  N_B enters as a numpy float, and an overflow (``A0`` and
    ``B^2`` pass the double range near N_B ~ 1e154) raises
    `FloatingPointError`, never a warning with an inf or a nan.
    """
    _check_eta_domain(eta)
    if not 0.0 < n_b < math.inf:
        raise ValueError("g2 is defined for the N_S << N_B regime; need finite "
                         f"n_b > 0, got {n_b}")
    n_b = np.float64(n_b)
    e2 = eta ** 2
    one = 1.0 - e2
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        b = n_b + 1.0 - n_b * e2
        tnb1 = 2.0 * n_b + 1.0
        first = 2.0 * e2 * tnb1 * (e2 - one * one * n_b) / (
            one * b * (2.0 * one * n_b * b + 1.0))
        second = -e2 * e2 * tnb1 / (one * b * b)
        return float(first + second)


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
    while f1(eta, hi) > 0.0:  # stops: f1 -> -1/(1-eta^2) < 0
        hi *= 2.0
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

    The largest of the cubic's three real roots, in trigonometric form;
    approximately 8.857.
    """
    return 2.0 * math.sqrt(64.0 / 3.0) * math.cos(
        math.acos(3.0 * math.sqrt(3.0 / 64.0)) / 3.0)


# ---------------------------------------------------------------------------
# single-mode optimization
# ---------------------------------------------------------------------------

def _golden_max(landscape, lo: np.ndarray, hi: np.ndarray, tol: float) -> np.ndarray:
    """Golden-section maxima over the brackets ``[lo, hi]``, in lockstep.

    `landscape(live)` returns the function that evaluates the landscapes of
    the brackets `live` (indices into `lo`), each at its own point of an
    array; it is called again whenever the live set shrinks.  A bracket
    freezes as soon as ``hi - lo <= tol``: its midpoint goes to the result
    and it leaves the search, so brackets of different widths take different
    numbers of steps and each step evaluates the live brackets only.
    Returns the bracket midpoints.
    """
    mid = 0.5 * (lo + hi)
    live = np.flatnonzero(hi - lo > tol)
    lo, hi = lo[live], hi[live]
    x1 = hi - GOLDEN * (hi - lo)
    x2 = lo + GOLDEN * (hi - lo)
    f = landscape(live)
    f1_, f2_ = f(np.stack([x1, x2]))
    while live.size:
        up = f1_ < f2_
        # rise: (lo, x1, f1) <- (x1, x2, f2); fall: (hi, x2, f2) <- (x2, x1, f1)
        lo = np.where(up, x1, lo)
        hi = np.where(up, hi, x2)
        gap = GOLDEN * (hi - lo)
        x = np.where(up, lo + gap, hi - gap)
        x1, x2 = np.where(up, x2, x), np.where(up, x, x1)
        new = f(x)
        f1_, f2_ = np.where(up, f2_, new), np.where(up, new, f1_)
        done = hi - lo <= tol
        if done.any():
            mid[live[done]] = 0.5 * (lo[done] + hi[done])
            keep = ~done
            live, lo, hi, x1, x2, f1_, f2_ = (a[keep] for a in
                                              (live, lo, hi, x1, x2, f1_, f2_))
            f = landscape(live)
    return mid


def optimize_xi(n_s: float | np.ndarray, p: ChannelParams) -> XiOptResult:
    """Maximize the idler-free QFI over the squeezed fraction xi in [0, 1].

    At ``N_B = 0`` the landscape is concave and the xi = 1 edge case is
    decided exactly by the sign of :func:`f1`; otherwise a 64-point scan
    brackets the maximum (its first maximum) before the golden-section
    refinement (the low-power thermal landscape switches abruptly between the
    two edges).  `n_s` and ``p.eta`` may be arrays and broadcast against each
    other, e.g. ``optimize_xi(ns[:, None], ChannelParams(etas, n_b))`` for an
    (N_S, eta) grid: all points are searched together, one closed-form
    evaluation of the unfinished points per step, each with the values a
    scalar call gives.  The inputs are checked once here, and the closed
    form's channel factors are computed once; the scan and the search steps
    evaluate the closed form's total without its checks.
    """
    n_s = _photons(n_s, "n_s", positive=True)
    _check_eta(p)
    # flat, broadcast (N_S, eta) pairs
    shape = np.broadcast_shapes(np.shape(n_s), np.shape(p.eta))
    ns, eta = (np.broadcast_to(a, shape).reshape(-1) for a in (n_s, p.eta))
    c = _if_channel(replace(p, eta=eta))

    def value(xi, n, factors):
        return _if_total((1.0 - xi) * n, xi * n, factors)

    squeezed = np.zeros(ns.shape, dtype=bool)
    if p.n_b == 0.0:
        above = eta > INV_SQRT2
        squeezed[above] = f1(eta[above], ns[above]) >= 0.0
        lo, hi = np.zeros(ns.shape), np.ones(ns.shape)
    else:
        grid = np.linspace(0.0, 1.0, 64)
        scan = value(grid, ns[:, None], _take(c, np.s_[:, None]))
        best = np.argmax(scan, axis=1)
        lo = grid[np.maximum(best - 1, 0)]
        hi = grid[np.minimum(best + 1, 63)]
    search = ~squeezed
    at = np.flatnonzero(search)

    def landscape(live):
        n, c_live = ns[at[live]], _take(c, at[live])
        return lambda xi: value(xi, n, c_live)

    xi_star = np.ones(ns.shape)
    xi_star[at] = _golden_max(landscape, lo[at], hi[at], XI_TOL)
    q_star, q_coh, q_sq = value(np.stack([xi_star, np.zeros(ns.shape),
                                          np.ones(ns.shape)]), ns, c)

    # the first edge that holds wins, else the interior point
    edges = [search & (q_coh >= q_star) & (q_coh >= q_sq), squeezed | (q_sq >= q_star)]
    xi_opt = np.select(edges, [0.0, 1.0], xi_star)
    qfi_opt = np.select(edges, [q_coh, q_sq], q_star)
    boundary = np.select(edges, [BOUNDARY_COHERENT, BOUNDARY_SQUEEZED],
                         BOUNDARY_INTERIOR)
    if not shape:
        return XiOptResult(float(xi_opt[0]), float(qfi_opt[0]), str(boundary[0]))
    return XiOptResult(xi_opt.reshape(shape), qfi_opt.reshape(shape),
                       boundary.reshape(shape))


# ---------------------------------------------------------------------------
# two-mode optimization
# ---------------------------------------------------------------------------

def two_mode_grid(n_s: float, p: ChannelParams, grid=(64, 64)):
    """QFI over the exhaustive (zeta, r) search grid.

    Uses a linear zeta grid on [0, 1] and, for each zeta, a logarithmic r grid
    on [r_min(zeta), 1].  Returns ``(zetas, r_grid, qfi)``, with `r_grid` and
    `qfi` of shape ``grid``, one row per zeta; `qfi` routes the values.
    Raises `ProbeRangeError` if some r_min rounds to 0, as at n_s = 1e8, or
    overflows to -inf or nan, as at n_s = 1e300 and 1e308.
    """
    n_zeta, n_r = grid
    if n_zeta < 32 or n_r < 32:
        raise ValueError("grid must be at least 32x32")
    if not 0.0 <= n_s < math.inf:
        raise ValueError(f"n_s must be finite and non-negative, got {n_s}")
    zetas = np.linspace(0.0, 1.0, n_zeta)
    # an overflow in r_min is a probe out of range, reported as such below
    with np.errstate(over="ignore", invalid="ignore"):
        r_min = two_mode_r_min(n_s, zetas)
    if not np.isfinite(r_min).all():
        raise ProbeRangeError(f"n_s = {n_s} is too large: r_min is not finite")
    if not np.all(r_min > 0.0):
        raise ProbeRangeError(f"n_s = {n_s} is too large: r_min rounds to 0")
    # one geomspace over the rows that span a range: a zero-step row (r_min
    # = 1, at zeta = 0) would switch numpy to another rounding for them all
    live = r_min != 1.0
    r_grid = np.ones((n_zeta, n_r))
    r_grid[live] = np.geomspace(r_min[live], 1.0, n_r, axis=1)
    qfi = _two_mode_qfi(n_s, np.repeat(zetas, n_r), r_grid.reshape(-1), p)
    return zetas, r_grid, qfi.reshape(n_zeta, n_r)


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


def tmsv_stationarity_check(n_s: float, p: ChannelParams):
    """Central finite differences of the two-mode QFI at the TMSV corner (1, 1).

    Returns ``(d_r, d2_r, d_zeta)``; stationarity of the maximum demands
    d_r ~ 0, d2_r < 0, and d_zeta > 0 (the zeta = 1 edge is approached from
    inside).  The closed form extends smoothly past r = 1 and zeta = 1, which
    the centred stencils exploit.  Like `qfi_two_mode_closed`, it raises
    `ValueError` at eta = 0, where the closed form is indeterminate.
    """
    if not 0.0 < n_s < math.inf:
        raise ValueError(f"n_s must be finite and positive, got {n_s}")
    if _held_background(p):
        raise ValueError("stationarity check uses the bare-channel closed form")
    _scalar_eta(p)
    _check_eta(p)
    if p.eta == 0.0:
        raise ValueError("closed form is indeterminate at eta = 0; use qfi_sld")

    n_s = np.float64(n_s)  # a numpy float, so that an overflow signals

    def value(zeta, r):
        return _two_mode_closed_raw(n_s, zeta, r, 0.0, p.eta, p.n_b)

    step = STATIONARITY_STEP
    q0 = value(1.0, 1.0)
    q_up, q_down = value(1.0, 1.0 + step), value(1.0, 1.0 - step)
    d_r = (q_up - q_down) / (2.0 * step)
    d2_r = (q_up - 2.0 * q0 + q_down) / step ** 2
    d_zeta = (value(1.0 + step, 1.0) - value(1.0 - step, 1.0)) / (2.0 * step)
    return float(d_r), float(d2_r), float(d_zeta)


# ---------------------------------------------------------------------------
# total QFI at fixed total power
# ---------------------------------------------------------------------------

def _broadband_limit(total_photons, p, family, xi):
    """``lim M->inf M I(total / M)`` for the TMSV or the idler-free family.

    The idler-free limit at ``N_B = 0`` divides by ``1 - eta^2`` and checks
    the eta guard; the others are regular up to ``eta = 1``.
    """
    if _shadow_diverges(p):
        # shadow effect: every copy adds the power-independent vacuum term
        shape = np.broadcast_shapes(np.shape(total_photons), np.shape(p.eta))
        return np.full(shape, math.inf)
    e2 = _sq(p.eta)
    if family == FAMILY_TMSV:
        return 4.0 * total_photons / (p.n_b + 1.0 - e2)
    one = 1.0 - e2
    if p.n_b == 0.0:
        _check_eta(p)
        return 4.0 * total_photons * ((1.0 - xi) + xi * (_sq(one) + _sq(e2)) / one)
    nb = p.n_b
    return 4.0 * total_photons * ((1.0 - xi) / (2.0 * nb + 1.0)
                                  + 2.0 * xi * e2 / (2.0 * nb * (nb + 1.0) + 1.0))


def total_qfi(total_photons: float | np.ndarray, m: float, p: ChannelParams,
              family: str = FAMILY_IDLER_FREE, xi: float = 0.0) -> float | np.ndarray:
    """Total QFI ``M I(N_S = total / M)`` for a probe family and bandwidth M.

    `xi` in [0, 1] is the squeezed fraction of the idler-free family; the
    coherent family is the idler-free one at ``xi = 0``, for every M.
    ``m = math.inf`` evaluates the closed-form broadband limits; in the bare
    thermal channel (``N_B > 0``, unnormalized) that limit diverges because
    every extra copy contributes the power-independent shadow term, and
    ``math.inf`` is returned.  Broadcasts over `total_photons` and an array
    ``p.eta``; scalars give a float.
    """
    if family not in (FAMILY_IDLER_FREE, FAMILY_TMSV, FAMILY_COHERENT):
        raise ValueError(f"unknown probe family {family!r}")
    total_photons = _photons(total_photons, "total_photons", positive=True)
    if not m >= 1:
        raise ValueError("m must be at least 1")
    if not 0.0 <= xi <= 1.0:
        raise ValueError("xi must lie in [0, 1]")
    if family == FAMILY_COHERENT:
        family, xi = FAMILY_IDLER_FREE, 0.0
    if math.isinf(m):
        return _as_output(_broadband_limit(total_photons, p, family, xi))
    n_s = total_photons / m
    if family == FAMILY_TMSV:
        single = qfi_tmsv(n_s, p)
    else:
        single = qfi_if_closed((1.0 - xi) * n_s, xi * n_s, p).total
    # m as a numpy float, so that an overflow signals (see `_photons`)
    return _as_output(np.float64(m) * single)


def optimize_bandwidth(total_photons: float | np.ndarray, p: ChannelParams,
                       family: str = FAMILY_IDLER_FREE) -> BandwidthPlan:
    """Choose the bandwidth (M = 1 vs the broadband limit) for a probe family.

    In the bare thermal channel (``N_B > 0``, unnormalized) every family
    rides the shadow term, whose broadband total diverges: the plan is the
    divergent M = infinity one, and nothing is evaluated.  Otherwise every
    total comes from :func:`total_qfi`, and the plan is not divergent, even
    where a huge finite budget overflows its total to ``inf``.  The coherent
    total, and the TMSV total at ``N_B = 0``, are M-independent (reported as
    M = 1); in the normalized model the TMSV total increases with M and
    saturates the ultimate bound at M = infinity.  The idler-free family
    compares the jointly xi-optimized single-shot value against the better
    broadband edge, coherent (``xi = 0``) or squeezed (``xi = 1``).
    Broadcasts over `total_photons` and an array ``p.eta``, with one lockstep
    :func:`optimize_xi` call for the idler-free family.
    """
    if family not in (FAMILY_IDLER_FREE, FAMILY_TMSV, FAMILY_COHERENT):
        raise ValueError(f"unknown probe family {family!r}")
    t = _photons(total_photons, "total_photons", positive=True)
    shape = np.broadcast_shapes(np.shape(t), np.shape(p.eta))
    divergent = _shadow_diverges(p)
    xi_opt = math.nan
    if divergent:
        m = total = math.inf
    elif family == FAMILY_TMSV:
        m = 1.0 if p.n_b == 0.0 else math.inf
        total = total_qfi(t, m, p, family)
    elif family == FAMILY_COHERENT:
        m, xi_opt = 1.0, 0.0
        total = total_qfi(t, m, p, family)
    else:
        coh, sq = (total_qfi(t, math.inf, p, family, xi) for xi in (0.0, 1.0))
        broadband = np.where(sq > coh, sq, coh)
        single = optimize_xi(t, p)
        wide = broadband > single.qfi_opt
        m = np.where(wide, math.inf, 1.0)
        total = np.where(wide, broadband, single.qfi_opt)
        xi_opt = np.where(wide, np.where(sq > coh, 1.0, 0.0), single.xi_opt)
    if not shape:
        xi_one = None if family == FAMILY_TMSV or math.isnan(xi_opt) else float(xi_opt)
        return BandwidthPlan(float(t), float(m), float(total), family, bool(divergent),
                             xi_one)
    t, m, total, xi_opt = (np.array(np.broadcast_to(x, shape), dtype=float)
                           for x in (t, m, total, xi_opt))
    return BandwidthPlan(t, m, total, family, np.full(shape, divergent),
                         None if family == FAMILY_TMSV else xi_opt)


def advantage_ratio(family_a: str, family_b: str, p: ChannelParams,
                    n_s: float | np.ndarray) -> float | np.ndarray:
    """Ratio of single-copy QFIs of two probe families at equal photon number.

    Broadcasts over `n_s` and an array ``p.eta``; raises `ZeroDivisionError`
    if any reference QFI vanishes.
    """
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
    if _any(den == 0.0):
        raise ZeroDivisionError("reference QFI vanishes at these parameters")
    return _as_output(num / den)
