"""Quantum Fisher information of the lossy channel, by three independent routes.

Routes
------
``qfi_sld``
    Generic Gaussian-state QFI: solve the symmetric-logarithmic-derivative
    equation ``4 S L S + W L W = 2 dS`` for the quadratic SLD form ``L`` (with
    ``S`` the output covariance, ``W`` the symplectic form) and evaluate
    ``Tr[L dS] + dd^T S^+ dd``.
``qfi_single_mode_form``
    Purity form for one mode:
    ``Tr[(S^-1 dS)^2] / (2 (1 + mu^2)) + 2 mu'^2 / (1 - mu^4) + dd^T S^-1 dd``.
``qfi_fidelity_fd``
    Finite difference of ``8 (1 - sqrt(F(rho_eta1, rho_eta2))) / d_eta^2``,
    the defining limit of the QFI as a fidelity susceptibility.

Closed forms for the probe families (displaced squeezed, squeezed vacuum,
coherent, vacuum shadow term, TMSV, generic canonical two-mode) are provided
alongside, for both the bare channel and the constant-background normalized
model.  All routes must agree; the test suite enforces this on dense grids.

The engine guards ``eta <= 1 - 1e-7`` (the fidelity route guards the upper
end ``eta + FD_STEP/2`` of its pair): at ``eta -> 1`` the output state turns
pure, the SLD system degenerates and the purity form divides by ``1 - mu^4``.
Behaviour at ``eta = 1`` is only meaningful through asymptotic expansions.

A boundary caveat: at exactly ``eta = 0`` with ``N_B = 0`` every probe maps to
the vacuum and the pointwise QFI of a squeezed probe drops to its displacement
part, while the closed forms give the (discontinuous) ``eta -> 0+`` limit.
Grids in this library therefore start at ``eta > 0`` for that corner.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import (ChannelParams, _any, _first_failing, _held_background, _scalar_eta,
                      additive_noise, additive_noise_derivative, apply_channel,
                      gamma_to_eta, moment_derivatives, output_moments)
from .errors import DegenerateDenominator, EtaTooClose, SingularSystem
from .fidelity import gaussian_fidelity
from .probes import TwoModeProbe, squeeze_parameter
from .states import GaussianState, symplectic_form

EPS_ETA = 1e-7
FD_STEP = 1e-4
SLD_RESIDUAL_TOL = 1e-8
EPS_MACHINE = np.finfo(float).eps


@dataclass(frozen=True)
class QfiBreakdown:
    """QFI value with its named closed-form contributions.

    For the idler-free closed form, ``total`` is the sum of the displacement
    term, the squeezing term and the shadow term (the vacuum's metrological
    power in a thermal background).  The fields are arrays when the closed
    form is evaluated on arrays of photon numbers.
    """

    total: float
    term_displacement: float
    term_squeeze: float
    term_shadow: float


def _check_eta(p: ChannelParams):
    """Raise `EtaTooClose` if `p.eta`, or any entry of it, is inside the guard
    band; the error names the first such entry."""
    close = _first_failing(p.eta, p.eta <= 1.0 - EPS_ETA)
    if close is not None:
        raise EtaTooClose(
            f"eta = {close} is inside the guard band (eta <= {1.0 - EPS_ETA}); "
            "use the asymptotic expressions for the eta -> 1 behaviour")


def _sq(x):
    """`x ** 2` by libm `pow`, for a float or an array.  A Python float squares
    with `**`, which is `pow`; an array goes through `np.float_power`, the same
    `pow`, because numpy's array `** 2` is a multiply and rounds differently
    on about one input in a thousand."""
    return np.float_power(x, 2) if isinstance(x, np.ndarray) else x ** 2


def _photons(x, name: str, positive: bool = False):
    """`x` as a float, or as a float array, with every entry finite and
    non-negative (positive if `positive`); raises `ValueError` otherwise."""
    if isinstance(x, (int, float)) or np.ndim(x) == 0:
        x = low = high = float(x)
    else:
        x = np.asarray(x, dtype=float)
        # NaN propagates through min and max, and fails both tests below
        low, high = x.min(initial=math.inf), x.max(initial=-math.inf)
    low_ok = (0.0 < low) if positive else (0.0 <= low)
    if not (low_ok and high < math.inf):
        kind = "positive" if positive else "non-negative"
        raise ValueError(f"{name} must be finite and {kind}, "
                         f"got {high if low_ok else low}")
    return x


def _as_output(x):
    """A result as a Python float when scalar; an array passes through."""
    return x if isinstance(x, np.ndarray) and x.ndim else float(x)


# The SLD kernel works through a stack in chunks of this many items, which
# bounds the memory its batched eigendecompositions take.
SLD_CHUNK = 512


@functools.cache
def _sld_system(m: int):
    """Index tables and constant terms of the SLD system for `m` quadratures.

    ``L`` is expanded over ``B_l = E_ij + E_ji`` (``E_ii`` on the diagonal),
    one per pair ``i <= j``, and equation ``k`` is entry ``(i_k, j_k)`` of
    ``4 S L S + W L W = 2 dS``.  With ``w`` the Frobenius norms
    ``<B_l, B_l>`` (2 off the diagonal, 1 on it) and ``D = diag(w)``, the
    system matrix ``A`` turns symmetric as ``D^1/2 A D^-1/2``:

        (D^1/2 A D^-1/2)[k, l] = scale[k, l] (S[i_k, i_l] S[j_k, j_l]
                                              + S[i_k, j_l] S[i_l, j_k])
                                 + wbw[k, l]

    with ``scale = 2 w^1/2 (w^1/2)^T`` and ``wbw`` the entries of ``W B_l W``
    scaled the same way.  Returns ``(pick, sqrt_w, take, scale, wbw)``:
    ``pick`` holds the flat indices of the entries ``(i_k, j_k)`` and
    ``take`` those of the four ``S`` factors.
    """
    pairs = [(i, j) for i in range(m) for j in range(i, m)]
    rows = np.array([i for i, _ in pairs])
    cols = np.array([j for _, j in pairs])
    sqrt_w = np.sqrt(np.where(rows == cols, 1.0, 2.0))
    omega = symplectic_form(m // 2)
    wbw = np.empty((len(pairs), len(pairs)))
    for l, (i, j) in enumerate(pairs):
        basis = np.zeros((m, m))
        basis[i, j] = basis[j, i] = 1.0
        wbw[:, l] = (omega @ basis @ omega)[rows, cols]
    take = np.stack([rows[:, None] * m + rows, cols[:, None] * m + cols,
                     rows[:, None] * m + cols, rows * m + cols[:, None]])
    tables = (rows * m + cols, sqrt_w, take, 2.0 * np.outer(sqrt_w, sqrt_w),
              sqrt_w[:, None] * wbw / sqrt_w)
    for table in tables:
        table.setflags(write=False)
    return tables


def _sld_chunk(st, dst, ddt):
    """QFI values and relative SLD residuals for one chunk of the stack."""
    count, m, _ = st.shape
    pick, sqrt_w, take, scale, wbw = _sld_system(m)
    s = st.reshape(count, -1)[:, take]
    a_sym = scale * (s[:, 0] * s[:, 1] + s[:, 2] * s[:, 3]) + wbw
    ds = dst.reshape(count, -1)[:, pick]
    b_vec = 2.0 * ds
    rhs = (sqrt_w * b_vec)[..., None]

    # pseudoinverse with the least-squares rank cutoff k eps max|lambda|
    vals, vecs = np.linalg.eigh(a_sym)
    mag = np.abs(vals)
    keep = mag > len(pick) * EPS_MACHINE * mag.max(axis=1, keepdims=True)
    inv = np.divide(1.0, vals, out=np.zeros_like(vals), where=keep)[..., None]
    vecs_t = vecs.transpose(0, 2, 1)

    y = vecs @ (inv * (vecs_t @ rhs))
    for _ in range(2):  # iterative refinement for ill-conditioned corners
        y = y + vecs @ (inv * (vecs_t @ (rhs - a_sym @ y)))
    # the residual check runs on the unscaled system A x = b
    x = y[..., 0] / sqrt_w
    gap = np.einsum("gkl,gl->gk", a_sym * (sqrt_w / sqrt_w[:, None]), x) - b_vec
    resid = np.sqrt(np.einsum("gk,gk->g", gap, gap))
    b_norm = np.sqrt(np.einsum("gk,gk->g", b_vec, b_vec))
    rel = np.divide(resid, b_norm, out=resid.copy(), where=b_norm > 0)

    trace_term = (y[..., 0] * sqrt_w * ds).sum(axis=1)  # Tr[L dS]
    disp = np.linalg.solve(st, ddt[..., None])[..., 0]
    return trace_term + np.einsum("gi,gi->g", ddt, disp), rel


def _sld_qfi_batch(st, dst, ddt, raise_on_bad=True):
    """QFI for a stack of channel outputs (st, dst, ddt); shape (G, m, m)/(G, m).

    Solves the SLD system over the basis of symmetric matrices for every item
    at once, with a pseudoinverse from a batched eigendecomposition of the
    symmetrized system matrix (see `_sld_system`), followed by two steps of
    iterative refinement.  Singular items, such as pure output modes, get the
    minimum-norm solution; as ``dS`` is orthogonal to the kernel of the SLD
    operator, the QFI does not depend on which solution is picked.  An item
    whose relative residual stays above ``SLD_RESIDUAL_TOL`` is bad: it raises
    `SingularSystem`, or with ``raise_on_bad=False`` the call returns
    ``(values, bad_mask)`` instead, letting callers route ill-conditioned items
    to another evaluator.  The stack is processed in chunks of ``SLD_CHUNK``.
    """
    grid = len(st)
    values = np.empty(grid)
    rel = np.empty(grid)
    for lo in range(0, grid, SLD_CHUNK):
        part = slice(lo, lo + SLD_CHUNK)
        values[part], rel[part] = _sld_chunk(st[part], dst[part], ddt[part])
    bad = ~(rel <= SLD_RESIDUAL_TOL)
    if not raise_on_bad:
        return values, bad
    if bad.any():
        raise SingularSystem(f"SLD solve residual {rel[np.argmax(bad)]:.3e} "
                             f"exceeds {SLD_RESIDUAL_TOL}")
    return values


def qfi_sld(probe: GaussianState, p: ChannelParams) -> float:
    """QFI from the SLD linear system; works for 1- and 2-mode probes."""
    _scalar_eta(p)
    _check_eta(p)
    _, st = output_moments(probe.d, probe.sigma, p)
    ddt, dst = moment_derivatives(probe.d, probe.sigma, p)
    return float(_sld_qfi_batch(st[None], dst[None], ddt[None])[0])


def qfi_single_mode_form(probe: GaussianState, p: ChannelParams) -> float:
    """Purity-form QFI, valid for single-mode probes only."""
    if probe.modes != 1:
        raise ValueError("the purity form applies to single-mode states")
    _scalar_eta(p)
    _check_eta(p)
    _, st = output_moments(probe.d, probe.sigma, p)
    ddt, dst = moment_derivatives(probe.d, probe.sigma, p)
    st_inv = np.linalg.inv(st)
    ratio = st_inv @ dst
    mu = (4.0 * np.linalg.det(st)) ** -0.5
    dmu = -0.5 * mu * np.trace(ratio)
    term1 = np.trace(ratio @ ratio) / (2.0 * (1.0 + mu ** 2))
    term2 = 0.0 if dmu == 0.0 else 2.0 * dmu ** 2 / (1.0 - mu ** 4)
    term3 = ddt @ st_inv @ ddt
    return float(term1 + term2 + term3)


def qfi_fidelity_fd(probe: GaussianState, p: ChannelParams) -> float:
    """QFI from the fidelity drop between outputs at nearby transmissions.

    Evaluates ``8 (1 - sqrt(F)) / h^2`` on the centred pair ``eta -/+ h/2``
    with the fixed step ``h = FD_STEP`` (quadratic-order accurate); raises
    `EtaTooClose` when ``eta + h/2`` enters the guard band.  The route is
    cross-checked against the SLD to 1e-4 only for ``eta <= 0.95``
    (acceptance criterion 01); closer to 1 its error grows past that
    tolerance.
    """
    _scalar_eta(p)
    if p.eta - FD_STEP < 0:
        raise ValueError("eta - FD_STEP must be non-negative")
    hi = p.eta + 0.5 * FD_STEP
    if hi > 1.0 - EPS_ETA:
        raise EtaTooClose(f"eta + FD_STEP/2 = {hi} is inside the guard band "
                          f"(eta + FD_STEP/2 <= {1.0 - EPS_ETA})")
    out_lo = apply_channel(probe, replace(p, eta=p.eta - 0.5 * FD_STEP))
    out_hi = apply_channel(probe, replace(p, eta=hi))
    fid = gaussian_fidelity(out_lo, out_hi)
    return float(8.0 * (1.0 - math.sqrt(fid)) / FD_STEP ** 2)


# ---------------------------------------------------------------------------
# closed forms, idler-free
# ---------------------------------------------------------------------------

def _if_total(n_coh, n_sq, p: ChannelParams):
    """Total of :func:`qfi_if_closed` for checked inputs; arrays stay arrays."""
    i_disp, i_sq, i_shadow = _if_terms(n_coh, n_sq, p)
    return i_disp + i_sq + i_shadow


def _if_terms(n_coh, n_sq, p: ChannelParams):
    """The three terms of :func:`qfi_if_closed`; trusts `n_coh`, `n_sq` and
    the eta guard, checks only the sign of the denominators.  Every power of
    an eta-dependent base goes through `_sq`, so an array eta gives the bits
    of scalar calls."""
    e2 = _sq(p.eta)
    one = 1.0 - e2
    nb = p.n_b
    r = squeeze_parameter(n_sq)
    if nb == 0.0:
        # bare and normalized models coincide
        i_disp = 4.0 * n_coh / (e2 * r + one)
        a_den = one * n_sq * e2
        i_sq = 4.0 * n_sq * (_sq(one) + _sq(e2)) / (one * (2.0 * a_den + 1.0))
        i_shadow = 0.0
    elif _held_background(p):
        i_disp = 4.0 * n_coh / (r * e2 + 2.0 * nb + 1.0 - e2)
        b_den = nb * (nb + 1.0) + n_sq * e2 * (2.0 * nb + 1.0) - n_sq * _sq(e2)
        if _any(b_den <= 0.0):
            raise DegenerateDenominator(f"B = {np.min(b_den)} <= 0")
        i_sq = (4.0 * n_sq * e2 / b_den) * (
            (n_sq + 1.0) * (2.0 * nb + 1.0) ** 2 / (2.0 * b_den + 1.0) - 1.0)
        i_shadow = 0.0
    else:
        i_disp = 4.0 * n_coh / (e2 * r + one * (2.0 * nb + 1.0))
        a_den = one * (nb * (nb + 1.0) + n_sq * e2 * (2.0 * nb + 1.0) - nb ** 2 * e2)
        if _any(a_den <= 0.0):
            raise DegenerateDenominator(f"A = {np.min(a_den)} <= 0")
        i_sq = (4.0 * n_sq * e2 * (2.0 * nb + 1.0) / a_den) * (
            (n_sq + 1.0) * (2.0 * nb + 1.0) / (2.0 * a_den + 1.0) - 1.0)
        i_shadow = 4.0 * nb ** 2 * e2 / a_den
    return i_disp, i_sq, i_shadow


def qfi_if_closed(n_coh: float | np.ndarray, n_sq: float | np.ndarray,
                  p: ChannelParams) -> QfiBreakdown:
    """Idler-free QFI as displacement + squeezing + shadow terms.

    Bare channel:  with ``A = (1-e)[N_B(N_B+1) + N_sq eta^2(2N_B+1) - N_B^2 eta^2]``
    and ``e = eta^2``,

        I_disp   = 4 N_coh / [eta^2 r + (1-e)(2 N_B + 1)]
        I_sq     = (4 N_sq eta^2 (2N_B+1)/A) [ (N_sq+1)(2N_B+1)/(2A+1) - 1 ]
        I_shadow = 4 N_B^2 eta^2 / A

    At ``N_B = 0`` the squeezing term reduces exactly to
    ``4 N_sq [(1-e)^2 + e^2] / [(1-e)(2A+1)]``, which is used directly to stay
    finite when ``A -> 0``.  In the normalized model the background is
    constant, the shadow term vanishes, and the denominators carry
    ``B = N_B(N_B+1) + N_sq eta^2 (2N_B+1) - N_sq eta^4`` instead.

    Broadcasts over the photon numbers `n_coh` and `n_sq` and over an array
    ``p.eta``: each field has the shape of the arguments it depends on, and
    scalar arguments give floats.  Elementwise the values equal those of
    scalar calls, bit for bit.
    """
    n_coh = _photons(n_coh, "n_coh")
    n_sq = _photons(n_sq, "n_sq")
    _check_eta(p)
    i_disp, i_sq, i_shadow = _if_terms(n_coh, n_sq, p)
    return QfiBreakdown(total=_as_output(i_disp + i_sq + i_shadow),
                        term_displacement=_as_output(i_disp),
                        term_squeeze=_as_output(i_sq),
                        term_shadow=_as_output(i_shadow))


def qfi_coherent(n_s: float | np.ndarray, p: ChannelParams) -> float | np.ndarray:
    """QFI of a coherent probe with `n_s` photons (shadow + displacement terms)."""
    return qfi_if_closed(n_s, 0.0, p).total


def qfi_shadow(p: ChannelParams) -> float:
    """QFI of the vacuum probe: 4 eta^2 N_B / [(1-eta^2)(1 + N_B(1-eta^2))]."""
    return qfi_if_closed(0.0, 0.0, p).total


def qfi_squeezed_vacuum(n_s: float | np.ndarray,
                        p: ChannelParams) -> float | np.ndarray:
    """QFI of a squeezed-vacuum probe with `n_s` photons."""
    return qfi_if_closed(0.0, n_s, p).total


def qfi_tmsv(n_s: float | np.ndarray, p: ChannelParams) -> float | np.ndarray:
    """QFI of the two-mode squeezed vacuum at `n_s` photons per signal mode.

    Bare channel (with ``g = N_S + N_B + 2 N_S N_B``):

        I = 4 [N_S(N_S+1)(1-eta^2) + eta^2 g] / {(1-eta^2)[1 + (1-eta^2) g]}

    which collapses to ``4 N_S / (1 - eta^2)`` at ``N_B = 0``.  The normalized
    model replaces the ``(1-eta^2)`` structure by ``N_B + 1 - eta^2``.
    Broadcasts over `n_s` and an array ``p.eta``; scalars give a float.
    """
    n_s = _photons(n_s, "n_s")
    e2 = _sq(p.eta)
    nb = p.n_b
    if _held_background(p):
        # regular up to eta -> 1 thanks to the constant background
        return _as_output(4.0 * n_s * (nb + 1.0 + n_s * (nb + 1.0 - e2))
                          / ((nb + 1.0 - e2) * (nb + 1.0 + n_s * (2.0 * nb + 1.0 - e2))))
    _check_eta(p)
    one = 1.0 - e2
    g = n_s + nb + 2.0 * n_s * nb
    return _as_output(4.0 * (n_s * (n_s + 1.0) * one + e2 * g) / (one * (1.0 + one * g)))


# ---------------------------------------------------------------------------
# closed form, generic canonical two-mode probe (bare channel)
# ---------------------------------------------------------------------------

def _two_mode_closed_raw(n_s, zeta, r, theta, eta, nb):
    """Canonical two-mode QFI; trusts its arguments, no domain checks.

    Broadcasts over arrays.  Direct transcription of the trace + displacement
    terms for the canonical probe.  Beware of catastrophic cancellation when
    ``(4a^2 + 1)/(eta^2 I)`` approaches 1/eps_machine, i.e. very small eta
    combined with large photon numbers; the SLD route is stable there.
    """
    e2 = eta ** 2
    one = 1.0 - e2
    x = n_s * zeta ** 2
    n_coh = n_s * (1.0 - zeta ** 2)
    a = (2.0 * x + 1.0) / (r + 1.0 / r)
    a2 = a * a
    trace_term = (4.0 * a2 + 1.0) / e2 + 2.0 * e2 / one ** 2
    pref = r / (e2 * (1.0 - nb * (nb + 1.0) * (4.0 * a2 - 1.0) * one ** 2))
    num1 = one * nb * (nb + 1.0) * (4.0 * a2 * one + e2 + 1.0) ** 2 \
        * (4.0 * a2 * (1.0 + 2.0 * nb) ** 2 - 1.0)
    den1 = 2.0 * a * e2 * (1.0 + r * r) * (1.0 + 2.0 * nb) \
        + r * (one * (4.0 * a2 * (1.0 + 2.0 * nb) ** 2 - 1.0) - 2.0 * e2)
    # the fraction carries a factor N_B(N_B+1) and vanishes identically; where
    # its denominator hits zero too (a = 1/2, r = 1, N_B = 0) it becomes 0/1
    den1 = den1 + ((num1 == 0.0) & (den1 == 0.0))
    num2 = (one * (4.0 * a2 + 1.0) * (2.0 * nb ** 2 + 2.0 * nb + 1.0)
            + 2.0 * e2 / one) ** 2 - 16.0 * a2 * e2 ** 2 * (2.0 * nb + 1.0) ** 2
    den2 = 2.0 * a * e2 * (1.0 + r * r) * (1.0 + 2.0 * nb) * one \
        + r * (one ** 2 * (4.0 * a2 + 1.0) * (2.0 * nb ** 2 + 2.0 * nb + 1.0) + 2.0 * e2)
    trace_term += pref * (num1 / den1 - num2 / den2)
    disp_term = 8.0 * n_coh * a * (
        np.cos(theta) ** 2 / (2.0 * a * one * (1.0 + 2.0 * nb) + r * e2)
        + np.sin(theta) ** 2 / (2.0 * a * one * (1.0 + 2.0 * nb) + e2 / r))
    return trace_term + disp_term


def qfi_two_mode_closed(probe: TwoModeProbe, p: ChannelParams) -> float:
    """Closed-form QFI of a canonical two-mode probe (bare channel, eta > 0).

    Independent of the probe's `phi`.  For the normalized model or eta = 0 use
    :func:`qfi_sld` on the built state.
    """
    if _held_background(p):
        raise ValueError("closed form covers the bare channel only; use qfi_sld")
    _scalar_eta(p)
    _check_eta(p)
    if p.eta == 0.0:
        raise ValueError("closed form is indeterminate at eta = 0; use qfi_sld")
    return float(_two_mode_closed_raw(probe.n_s, probe.zeta, probe.r,
                                      probe.theta, p.eta, p.n_b))


# ---------------------------------------------------------------------------
# homodyne detection and rate estimation
# ---------------------------------------------------------------------------

def homodyne_fisher(n_coh: float, r: float, p: ChannelParams) -> float:
    """Classical Fisher information of in-phase homodyne on a probe (n_coh, r).

    The measured quadrature is Gaussian with mean ``eta sqrt(2 n_coh)`` and
    variance ``eta^2 r/2 + y(eta)``, so
    ``H = (dm)^2 / V + (dV)^2 / (2 V^2)``.
    """
    _scalar_eta(p)
    if not 0.0 < r <= 1.0:
        raise ValueError("r must lie in (0, 1]")
    if not 0.0 <= n_coh < math.inf:
        raise ValueError(f"n_coh must be finite and non-negative, got {n_coh}")
    var = 0.5 * p.eta ** 2 * r + additive_noise(p)
    dvar = p.eta * r + additive_noise_derivative(p)
    dmean_sq = 2.0 * n_coh
    return float(dmean_sq / var + 0.5 * dvar ** 2 / var ** 2)


def qfi_gamma(gamma: float, t: float, probe: GaussianState,
              p_base: ChannelParams) -> float:
    """QFI for estimating the loss rate gamma after interrogation time t.

    Chain rule on eta = exp(-gamma t / 2):
    ``I_gamma = (t^2/4) exp(-gamma t) I_eta(eta)``.  Returns 0 at t = 0, where
    the prefactor vanishes.
    """
    if t == 0.0:
        return 0.0
    eta = gamma_to_eta(gamma, t)
    i_eta = qfi_sld(probe, replace(p_base, eta=eta))
    return float(0.25 * t ** 2 * math.exp(-gamma * t) * i_eta)
