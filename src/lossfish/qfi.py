"""Quantum Fisher information of the lossy channel, by three independent routes.

Routes
------
``qfi_sld``
    Generic Gaussian-state QFI: solve the symmetric-logarithmic-derivative
    equation ``4 S L S + W L W = 2 dS`` for the quadratic SLD form ``L`` (with
    ``S`` the output covariance, ``W`` the symplectic form) and evaluate
    ``Tr[L dS] + dd^T S^-1 dd``.  When ``S`` and ``dS`` have no x-p entries,
    as for every canonical probe, the equation is a 2x2 Stein equation,
    diagonal in the symplectic eigenbasis, and is solved there by explicit
    arithmetic.  An item whose residual stays above ``SLD_RESIDUAL_TOL``
    takes ``Tr[L dS]`` as a sum of non-negative terms, one per pair of modes,
    in that Williamson basis ``S = T D T^T``; any other state takes the same
    sum in a basis built by two batched eigendecompositions (`_eigh_basis`).
    Either basis feeds one function, `_williamson_sum`, which also certifies
    the sum from its basis alone, by an error bound.  One kernel,
    `_sld_qfi_batch`, serves single states and stacks, and raises
    `SingularSystem` for the first item it cannot certify; `qfi_sld` and the
    two-mode grid (`_two_mode_qfi`) only call it.
    Stacks of moments put the item axis last, ``(m, m, G)`` and ``(m, G)``,
    so that each entry the Stein route reads is one contiguous row; a single
    state keeps its ``(m, m)`` and ``(m,)`` arrays and is the stack of one
    ``st[..., None]``.
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

import math
import operator
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from .channel import (ChannelParams, _first_failing, _held_background, _scalar_eta,
                      additive_noise, additive_noise_derivative, apply_channel,
                      gamma_to_eta, moment_derivatives, output_moments)
from .errors import EtaTooClose, NonPhysical, SingularSystem
from .fidelity import gaussian_fidelity
from .probes import TwoModeProbe, squeeze_parameter, two_mode_moments
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
    """`x` as a numpy float, or as a float array, with every entry finite and
    non-negative (positive if `positive`); raises `ValueError` otherwise.  A
    scalar is an `np.float64`, not a Python float, so that an overflow in the
    closed forms signals as it does on arrays instead of passing silently."""
    if isinstance(x, (int, float)) or np.ndim(x) == 0:
        x = low = high = np.float64(x)
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


def _pick_arrays(cond, new, old):
    """`old`, its arrays overwritten in place with those of `new` where
    `cond` holds; the Stein route allocates every array it passes here."""
    for target, source in zip(old, new):
        np.copyto(target, source, where=cond)
    return old


# The Stein route's elementary functions, on Python floats for a batch of one
# and on numpy arrays across a stack.  ``cutoff(den, tol)`` is ``1/den``, or 0
# where ``|den| <= tol``; ``pick(cond, new, old)`` is the tuple of entries of
# `new` where `cond` holds and of `old` elsewhere.
_FLOAT_OPS = SimpleNamespace(
    sqrt=math.sqrt, hypot=math.hypot, atan2=math.atan2, cos=math.cos,
    sin=math.sin,
    cutoff=lambda den, tol: 0.0 if abs(den) <= tol else 1.0 / den,
    pick=lambda cond, new, old: new if cond else old)
_ARRAY_OPS = SimpleNamespace(
    sqrt=np.sqrt, hypot=np.hypot, atan2=np.arctan2, cos=np.cos, sin=np.sin,
    cutoff=lambda den, tol: np.divide(1.0, den, out=np.zeros_like(den),
                                      where=~(np.abs(den) <= tol)),
    pick=_pick_arrays)
# Each lam carries an error of about eps lam_1, so 16 lam_i lam_j - 1 counts
# as 0 within _LAM_TOL lam_1 (lam_i + lam_j): six times that error.
_LAM_TOL = 6.0 * EPS_MACHINE * 16.0
# The largest symplectic eigenvalue whose g = 4 nu^2 stays a finite double
_NU_MAX = 0.5 * math.sqrt(np.finfo(float).max)


def _congruence(m, x):
    """``M X M^T`` for ``M = ((m[0], m[1]), (m[2], m[3]))`` and the symmetric
    ``X = ((x[0], x[1]), (x[1], x[2]))``, as the triple of its entries."""
    m11, m12, m21, m22 = m
    x11, x12, x22 = x
    r11, r12 = m11 * x11 + m12 * x12, m11 * x12 + m12 * x22
    r21, r22 = m21 * x11 + m22 * x12, m21 * x12 + m22 * x22
    return r11 * m11 + r12 * m12, r11 * m21 + r12 * m22, r21 * m21 + r22 * m22


def _inverse_form(s, d1, d2):
    """``d^T S^-1 d`` for the symmetric 2x2 ``S`` with entries `s`, by
    ``S = L D L^T``."""
    t = s[1] / s[0]
    e = d2 - t * d1
    return d1 * d1 / s[0] + e * e / (s[2] - t * s[1])


def _pair_terms(nu_j, nu_k, nu_max, ra, rd, rb, rc):
    """Share of the mode pair (j, k) in ``Tr[L dS]``, in a Williamson basis.

    With ``S = T D T^T`` (T symplectic, D the symplectic eigenvalues nu), the
    SLD equation turns into ``4 D L' D + W L' W = R`` for ``L' = T^T L T``
    and ``R = 2 T^-1 dS T^-T``, which splits into one 2x2 block per pair.
    For the block ``R_jk = ((ra, rb), (rc, rd))`` and ``g = 4 nu_j nu_k``::

        1/4 [((ra+rd)^2 + (rb-rc)^2)/(g-1) + ((ra-rd)^2 + (rb+rc)^2)/(g+1)]

    Every term is non-negative.  ``g - 1`` vanishes only for two pure modes;
    it is dropped within `_stein`'s cut on ``16 lam_j lam_k - 1 = g^2 - 1``
    (``lam = nu^2``, ``nu_max`` the largest nu).  Returns four arrays that
    broadcast as the arguments do: the share; the share with its ``g - 1``
    term weighted by ``g/(g - 1)``, which bounds how far a relative error
    in nu moves it (see `_williamson_sum`); the numerator that the cut
    dropped, 0 elsewhere; and the sum of both numerators, ``2 |R_jk|^2``.
    """
    g = 4.0 * nu_j * nu_k
    minus = (ra + rd) * (ra + rd) + (rb - rc) * (rb - rc)
    plus = (ra - rd) * (ra - rd) + (rb + rc) * (rb + rc)
    # nu_j^2 / (g + 1) before nu_max^2, which stays finite for every nu
    # below _NU_MAX
    inv = _ARRAY_OPS.cutoff(g - 1.0, _LAM_TOL * nu_max * nu_max * (
        nu_j / (g + 1.0) * nu_j + nu_k / (g + 1.0) * nu_k))
    near, far = 0.25 * minus * inv, 0.25 * plus / (g + 1.0)
    return near + far, near * g * inv + far, minus * (inv == 0.0), minus + plus


def _williamson_sum(y, nu, sound, s, ds, dd):
    """``(values, bound, dropped, norm)`` of the Williamson-basis sum.

    Takes a stack of k items, item axis first: a basis ``Y = D^-1/2 T^-1``
    (k, m, m), which takes ``S`` to ``I``, with its symplectic eigenvalues
    `nu` (k, m/2) and the flags `sound` of the items it can vouch for, from
    Stein's systems or `_eigh_basis`; ``s`` and ``ds`` (k, m, m), ``dd``
    (k, m).  The blocks of ``R = 2 T^-1 dS T^-T``, with ``T^-1 = D^1/2 Y``,
    give `_pair_terms`, summed over the pairs; the displacement term is
    ``|Y dd|^2``.

    ``err`` is the relative accuracy of the basis: the largest entry of
    ``|Y S Y^T - I|`` (how well ``T D T^T`` reconstructs ``S``) plus
    ``eps |Y| |S| |Y|^T`` (how far the rounding of the entries of ``S``
    moves it), and infinite where `sound` fails.  A relative error ``err``
    in nu moves each ``g - 1`` term by ``2 err g/(g - 1)`` of itself, so
    ``bound = err * (weighted terms + disp) / value``, at least ``err``,
    estimates the value's relative error to first order, and errors
    measured against 50-digit references stay below it.  `dropped` and
    `norm` sum the numerators that the cut dropped and all numerators.
    """
    yt = np.swapaxes(y, 1, 2)
    err = (np.abs(y @ s @ yt - np.eye(s.shape[-1]))
           + EPS_MACHINE * (np.abs(y) @ np.abs(s) @ np.abs(yt))).max(axis=(1, 2))
    t_inv = np.repeat(np.sqrt(nu), 2, axis=1)[:, :, None] * y
    r = t_inv @ (2.0 * ds) @ np.swapaxes(t_inv, 1, 2)
    trace, weighted, dropped, norm = (t.sum(axis=(1, 2)) for t in _pair_terms(
        nu[:, :, None], nu[:, None, :], nu.max(axis=1)[:, None, None],
        r[:, 0::2, 0::2], r[:, 1::2, 1::2], r[:, 0::2, 1::2], r[:, 1::2, 0::2]))
    z = np.einsum("gij,gj->gi", y, dd)
    disp = np.einsum("gi,gi->g", z, z)
    values = trace + disp
    ratio = (weighted + disp) * _ARRAY_OPS.cutoff(values, 0.0)
    return (values, np.where(sound, err, math.inf) * np.maximum(1.0, ratio),
            dropped, norm)


def _stein_basis(rows, nu):
    """``(Y, nu, sound)`` of a Stein system for `_williamson_sum`, from the
    rows of ``Y`` entry by entry and the nu, each an array over the items."""
    return np.moveaxis(np.array(rows), -1, 0), np.stack(nu, axis=1), True


def _one_mode_system(ops, s, ds, dd):
    """`_stein`'s system for one mode, where ``S_x = a`` and ``S_p = c`` are
    scalars and ``L_p = (b_x + 4 a^2 b_p) / (16 a^2 c^2 - 1)``.  Stein's basis
    is ``V = a^1/2``, with ``lam = a c``."""
    a, c = s[0][0], s[1][1]
    aa, cc = (2.0 * a) * (2.0 * a), (2.0 * c) * (2.0 * c)
    lam = a * c
    w = ops.cutoff(16.0 * lam * lam - 1.0, _LAM_TOL * lam * 2.0 * lam)

    def solve(r):
        lp = (r[0] + aa * r[1]) * w
        return cc * lp - r[1], lp

    def apply(l):
        return aa * l[0] - l[1], cc * l[1] - l[0]

    def basis(take):
        # Y = diag(a^-1/2, a^1/2 / nu)
        root, nu = np.sqrt(take(a)), np.sqrt(take(lam))
        zero = np.zeros_like(nu)
        return _stein_basis([[1.0 / root, zero], [zero, root / nu]], [nu])

    disp = dd[0] * dd[0] / a + dd[1] * dd[1] / c
    return solve, apply, (ds[0][0], ds[1][1]), (2.0, 2.0), disp, basis


def _two_mode_system(ops, s, ds, dd):
    """`_stein`'s system for two modes, on the entries ``(11, 12, 22)`` of
    the x and p blocks.

    With ``S_x = C C^T`` and ``C^T S_p C = U diag(lam) U^T``, ``V = C U``
    turns the Stein equation diagonal:
    ``L_p = V [(V^-1 R V^-T) o W] V^T`` with ``W_ij = 1/(16 lam_i lam_j - 1)``.
    It is Stein's basis: ``V V^T = S_x`` and ``V^T S_p V = diag(lam)``.
    """
    sx, sp = (s[0][0], s[0][2], s[2][2]), (s[1][1], s[1][3], s[3][3])
    mx, mp = (sx[0], sx[1], sx[1], sx[2]), (sp[0], sp[1], sp[1], sp[2])
    c11 = ops.sqrt(sx[0])
    c21 = sx[1] / c11
    c22 = ops.sqrt(sx[2] - c21 * c21)
    p11, p12, p22 = _congruence((c11, c21, 0.0, c22), sp)
    half = 0.5 * (p11 - p22)
    lam1 = 0.5 * (p11 + p22) + ops.hypot(half, p12)
    lam2 = (p11 * p22 - p12 * p12) / lam1
    angle = 0.5 * ops.atan2(p12, half)
    cos, sin = ops.cos(angle), ops.sin(angle)
    inv11, inv22 = 1.0 / c11, 1.0 / c22
    inv21 = -c21 * inv11 * inv22
    v = (c11 * cos, -c11 * sin, c21 * cos + c22 * sin, c22 * cos - c21 * sin)
    v_inv = (cos * inv11 + sin * inv21, sin * inv22,
             cos * inv21 - sin * inv11, cos * inv22)
    w11 = ops.cutoff(16.0 * lam1 * lam1 - 1.0, _LAM_TOL * lam1 * 2.0 * lam1)
    w12 = ops.cutoff(16.0 * lam1 * lam2 - 1.0, _LAM_TOL * lam1 * (lam1 + lam2))
    w22 = ops.cutoff(16.0 * lam2 * lam2 - 1.0, _LAM_TOL * lam1 * 2.0 * lam2)

    def solve(r):
        q = _congruence(mx, r[3:])
        y = _congruence(v_inv, (r[0] + 4.0 * q[0], r[1] + 4.0 * q[1],
                                r[2] + 4.0 * q[2]))
        lp = _congruence(v, (y[0] * w11, y[1] * w12, y[2] * w22))
        q = _congruence(mp, lp)
        return (4.0 * q[0] - r[3], 4.0 * q[1] - r[4], 4.0 * q[2] - r[5]) + lp

    def apply(l):
        qx, qp = _congruence(mx, l[:3]), _congruence(mp, l[3:])
        return (4.0 * qx[0] - l[3], 4.0 * qx[1] - l[4], 4.0 * qx[2] - l[5],
                4.0 * qp[0] - l[0], 4.0 * qp[1] - l[1], 4.0 * qp[2] - l[2])

    def basis(take):
        # Y = V^-1 on the x rows and nu^-1 V^T on the p rows
        (i11, i12, i21, i22), (v11, v12, v21, v22) = map(take, v_inv), map(take, v)
        nu1, nu2 = np.sqrt(take(lam1)), np.sqrt(take(lam2))
        zero = np.zeros_like(nu1)
        return _stein_basis([[i11, zero, i12, zero],
                             [zero, v11 / nu1, zero, v21 / nu1],
                             [i21, zero, i22, zero],
                             [zero, v12 / nu2, zero, v22 / nu2]], [nu1, nu2])

    b = (ds[0][0], ds[0][2], ds[2][2], ds[1][1], ds[1][3], ds[3][3])
    disp = _inverse_form(sx, dd[0], dd[2]) + _inverse_form(sp, dd[1], dd[3])
    # 2 Tr[X dS] counts each off-diagonal entry twice
    return solve, apply, b, (2.0, 4.0, 2.0, 2.0, 4.0, 2.0), disp, basis


def _dot(x, y):
    """``sum(x[k] * y[k])`` over two sequences of entries."""
    return sum(map(operator.mul, x, y), 0.0)


def _stein(ops, s, ds, dd):
    """QFI values and relative SLD residuals by the Stein route, and Stein's
    Williamson basis of the same items.

    For ``S`` and ``dS`` with no x-p entries, the same-parity SLD system is
    two coupled equations on the x and p blocks (x the quadratures ``0::2``,
    p ``1::2``): ``4 S_x L_x S_x - L_p = b_x`` and ``4 S_p L_p S_p - L_x = b_p``
    with ``b = 2 dS``.  Eliminating ``L_x`` leaves the Stein equation
    ``16 M L_p M^T - L_p = R``, with ``M = S_x S_p`` and
    ``R = b_x + 4 S_x b_p S_x``, and ``L_x`` follows from the second equation.
    `_one_mode_system` and `_two_mode_system` solve it in the eigenbasis of
    ``M``, whose eigenvalues ``lam`` are the squared symplectic eigenvalues.
    A pure mode (``lam = 1/4``) zeroes a denominator ``16 lam_i lam_j - 1``
    over a zero numerator; its ``1/den`` is set to 0 where ``den`` is within
    ``6 eps 16 lam_1 (lam_i + lam_j)``, six times the error it inherits from
    ``lam``, which drops that direction from ``L_p``.

    Two steps of refinement on the coupled equations follow.  A step that
    does not lower the residual is dropped: near a pure mode the Stein
    solve amplifies the rounding noise of the residual.  The relative
    residual is that of the same-parity equations.  ``s[i][j]``,
    ``ds[i][j]`` and ``dd[i]`` are entries: Python floats for one item, or
    arrays across a stack (the contiguous rows of an item-last stack), with
    the elementary functions of `ops` to match.

    The route solves for ``X = L/2``, whose right-hand side is ``dS``
    itself, so that it copies no entry of ``dS``; scaling by 2 is exact, so
    the values are those of a solve for ``L``.  Each system returns
    ``(solve, apply, b, weights, disp, basis)``, with the unknowns and
    equations flattened as the x block then the p block (their distinct
    entries): ``apply(X)`` is the left-hand side, ``solve(r)`` solves it for
    the right-hand side ``r`` by the Stein equation, ``b`` is ``dS``,
    ``Tr[L dS] = sum(weights * X * b)`` and ``disp = dd^T S^-1 dd``.
    Stein's basis is a Williamson basis ``T = V nu^-1/2 (+) V^-T nu^1/2``,
    with no `eigh`: ``basis(take)`` returns `_williamson_sum`'s
    ``(Y, nu, sound)`` for the items that ``take(entry)`` selects, as a
    numpy array, from each entry.  `_stein` returns ``(values, rel, basis)``.
    """
    system = _one_mode_system if len(dd) == 2 else _two_mode_system
    solve, apply, b, weights, disp, basis = system(ops, s, ds, dd)
    n = len(b)

    def state(x):
        """``X``, then its residual ``b - apply(X)``, then the residual's norm^2."""
        gap = tuple(map(operator.sub, b, apply(x)))
        return x + gap + (_dot(gap, gap),)

    def refine(best):
        # a function, so that a stack frees each step's arrays before the next
        step = state(tuple(map(operator.add, best[:n], solve(best[n:2 * n]))))
        # a step that does not lower the residual adds only noise: drop it
        return ops.pick(step[-1] < best[-1], step, best)

    best = state(solve(b))
    for _ in range(2):  # iterative refinement for ill-conditioned corners
        best = refine(best)
    # X = 0 where b = 0, so the relative residual is 0 there
    rel = ops.sqrt(best[-1]) * ops.cutoff(ops.sqrt(_dot(b, b)), 0.0)
    return _dot(map(operator.mul, weights, best[:n]), b) + disp, rel, basis


def _eigh_basis(s):
    """``(Y, nu, sound)`` for `_williamson_sum`, for any stack ``s`` of
    covariances (k, m, m), item axis first.

    Builds a Williamson basis from two batched `eigh` calls.
    ``S = Q diag(w) Q^T`` gives ``S^-1/2``; the Hermitian
    ``i S^-1/2 W S^-1/2`` has the eigenvalues ``+-1/nu``, and the real and
    imaginary parts of the eigenvectors of ``+1/nu`` give an orthogonal
    ``O`` with ``O^T S^-1/2 W S^-1/2 O = D^-1/2 W D^-1/2``.  Then
    ``T = S^1/2 O D^-1/2`` is symplectic with ``S = T D T^T``, and
    ``Y = D^-1/2 T^-1 = O^T S^-1/2``.  An item with ``w_min <= eps w_max``,
    whose ``S^-1/2`` carries no digit, is not `sound`: it gets ``I`` in
    place of ``S^-1/2``, so that no non-finite entry reaches the second
    `eigh`.
    """
    count, m, _ = s.shape
    w, q = np.linalg.eigh(s)
    sound = w[:, 0] > EPS_MACHINE * w[:, -1]
    inv_half = np.where(sound[:, None, None],
                        (q / np.sqrt(np.where(sound[:, None], w, 1.0))[:, None, :])
                        @ q.transpose(0, 2, 1), np.eye(m))
    mu, z = np.linalg.eigh(1j * (inv_half @ symplectic_form(m // 2) @ inv_half))
    z = math.sqrt(2.0) * z[:, :, m // 2:]
    o = np.empty((count, m, m))
    o[:, :, 0::2], o[:, :, 1::2] = z.imag, z.real
    return o.transpose(0, 2, 1) @ inv_half, 1.0 / mu[:, m // 2:], sound


def _sld_qfi_batch(st, dst, ddt):
    """QFI values for a stack of channel outputs, item axis last: ``st`` and
    ``dst`` of shape (m, m, G), ``ddt`` of shape (m, G).

    Each entry ``st[i, j]`` is then one contiguous row of G floats, which is
    what the Stein route reads; one state is the stack ``st[..., None]``.  A
    non-finite entry raises `NonPhysical`, naming the first such item, before
    any solve.  A stack whose ``S`` and ``dS`` all have exactly zero x-p
    entries (canonical probes through the phase-covariant channel) is solved
    by the Stein route (`_stein`): explicit 2x2 arithmetic in one pass over
    the stack, or on Python floats for a batch of one (a domain error there
    reruns it on arrays, where it becomes an inf or a nan).  Items that it
    settles to ``SLD_RESIDUAL_TOL`` keep its values.  The others take the
    Williamson-basis sum (`_williamson_sum`) in Stein's basis, gathered for
    those items alone; every item of any other stack takes the same sum in
    the basis that `_eigh_basis` builds.  Pure output modes drop out on
    either route: a cut ``g - 1`` term has a zero numerator, as ``dS`` is
    orthogonal to the kernel of the SLD operator.

    The sum has no residual, so the decomposition alone certifies its
    items: the basis and the value are finite; the error bound, the
    accuracy of the basis times the weight of the ``g - 1`` terms, is at
    most ``SLD_RESIDUAL_TOL``; and the numerators that the cut dropped sum
    to at most ``SLD_RESIDUAL_TOL^2`` times all numerators, or the QFI
    diverges (a pure mode whose purity changes with eta).  The first item
    that fails raises `SingularSystem`, and so does, before any solve, an
    ``S`` so large that ``g = 4 nu_j nu_k`` would overflow.
    """
    count = st.shape[-1]
    finite = (np.isfinite(st).all(axis=(0, 1)) & np.isfinite(dst).all(axis=(0, 1))
              & np.isfinite(ddt).all(axis=0))
    if not finite.all():
        raise NonPhysical(f"SLD stack item {np.argmin(finite)} has a non-finite "
                          "moment or derivative")
    # nu <= |S| <= m max|S_ij|, and g = 4 nu_j nu_k must be a finite double
    fits = len(st) * np.abs(st).max(axis=(0, 1)) < _NU_MAX
    if not fits.all():
        raise SingularSystem(f"SLD item {np.argmin(fits)}: S is so large that "
                             "g = 4 nu_j nu_k overflows")
    # an inf or nan met on the way fails the checks below
    with np.errstate(all="ignore"):
        if st[0::2, 1::2].any() or dst[0::2, 1::2].any():
            values, items, basis = np.empty(count), np.arange(count), None
        else:
            if count == 1:
                try:
                    values, rel, basis = _stein(
                        _FLOAT_OPS, *(x[..., 0].tolist() for x in (st, dst, ddt)))
                except (ArithmeticError, ValueError):  # a domain error
                    values, rel, basis = _stein(_ARRAY_OPS, st, dst, ddt)
            else:
                values, rel, basis = _stein(_ARRAY_OPS, st, dst, ddt)
            values = np.atleast_1d(values)
            items = np.flatnonzero(~(np.atleast_1d(rel) <= SLD_RESIDUAL_TOL))
            if not items.size:
                return values
        s, ds, dd = (np.moveaxis(x[..., items], -1, 0) for x in (st, dst, ddt))
        y, nu, sound = (_eigh_basis(s) if basis is None
                        else basis(lambda x: np.atleast_1d(x)[items]))
        values[items], bound, dropped, norm = _williamson_sum(y, nu, sound, s, ds, dd)
        diverges = ~(dropped <= SLD_RESIDUAL_TOL ** 2 * norm)
    finite = np.isfinite(bound) & np.isfinite(values[items])
    bad = ~finite | diverges | ~(bound <= SLD_RESIDUAL_TOL)
    if bad.any():
        k = np.argmax(bad)
        if not finite[k]:
            raise SingularSystem(f"SLD item {items[k]} has no finite Williamson basis")
        if not bound[k] <= SLD_RESIDUAL_TOL:
            raise SingularSystem(f"SLD item {items[k]}: error bound {bound[k]:.3e} "
                                 f"exceeds {SLD_RESIDUAL_TOL}")
        raise SingularSystem(f"SLD item {items[k]} has a pure mode whose purity "
                             "changes with eta: the QFI diverges")
    return values


def qfi_sld(probe: GaussianState, p: ChannelParams) -> float:
    """QFI from the SLD equation, for 1- and 2-mode probes; raises
    `SingularSystem` for a state that `_sld_qfi_batch` does not certify."""
    _scalar_eta(p)
    _check_eta(p)
    _, st = output_moments(probe.d, probe.sigma, p)
    ddt, dst = moment_derivatives(probe.d, probe.sigma, p)
    (value,) = _sld_qfi_batch(st[..., None], dst[..., None], ddt[..., None])
    return float(value)


def _two_mode_qfi(n_s: float, zeta: np.ndarray, r: np.ndarray, p: ChannelParams):
    """QFI of the canonical two-mode probes ``(n_s, zeta[k], r[k])``.

    `zeta` and `r` are flat; one `_sld_qfi_batch` call takes every point,
    singular ones (a pure idler at r_min) included, and raises
    `SingularSystem` for the first point it does not certify.  The SLD
    route is the only one: the closed form loses up to ~4 digits to
    cancellation at small eta with bright backgrounds, enough to corrupt an
    argmax over a nearly flat landscape, and the normalized model has none.
    Raises `EtaTooClose` inside the eta guard band.
    """
    _scalar_eta(p)
    _check_eta(p)
    d, sigma = two_mode_moments(n_s, zeta, r)
    _, st = output_moments(d, sigma, p)
    ddt, dst = moment_derivatives(d, sigma, p)
    return _sld_qfi_batch(st, dst, ddt)


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

# the branches of `_if_terms`, each the first entry of the factors of `_if_channel`
_VACUUM, _HELD, _BARE = range(3)


def _if_channel(p: ChannelParams):
    """The factors of the idler-free closed form that depend on the channel
    alone, for :func:`_if_terms`; a search computes them once, not per step.

    A plain tuple, cheap to build on every scalar call: the branch, then the
    factors that :func:`_if_terms` unpacks for it.  Each factor is a
    subexpression that the closed form evaluates as one unit, in the same
    order, so splitting it out keeps every bit.  N_B is a numpy float, so
    that a huge bath overflows with a numpy signal (see `_photons`).
    """
    e2 = _sq(p.eta)
    one = 1.0 - e2
    if p.n_b == 0.0:
        # bare and normalized models coincide
        return _VACUUM, e2, one, _sq(one) + _sq(e2)
    nb = np.float64(p.n_b)
    nb_nb1 = nb * (nb + 1.0)
    tnb1 = 2.0 * nb + 1.0
    if _held_background(p):
        return _HELD, e2, _sq(e2), 2.0 * nb, nb_nb1, tnb1, _sq(tnb1)
    nb_sq = _sq(nb)
    return _BARE, e2, one, nb_nb1, tnb1, one * tnb1, nb_sq * e2, 4.0 * nb_sq * e2


def _take(c, index):
    """The channel factors `c` of an array eta at `index` (any numpy index)."""
    return tuple(v[index] if isinstance(v, np.ndarray) else v for v in c)


def _if_total(n_coh, n_sq, c):
    """Total of :func:`qfi_if_closed` for checked inputs and the channel
    factors `c` of :func:`_if_channel`; arrays stay arrays."""
    i_disp, i_sq, i_shadow = _if_terms(n_coh, n_sq, c)
    return i_disp + i_sq + i_shadow


def _if_terms(n_coh, n_sq, c):
    """The three terms of :func:`qfi_if_closed` from the photon numbers and
    the channel factors `c` of :func:`_if_channel`; trusts `n_coh`, `n_sq`
    and the eta guard.  The denominators are positive for every channel
    `ChannelParams` admits (N_B is 0 or a normal float).  Every power of an
    eta-dependent base goes through `_sq`, so an array eta gives the bits of
    scalar calls."""
    r = squeeze_parameter(n_sq)
    if c[0] == _VACUUM:
        _, e2, one, sq_gain = c
        i_disp = 4.0 * n_coh / (e2 * r + one)
        a_den = one * n_sq * e2
        i_sq = 4.0 * n_sq * sq_gain / (one * (2.0 * a_den + 1.0))
        i_shadow = 0.0
    elif c[0] == _HELD:
        _, e2, e4, two_nb, nb_nb1, tnb1, tnb1_sq = c
        # not r*e2 + (2N_B + 1 - e2): the sum rounds left to right
        i_disp = 4.0 * n_coh / (r * e2 + two_nb + 1.0 - e2)
        b_den = nb_nb1 + n_sq * e2 * tnb1 - n_sq * e4
        i_sq = (4.0 * n_sq * e2 / b_den) * (
            (n_sq + 1.0) * tnb1_sq / (2.0 * b_den + 1.0) - 1.0)
        i_shadow = 0.0
    else:
        _, e2, one, nb_nb1, tnb1, one_tnb1, nb_sq_e2, shadow = c
        i_disp = 4.0 * n_coh / (e2 * r + one_tnb1)
        a_den = one * (nb_nb1 + n_sq * e2 * tnb1 - nb_sq_e2)
        i_sq = (4.0 * n_sq * e2 * tnb1 / a_den) * (
            (n_sq + 1.0) * tnb1 / (2.0 * a_den + 1.0) - 1.0)
        i_shadow = shadow / a_den
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
    i_disp, i_sq, i_shadow = _if_terms(n_coh, n_sq, _if_channel(p))
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
    # subexpressions that each recur as one unit of the terms below
    a4, e2x2, one_sq = 4.0 * a2, 2.0 * e2, one ** 2
    tnb = 1.0 + 2.0 * nb
    nb_poly = 2.0 * nb ** 2 + 2.0 * nb + 1.0
    a4p = a4 + 1.0
    w = a4 * tnb ** 2 - 1.0
    g = 2.0 * a * e2 * (1.0 + r * r) * tnb
    h = 2.0 * a * one * tnb
    trace_term = a4p / e2 + e2x2 / one_sq
    pref = r / (e2 * (1.0 - nb * (nb + 1.0) * (a4 - 1.0) * one_sq))
    num1 = one * nb * (nb + 1.0) * (a4 * one + e2 + 1.0) ** 2 * w
    den1 = g + r * (one * w - e2x2)
    # the fraction carries a factor N_B(N_B+1) and vanishes identically; where
    # its denominator hits zero too (a = 1/2, r = 1, N_B = 0) it becomes 0/1
    den1 = den1 + ((num1 == 0.0) & (den1 == 0.0))
    num2 = (one * a4p * nb_poly + e2x2 / one) ** 2 - 16.0 * a2 * e2 ** 2 * tnb ** 2
    den2 = g * one + r * (one_sq * a4p * nb_poly + e2x2)
    trace_term += pref * (num1 / den1 - num2 / den2)
    disp_term = 8.0 * n_coh * a * (np.cos(theta) ** 2 / (h + r * e2)
                                   + np.sin(theta) ** 2 / (h + e2 / r))
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
    # n_s and N_B as numpy floats, so that an overflow signals (see `_photons`)
    return float(_two_mode_closed_raw(np.float64(probe.n_s), probe.zeta, probe.r,
                                      probe.theta, p.eta, np.float64(p.n_b)))


# ---------------------------------------------------------------------------
# homodyne detection and rate estimation
# ---------------------------------------------------------------------------

def homodyne_fisher(n_coh: float, r: float, p: ChannelParams) -> float:
    """Classical Fisher information of in-phase homodyne on a probe (n_coh, r).

    The measured quadrature is Gaussian with mean ``eta sqrt(2 n_coh)`` and
    variance ``eta^2 r/2 + y(eta)``, so
    ``H = (dm)^2 / V + (dV)^2 / (2 V^2)``.  ``V`` and ``dV`` are numpy
    floats, and an overflow or invalid operation in ``H`` raises
    `FloatingPointError`, never a warning with an inf or a nan.
    """
    _scalar_eta(p)
    if not 0.0 < r <= 1.0:
        raise ValueError("r must lie in (0, 1]")
    if not 0.0 <= n_coh < math.inf:
        raise ValueError(f"n_coh must be finite and non-negative, got {n_coh}")
    var = np.float64(0.5 * p.eta ** 2 * r + additive_noise(p))
    dvar = np.float64(p.eta * r + additive_noise_derivative(p))
    dmean_sq = 2.0 * n_coh
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        return float(dmean_sq / var + 0.5 * dvar ** 2 / var ** 2)


def qfi_gamma(gamma: float, t: float, probe: GaussianState,
              p_base: ChannelParams) -> float:
    """QFI for estimating the loss rate gamma after interrogation time t.

    Chain rule on eta = exp(-gamma t / 2):
    ``I_gamma = (t^2/4) exp(-gamma t) I_eta(eta)``.  Returns 0 at t = 0, where
    the prefactor vanishes, once `gamma_to_eta` has checked gamma and t.
    """
    eta = gamma_to_eta(gamma, t)
    if t == 0.0:
        return 0.0
    i_eta = qfi_sld(probe, replace(p_base, eta=eta))
    return float(0.25 * t ** 2 * math.exp(-gamma * t) * i_eta)
