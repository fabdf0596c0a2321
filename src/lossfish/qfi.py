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
    sum in the basis of `states._williamson`.  Either basis, with its
    `states._basis_error`, feeds one function, `_williamson_sum`, which
    certifies the sum from its basis alone, by an error bound.  One kernel,
    `_sld_qfi_batch`, serves single states and stacks, and raises
    `SingularSystem` for the first item it cannot certify; `qfi_sld` and the
    two-mode grid (`_two_mode_qfi`) only call it.
    The kernel reads its moments entry by entry: ``s[i][j]``, ``ds[i][j]``
    and ``dd[i]`` are arrays over the G items, or floats that every item
    shares, as at the grid's structural zeros; no ``(4, 4, G)`` stack is built.
    `qfi_sld` hands it one state as the nested Python floats of the
    channel's entry functions, which it checks and solves as they are; no
    output `GaussianState` or array is built for a canonical state.
``qfi_single_mode_form``
    Purity form for one mode:
    ``Tr[(S^-1 dS)^2] / (2 (1 + mu^2)) + 2 mu'^2 / (1 - mu^4) + dd^T S^-1 dd``,
    as closed-form 2x2 arithmetic on the same Python floats.
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

import itertools
import math
import operator
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from .channel import (ChannelParams, _channel_factors, _derivative_entries,
                      _first_failing, _held_background, _output_entries, _scalar_eta,
                      apply_channel, gamma_to_eta)
from .errors import EtaTooClose, NonPhysical, SingularSystem
from .fidelity import gaussian_fidelity
from .probes import TwoModeProbe, _canonical_factors, squeeze_parameter
from .states import EPS_MACHINE, GaussianState, _basis_error, _williamson

EPS_ETA = 1e-7
FD_STEP = 1e-4
SLD_RESIDUAL_TOL = 1e-8


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
    """The arrays of `new` where `cond` holds and of `old` elsewhere, as
    ``np.where`` gives them (a NaN in `cond`'s comparison keeps `old`).

    Writes the side that fewer items take into the other, in place, at
    `np.flatnonzero` indices: a refinement step keeps most of its items or
    few, and an index write costs what its items do, where a masked copy
    reads every item.  The Stein route allocates every array it passes
    here, and keeps only the list returned."""
    taken = np.flatnonzero(cond)
    if 2 * taken.size < cond.size:
        target, source, items = old, new, taken
    else:
        target, source, items = new, old, np.flatnonzero(~cond)
    for t, s in zip(target, source):
        t[items] = s[items]
    return target


def _cutoff_arrays(den, tol):
    """``1/den``, or 0 where ``|den| <= tol``, by one division: a kept entry
    gets the same IEEE quotient, a NaN stays NaN.  The division signals no
    divide-by-zero or overflow (a cut ``den`` may be 0 or tiny), so that it
    needs no errstate from its caller."""
    with np.errstate(divide="ignore", over="ignore"):
        inv = 1.0 / den
    inv[np.abs(den) <= tol] = 0.0
    return inv


# The Stein route's elementary functions, on Python floats for a batch of one
# and on numpy arrays across a stack.  ``cutoff(den, tol)`` is ``1/den``, or 0
# where ``|den| <= tol``; ``pick(cond, new, old)`` is the list of entries of
# `new` where `cond` holds and of `old` elsewhere, and may reuse the arrays of
# either.
_FLOAT_OPS = SimpleNamespace(
    sqrt=math.sqrt, hypot=math.hypot, atan2=math.atan2, cos=math.cos,
    sin=math.sin,
    cutoff=lambda den, tol: 0.0 if abs(den) <= tol else 1.0 / den,
    pick=lambda cond, new, old: new if cond else old)
_ARRAY_OPS = SimpleNamespace(
    sqrt=np.sqrt, hypot=np.hypot, atan2=np.arctan2, cos=np.cos, sin=np.sin,
    cutoff=_cutoff_arrays, pick=_pick_arrays)
# Each lam carries an error of about eps lam_1, so 16 lam_i lam_j - 1 counts
# as 0 within _LAM_TOL lam_1 (lam_i + lam_j): six times that error.
_LAM_TOL = 6.0 * EPS_MACHINE * 16.0
# The largest symplectic eigenvalue whose g = 4 nu^2 stays a finite double
_NU_MAX = 0.5 * math.sqrt(np.finfo(float).max)
# what `_sld_qfi_batch` raises for an item outside its domain
_NON_FINITE = "SLD stack item {} has a non-finite moment or derivative"
_TOO_LARGE = "SLD item {}: S is so large that g = 4 nu_j nu_k overflows"


def _congruence(m, x):
    """``M X M^T`` for ``M = ((m[0], m[1]), (m[2], m[3]))`` and the symmetric
    ``X = ((x[0], x[1]), (x[1], x[2]))``, as the list of its entries, each
    one made here.  The product ``m[1] x[1]`` is taken once where
    ``m[1] is m[2]``."""
    m11, m12, m21, m22 = m
    x11, x12, x22 = x
    r11, r12, r21 = m11 * x11, m11 * x12, m21 * x11
    shared = m12 * x12
    r11 += shared
    r22 = shared if m21 is m12 else m21 * x12
    r12 += m12 * x22
    r21 += m22 * x12
    r22 += m22 * x22
    first = r11 * m11
    first += r12 * m12
    r11 *= m21
    r12 *= m22
    r11 += r12
    r21 *= m21
    r22 *= m22
    r21 += r22
    return [first, r11, r21]


def _inverse_form(s, d1, d2):
    """``d^T S^-1 d`` for the symmetric 2x2 ``S`` with entries `s`, by
    ``S = L D L^T``."""
    t = s[1] / s[0]
    e = d2 - t * d1
    e *= e
    e /= s[2] - t * s[1]
    form = d1 * d1
    form /= s[0]
    form += e
    return form


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


def _williamson_sum(y, nu, err, ds, dd):
    """``(values, bound, dropped, norm)`` of the Williamson-basis sum.

    Takes a stack of k items, item axis first: a basis ``Y = D^-1/2 T^-1``
    (k, m, m), its symplectic eigenvalues `nu` (k, m/2) and its error `err`
    (k,), from Stein's systems or `_williamson`; ``ds`` (k, m, m) and ``dd``
    (k, m).  The blocks of ``R = 2 T^-1 dS T^-T``, with ``T^-1 = D^1/2 Y``,
    give `_pair_terms`, summed over the pairs; the displacement term is
    ``|Y dd|^2``.

    A relative error ``err`` in nu moves each ``g - 1`` term by
    ``2 err g/(g - 1)`` of itself, so
    ``bound = err * (weighted terms + disp) / value``, at least ``err``,
    estimates the value's relative error to first order, and errors
    measured against 50-digit references stay below it.  `dropped` and
    `norm` sum the numerators that the cut dropped and all numerators.
    """
    t_inv = np.repeat(np.sqrt(nu), 2, axis=1)[:, :, None] * y
    r = t_inv @ (2.0 * ds) @ np.swapaxes(t_inv, 1, 2)
    trace, weighted, dropped, norm = (t.sum(axis=(1, 2)) for t in _pair_terms(
        nu[:, :, None], nu[:, None, :], nu.max(axis=1)[:, None, None],
        r[:, 0::2, 0::2], r[:, 1::2, 1::2], r[:, 0::2, 1::2], r[:, 1::2, 0::2]))
    z = np.einsum("gij,gj->gi", y, dd)
    disp = np.einsum("gi,gi->g", z, z)
    values = trace + disp
    ratio = (weighted + disp) * _ARRAY_OPS.cutoff(values, 0.0)
    return values, err * np.maximum(1.0, ratio), dropped, norm


def _stein_basis(rows, nu, s):
    """``(Y, nu, err)`` of a Stein system: the rows of ``Y`` and the nu, each
    an array over the items, and `s`, their item-first covariance stack."""
    y = np.moveaxis(np.array(rows), -1, 0)
    return y, np.stack(nu, axis=1), _basis_error(y, s)


def _weight(ops, lam_i, lam_j, tol):
    """``1/(16 lam_i lam_j - 1)``, or 0 where the denominator is within `tol`."""
    den = 16.0 * lam_i
    den *= lam_j
    den -= 1.0
    return ops.cutoff(den, tol)


def _one_mode_system(ops, s, ds, dd):
    """`_stein`'s system for one mode, where ``S_x = a`` and ``S_p = c`` are
    scalars and ``L_p = (b_x + 4 a^2 b_p) / (16 a^2 c^2 - 1)``.  Stein's basis
    is ``V = a^1/2``, with ``lam = a c``."""
    a, c = s[0][0], s[1][1]
    aa, cc = (2.0 * a) * (2.0 * a), (2.0 * c) * (2.0 * c)
    lam = a * c
    w = _weight(ops, lam, lam, _LAM_TOL * lam * 2.0 * lam)

    def solve(r):
        lp = aa * r[1]
        lp += r[0]
        lp *= w
        lx = cc * lp
        lx -= r[1]
        return [lx, lp]

    def apply(l):
        qx, qp = aa * l[0], cc * l[1]
        qx -= l[1]
        qp -= l[0]
        return [qx, qp]

    def basis(take, s):
        # Y = diag(a^-1/2, a^1/2 / nu)
        root, nu = np.sqrt(take(a)), np.sqrt(take(lam))
        zero = np.zeros_like(nu)
        return _stein_basis([[1.0 / root, zero], [zero, root / nu]], [nu], s)

    disp = dd[0] * dd[0] / a + dd[1] * dd[1] / c
    return solve, apply, (ds[0][0], ds[1][1]), (2.0, 2.0), disp, basis


def _two_mode_system(ops, s, ds, dd):
    """`_stein`'s system for two modes, on the entries ``(11, 12, 22)`` of
    the x and p blocks.

    With ``S_x = C C^T`` and ``C^T S_p C = U diag(lam) U^T``, ``V = C U``
    turns the Stein equation diagonal:
    ``L_p = V [(V^-1 R V^-T) o W] V^T`` with ``W_ij = 1/(16 lam_i lam_j - 1)``.
    It is Stein's basis: ``V V^T = S_x`` and ``V^T S_p V = diag(lam)``.
    The congruences of the equations take ``2 S_x`` and ``2 S_p``, whose
    ``(2 S) X (2 S)`` is ``4 S X S`` bit for bit, as scaling by 2 is exact.
    """
    sx, sp = (s[0][0], s[0][2], s[2][2]), (s[1][1], s[1][3], s[3][3])
    x12, p12 = 2.0 * sx[1], 2.0 * sp[1]
    mx, mp = (2.0 * sx[0], x12, x12, 2.0 * sx[2]), (2.0 * sp[0], p12, p12, 2.0 * sp[2])
    c11 = ops.sqrt(sx[0])
    c21 = sx[1] / c11
    c22 = ops.sqrt(sx[2] - c21 * c21)
    p11, p12, p22 = _congruence((c11, c21, 0.0, c22), sp)
    half = p11 - p22
    half *= 0.5
    lam1 = p11 + p22
    lam1 *= 0.5
    lam1 += ops.hypot(half, p12)
    lam2 = p11 * p22
    lam2 -= p12 * p12
    lam2 /= lam1
    angle = ops.atan2(p12, half)
    angle *= 0.5
    cos, sin = ops.cos(angle), ops.sin(angle)
    inv11, inv22 = 1.0 / c11, 1.0 / c22
    inv21 = -c21
    inv21 *= inv11
    inv21 *= inv22
    v12, v21, v22 = -c11, c21 * cos, c22 * cos
    v12 *= sin
    v21 += c22 * sin
    v22 -= c21 * sin
    i11, i21 = cos * inv11, cos * inv21
    i11 += sin * inv21
    i21 -= sin * inv11
    v, v_inv = (c11 * cos, v12, v21, v22), (i11, sin * inv22, i21, cos * inv22)
    tol = _LAM_TOL * lam1
    w12 = _weight(ops, lam1, lam2, tol * (lam1 + lam2))
    tol *= 2.0
    w11 = _weight(ops, lam1, lam1, tol * lam1)
    tol *= lam2
    w22 = _weight(ops, lam2, lam2, tol)

    def solve(r):
        q11, q12, q22 = _congruence(mx, r[3:])
        q11 += r[0]
        q12 += r[1]
        q22 += r[2]
        y11, y12, y22 = _congruence(v_inv, (q11, q12, q22))
        y11 *= w11
        y12 *= w12
        y22 *= w22
        lp = _congruence(v, (y11, y12, y22))
        x11, x12, x22 = _congruence(mp, lp)
        x11 -= r[3]
        x12 -= r[4]
        x22 -= r[5]
        return [x11, x12, x22, *lp]

    def apply(l):
        x11, x12, x22 = _congruence(mx, l[:3])
        p11, p12, p22 = _congruence(mp, l[3:])
        x11 -= l[3]
        x12 -= l[4]
        x22 -= l[5]
        p11 -= l[0]
        p12 -= l[1]
        p22 -= l[2]
        return [x11, x12, x22, p11, p12, p22]

    def basis(take, s):
        # Y = V^-1 on the x rows and nu^-1 V^T on the p rows
        (i11, i12, i21, i22), (v11, v12, v21, v22) = map(take, v_inv), map(take, v)
        nu1, nu2 = np.sqrt(take(lam1)), np.sqrt(take(lam2))
        zero = np.zeros_like(nu1)
        return _stein_basis([[i11, zero, i12, zero],
                             [zero, v11 / nu1, zero, v21 / nu1],
                             [i21, zero, i22, zero],
                             [zero, v12 / nu2, zero, v22 / nu2]], [nu1, nu2], s)

    b = (ds[0][0], ds[0][2], ds[2][2], ds[1][1], ds[1][3], ds[3][3])
    disp = _inverse_form(sx, dd[0], dd[2])
    disp += _inverse_form(sp, dd[1], dd[3])
    # 2 Tr[X dS] counts each off-diagonal entry twice
    return solve, apply, b, (2.0, 4.0, 2.0, 2.0, 4.0, 2.0), disp, basis


def _dot(x, y):
    """``sum(x[k] * y[k])`` over two sequences of entries, accumulated into
    the first product: a start of 0.0 would cost a stack one more pass, and
    on Python floats the loop costs less than `functools.reduce`."""
    products = map(operator.mul, x, y)
    total = next(products)
    for product in products:
        total += product
    return total


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
    does not lower the residual is dropped, item by item: near a pure mode
    the Stein solve amplifies the rounding noise of the residual.  On a
    stack, ``ops.pick`` keeps the step's or the previous arrays, whichever
    most items take, and writes the other side's items into them.  The
    relative residual is that of the same-parity equations.  ``s[i][j]``,
    ``ds[i][j]`` and ``dd[i]`` are Python floats for one item; on a stack,
    1-D arrays over its items, or floats that they all share, with the
    elementary functions of `ops` to match.

    The route solves for ``X = L/2``, whose right-hand side is ``dS``
    itself, so that it copies no entry of ``dS``; scaling by 2 is exact, so
    the values are those of a solve for ``L``.  Each system returns
    ``(solve, apply, b, weights, disp, basis)``, with the unknowns and
    equations flattened as the x block then the p block (their distinct
    entries): ``apply(X)`` is the left-hand side, ``solve(r)`` solves it for
    the right-hand side ``r`` by the Stein equation, ``b`` is ``dS``,
    ``Tr[L dS] = sum(weights * X * b)`` and ``disp = dd^T S^-1 dd``.
    Stein's basis is a Williamson basis ``T = V nu^-1/2 (+) V^-T nu^1/2``,
    with no `eigh`: ``basis(take, s)`` returns `_williamson_sum`'s
    ``(Y, nu, err)`` of the items that ``take`` selects from each entry, and
    ``s``, their item-first stack.  `_stein` returns ``(values, rel, basis)``.

    The route sums and scales in place (``+=``, ``-=``, ``*=``, ``/=``), so
    that a stack allocates one array per product, not one per operation.
    Only an array that the route has just made is written, and it stays on
    the left: ``a += b`` is ``a + b``, and IEEE addition and multiplication
    commute, so every value keeps its bits; ``b - apply(X)``, whose own
    operand is on the right, allocates.  No entry of ``s``, ``ds`` or ``dd``
    is written, and an entry that stands for several is read as each.  For
    one item the same code runs on Python floats.
    """
    system = _one_mode_system if len(dd) == 2 else _two_mode_system
    solve, apply, b, weights, disp, basis = system(ops, s, ds, dd)
    n = len(b)

    def state(x):
        """``X``, then its residual ``b - apply(X)``, then the residual's norm^2."""
        gap = list(map(operator.sub, b, apply(x)))
        return x + gap + [_dot(gap, gap)]

    def refine(best):
        # a function, so that a stack frees each step's arrays before the next
        step = state(list(map(operator.iadd, solve(best[n:2 * n]), best)))
        # a step that does not lower the residual adds only noise: drop it
        return ops.pick(step[-1] < best[-1], step, best)

    best = state(solve(b))
    for _ in range(2):  # iterative refinement for ill-conditioned corners
        best = refine(best)
    # X = 0 where b = 0, so the relative residual is 0 there
    rel = ops.sqrt(best[-1])
    rel *= ops.cutoff(ops.sqrt(_dot(b, b)), 0.0)
    values = _dot(map(operator.mul, weights, best[:n]), b)
    values += disp
    return values, rel, basis


def _blocks(table):
    """The objects that hold the entries of a table, each once: an ndarray
    with the item axis last, or a float, is one block; a sequence of tables
    gives the blocks of its entries, one that stands for several once."""
    if isinstance(table, (np.ndarray, float)):
        return [table]
    return list({id(b): b for entry in table for b in _blocks(entry)}.values())


def _largest(blocks, count):
    """The largest ``|entry|`` over `blocks`, as ``(rows, shared)``: each
    item's over the array blocks, NaN where an entry is NaN, and the largest
    over the float blocks, inf for a NaN, which costs no array pass."""
    rows, shared = None, 0.0
    for block in blocks:
        if isinstance(block, float):
            shared = max(shared, abs(block) if block == block else math.inf)
            continue
        big = np.abs(block)
        if big.ndim > 1:
            big = big.reshape(-1, count).max(axis=0)
        rows = big if rows is None else np.maximum(rows, big, out=rows)
    return rows, shared


def _x_p(table):
    """The x-p entries ``table[i][j]`` (i even, j odd) of a table."""
    return [row[1::2] for row in table[0::2]]


def _at(table, items):
    """`table` at `items` (an item or an array of them) along its item axis,
    as one ndarray with the table's shape in front, a float repeated."""
    if isinstance(table, np.ndarray):
        return table[..., items]
    if isinstance(table, float):
        return np.full(np.shape(items), table)
    return np.array([_at(entry, items) for entry in table])


def _sld_qfi_batch(s, ds, dd):
    """QFI values for a stack of G channel outputs, given entry by entry:
    ``s[i][j]``, ``ds[i][j]`` and ``dd[i]`` are arrays over the items, or
    Python floats that every item shares, in nested sequences (one object
    may stand for several entries) or ndarrays of shape (m, m, G) or (m, G);
    ``dd[0]`` and the diagonal of ``s`` are arrays, unless every entry is a
    float: then the tables are one state, as `qfi_sld` takes it from the
    channel's entry functions.  A float is checked with no array pass, and
    repeated only where the Williamson sum gathers items.  A non-finite
    entry raises `NonPhysical`, naming the first such item, before any
    solve.  A stack whose ``S`` and ``dS`` have exactly zero x-p entries
    (canonical probes through the phase-covariant channel) is solved by the
    Stein route (`_stein`): explicit 2x2 arithmetic in one pass over the
    rows.  One state, as floats or as a stack of one (whose ndarrays are
    read once with ``.tolist()``), is checked and, with no x-p entries,
    solved by the Stein route on its floats as they are.  A state they do
    not settle (x-p entries, a domain error, which becomes an inf or a nan
    on arrays, a residual above ``SLD_RESIDUAL_TOL`` or a value that is not
    finite) continues as the stack of one of the same values.  Items that
    the Stein route settles to ``SLD_RESIDUAL_TOL`` with a finite value keep
    it; the others, gathered item-first, take the Williamson-basis sum
    (`_williamson_sum`) in Stein's basis, and every item of any other stack
    takes it in the basis of `_williamson`.
    Pure output modes drop out on either route: a cut ``g - 1`` term has a
    zero numerator, as ``dS`` is orthogonal to the kernel of the SLD
    operator.

    The sum has no residual, so the decomposition alone certifies its
    items: the basis and the value are finite; the error bound, the
    accuracy of the basis times the weight of the ``g - 1`` terms, is at
    most ``SLD_RESIDUAL_TOL``; and the numerators that the cut dropped sum
    to at most ``SLD_RESIDUAL_TOL^2`` times all numerators, or the QFI
    diverges (a pure mode whose purity changes with eta).  The first item
    that fails raises `SingularSystem`, and so does, before any solve, an
    ``S`` so large that ``g = 4 nu_j nu_k`` would overflow.
    """
    if isinstance(dd[0], float):  # one state, as nested Python floats
        one = s, ds, dd
    elif len(dd[0]) == 1:  # a stack of one: its entries as floats, read once
        one = [_at(x, 0).tolist() for x in (s, ds, dd)]
    else:
        one = None
    count = 1 if one else len(dd[0])
    # nu <= |S| <= m max|S_ij|, and g = 4 nu_j nu_k must be a finite double;
    # m is 2 or 4, so dividing by it is exact and cannot overflow
    s_max = _NU_MAX / len(s)
    solved = None
    if one:
        s_one = list(itertools.chain.from_iterable(one[0]))
        if not all(map(math.isfinite, itertools.chain(s_one, *one[1], one[2]))):
            raise NonPhysical(_NON_FINITE.format(0))
        if not max(map(abs, s_one)) < s_max:
            raise SingularSystem(_TOO_LARGE.format(0))
        canonical = not any(itertools.chain(*_x_p(one[0]), *_x_p(one[1])))
        if canonical:
            try:
                solved = _stein(_FLOAT_OPS, *one)
            except (ArithmeticError, ValueError):  # a domain error: use arrays
                pass
            else:
                if solved[1] <= SLD_RESIDUAL_TOL and math.isfinite(solved[0]):
                    return np.array([solved[0]])
        # not settled on floats: the same values, as a stack of one
        s, ds, dd = (np.array(x)[..., None] for x in one)
    else:
        (s_big, s_top), (big, top) = (_largest(_blocks(t), count) for t in (s, (ds, dd)))
        big, top = np.maximum(s_big, big), max(s_top, top)
        if not max(big.max(), top) < math.inf:  # an inf or a NaN
            ok = np.maximum(big, top) < math.inf
            raise NonPhysical(_NON_FINITE.format(np.argmin(ok)))
        if not max(s_big.max(), s_top) < s_max:
            ok = np.maximum(s_big, s_top) < s_max
            raise SingularSystem(_TOO_LARGE.format(np.argmin(ok)))
        del s_big, big  # not held through the solve
        canonical = not any(np.count_nonzero(b) if isinstance(b, np.ndarray) else b
                            for b in _blocks((_x_p(s), _x_p(ds))))
    # an inf or nan met on the way fails the checks below
    with np.errstate(all="ignore"):
        if not canonical:
            values, items, basis = np.empty(count), np.arange(count), None
        else:
            values, rel, basis = solved or _stein(_ARRAY_OPS, s, ds, dd)
            values = np.atleast_1d(values)
            # a Stein value is kept where it is finite and its residual passes
            kept = np.isfinite(values)
            kept &= np.atleast_1d(rel) <= SLD_RESIDUAL_TOL
            items = np.flatnonzero(~kept)
            if not items.size:
                return values
        sk, dsk, ddk = (np.moveaxis(_at(x, items), -1, 0) for x in (s, ds, dd))
        y, nu, err = (_williamson(sk) if basis is None
                      else basis(lambda x: _at(x, items), sk))
        values[items], bound, dropped, norm = _williamson_sum(y, nu, err, dsk, ddk)
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
    `SingularSystem` for a state that `_sld_qfi_batch` does not certify.

    The probe's moments are read once with ``.tolist()`` and go through the
    channel's entry functions to the kernel as Python floats, with no output
    state or array on the way."""
    _scalar_eta(p)
    _check_eta(p)
    d, sigma = probe.d.tolist(), probe.sigma.tolist()
    ddt, dst = _derivative_entries(d, sigma, p)
    (value,) = _sld_qfi_batch(_output_entries(d, sigma, p)[1], dst, ddt)
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
    return _sld_qfi_batch(*_two_mode_outputs(n_s, zeta, r, p))


def _two_mode_outputs(n_s, zeta, r, p: ChannelParams):
    """``(s, ds, dd)`` of the outputs of canonical two-mode probes, entry by
    entry: the input table, built as `build_two_mode` builds each entry and
    ``0.0`` at each structural zero, goes through the channel's entry
    functions, so each point keeps the bits of its probe built alone.  No
    output displacement is computed: the kernel reads none."""
    a, c, sr, si, amp = _canonical_factors(n_s, zeta, r)
    # the input entries, at theta = phi = 0
    s02, s13 = c * sr, c * -si
    sigma = [[a * r, 0.0, s02, 0.0],
             [0.0, a / r, 0.0, s13],
             [s02, 0.0, a, 0.0],
             [0.0, s13, 0.0, a]]
    dd, ds = _derivative_entries([amp, 0.0, 0.0, 0.0], sigma, p)
    return _output_entries([], sigma, p)[1], ds, dd


def qfi_single_mode_form(probe: GaussianState, p: ChannelParams) -> float:
    """Purity-form QFI, valid for single-mode probes only.

    Closed-form 2x2 arithmetic on Python floats, on the channel's output
    entries ``S = ((a, b), (b, c))``, ``dS`` and ``dd``.  With
    ``S = L D L^T``, ``L = ((1, 0), (t, 1))``, ``t = b/a`` and
    ``D = diag(a, u)``, ``u = c - t b``, ``S^-1 dS`` is similar to
    ``D^-1 E`` with ``E = L^-1 dS L^-T``: its traces come from the entries
    of ``E``, ``det S = a u`` and ``mu^2 = 1/(4 a u)``.  With
    ``q = 4 a u - 1 = 1/mu^2 - 1``, the first two terms are
    ``(Tr[(S^-1 dS)^2] + Tr[S^-1 dS]^2 / q) / (2 (1 + mu^2))``, and
    ``q = 4 (a - 1/2) u + 2 (u - 1/2)`` keeps its digits near the vacuum,
    where ``1 - mu^4`` cancels; ``mu' = 0`` (``Tr[S^-1 dS] = 0``) keeps the
    second term at 0 for a pure output.  Where numpy would signal, the
    form raises `FloatingPointError`, never an inf, a nan, a complex or a
    `ZeroDivisionError`: ``det S <= 0`` (a state that `make_state`'s
    roundoff slack admits), ``q <= 0`` with ``mu' != 0`` (the outputs at
    eta below ~1e-8, which round to pure or to a purity above 1), and a
    value past the double range.
    """
    if probe.modes != 1:
        raise ValueError("the purity form applies to single-mode states")
    _scalar_eta(p)
    _check_eta(p)
    d, sigma = probe.d.tolist(), probe.sigma.tolist()
    (a, b), (_, c) = _output_entries(d, sigma, p)[1]
    ddt, ((p00, p01), (_, p11)) = _derivative_entries(d, sigma, p)
    t = b / a
    u = c - t * b
    det = a * u
    if not det > 0.0:
        raise FloatingPointError(f"the purity form needs det S > 0, got {det:.3e}")
    e01 = p01 - t * p00
    # the diagonal of D^-1 E
    x0, x1 = p00 / a, (p11 - t * p01 - t * e01) / u
    trace = x0 + x1
    value = x0 * x0 + x1 * x1 + 2.0 * (e01 / a) * (e01 / u)
    if trace != 0.0:
        q = 4.0 * (a - 0.5) * u + 2.0 * (u - 0.5)
        if q == 0.0:
            raise FloatingPointError("the purity form divides by 1 - mu^4 = 0")
        if not q > 0.0:
            raise FloatingPointError(f"the purity form needs mu < 1, got "
                                     f"1/mu^2 - 1 = {q:.3e}")
        value += trace * trace / q
    value /= 2.0 * (1.0 + 0.25 / det)
    value += _inverse_form((a, b, c), *ddt)
    if not math.isfinite(value):
        raise FloatingPointError(f"the purity form is not a finite double: {value}")
    return value


def qfi_fidelity_fd(probe: GaussianState, p: ChannelParams) -> float:
    """QFI from the fidelity drop between outputs at nearby transmissions.

    Evaluates ``8 (1 - sqrt(F)) / h^2`` on the centred pair ``eta -/+ h/2``
    with the fixed step ``h = FD_STEP`` (quadratic-order accurate); raises
    `ValueError` when ``eta - h/2`` is negative and `EtaTooClose` when
    ``eta + h/2`` enters the guard band.  The route is
    cross-checked against the SLD to 1e-4 only for ``eta <= 0.95``
    (acceptance criterion 01); closer to 1 its error grows past that
    tolerance.
    """
    _scalar_eta(p)
    lo, hi = p.eta - 0.5 * FD_STEP, p.eta + 0.5 * FD_STEP
    if lo < 0:
        raise ValueError(f"eta - FD_STEP/2 = {lo} must be non-negative")
    if hi > 1.0 - EPS_ETA:
        raise EtaTooClose(f"eta + FD_STEP/2 = {hi} is inside the guard band "
                          f"(eta + FD_STEP/2 <= {1.0 - EPS_ETA})")
    out_lo = apply_channel(probe, replace(p, eta=lo))
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
    total, i_sq, i_shadow = _if_terms(n_coh, n_sq, c)
    total += i_sq
    total += i_shadow
    return total


def _if_terms(n_coh, n_sq, c):
    """The three terms of :func:`qfi_if_closed` from the photon numbers and
    the channel factors `c` of :func:`_if_channel`; trusts `n_coh`, `n_sq`
    and the eta guard.  The denominators are positive for every channel
    `ChannelParams` admits (N_B is 0 or a normal float).  Every power of an
    eta-dependent base goes through `_sq`, so an array eta gives the bits of
    scalar calls.

    Each term accumulates in place (``+=``, ``-=``, ``*=``, ``/=``) into an
    array it has just made, that array on the left, as `_stein` does: IEEE
    ``+`` and ``*`` commute, so every value keeps the bits of the written-out
    form.  No argument is written.  A product whose operands depend on
    different inputs (N_S-only terms of shape (N_S, 1, 64) and eta factors
    of shape (eta, 1) in the scan of `optimize_xi`) allocates the term's full
    shape, and later products write into it; on scalars ``+=`` rebinds."""
    r = squeeze_parameter(n_sq)
    if c[0] == _VACUUM:
        _, e2, one, sq_gain = c
        den = e2 * r
        den += one
        i_disp = 4.0 * n_coh / den
        a_den = one * n_sq
        a_den *= e2
        i_sq = 4.0 * n_sq * sq_gain
        den = 2.0 * a_den
        den += 1.0
        den *= one
        i_sq /= den
        i_shadow = 0.0
    elif c[0] == _HELD:
        _, e2, e4, two_nb, nb_nb1, tnb1, tnb1_sq = c
        # not r*e2 + (2N_B + 1 - e2): the sum rounds left to right
        den = r * e2
        den += two_nb
        den += 1.0
        den -= e2
        i_disp = 4.0 * n_coh / den
        b_den = n_sq * e2
        b_den *= tnb1
        b_den += nb_nb1
        b_den -= n_sq * e4
        i_sq = 4.0 * n_sq * e2
        i_sq /= b_den
        gain = n_sq + 1.0
        gain *= tnb1_sq
        den = 2.0 * b_den
        den += 1.0
        gain = gain / den
        gain -= 1.0
        i_sq *= gain
        i_shadow = 0.0
    else:
        _, e2, one, nb_nb1, tnb1, one_tnb1, nb_sq_e2, shadow = c
        den = e2 * r
        den += one_tnb1
        i_disp = 4.0 * n_coh / den
        a_den = n_sq * e2
        a_den *= tnb1
        a_den += nb_nb1
        a_den -= nb_sq_e2
        a_den *= one
        i_sq = 4.0 * n_sq * e2
        i_sq *= tnb1
        i_sq /= a_den
        gain = n_sq + 1.0
        gain *= tnb1
        den = 2.0 * a_den
        den += 1.0
        gain = gain / den
        gain -= 1.0
        i_sq *= gain
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
    eta2, y, _, dy = _channel_factors(p)
    var = np.float64(0.5 * eta2 * r + y)
    dvar = np.float64(p.eta * r + dy)
    dmean_sq = 2.0 * n_coh
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        return float(dmean_sq / var + 0.5 * dvar ** 2 / var ** 2)


def qfi_gamma(gamma: float, t: float, probe: GaussianState,
              p_base: ChannelParams) -> float:
    """QFI for estimating the loss rate gamma after interrogation time t.

    Chain rule on eta = exp(-gamma t / 2):
    ``I_gamma = (t^2/4) exp(-gamma t) I_eta(eta)``.  Returns 0 at t = 0, where
    the prefactor vanishes, once `gamma_to_eta` has checked gamma and t.
    ``t`` is a numpy float, and an overflow or invalid operation in the
    prefactor raises `FloatingPointError`, as in `homodyne_fisher`.
    """
    eta = gamma_to_eta(gamma, t)
    if t == 0.0:
        return 0.0
    i_eta = qfi_sld(probe, replace(p_base, eta=eta))
    with np.errstate(over="raise", invalid="raise"):
        return float(0.25 * np.float64(t) ** 2 * math.exp(-gamma * t) * i_eta)
