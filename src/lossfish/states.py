"""Gaussian states of one or two bosonic modes in the covariance-matrix picture.

Conventions used throughout the library:

* quadrature ordering ``(q_S, p_S, q_I, p_I)`` with the signal mode first,
* ``hbar = 1`` so the vacuum has variance 1/2 in each quadrature,
* covariance ``Sigma_ij = <R_i R_j + R_j R_i>/2 - <R_i><R_j>``,
* symplectic form ``Omega`` block-diagonal with per-mode blocks
  ``[[0, 1], [-1, 0]]``.

A state is physical iff ``Sigma + i*Omega/2 >= 0``; purity is
``mu = prod_k 1/(2 nu_k)`` over the symplectic eigenvalues (`_williamson`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonPhysical

SYM_TOL = 1e-12
HEISENBERG_TOL = -1e-10
DET_TOL = 1e-12
# a Python float, so that the Stein route's float path computes no numpy scalar
EPS_MACHINE = float(np.finfo(float).eps)


def symplectic_form(modes: int) -> np.ndarray:
    """Symplectic form Omega for `modes` modes, one [[0,1],[-1,0]] block per mode."""
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = np.zeros((2 * modes, 2 * modes))
    for k in range(modes):
        out[2 * k:2 * k + 2, 2 * k:2 * k + 2] = block
    return out


@functools.cache
def _omega(modes: int) -> np.ndarray:
    """`symplectic_form`, built once per mode count and read-only."""
    omega = symplectic_form(modes)
    omega.setflags(write=False)
    return omega


@dataclass(frozen=True)
class GaussianState:
    """First moments `d` and covariance `sigma` of a 1- or 2-mode Gaussian state.

    Instances are produced by :func:`make_state`, which validates symmetry and
    physicality at the boundary, or by the channel, whose outputs are built
    trusted: a physical channel maps a physical state to a physical state, so
    they are not checked again.  The stored arrays are read-only.
    """

    modes: int
    d: np.ndarray
    sigma: np.ndarray

    def mode_photons(self, mode: int) -> float:
        """Mean photon number of one mode: (tr Sigma_mode - 1)/2 + |d_mode|^2/2."""
        i = 2 * mode
        var = self.sigma[i, i] + self.sigma[i + 1, i + 1]
        return 0.5 * (var - 1.0) + 0.5 * (self.d[i] ** 2 + self.d[i + 1] ** 2)


def make_state(d, sigma) -> GaussianState:
    """Validate moments and return an immutable :class:`GaussianState`.

    This is the one public constructor and the boundary where states are
    checked; states derived from a validated one by the channel are not
    checked again.

    Raises
    ------
    DimensionMismatch
        If shapes are inconsistent or the mode count is not 1 or 2.
    NonPhysical
        If any entry of `d` or `sigma` is not finite, ``|Sigma|^(2 modes)``
        (the scale of the determinant's roundoff) is not a finite double,
        `sigma` is not symmetric, violates the Heisenberg relation
        ``Sigma + i*Omega/2 >= 0`` (margin below -1e-10), has a variance
        (diagonal entry) ``<= 0``, or has ``det Sigma < (1/4)**modes - 1e-12``
        (purity above 1).
    """
    d = np.asarray(d, dtype=float).reshape(-1).copy()
    sigma = np.asarray(sigma, dtype=float).copy()
    if d.size % 2 != 0 or d.size // 2 not in (1, 2):
        raise DimensionMismatch(f"first moments must have length 2 or 4, got {d.size}")
    modes = d.size // 2
    if sigma.shape != (2 * modes, 2 * modes):
        raise DimensionMismatch(
            f"covariance shape {sigma.shape} inconsistent with {modes} mode(s)")
    if not (np.isfinite(d).all() and np.isfinite(sigma).all()):
        raise NonPhysical("first moments and covariance must be finite")
    if np.max(np.abs(sigma - sigma.T)) > SYM_TOL:
        raise NonPhysical("covariance matrix is not symmetric")
    sigma = 0.5 * (sigma + sigma.T)
    # determinant roundoff grows like |Sigma|^(2 modes); keep the purity check
    # meaningful for bright states, and refuse those it cannot check
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(sigma)
        det_slack = DET_TOL * max(1.0, norm ** (2 * modes))
    if not det_slack < math.inf:
        raise NonPhysical(f"covariance norm {norm:.3e} is too large to check: "
                          f"|Sigma|^{2 * modes} is not a finite double")
    margin = heisenberg_margin(sigma)
    # eigenvalue roundoff scales with |Sigma|; bright states get matching slack
    if margin < HEISENBERG_TOL * max(1.0, norm):
        raise NonPhysical(f"Heisenberg relation violated (margin {margin:.3e})")
    # the slacks above scale with |Sigma| and can admit a negative variance
    low = min(sigma.diagonal().tolist())
    if not low > 0.0:
        raise NonPhysical(f"covariance has a variance {low:.3e} <= 0")
    if np.linalg.det(sigma) < 0.25 ** modes - det_slack:
        raise NonPhysical("det(Sigma) below the pure-state minimum")
    return _trusted_state(d, sigma)


def _trusted_state(d: np.ndarray, sigma: np.ndarray) -> GaussianState:
    """A state from moments known to be physical, with no checks.

    `d` and `sigma` must be float arrays of shapes ``(2m,)`` and
    ``(2m, 2m)``, owned by the caller, with `sigma` exactly symmetric; they
    are made read-only, not copied.
    """
    d.setflags(write=False)
    sigma.setflags(write=False)
    return GaussianState(modes=d.size // 2, d=d, sigma=sigma)


@functools.cache
def _embedding_template(n: int) -> np.ndarray:
    """``[[0, -Omega/2], [Omega/2, 0]]`` for an n x n covariance, read-only."""
    half_omega = 0.5 * _omega(n // 2)
    template = np.zeros((2 * n, 2 * n))
    template[:n, n:] = -half_omega
    template[n:, :n] = half_omega
    template.setflags(write=False)
    return template


def heisenberg_margin(sigma) -> float:
    """Smallest eigenvalue of Sigma + i*Omega/2; negative means non-physical.

    The Hermitian matrix is diagonalized through its real embedding
    ``[[Sigma, -Omega/2], [Omega/2, Sigma]]``, whose spectrum doubles that of
    ``Sigma + i*Omega/2``.  Any even size works; other shapes raise
    `DimensionMismatch`, and a non-finite entry raises `NonPhysical`.
    """
    sigma = np.asarray(sigma, dtype=float)
    n = sigma.shape[0] if sigma.ndim == 2 else 0
    if n == 0 or n % 2 or sigma.shape != (n, n):
        raise DimensionMismatch(
            f"covariance must be square of even size, got shape {sigma.shape}")
    if not np.isfinite(sigma).all():
        raise NonPhysical("covariance must be finite")
    embed = _embedding_template(n).copy()
    embed[:n, :n] = sigma
    embed[n:, n:] = sigma
    return float(np.linalg.eigvalsh(embed)[0])


def _basis_error(y, s):
    """Relative accuracy of Williamson bases ``Y`` of a stack ``s`` (k, m, m),
    item axis first: the largest entry of ``|Y S Y^T - I|`` plus
    ``eps |Y| |S| |Y|^T``, how far the rounding of ``S`` moves it."""
    yt = np.swapaxes(y, 1, 2)
    return (np.abs(y @ s @ yt - np.eye(s.shape[-1]))
            + EPS_MACHINE * (np.abs(y) @ np.abs(s) @ np.abs(yt))).max(axis=(1, 2))


def _williamson(s):
    """``(Y, nu, err)`` of a stack ``s`` of covariances (k, m, m), item axis
    first: a Williamson basis ``Y = D^-1/2 T^-1`` of ``S = T D T^T``, the
    symplectic eigenvalues `nu` (k, m/2) and the `_basis_error` of ``Y``.
    ``S = Q diag(w) Q^T`` gives ``S^-1/2``, and the real and imaginary parts
    of the eigenvectors of ``+1/nu`` of ``i S^-1/2 W S^-1/2`` give an
    orthogonal ``O`` with ``O^T S^-1/2 W S^-1/2 O = D^-1/2 W D^-1/2``, so
    that ``Y = O^T S^-1/2``.  An item with ``w_min <= eps w_max``, whose
    ``S^-1/2`` carries no digit, is not sound: its `err` is infinite, and
    ``I`` stands for its ``S^-1/2``, so that no inf reaches the second `eigh`.
    """
    count, m, _ = s.shape
    w, q = np.linalg.eigh(s)
    sound = w[:, 0] > EPS_MACHINE * w[:, -1]
    inv_half = np.where(sound[:, None, None],
                        (q / np.sqrt(np.where(sound[:, None], w, 1.0))[:, None, :])
                        @ q.transpose(0, 2, 1), np.eye(m))
    mu, z = np.linalg.eigh(1j * (inv_half @ _omega(m // 2) @ inv_half))
    z = math.sqrt(2.0) * z[:, :, m // 2:]
    o = np.empty((count, m, m))
    o[:, :, 0::2], o[:, :, 1::2] = z.imag, z.real
    y = o.transpose(0, 2, 1) @ inv_half
    return y, 1.0 / mu[:, m // 2:], np.where(sound, _basis_error(y, s), math.inf)


def _purity(sigma: np.ndarray):
    """``(mu, err)``: the `purity` of a covariance and its `_basis_error`."""
    _, nu, (err,) = _williamson(sigma[None])
    if not err < math.inf:
        raise FloatingPointError("purity is undefined: no sound Williamson basis")
    return float(1.0 / np.prod(2.0 * nu)), float(err)


def purity(state: GaussianState) -> float:
    """Purity mu = prod_k 1/(2 nu_k), 1 for pure states; raises
    `FloatingPointError`, never a warning with an inf or a nan, where
    `_williamson` finds no sound basis (a pure TMSV from N_S ~ 2e7)."""
    return _purity(state.sigma)[0]


def vacuum(modes: int = 1) -> GaussianState:
    """Vacuum state of `modes` modes."""
    return make_state(np.zeros(2 * modes), 0.5 * np.eye(2 * modes))


def thermal(n_bar: float) -> GaussianState:
    """Single-mode thermal state with mean photon number `n_bar`."""
    if not 0.0 <= n_bar < math.inf:
        raise NonPhysical(f"thermal photon number must be finite and >= 0, got {n_bar}")
    return make_state(np.zeros(2), (n_bar + 0.5) * np.eye(2))
