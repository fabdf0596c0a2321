"""Energy-constrained pure Gaussian probe states.

Single-mode probes split ``N_S`` photons between squeezing and displacement
through the ratio ``xi``: ``N_sq = xi N_S`` and ``N_coh = (1 - xi) N_S``, with
covariance ``diag(r/2, 1/(2r))`` where ``r = 1 + 2 N_sq - 2 sqrt(N_sq(N_sq+1))``
is restricted to the branch ``r in (0, 1]``.

Two-mode probes are parametrized in the canonical form

    Sigma_S  = diag(a r, a / r)
    Sigma_I  = diag(a, a)
    Sigma_SI = sqrt(a^2 - 1/4) [[ sqrt(r) cos(phi),   sqrt(r) sin(phi)],
                                [ sqrt(1/r) sin(phi), -sqrt(1/r) cos(phi)]]

with ``a = (2 N_S zeta^2 + 1)/(r + 1/r)`` fixing the signal-mode photon number
to ``N_S``, ``zeta^2`` the fraction of photons carried by the covariance, and
``r`` trading local squeezing against cross-correlations.  ``(zeta, r) = (1, 1)``
is the two-mode squeezed vacuum (TMSV).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotPure, NotTwoMode, ProbeRangeError
from .states import GaussianState, _purity, make_state


def squeeze_parameter(n_sq: float) -> float:
    """Quadrature ratio r in (0, 1] that stores `n_sq` photons of squeezing.

    ``1 + 2 N - 2 sqrt(N (N + 1))``, accumulated in place into the arrays it
    makes (IEEE ``+`` and ``*`` commute, so each value keeps its bits);
    `n_sq` is never written."""
    root = n_sq + 1.0
    root *= n_sq
    root = np.sqrt(root)
    root *= 2.0
    r = 2.0 * n_sq
    r += 1.0
    r -= root
    return r


def two_mode_r_min(n_s: float, zeta: float) -> float:
    """Lower edge of the allowed r range at covariance fraction `zeta`."""
    return squeeze_parameter(n_s * zeta ** 2)


@dataclass(frozen=True)
class SingleModeProbe:
    """Displaced squeezed probe: photons `n_s`, squeezed fraction `xi`, angle `theta`."""

    n_s: float
    xi: float
    theta: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.n_s < math.inf:
            raise ProbeRangeError(f"n_s must be finite and >= 0, got {self.n_s}")
        if not math.isfinite(self.theta):
            raise ProbeRangeError(f"theta must be finite, got {self.theta}")
        if not 0.0 <= self.xi <= 1.0:
            raise ProbeRangeError("xi must lie in [0, 1]")

    @property
    def n_sq(self) -> float:
        return self.xi * self.n_s

    @property
    def n_coh(self) -> float:
        return (1.0 - self.xi) * self.n_s

    @property
    def r(self) -> float:
        return squeeze_parameter(self.n_sq)


@dataclass(frozen=True)
class TwoModeProbe:
    """Canonical-form two-mode probe (n_s per signal mode, zeta, r, theta, phi)."""

    n_s: float
    zeta: float
    r: float
    theta: float = 0.0
    phi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.n_s < math.inf:
            raise ProbeRangeError(f"n_s must be finite and >= 0, got {self.n_s}")
        if not (math.isfinite(self.theta) and math.isfinite(self.phi)):
            raise ProbeRangeError("theta and phi must be finite")
        if not 0.0 <= self.zeta <= 1.0:
            raise ProbeRangeError("zeta must lie in [0, 1]")
        rmin = self.r_min
        if not rmin - 1e-12 <= self.r <= 1.0 + 1e-12:
            raise ProbeRangeError(f"r = {self.r} outside allowed range [{rmin}, 1]")
        # r <= 0 passes only where r_min < 1e-12, and a computed r_min that
        # small is 0: past N ~ 1e4 it is a multiple of ulp(2N) > 1e-12
        if not self.r > 0.0:
            raise ProbeRangeError(f"n_s = {self.n_s} is too large: r_min rounds to 0")

    @property
    def r_min(self) -> float:
        return two_mode_r_min(self.n_s, self.zeta)


def _check_finite(n_s, *factors):
    """Raise `ProbeRangeError` unless the non-negative factors of a probe's
    moments are finite: past the double range they would turn into an inf,
    and an inf times a zero cosine into a nan."""
    if not all(x < math.inf for x in factors):
        raise ProbeRangeError(f"n_s = {n_s} is too large: the moments are not finite")


def build_single_mode(p: SingleModeProbe) -> GaussianState:
    """Pure single-mode state with the probe's displacement and squeezing."""
    amp, r = np.sqrt(2.0 * p.n_coh), p.r
    _check_finite(p.n_s, amp)
    if not r > 0.0:
        raise ProbeRangeError(f"n_s = {p.n_s} is too large: r rounds to 0")
    d = amp * np.array([np.cos(p.theta), np.sin(p.theta)])
    sigma = np.diag([0.5 * r, 0.5 / r])
    return make_state(d, sigma)


def _canonical_factors(n_s, zeta, r):
    """``(a, c, sqrt(r), sqrt(1/r), amp)`` of canonical two-mode probes: the
    idler variance ``a``, the correlation ``c = sqrt(a^2 - 1/4)``, the
    signal's squeezing factors and the displacement amplitude
    ``sqrt(2 N_coh)``; broadcasts over arrays and checks no ranges.  It
    squares by multiplying, as numpy's array ``** 2`` does, so that a probe
    built alone gets the bits of the same probe in a grid."""
    z2, inv_r = zeta * zeta, 1.0 / r
    a = (2.0 * (n_s * z2) + 1.0) / (r + inv_r)
    c = np.sqrt(np.maximum(a * a - 0.25, 0.0))
    return a, c, np.sqrt(r), np.sqrt(inv_r), np.sqrt(2.0 * (n_s * (1.0 - z2)))


def build_two_mode(p: TwoModeProbe) -> GaussianState:
    """Pure two-mode state in canonical form; signal-mode photons equal `n_s`."""
    a, c, sr, si, amp = _canonical_factors(p.n_s, p.zeta, p.r)
    _check_finite(p.n_s, c, amp)
    xc, xs = c * (sr * np.cos(p.phi)), c * (sr * np.sin(p.phi))
    pc, ps = c * (-si * np.cos(p.phi)), c * (si * np.sin(p.phi))
    sigma = [[a * p.r, 0.0, xc, xs],
             [0.0, a / p.r, ps, pc],
             [xc, ps, a, 0.0],
             [xs, pc, 0.0, a]]
    return make_state([amp * np.cos(p.theta), amp * np.sin(p.theta), 0.0, 0.0], sigma)


def tmsv(n_s: float) -> GaussianState:
    """Two-mode squeezed vacuum with `n_s` photons per mode: a = n_s + 1/2."""
    return build_two_mode(TwoModeProbe(n_s=n_s, zeta=1.0, r=1.0))


def canonicalize(state: GaussianState) -> TwoModeProbe:
    """Reduce a pure two-mode state to canonical probe parameters.

    Applies, in order: (i) drop the idler displacement, (ii) rotate the idler
    to diagonalize Sigma_I (eigenvalues descending), (iii) squeeze the idler to
    make it proportional to the identity, (iv) rotate the signal to
    diagonalize Sigma_S with the squeezed axis first (so r <= 1).  For a pure
    state the cross block is then automatically of the canonical reflection
    form, fixing phi.  All operations are local idler symplectics or signal
    rotations, which commute with the loss channel, so the returned probe has
    the same QFI as `state` for any channel parameters.
    """
    if state.modes != 2:
        raise NotTwoMode("canonical form is defined for two-mode states")
    # mu = 1/(4 nu_1 nu_2), each nu good to err: 4 err is twice |mu - 1|'s bound
    mu, err = _purity(state.sigma)
    if not abs(mu - 1.0) <= 4.0 * err:
        raise NotPure(f"state purity {mu} is not 1 within 4 err = {4.0 * err:.3e}")

    sig = state.sigma.copy()

    # (ii) + (iii): bring the idler block to a*I
    evals, vecs = np.linalg.eigh(sig[2:, 2:])
    order = np.argsort(evals)[::-1]
    evals, vecs = evals[order], vecs[:, order]
    if np.linalg.det(vecs) < 0:
        vecs = vecs * np.array([1.0, -1.0])
    a = float(np.sqrt(evals[0] * evals[1]))
    t_full = np.eye(4)
    t_full[2:, 2:] = np.diag(np.sqrt(a / evals)) @ vecs.T
    sig = t_full @ sig @ t_full.T

    # (iv): signal -> diag(a r, a / r), eigenvalues ascending so that r <= 1
    evals_s, vecs_s = np.linalg.eigh(sig[:2, :2])
    if np.linalg.det(vecs_s) < 0:
        vecs_s = vecs_s * np.array([1.0, -1.0])
    t_full = np.eye(4)
    t_full[:2, :2] = vecs_s.T
    sig = t_full @ sig @ t_full.T
    d_signal = vecs_s.T @ state.d[:2]
    r = float(np.sqrt(evals_s[0] / evals_s[1]))

    # cross block: c * diag(sqrt(r), 1/sqrt(r)) @ [[cos, sin], [sin, -cos]](phi)
    c = np.sqrt(max(a * a - 0.25, 0.0))
    if c > 1e-12:
        refl = np.diag([1.0 / np.sqrt(r), np.sqrt(r)]) @ sig[:2, 2:] / c
        phi = float(np.arctan2(refl[0, 1] + refl[1, 0], refl[0, 0] - refl[1, 1]))
    else:
        phi = 0.0

    n_coh = 0.5 * float(d_signal @ d_signal)
    theta = float(np.arctan2(d_signal[1], d_signal[0])) if n_coh > 0 else 0.0
    n_sq_th = 0.5 * a * (r + 1.0 / r) - 0.5
    n_s = n_coh + n_sq_th
    if n_s <= 0:
        return TwoModeProbe(n_s=0.0, zeta=0.0, r=1.0)
    zeta = float(np.sqrt(min(max(n_sq_th / n_s, 0.0), 1.0)))
    r = float(min(max(r, two_mode_r_min(n_s, zeta)), 1.0))
    return TwoModeProbe(n_s=n_s, zeta=zeta, r=r, theta=theta, phi=phi)
