"""Thermal attenuation channel acting on the signal mode of a Gaussian state.

The channel with transmission ``eta`` and bath occupation ``N_B`` maps

    d_S      -> eta * d_S                (idler moments unchanged)
    Sigma_S  -> eta^2 * Sigma_S + y(eta) * I
    Sigma_SI -> eta * Sigma_SI

where ``y(eta) = (1 - eta^2) (N_B + 1/2)``.  Physicality requires
``2 y >= |1 - eta^2|``, which holds for any ``N_B >= 0``.

With ``normalized=True`` the bath occupation is held at ``N_B / (1 - eta^2)``
so the output background is constant in ``eta``; the substitution is applied
*before* any differentiation, giving ``y(eta) = N_B + (1 - eta^2)/2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergentNoise, NonPhysicalParams
from .states import GaussianState, _trusted_state

# smallest normal float: the least nonzero bath occupation a channel takes
_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class ChannelParams:
    """Lossy-channel parameters: transmission `eta`, bath photons `n_b`, model flag.

    `eta` may be an array of transmissions, stored as a read-only float array
    and checked elementwise (an error names the first entry that fails).  The
    idler-free and TMSV closed forms, `f1`, `total_qfi`, `optimize_xi`,
    `optimize_bandwidth` and `advantage_ratio` broadcast it against their
    photon numbers; every other route needs one scalar `eta`.  `n_b` and
    `normalized` are always scalars.  `n_b` is 0 or at least the smallest
    normal float, ``np.finfo(float).tiny``: a subnormal bath would underflow
    the closed forms' denominators.  Channels compare and hash by value, an
    array `eta` by its shape and entries.
    """

    eta: float | np.ndarray
    n_b: float = 0.0
    normalized: bool = False

    def __post_init__(self):
        eta = self.eta
        if not (isinstance(eta, (int, float)) or np.ndim(eta) == 0):
            eta = np.array(eta, dtype=float)
            eta.setflags(write=False)
            object.__setattr__(self, "eta", eta)
        bad = _first_failing(eta, (0.0 <= eta) & (eta <= 1.0))  # NaN fails too
        if bad is not None:
            raise NonPhysicalParams(f"eta must lie in [0, 1], got {bad}")
        if not 0.0 <= self.n_b < math.inf:
            raise NonPhysicalParams(f"n_b must be finite and >= 0, got {self.n_b}")
        if 0.0 < self.n_b < _TINY:
            raise NonPhysicalParams(f"n_b must be 0 or >= {_TINY}, got {self.n_b}")
        if _held_background(self) and _any(eta == 1.0):
            raise DivergentNoise("normalized bath N_B/(1-eta^2) diverges at eta = 1")

    def _key(self):
        """What `==` and `hash` compare: the shape and values of eta, n_b, the model."""
        eta = self.eta
        return np.shape(eta), tuple(np.ravel(eta).tolist()), self.n_b, self.normalized

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def _shadow_diverges(p: ChannelParams) -> bool:
    """True in the bare thermal channel (N_B > 0, not normalized): every probe
    copy adds the power-independent shadow term, so broadband totals diverge."""
    return p.n_b > 0.0 and not p.normalized


def _held_background(p: ChannelParams) -> bool:
    """True where the normalized model differs from the bare channel: it holds
    a background N_B > 0 at N_B/(1-eta^2).  At N_B = 0 the two coincide."""
    return p.normalized and p.n_b > 0.0


def _any(mask) -> bool:
    """Truth of an elementwise comparison on a float or an array; on a float
    it costs a fraction of `np.any`, which keeps scalar closed forms cheap."""
    return bool(mask.any()) if isinstance(mask, np.ndarray) else bool(mask)


def _first_failing(x, ok):
    """None if the elementwise test `ok` holds everywhere, else the first
    entry of `x` (a float, or an array of the shape of `ok`) that fails it."""
    if isinstance(ok, np.ndarray):
        return None if ok.all() else x[~ok][0]
    return None if ok else x


def _scalar_eta(p: ChannelParams):
    """Raise `ValueError` if `p` holds an array of transmissions: the routes
    that call this take one channel."""
    if isinstance(p.eta, np.ndarray) and p.eta.ndim:
        raise ValueError("this route takes one scalar eta; arrays of eta are "
                         "for the idler-free and TMSV closed forms")


def effective_noise(p: ChannelParams) -> float:
    """Bath photon number seen by the signal: N_B, or N_B/(1-eta^2) if normalized."""
    _scalar_eta(p)
    if not _held_background(p):
        return p.n_b
    return p.n_b / (1.0 - p.eta ** 2)


def gamma_to_eta(gamma: float, t: float) -> float:
    """Transmission eta = exp(-gamma t / 2) of a loss rate `gamma` after time
    `t`; both must be finite and non-negative, else `NonPhysicalParams`."""
    if not (0.0 <= gamma < math.inf and 0.0 <= t < math.inf):
        raise NonPhysicalParams("gamma and t must be finite and non-negative, "
                                f"got gamma = {gamma}, t = {t}")
    return float(np.exp(-0.5 * gamma * t))


def _channel_factors(p: ChannelParams):
    """``(eta^2, y, 2 eta, y')``, the signal block's factors in
    ``eta^2 Sigma_S + y I`` and ``2 eta Sigma_S + y' I``: ``y`` is the added
    noise, ``y' = dy/deta``, with the normalized model's bath substituted
    before differentiating (see the module docstring)."""
    eta2 = p.eta ** 2
    if _held_background(p):
        return eta2, p.n_b + 0.5 * (1.0 - eta2), 2.0 * p.eta, -p.eta
    return eta2, (1.0 - eta2) * (p.n_b + 0.5), 2.0 * p.eta, -2.0 * p.eta * (p.n_b + 0.5)


def _output_entries(d, sigma, p: ChannelParams):
    """``(d, sigma)`` of the channel output, from nested lists of entries:
    Python floats, or 1-D arrays over items with a float for an entry that
    every item shares.  Each entry takes the IEEE operations of the matrix
    form, ``eta^2 Sigma_S + y I`` with ``y * 0`` off the diagonal, so that a
    state keeps its bits alone or among items; an empty `d` stays empty.
    An idler entry that is the same object as its twin in the signal rows
    takes the twin's product, so a symmetric table shares its cross entries."""
    eta2, y, _, _ = _channel_factors(p)
    eta, y_off = p.eta, y * 0.0
    (s00, s01, *x0), (s10, s11, *x1), *idler = sigma
    cross0, cross1 = [v * eta for v in x0], [v * eta for v in x1]
    out = [[eta2 * s00 + y, eta2 * s01 + y_off, *cross0],
           [eta2 * s10 + y_off, eta2 * s11 + y, *cross1]]
    # each idler row's signal columns, with their twins in the signal rows
    for (v0, v1, *rest), u0, u1, c0, c1 in zip(idler, x0, x1, cross0, cross1):
        out.append([c0 if v0 is u0 else v0 * eta, c1 if v1 is u1 else v1 * eta, *rest])
    return [v * eta for v in d[:2]] + d[2:], out


def _derivative_entries(d, sigma, p: ChannelParams):
    """The eta-derivative ``(d_dot, sigma_dot)`` of `_output_entries`, computed
    as it is: ``2 eta Sigma_S + y' I``, ``y' * 0`` (-0.0) off the diagonal."""
    _, _, two_eta, dy = _channel_factors(p)
    dy_off = dy * 0.0
    (s00, s01, *x0), (s10, s11, *x1), *idler = sigma
    sigma_dot = [[two_eta * s00 + dy, two_eta * s01 + dy_off, *x0],
                 [two_eta * s10 + dy_off, two_eta * s11 + dy, *x1],
                 *(row[:2] + [0.0, 0.0] for row in idler)]
    return d[:2] + [0.0] * (len(d) - 2), sigma_dot


def apply_channel(state: GaussianState, p: ChannelParams) -> GaussianState:
    """Channel output state; the signal is mode 1, any idler passes untouched.
    It is computed on Python floats and built trusted, without
    :func:`make_state`'s checks: `state` and `p` were validated when made,
    and a physical channel maps a physical state to a physical state."""
    _scalar_eta(p)
    d, sigma = _output_entries(state.d.tolist(), state.sigma.tolist(), p)
    return _trusted_state(np.array(d), np.array(sigma))


def channel_derivative(state: GaussianState, p: ChannelParams):
    """Analytic eta-derivative ``(d_dot, sigma_dot)`` of the moments of
    :func:`apply_channel`'s output, computed on Python floats."""
    _scalar_eta(p)
    d_dot, sigma_dot = _derivative_entries(state.d.tolist(), state.sigma.tolist(), p)
    return np.array(d_dot), np.array(sigma_dot)
