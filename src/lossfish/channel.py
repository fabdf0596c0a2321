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
from .states import GaussianState, make_state


@dataclass(frozen=True)
class ChannelParams:
    """Lossy-channel parameters: transmission `eta`, bath photons `n_b`, model flag."""

    eta: float
    n_b: float = 0.0
    normalized: bool = False

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise NonPhysicalParams(f"eta must lie in [0, 1], got {self.eta}")
        if not 0.0 <= self.n_b < math.inf:
            raise NonPhysicalParams(f"n_b must be finite and >= 0, got {self.n_b}")
        if self.normalized and self.eta == 1.0 and self.n_b > 0.0:
            raise DivergentNoise("normalized bath N_B/(1-eta^2) diverges at eta = 1")


def additive_noise(p: ChannelParams) -> float:
    """Additive covariance noise y(eta) of the channel."""
    if p.normalized:
        return p.n_b + 0.5 * (1.0 - p.eta ** 2)
    return (1.0 - p.eta ** 2) * (p.n_b + 0.5)


def additive_noise_derivative(p: ChannelParams) -> float:
    """d y / d eta, with the normalized substitution applied before differentiating."""
    if p.normalized:
        return -p.eta
    return -2.0 * p.eta * (p.n_b + 0.5)


def effective_noise(p: ChannelParams) -> float:
    """Bath photon number seen by the signal: N_B, or N_B/(1-eta^2) if normalized."""
    if not p.normalized:
        return p.n_b
    if p.eta == 1.0:
        if p.n_b == 0.0:
            return 0.0
        raise DivergentNoise("N_B/(1-eta^2) diverges at eta = 1")
    return p.n_b / (1.0 - p.eta ** 2)


def gamma_to_eta(gamma: float, t: float) -> float:
    """Transmission eta = exp(-gamma t / 2) of a loss rate `gamma` after time `t`."""
    if gamma < 0 or t < 0:
        raise NonPhysicalParams("gamma and t must be non-negative")
    return float(np.exp(-0.5 * gamma * t))


def output_moments(d, sigma, p: ChannelParams):
    """Output moments ``(d_out, sigma_out)`` for input arrays of shape
    ``(..., m)`` and ``(..., m, m)``, m = 2 or 4: one state or a stack."""
    eta = p.eta
    d_out = np.array(d, dtype=float)
    d_out[..., :2] *= eta
    sigma_out = np.array(sigma, dtype=float)
    sigma_out[..., :2, :2] = eta ** 2 * sigma_out[..., :2, :2] \
        + additive_noise(p) * np.eye(2)
    sigma_out[..., :2, 2:] *= eta
    sigma_out[..., 2:, :2] *= eta
    return d_out, sigma_out


def moment_derivatives(d, sigma, p: ChannelParams):
    """Analytic eta-derivative ``(d_dot, sigma_dot)`` of :func:`output_moments`."""
    d_dot = np.zeros_like(d)
    d_dot[..., :2] = d[..., :2]
    sigma_dot = np.zeros_like(sigma)
    sigma_dot[..., :2, :2] = 2.0 * p.eta * sigma[..., :2, :2] \
        + additive_noise_derivative(p) * np.eye(2)
    sigma_dot[..., :2, 2:] = sigma[..., :2, 2:]
    sigma_dot[..., 2:, :2] = sigma[..., 2:, :2]
    return d_dot, sigma_dot


def apply_channel(state: GaussianState, p: ChannelParams) -> GaussianState:
    """Channel output state; the signal is mode 1, any idler passes untouched."""
    return make_state(*output_moments(state.d, state.sigma, p))


def channel_derivative(state: GaussianState, p: ChannelParams):
    """Analytic eta-derivative (d_dot, sigma_dot) of the channel output moments."""
    return moment_derivatives(state.d, state.sigma, p)
