"""Error-probability bounds for discriminating two transmission values.

With M independent copies of a probe through the channel at ``eta_plus`` or
``eta_minus`` and equal priors, the optimal error probability obeys

    P_err <= (1/2) sqrt(F(rho_plus, rho_minus))^M
          ~= (1/2) exp(-M d_eta^2 I_eta / 8)        (d_eta^2 I_eta << 1)

and the local threshold strategy (estimate eta, decide against the midpoint)
achieves ``P_err ~= 1 - erf(sqrt(M d_eta^2 I_eta / 8))``, which matches the
exponential bound at leading order in the exponent.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, replace

from .channel import ChannelParams, _scalar_eta, apply_channel
from .fidelity import gaussian_fidelity
from .states import GaussianState

# the largest m that converts to a float: the bound and the error forms use
# m as one
_M_MAX = sys.float_info.max


@dataclass(frozen=True)
class HypothesisSpec:
    """Binary discrimination setup: eta_plus vs eta_minus with M probe copies."""

    eta_plus: float
    eta_minus: float
    m: int
    probe: GaussianState
    channel_base: ChannelParams

    def __post_init__(self):
        if not 0.0 <= self.eta_minus < self.eta_plus <= 1.0:
            raise ValueError("require 0 <= eta_minus < eta_plus <= 1")
        if not 1 <= self.m < math.inf:
            raise ValueError(f"m must be finite and at least 1, got {self.m}")
        if self.m > _M_MAX:
            raise ValueError(f"m = {self.m} is larger than any double")
        _scalar_eta(self.channel_base)

    @property
    def d_eta(self) -> float:
        return self.eta_plus - self.eta_minus


def fidelity_error_bound(spec: HypothesisSpec) -> float:
    """Exact fidelity bound (1/2) F^{M/2} on the discrimination error.

    `gaussian_fidelity` may return up to ``1 + 1e-12`` by roundoff; F is
    taken as at most 1 here, so that the bound stays at most 1/2 for any M.
    """
    out_plus = apply_channel(spec.probe, replace(spec.channel_base, eta=spec.eta_plus))
    out_minus = apply_channel(spec.probe, replace(spec.channel_base, eta=spec.eta_minus))
    fid = min(gaussian_fidelity(out_plus, out_minus), 1.0)
    return 0.5 * fid ** (spec.m / 2.0)


def _check_args(d_eta: float, m: int, i_eta: float):
    # d_eta is a difference of transmissions, so d_eta ** 2 cannot overflow
    if not (0.0 <= d_eta <= 1.0 and 0.0 <= i_eta < math.inf and 1 <= m <= _M_MAX):
        raise ValueError("d_eta must lie in [0, 1], i_eta must be finite and "
                         "non-negative, and m must be finite, at least 1 and at most "
                         f"the largest double; got d_eta = {d_eta}, m = {m}, "
                         f"i_eta = {i_eta}")


def qfi_error_approx(d_eta: float, m: int, i_eta: float) -> float:
    """Small-separation form (1/2) exp(-M d_eta^2 I / 8) of the fidelity bound."""
    _check_args(d_eta, m, i_eta)
    if d_eta ** 2 * i_eta > 0.1:
        warnings.warn("d_eta^2 * I exceeds 0.1; the quadratic fidelity "
                      "expansion is inaccurate here", stacklevel=2)
    return 0.5 * math.exp(-m * d_eta ** 2 * i_eta / 8.0)


def threshold_strategy_error(d_eta: float, m: int, i_eta: float) -> float:
    """Error 1 - erf(sqrt(M d_eta^2 I / 8)) of the midpoint threshold strategy.

    Valid for ``M d_eta^2 I`` large, where the estimator is Gaussian; the decay
    rate matches :func:`qfi_error_approx` (the erfc prefactor differs).
    """
    _check_args(d_eta, m, i_eta)
    arg = m * d_eta ** 2 * i_eta / 8.0
    if arg < 1.0:
        warnings.warn("M d_eta^2 I / 8 below 1; the Gaussian threshold "
                      "approximation is unreliable here", stacklevel=2)
    # erfc keeps full precision in the deep tail where 1 - erf underflows
    return math.erfc(math.sqrt(arg))
