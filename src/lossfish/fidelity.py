"""Closed-form Uhlmann fidelity between Gaussian states of 1 or 2 modes.

Implements the determinant formula of Banchi, Braunstein and Pirandola,
PRL 115, 260501 (2015), rewritten for the vacuum-variance-1/2 convention:

    F = sqrt( det[2 (sqrt(I + (V W)^{-2}/4) + I) V] / det(S) )
        * exp( -delta^T S^{-1} delta / 2 )

with ``S = Sigma_a + Sigma_b``, ``V = W^T S^{-1} (W/4 + Sigma_b W Sigma_a)``,
``W`` the symplectic form and ``delta = d_a - d_b``.  The displacement factor
reproduces ``F = exp(-|delta|^2/2)`` for two coherent states.

Rather than taking a matrix square root, the determinant is evaluated through
the symplectic invariants of ``V W``: its eigenvalues come in pairs
``+-lambda_k`` and enter only via ``t_k = 1 + 1/(4 lambda_k^2)``, so symmetric
functions of the ``t_k`` suffice.  This matters numerically: ``V W`` turns
defective whenever a state keeps an exactly pure symplectic direction (any
zero-temperature channel output), where ``sqrtm``/``eig`` would lose
~sqrt(machine eps) - far too much for the fidelity-difference QFI route.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .states import GaussianState, _omega

# a pure symplectic direction zeroes its invariant exactly; clipping the
# roundoff residue avoids a spurious sqrt(eps) contribution.  Genuine terms
# below this would need a symplectic eigenvalue within ~1e-12 of 1/2,
# unreachable inside the eta guard band with physical backgrounds.
_PURE_CLIP = 1e-12


def gaussian_fidelity(a: GaussianState, b: GaussianState) -> float:
    """Fidelity F(a, b) in [0, 1]; symmetric in its arguments.

    Only 1- and 2-mode states are supported.  The three determinants that a
    branch needs come from one `np.linalg.det` call on their stack, which
    factors each matrix as three calls would.
    """
    if a.modes != b.modes:
        raise DimensionMismatch(f"mode counts differ: {a.modes} vs {b.modes}")
    if a.modes not in (1, 2):
        raise DimensionMismatch("fidelity implemented for 1 and 2 modes only")
    total = a.sigma + b.sigma
    total_inv = np.linalg.inv(total)
    delta = a.d - b.d
    displacement = np.exp(-0.5 * delta @ total_inv @ delta)

    if a.modes == 1:
        # two-invariant single-mode form, rationalized so no step cancels:
        # F0 = 2 (sqrt(D + L) + sqrt(L)) / D
        det_total, det_a, det_b = np.linalg.det(np.array((total, a.sigma, b.sigma)))
        big_delta = 4.0 * det_total
        lam = (4.0 * det_a - 1.0) * (4.0 * det_b - 1.0)
        lam = max(lam, 0.0)
        f = 2.0 * (np.sqrt(big_delta + lam) + np.sqrt(lam)) / big_delta \
            * displacement
        return float(min(f, 1.0 + 1e-12))

    omega = _omega(2)
    vaux = omega.T @ total_inv @ (omega / 4.0 + b.sigma @ omega @ a.sigma)
    wa = vaux @ omega
    det_wa, det_vaux, det_total = np.linalg.det(np.array((wa, vaux, total)))
    e1 = complex(0.5 * np.trace(wa @ wa))  # lambda_1^2 + lambda_2^2
    e2 = complex(det_wa)                   # lambda_1^2 lambda_2^2
    t_sum = 2.0 + 0.25 * e1 / e2
    t_prod = (e2 + 0.25 * e1 + 0.0625) / e2
    if abs(t_prod) < _PURE_CLIP:
        t_prod = 0.0
    u = np.sqrt(t_prod)                    # sqrt(t_1 t_2)
    v_sq = t_sum + 2.0 * u                 # (sqrt(t_1) + sqrt(t_2))^2
    if abs(v_sq) < _PURE_CLIP:
        v_sq = 0.0
    prod = 16.0 * (1.0 + u + np.sqrt(v_sq)) ** 2
    cov_part_sq = (prod * det_vaux).real / det_total
    f = np.sqrt(max(cov_part_sq, 0.0)) * displacement
    return float(min(f, 1.0 + 1e-12))
