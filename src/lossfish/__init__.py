"""Gaussian-probe quantum Fisher information for thermal-loss bosonic channels.

The library computes, optimizes and cross-verifies the QFI for estimating the
transmission eta of a lossy channel with thermal background, covering
single-mode (idler-free) and two-mode (entanglement-assisted) Gaussian probes,
bandwidth-optimized total QFI, and the derived hypothesis-testing bounds used
in quantum illumination and quantum reading.
"""

from .channel import (ChannelParams, apply_channel, channel_derivative,
                      effective_noise, gamma_to_eta)
from .errors import (DimensionMismatch, DivergentNoise, EtaTooClose,
                     LossfishError, NonPhysical, NonPhysicalParams, NotPure,
                     NotTwoMode, ProbeRangeError, SingularSystem)
from .fidelity import gaussian_fidelity
from .hypotest import (HypothesisSpec, fidelity_error_bound, qfi_error_approx,
                       threshold_strategy_error)
from .optimize import (BandwidthPlan, XiOptResult, advantage_ratio, f1, g1, g2,
                       optimize_bandwidth, optimize_two_mode, optimize_xi,
                       threshold_constant_large_ns, tmsv_stationarity_check,
                       total_qfi, xi_threshold_nbar)
from .probes import (SingleModeProbe, TwoModeProbe, build_single_mode,
                     build_two_mode, canonicalize, squeeze_parameter, tmsv,
                     two_mode_r_min)
from .qfi import (QfiBreakdown, homodyne_fisher, qfi_coherent, qfi_fidelity_fd,
                  qfi_gamma, qfi_if_closed, qfi_shadow, qfi_single_mode_form,
                  qfi_sld, qfi_squeezed_vacuum, qfi_tmsv, qfi_two_mode_closed)
from .states import (GaussianState, heisenberg_margin, make_state, purity,
                     symplectic_form, thermal, vacuum)

__version__ = "0.1.0"

__all__ = [
    "BandwidthPlan", "ChannelParams", "DimensionMismatch", "DivergentNoise",
    "EtaTooClose", "GaussianState",
    "HypothesisSpec", "LossfishError", "NonPhysical", "NonPhysicalParams",
    "NotPure", "NotTwoMode", "ProbeRangeError", "QfiBreakdown",
    "SingleModeProbe", "SingularSystem", "TwoModeProbe", "XiOptResult",
    "advantage_ratio", "apply_channel", "build_single_mode", "build_two_mode",
    "canonicalize", "channel_derivative", "effective_noise", "f1",
    "fidelity_error_bound", "g1", "g2", "gamma_to_eta", "gaussian_fidelity",
    "heisenberg_margin", "homodyne_fisher", "make_state", "optimize_bandwidth",
    "optimize_two_mode", "optimize_xi", "purity", "qfi_coherent",
    "qfi_error_approx", "qfi_fidelity_fd", "qfi_gamma", "qfi_if_closed",
    "qfi_shadow", "qfi_single_mode_form", "qfi_sld", "qfi_squeezed_vacuum",
    "qfi_tmsv", "qfi_two_mode_closed", "squeeze_parameter", "symplectic_form",
    "thermal", "threshold_constant_large_ns", "threshold_strategy_error",
    "tmsv", "tmsv_stationarity_check", "total_qfi", "two_mode_r_min",
    "vacuum", "xi_threshold_nbar",
]
