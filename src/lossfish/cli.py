"""Deterministic parameter-sweep command line.

Subcommands
-----------
qfi            single-point QFI by any route
sweep-xi       optimal squeezed fraction over an (N_S, eta) grid
sweep-twomode  two-mode QFI over the (zeta, r) plane, with argmax and markers
sweep-total    bandwidth-optimized total QFI over a (total N_S, eta) grid
advantage      TMSV / coherent QFI ratio over an (eta, N_S) grid
hypothesis     discrimination error bounds for an (eta_plus, eta_minus) pair

Numbers are printed with 12 significant digits, '.' decimal separator and
'\\n' line endings, header row first; identical invocations produce
byte-identical output.  Each command handler returns its table as
``(header, columns)``, one array or list of values per column, and one
%-format pass with the cell format `CELL` renders it (a column of strings,
such as grid axis cells already formatted with `CELL`, prints as it is); JSON
output reuses those CSV cells, keyed by the CSV column names.  Grids are
given as ``min:max:points`` (append ``:log`` for logarithmic spacing) or a
comma list.

Exit codes: 0 success; 2 invalid arguments or parameters, or an ``--out``
path that cannot be written (``error: ...`` on stderr, nothing on stdout);
3 numerical failure (a floating-point overflow, division by zero or invalid
operation in numpy, whose commands run under ``np.errstate(..., "raise")``,
or numpy's ``LinAlgError``).  The idler-free and two-mode closed forms take
N_B as a numpy float, so ``nb ** 2`` at ``--nb 1e200`` is a numpy overflow.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys

import numpy as np

from .channel import ChannelParams
from .errors import LossfishError, SingularSystem
from .hypotest import (HypothesisSpec, fidelity_error_bound, qfi_error_approx,
                       threshold_strategy_error)
from .optimize import (FAMILY_COHERENT, FAMILY_IDLER_FREE, FAMILY_TMSV,
                       advantage_ratio, grid_argmax, optimize_bandwidth,
                       optimize_xi, total_qfi, two_mode_grid)
from .probes import SingleModeProbe, TwoModeProbe, build_single_mode, build_two_mode
from .qfi import qfi_fidelity_fd, qfi_if_closed, qfi_sld, qfi_tmsv, qfi_two_mode_closed


# the format of one numeric cell, in CSV and JSON alike;
# "%.12g" % x == format(float(x), ".12g") for every double
CELL = "%.12g"


def parse_grid(spec: str) -> np.ndarray:
    """Parse 'min:max:points[:log]', a comma list, or a single number."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) not in (3, 4):
            raise ValueError(f"bad grid spec {spec!r}: want min:max:points[:log]")
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        if n < 2:
            raise ValueError("grid needs at least 2 points")
        if not -math.inf < lo < hi < math.inf:
            raise ValueError("grid needs finite min < max")
        if len(parts) == 4:
            if parts[3] != "log":
                raise ValueError(f"unknown grid scale {parts[3]!r}")
            if lo <= 0:
                raise ValueError("log scale requires min > 0")
            return np.geomspace(lo, hi, n)
        return np.linspace(lo, hi, n)
    values = np.array([float(x) for x in spec.split(",")])
    if not np.all(np.isfinite(values)):
        raise ValueError(f"grid values must be finite, got {spec!r}")
    return values


def _channel(args) -> ChannelParams:
    return ChannelParams(eta=float(args.eta), n_b=args.nb, normalized=args.normalized)


def _cells(values, each=1):
    """The `CELL` of each of `values`, formatted once and repeated `each` times."""
    return list(itertools.chain.from_iterable([CELL % x] * each for x in values))


def _grid_columns(outer, inner, *columns):
    """Columns ``o, i, column values...`` over an (outer, inner) grid, outer
    index slowest; each column holds one value per grid point.  The two axis
    columns are cells, each axis value formatted once and then repeated."""
    return [_cells(outer, len(inner)), _cells(inner) * len(outer),
            *(np.ravel(c) for c in columns)]


def _probe(args):
    """The probe the flags describe: a SingleModeProbe or a TwoModeProbe."""
    kind = args.probe
    if kind == "tmsv":
        return TwoModeProbe(args.ns, 1.0, 1.0)
    if kind == "twomode":
        if args.zeta is None or args.r is None:
            raise ValueError("--zeta and --r are required for probe 'twomode'")
        return TwoModeProbe(args.ns, args.zeta, args.r, args.theta, args.phi)
    if kind == "coherent":
        return SingleModeProbe(args.ns, 0.0, args.theta)
    if kind == "sq":
        return SingleModeProbe(args.ns, 1.0)
    if args.xi is None:
        raise ValueError("--xi is required for probe 'dsq'")
    return SingleModeProbe(args.ns, args.xi, args.theta)


def _build_probe_state(args):
    probe = _probe(args)
    if isinstance(probe, TwoModeProbe):
        return build_two_mode(probe)
    return build_single_mode(probe)


def _closed_form_qfi(args, p: ChannelParams) -> float:
    if args.probe == "tmsv":
        return qfi_tmsv(args.ns, p)
    probe = _probe(args)
    if isinstance(probe, TwoModeProbe):
        return qfi_two_mode_closed(probe, p)
    return qfi_if_closed(probe.n_coh, probe.n_sq, p).total


def _cmd_qfi(args):
    p = _channel(args)
    if args.route == "closed":
        value = _closed_form_qfi(args, p)
    elif args.route == "sld":
        value = qfi_sld(_build_probe_state(args), p)
    else:
        value = qfi_fidelity_fd(_build_probe_state(args), p)
    header = ["eta", "nb", "probe", "ns", "route", "qfi"]
    return header, [[v] for v in (p.eta, p.n_b, args.probe, args.ns, args.route, value)]


def _cmd_sweep_xi(args):
    header = ["ns", "eta", "xi_opt", "qfi_opt", "boundary"]
    ns_grid, eta_grid = parse_grid(args.ns_grid), parse_grid(args.eta_grid)
    # one lockstep search over the grid; rows run N_S outer, eta inner
    p = ChannelParams(eta_grid, args.nb, args.normalized)
    res = optimize_xi(ns_grid[:, None], p)
    return header, _grid_columns(ns_grid, eta_grid, res.xi_opt, res.qfi_opt, res.boundary)


def _parse_2d_grid(spec: str):
    try:
        nz, nr = (int(x) for x in spec.lower().split("x"))
    except ValueError:
        raise ValueError(f"bad grid {spec!r}: want NxM, e.g. 64x64") from None
    return nz, nr


def _cmd_sweep_twomode(args):
    p = _channel(args)
    zetas, r_grid, qfi = two_mode_grid(args.ns, p, _parse_2d_grid(args.grid))
    # grid rows, zeta slowest; then the argmax summary and the reference
    # markers at the grid corners: coherent (0, 1), squeezed vacuum
    # (1, r_min), TMSV (1, 1)
    tail = np.array([grid_argmax(zetas, r_grid, qfi),
                     *([zetas[iz], r_grid[iz, ir], qfi[iz, ir]]
                       for iz, ir in ((0, -1), (-1, 0), (-1, -1)))])
    zeta = _cells(zetas, r_grid.shape[1]) + _cells(tail[:, 0])
    return ["zeta", "r", "qfi"], [zeta, np.append(r_grid, tail[:, 1]),
                                  np.append(qfi, tail[:, 2])]


def _cmd_sweep_total(args):
    header = ["total_ns", "eta", "m_opt", "xi_opt", "total_qfi",
              "ratio_vs_coherent", "ratio_vs_tmsv"]
    tns_grid, eta_grid = parse_grid(args.total_ns_grid), parse_grid(args.eta_grid)
    # rows run total N_S outer, eta inner
    tns, p = tns_grid[:, None], ChannelParams(eta_grid, args.nb, args.normalized)
    plan = optimize_bandwidth(tns, p, FAMILY_IDLER_FREE)
    if plan.divergent.any():
        raise ValueError("total QFI diverges for the bare thermal channel; "
                         "use --nb 0 or --normalized")
    coh = total_qfi(tns, 1.0, p, FAMILY_COHERENT)
    best_tmsv = optimize_bandwidth(tns, p, FAMILY_TMSV).total_qfi
    return header, _grid_columns(tns_grid, eta_grid, plan.m, plan.xi_opt, plan.total_qfi,
                                 plan.total_qfi / coh, plan.total_qfi / best_tmsv)


def _cmd_advantage(args):
    header = ["eta", "ns", "ratio_tmsv_coh"]
    ns_grid = parse_grid(args.ns_grid)
    eta_grid = parse_grid(args.eta_grid)
    # rows run eta outer, N_S inner
    p = ChannelParams(eta_grid[:, None], args.nb, args.normalized)
    ratios = advantage_ratio(FAMILY_TMSV, FAMILY_COHERENT, p, ns_grid)
    return header, _grid_columns(eta_grid, ns_grid, ratios)


def _cmd_hypothesis(args):
    state = _build_probe_state(args)
    base = ChannelParams(eta=args.eta_plus, n_b=args.nb, normalized=args.normalized)
    spec = HypothesisSpec(eta_plus=args.eta_plus, eta_minus=args.eta_minus,
                          m=args.m, probe=state, channel_base=base)
    fid_bound = fidelity_error_bound(spec)
    mid = 0.5 * (args.eta_plus + args.eta_minus)
    i_mid = qfi_sld(state, ChannelParams(mid, args.nb, args.normalized))
    approx = qfi_error_approx(spec.d_eta, args.m, i_mid)
    thresh = threshold_strategy_error(spec.d_eta, args.m, i_mid)
    header = ["eta_plus", "eta_minus", "m", "fid_bound", "qfi_approx",
              "threshold_approx"]
    return header, [[v] for v in (args.eta_plus, args.eta_minus, float(args.m),
                                  fid_bound, approx, thresh)]


def _render(header, columns, fmt: str) -> str:
    cols = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    # one %-format over the whole table, so no Python call per cell
    line = ",".join("%s" if isinstance(c[0], str) else CELL for c in cols) + "\n"
    # the cells row by row: column j fills every k-th slot from slot j
    k = len(cols)
    cells = [None] * (k * len(cols[0]))
    for j, c in enumerate(cols):
        cells[j::k] = c
    body = (line * len(cols[0])) % tuple(cells)
    if fmt == "json":
        # the CSV cells themselves; no string cell holds a comma
        payload = [dict(zip(header, row.split(","))) for row in body.splitlines()]
        return json.dumps(payload, indent=2) + "\n"
    return ",".join(header) + "\n" + body


def _add_common(sub):
    sub.add_argument("--out", default=None, help="write output to this path")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--nb", type=float, default=0.0)
    sub.add_argument("--normalized", action="store_true",
                     help="hold the background at N_B/(1-eta^2)")


def _add_probe_flags(sub):
    sub.add_argument("--probe", required=True,
                     choices=("coherent", "sq", "dsq", "tmsv", "twomode"))
    sub.add_argument("--ns", type=float, required=True,
                     help="signal photons per mode")
    sub.add_argument("--xi", type=float, default=None)
    sub.add_argument("--zeta", type=float, default=None)
    sub.add_argument("--r", type=float, default=None)
    sub.add_argument("--theta", type=float, default=0.0)
    sub.add_argument("--phi", type=float, default=0.0)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `lossfish` argument parser, built once and shared by every call."""
    parser = argparse.ArgumentParser(
        prog="lossfish",
        description="QFI of the thermal-loss channel with Gaussian probes")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("qfi", help="single-point QFI")
    s.add_argument("--eta", type=float, required=True)
    _add_probe_flags(s)
    s.add_argument("--route", choices=("sld", "closed", "fidelity"),
                   default="closed")
    _add_common(s)
    s.set_defaults(handler=_cmd_qfi)

    s = subs.add_parser("sweep-xi", help="optimal xi over an (N_S, eta) grid")
    s.add_argument("--ns-grid", required=True)
    s.add_argument("--eta-grid", required=True)
    _add_common(s)
    s.set_defaults(handler=_cmd_sweep_xi)

    s = subs.add_parser("sweep-twomode",
                        help="two-mode QFI over the (zeta, r) plane; grid rows, "
                             "then argmax, then coherent/squeezed/TMSV markers")
    s.add_argument("--ns", type=float, required=True)
    s.add_argument("--eta", type=float, required=True)
    s.add_argument("--grid", default="64x64")
    _add_common(s)
    s.set_defaults(handler=_cmd_sweep_twomode)

    s = subs.add_parser("sweep-total",
                        help="bandwidth-optimized total QFI (N_B = 0 or normalized)")
    s.add_argument("--total-ns-grid", required=True)
    s.add_argument("--eta-grid", required=True)
    _add_common(s)
    s.set_defaults(handler=_cmd_sweep_total)

    s = subs.add_parser("advantage", help="TMSV / coherent QFI ratio grid")
    s.add_argument("--eta-grid", required=True)
    s.add_argument("--ns-grid", required=True)
    _add_common(s)
    s.set_defaults(handler=_cmd_advantage)

    s = subs.add_parser("hypothesis", help="discrimination error bounds")
    s.add_argument("--eta-plus", type=float, required=True)
    s.add_argument("--eta-minus", type=float, required=True)
    s.add_argument("--m", type=int, required=True)
    _add_probe_flags(s)
    _add_common(s)
    s.set_defaults(handler=_cmd_hypothesis)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        # numpy overflow, division by zero and invalid results raise, so that
        # they exit 3 instead of printing inf or nan; underflow stays silent
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            header, columns = args.handler(args)
    except (SingularSystem, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (LossfishError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = _render(header, columns, args.format)
    if args.out:
        try:
            with open(args.out, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
