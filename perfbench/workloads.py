"""The three benchmark workloads: seeded inputs, one operation, its check.

Each workload exposes

* ``specs(seed)``: an endless iterator of operation inputs, made from the
  seed and fixed constants alone (``random.Random``, so the inputs do not
  depend on numpy),
* ``run(spec)``: one operation against the library, the only timed part,
* ``check(spec, result)``: ``None`` when the result is correct, otherwise a
  short reason,
* ``points(spec, result)``: how many QFI values the operation produced,
* ``panel_size``: ``None`` when every op gets fresh inputs, or the length of
  the fixed list of inputs that ``specs`` cycles through.

Library functions are always looked up through their module at call time
(``lf.qfi_sld``, ``cli.main``), so the traced run sees the calls it wraps.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import math
import random

import lossfish as lf
import lossfish.cli as cli

# ---------------------------------------------------------------------------
# twomode_grid: exhaustive (zeta, r) search on a 64x64 grid
# ---------------------------------------------------------------------------

GRID = (64, 64)
CRITERION_07 = [(n_s, n_b, eta, False)
                for n_s in (1e-3, 1.0, 1e3)
                for n_b in (1e-3, 1.0, 1e3)
                for eta in (1e-3, 0.5, 0.999)]


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


class TwoModeGrid:
    """One op is one ``optimize_two_mode`` call; the TMSV corner must win."""

    name = "twomode_grid"
    panel_size = None

    def specs(self, seed):
        rng = random.Random(seed)
        corners = list(CRITERION_07)
        rng.shuffle(corners)
        yield from corners
        for i in itertools.count():
            yield (_log_uniform(rng, 1e-3, 1e3), _log_uniform(rng, 1e-3, 1e3),
                   _log_uniform(rng, 1e-3, 0.999), i % 4 == 3)

    def run(self, spec):
        n_s, n_b, eta, normalized = spec
        return lf.optimize_two_mode(n_s, lf.ChannelParams(eta, n_b, normalized),
                                    grid=GRID)

    def check(self, spec, result):
        zeta, r, q = result
        if (zeta, r) != (1.0, 1.0):
            return f"argmax not at the TMSV corner: ({zeta}, {r})"
        if not math.isfinite(q) or q <= 0.0:
            return f"QFI at the argmax not finite and positive: {q}"
        return None

    def points(self, spec, result):
        return GRID[0] * GRID[1]


# ---------------------------------------------------------------------------
# scalar_routes: one parameter point through every QFI route
# ---------------------------------------------------------------------------

# acceptance criterion 01 tolerances
CLOSED_TOL = 1e-8
FD_TOL = 1e-4
KINDS = ("coherent", "squeezed_vacuum", "displaced_squeezed", "tmsv", "twomode")
SINGLE_MODE_XI = {"coherent": 0.0, "squeezed_vacuum": 1.0}
# The points form a fixed panel, drawn once from PANEL_SEED; the run's seed
# only permutes it.  A run evaluates the whole panel once (about 7 s on a
# 2-vCPU VM), then cycles through it again until its time is up.  So every
# run attempts the same points and counts the same failures, whatever its
# seed and speed.
PANEL_SIZE = 8192
PANEL_SEED = "scalar_routes"


class ScalarRoutes:
    """One op is one parameter point: build the probe, evaluate every route."""

    name = "scalar_routes"
    panel_size = PANEL_SIZE

    def specs(self, seed):
        draws = self._draws(random.Random(PANEL_SEED))
        panel = [next(draws) for _ in range(PANEL_SIZE)]
        random.Random(seed).shuffle(panel)
        return itertools.cycle(panel)

    @staticmethod
    def _draws(rng):
        while True:
            kind = rng.choice(KINDS)
            eta = rng.uniform(0.05, 0.95)
            n_s = _log_uniform(rng, 0.1, 10.0)
            n_b = 0.0 if rng.random() < 0.3 else _log_uniform(rng, 0.1, 100.0)
            xi = zeta = r = None
            normalized = False
            if kind == "displaced_squeezed":
                xi = rng.uniform(0.0, 1.0)
            elif kind in SINGLE_MODE_XI:
                xi = SINGLE_MODE_XI[kind]
            if kind == "twomode":
                zeta = rng.uniform(0.0, 1.0)
                r = _log_uniform(rng, lf.two_mode_r_min(n_s, zeta), 1.0)
            else:
                normalized = rng.random() < 0.3
            yield (kind, n_s, xi, zeta, r, eta, n_b, normalized)

    def run(self, spec):
        kind, n_s, xi, zeta, r, eta, n_b, normalized = spec
        p = lf.ChannelParams(eta, n_b, normalized)
        out = {}
        if kind == "tmsv":
            state = lf.tmsv(n_s)
            out["closed"] = lf.qfi_tmsv(n_s, p)
        elif kind == "twomode":
            probe = lf.TwoModeProbe(n_s, zeta, r)
            state = lf.build_two_mode(probe)
            out["closed"] = lf.qfi_two_mode_closed(probe, p)
        else:
            state = lf.build_single_mode(lf.SingleModeProbe(n_s, xi))
            out["closed"] = lf.qfi_if_closed((1.0 - xi) * n_s, xi * n_s, p).total
            out["single_mode_form"] = lf.qfi_single_mode_form(state, p)
        out["sld"] = lf.qfi_sld(state, p)
        out["fd"] = lf.qfi_fidelity_fd(state, p)
        return out

    def check(self, spec, result):
        kind = spec[0]
        sld = result["sld"]
        if not all(math.isfinite(v) for v in result.values()) or sld <= 0.0:
            return f"non-finite or non-positive QFI, {kind}: {result}"
        closed_err = abs(sld - result["closed"]) / result["closed"]
        if closed_err > CLOSED_TOL:
            return f"closed vs SLD, {kind}: {closed_err:.3e} > {CLOSED_TOL}"
        if "single_mode_form" in result:
            form_err = abs(result["single_mode_form"] - sld) / sld
            if form_err > CLOSED_TOL:
                return f"purity form vs SLD, {kind}: {form_err:.3e} > {CLOSED_TOL}"
        fd_err = abs(result["fd"] - sld) / sld
        if fd_err > FD_TOL:
            return f"FD vs SLD, {kind}: {fd_err:.3e} > {FD_TOL}"
        return None

    def points(self, spec, result):
        return 1


# ---------------------------------------------------------------------------
# cli_readme: the README command lines through lossfish.cli.main
# ---------------------------------------------------------------------------

# The README command lines, plus sweep-xi at --nb 1, each with the SHA-256 of
# its stdout recorded when the benchmark was defined; CLI output is required
# to stay byte-identical.
README_DIGESTS = {
    "qfi --eta 0.7071 --nb 0 --probe tmsv --ns 1":
        "bab419067036160bbf00e1d0e54070b494b7a11affd731d2a5a12325a52cf893",
    "qfi --eta 0.6 --nb 1 --probe dsq --ns 2 --xi 0.5 --route sld":
        "9758bd19dc95c985d4b54024667675bc17de622ce1ce6aeba2a5c72750669442",
    "sweep-xi --ns-grid 0.01:100:25:log --eta-grid 0.05:0.95:19 --nb 0":
        "aa2e7fd7dbf38092ae28afe1715b5ff6e6425b66c7b617dbc9783e96a4b81feb",
    "sweep-twomode --ns 1 --eta 0.7071 --nb 1 --grid 64x64":
        "377df84fc1773cb33c5c9fc2110ee898c816578cfc5343a987793962211c4783",
    "sweep-total --total-ns-grid 0.01:10:13:log --eta-grid 0.3:0.95:14 --nb 0":
        "49e436921865a26819f0b47022c893442c07fddae9419bddfa976c0e30f67c57",
    "advantage --eta-grid 1e-4:0.1:13:log --ns-grid 0.01,1 --nb 1000 --normalized":
        "726297582563147519830654801fa159ccfc059052b7bbc2b493d7e88b4d38ad",
    "hypothesis --eta-plus 0.9 --eta-minus 0.8 --m 100 --probe coherent --ns 1":
        "b4e7771398f0303d6fc6757f735bd4ad0f656035b70068f1e8debcb0fd034682",
    "sweep-xi --ns-grid 0.01:100:25:log --eta-grid 0.05:0.95:19 --nb 1":
        "bd7f1fd991c3bbc7a09a561b5091020752ddeefbd48b12ab0da3888ee91e2613",
}
README_COMMANDS = tuple(README_DIGESTS)


def run_command(command: str):
    """Run one CLI command in process; return (exit code, stdout bytes)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(command.split())
    return code, out.getvalue().encode()


class CliReadme:
    """One op is one pass over the README commands; the seed permutes them."""

    name = "cli_readme"
    panel_size = None

    def specs(self, seed):
        rng = random.Random(seed)
        while True:
            order = list(README_COMMANDS)
            rng.shuffle(order)
            yield tuple(order)

    def run(self, spec):
        return [(command, *run_command(command)) for command in spec]

    def check(self, spec, result):
        for command, code, stdout in result:
            if code != 0:
                return f"exit code {code}: {command}"
            if hashlib.sha256(stdout).hexdigest() != README_DIGESTS[command]:
                return f"output differs from the recorded digest: {command}"
        return None

    def points(self, spec, result):
        return sum(stdout.count(b"\n") - 1 for _, _, stdout in result)


WORKLOADS = {w.name: w for w in (TwoModeGrid(), ScalarRoutes(), CliReadme())}
