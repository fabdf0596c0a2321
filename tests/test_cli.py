import hashlib
import json

import numpy as np
import pytest

from lossfish import ChannelParams, SingularSystem, optimize_xi, qfi_tmsv
from lossfish.cli import _render, main, parse_grid


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_grid_forms():
    assert np.allclose(parse_grid("0:1:3"), [0.0, 0.5, 1.0])
    assert np.allclose(parse_grid("0.1:10:3:log"), [0.1, 1.0, 10.0])
    assert np.allclose(parse_grid("0.3,0.7"), [0.3, 0.7])
    assert np.allclose(parse_grid("2.5"), [2.5])
    with pytest.raises(ValueError):
        parse_grid("1:0:5")
    with pytest.raises(ValueError):
        parse_grid("0:1:1")
    with pytest.raises(ValueError):
        parse_grid("-1:1:4:log")
    for spec in ("0:inf:3", "nan", "1,inf"):
        with pytest.raises(ValueError):
            parse_grid(spec)
    with pytest.raises(ValueError, match="bad grid spec '1:2'"):
        parse_grid("1:2")
    with pytest.raises(ValueError, match="unknown grid scale 'lin'"):
        parse_grid("0.1:1:3:lin")


def test_sweep_twomode_bad_grid_exits_2(capsys):
    assert run_cli(capsys, "sweep-twomode --ns 1 --eta 0.5 --grid 64".split()) == (
        2, "", "error: bad grid '64': want NxM, e.g. 64x64\n")


def test_qfi_tmsv_row(capsys):
    code, out, _ = run_cli(capsys, ["qfi", "--eta", "0.7071", "--nb", "0",
                                    "--probe", "tmsv", "--ns", "1"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "eta,nb,probe,ns,route,qfi"
    fields = lines[1].split(",")
    assert fields[2] == "tmsv" and fields[4] == "closed"
    expected = qfi_tmsv(1.0, ChannelParams(0.7071, 0.0))
    assert float(fields[5]) == pytest.approx(expected, rel=1e-11)
    assert expected == pytest.approx(4.0 / (1 - 0.7071 ** 2), rel=1e-12)


def test_qfi_routes_consistent(capsys):
    vals = {}
    for route in ("closed", "sld", "fidelity"):
        code, out, _ = run_cli(capsys, ["qfi", "--eta", "0.6", "--nb", "1",
                                        "--probe", "dsq", "--ns", "2",
                                        "--xi", "0.5", "--route", route])
        assert code == 0
        vals[route] = float(out.strip().split("\n")[1].split(",")[5])
    assert vals["sld"] == pytest.approx(vals["closed"], rel=1e-8)
    assert vals["fidelity"] == pytest.approx(vals["sld"], rel=1e-4)


@pytest.mark.parametrize("argv", [
    ["qfi", "--eta", "1.0", "--probe", "coherent", "--ns", "1"],
    ["sweep-twomode", "--ns", "1", "--eta", "0.99999999", "--nb", "1"],
    # eta + FD_STEP/2 is inside the guard band, though eta is not
    ["qfi", "--eta", "0.99999", "--nb", "1", "--probe", "coherent", "--ns", "1",
     "--route", "fidelity"],
], ids=["qfi", "sweep-twomode", "qfi-fidelity-pair"])
def test_qfi_guard_band_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert "error" in err


def test_subnormal_background_exits_2(capsys):
    code, out, err = run_cli(capsys, ["qfi", "--eta", "0.9", "--nb", "5e-324",
                                      "--probe", "coherent", "--ns", "1"])
    assert code == 2
    assert out == ""
    assert "n_b must be 0 or >=" in err


@pytest.mark.parametrize("argv", [
    ["qfi", "--eta", "0.5", "--nb", "nan", "--probe", "coherent", "--ns", "1"],
    ["qfi", "--eta", "0.5", "--probe", "coherent", "--ns", "nan"],
    ["qfi", "--eta", "0.5", "--probe", "tmsv", "--ns", "inf"],
    ["qfi", "--eta", "0.5", "--nb", "inf", "--probe", "coherent", "--ns", "1",
     "--route", "sld"],
    ["sweep-xi", "--ns-grid", "1,nan", "--eta-grid", "0.5"],
], ids=["nb-nan", "ns-nan", "tmsv-ns-inf", "nb-inf-sld", "grid-nan"])
def test_non_finite_input_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_qfi_coherent_full_loss(capsys):
    code, out, _ = run_cli(capsys, ["qfi", "--eta", "0", "--nb", "1",
                                    "--probe", "coherent", "--ns", "1"])
    assert code == 0
    value = float(out.strip().split("\n")[1].split(",")[5])
    assert value == pytest.approx(4.0 / 3.0, rel=1e-11)


def test_missing_required_flag_exits_2(capsys):
    code, _, _ = run_cli(capsys, ["qfi", "--eta", "0.5", "--probe", "dsq",
                                  "--ns", "1"])  # no --xi
    assert code == 2
    for flag in ("--zeta", "--r"):
        argv = "qfi --eta 0.5 --probe twomode --ns 1 --zeta 0.5 --r 0.5".split()
        del argv[argv.index(flag):argv.index(flag) + 2]
        assert run_cli(capsys, argv) == (
            2, "", "error: --zeta and --r are required for probe 'twomode'\n")
    code, _, _ = run_cli(capsys, ["qfi", "--eta", "0.5"])
    assert code == 2


def test_sweep_xi_matches_library(capsys):
    for extra in (["--nb", "0"], ["--nb", "1"], ["--nb", "1", "--normalized"]):
        code, out, _ = run_cli(capsys, ["sweep-xi", "--ns-grid", "0.01,1",
                                        "--eta-grid", "0.5,0.9", *extra])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "ns,eta,xi_opt,qfi_opt,boundary"
        assert len(lines) == 5
        # row-major: ns outer, eta inner
        first = lines[1].split(",")
        assert float(first[0]) == 0.01 and float(first[1]) == 0.5
        for line in lines[1:]:
            ns, eta, xi_opt, qfi_opt, boundary = line.split(",")
            p = ChannelParams(float(eta), float(extra[1]), "--normalized" in extra)
            res = optimize_xi(float(ns), p)
            assert [xi_opt, qfi_opt] == [format(res.xi_opt, ".12g"),
                                         format(res.qfi_opt, ".12g")]
            assert boundary == res.boundary


# SHA-256 of the stdout of the README command lines, plus sweep-xi at --nb 1;
# the CLI output is required to stay byte-identical
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


@pytest.mark.filterwarnings("ignore:.*threshold approximation is unreliable")
@pytest.mark.parametrize("command", list(README_DIGESTS), ids=[
    f"{c.split()[0]}-{i}" for i, c in enumerate(README_DIGESTS)])
def test_readme_output_is_pinned(capsys, command):
    code, out, _ = run_cli(capsys, command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == README_DIGESTS[command]


# SHA-256 of the stdout of grid sweeps outside the README: the normalized
# model, an eta grid across 1/sqrt(2) and N_S across the f1 edge at N_B = 0,
# advantage grids at N_B = 0 and 1, and JSON output
SWEEP_DIGESTS = {
    "sweep-xi --ns-grid 0.01:100:25:log --eta-grid 0.05:0.95:19 --nb 1 --normalized":
        "cb5df5bf8ea33c8f27acd9e90e3ab7b27263b67a56a115586c08fd55b5dc2a6f",
    "sweep-xi --ns-grid 0.01:1000:9:log --eta-grid 0.6:0.99:7 --nb 0":
        "9ff21195ca0bc7fee0e4bb7724dedaefb82a9580fe381cacf26e420e44990e04",
    "sweep-total --total-ns-grid 0.01:10:13:log --eta-grid 0.3:0.95:14 --nb 1 --normalized":
        "7e1764e09f922239b8a33f550b8fed033f3ef4eb4245f9d9eaa7a6dbc26c5386",
    "advantage --eta-grid 0.05:0.95:7 --ns-grid 0.01:100:5:log --nb 0":
        "f0c3ebc64e19d2ba40bcac6c5d543ab4a75c53ac15a9537f0cb980f6c9502d9d",
    "advantage --eta-grid 0.05:0.95:7 --ns-grid 0.01:100:5:log --nb 1":
        "7d2975e2bca4c6cd0b5d6e5bb47118f04f37f0e692277ff1a360df1147ce15bb",
    "sweep-total --total-ns-grid 0.1:10:4:log --eta-grid 0.5,0.9 --nb 0.5 "
    "--normalized --format json":
        "c304512e2c401f32add9b47de5b290bea57cac0aa16518d3d0997d56997abeed",
    # non-square (zeta, r) grids, which pin the row order of the grid columns
    "sweep-twomode --ns 5 --eta 0.2 --nb 3 --normalized --grid 40x33":
        "23e782107cc48c248a3d939ea6a8ab8dbb9e553d4a85db32eb0de92f41707f17",
    "sweep-twomode --ns 1 --eta 0.7071 --nb 1 --grid 33x40 --format json":
        "21cd51157e1bf43e4bc55229ab6d351e1a9bebb446ba65fa8e8356a57eaaa923",
    "sweep-total --total-ns-grid 0.01:10:5:log --eta-grid 0.3:0.95:4 --nb 0 "
    "--format json":
        "f190ee8bca1717052c25919e5991ca5528298b5d4b3db1cfa61eda5a8a0dd054",
    # single-row commands, as JSON
    "qfi --eta 0.6 --nb 1 --probe dsq --ns 2 --xi 0.5 --route sld --format json":
        "e5816909e9afb58643010838b83a3758e9e8325f8c0fa87d95d1ebabc96bd53c",
    "hypothesis --eta-plus 0.9 --eta-minus 0.8 --m 100 --probe coherent --ns 1 "
    "--format json":
        "2ca4db2dc2e01e1635e0a48596a861dc7d88cb9a4a038dc626ed7643edb461b4",
    # the twomode and tmsv probes through the closed and SLD routes
    "qfi --eta 0.7 --nb 0.5 --probe twomode --ns 2 --zeta 0.6 --r 0.7 --route closed":
        "6a9beff8166afdc4370fd824c04043b758d2bfb7b05d91da1f0a5742f78c7c55",
    "qfi --eta 0.7 --nb 0.5 --probe twomode --ns 2 --zeta 0.6 --r 0.7 --route sld":
        "f4dd0ca917a272bf4ab5dd94539b3dbd22566f9dc1156bd2a987d82a78105811",
    "qfi --eta 0.7071 --nb 1 --probe tmsv --ns 1 --route sld":
        "813b8b378f9b9f0e4e68d4d36460619a97b8d1b02ea8a38d2ff0c428caf6fbbb",
}


@pytest.mark.filterwarnings("ignore:.*threshold approximation is unreliable")
@pytest.mark.parametrize("command", list(SWEEP_DIGESTS), ids=[
    f"{c.split()[0]}-{i}" for i, c in enumerate(SWEEP_DIGESTS)])
def test_sweep_output_is_pinned(capsys, command):
    code, out, _ = run_cli(capsys, command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_DIGESTS[command]


@pytest.mark.filterwarnings("ignore:.*threshold approximation is unreliable")
@pytest.mark.parametrize("command", list(README_DIGESTS), ids=[
    f"{c.split()[0]}-{i}" for i, c in enumerate(README_DIGESTS)])
def test_json_values_are_the_csv_cells(capsys, command):
    code, csv_out, _ = run_cli(capsys, command.split())
    assert code == 0
    code, json_out, _ = run_cli(capsys, command.split() + ["--format", "json"])
    assert code == 0
    header, *rows = (line.split(",") for line in csv_out.splitlines())
    payload = json.loads(json_out)
    assert [list(item) for item in payload] == [header] * len(rows)
    assert [list(item.values()) for item in payload] == rows


def test_sweep_twomode_argmax_and_markers(capsys):
    code, out, _ = run_cli(capsys, ["sweep-twomode", "--ns", "1", "--eta",
                                    "0.7071", "--nb", "1", "--grid", "32x32"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "zeta,r,qfi"
    assert len(lines) == 1 + 32 * 32 + 4
    argmax = lines[-4].split(",")
    assert float(argmax[0]) == 1.0 and float(argmax[1]) == 1.0
    tmsv_marker = lines[-1].split(",")
    assert float(tmsv_marker[0]) == 1.0 and float(tmsv_marker[1]) == 1.0
    assert float(tmsv_marker[2]) == pytest.approx(
        qfi_tmsv(1.0, ChannelParams(0.7071, 1.0)), rel=1e-9)
    # the markers are the grid rows at (0, 1), (1, r_min) and (1, 1)
    grid = lines[1:1 + 32 * 32]
    assert lines[-3:] == [grid[31], grid[31 * 32], grid[-1]]


def test_sweep_twomode_normalized_without_background_is_bare(capsys):
    argv = ["sweep-twomode", "--ns", "1000", "--eta", "0.999", "--nb", "0"]
    code, bare, _ = run_cli(capsys, argv)
    assert code == 0
    assert run_cli(capsys, argv + ["--normalized"]) == (0, bare, "")


def test_sweep_twomode_grid_refinement_keeps_argmax(capsys):
    rows = {}
    for grid in ("32x32", "64x64"):
        code, out, _ = run_cli(capsys, ["sweep-twomode", "--ns", "1", "--eta",
                                        "0.5", "--nb", "0.5", "--grid", grid])
        assert code == 0
        rows[grid] = out.strip().split("\n")[-4]
    z32, r32, _ = rows["32x32"].split(",")
    z64, r64, _ = rows["64x64"].split(",")
    assert (z32, r32) == (z64, r64) == ("1", "1")


def test_sweep_total_regions(capsys):
    code, out, _ = run_cli(capsys, ["sweep-total", "--total-ns-grid", "0.01,50",
                                    "--eta-grid", "0.5,0.9", "--nb", "0"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "total_ns,eta,m_opt,xi_opt,total_qfi,ratio_vs_coherent,ratio_vs_tmsv"
    table = {(row.split(",")[0], row.split(",")[1]): row.split(",")
             for row in lines[1:]}
    # small power, high transmission: broadband squeezed-vacuum region
    m_opt, xi_opt = table[("0.01", "0.9")][2], table[("0.01", "0.9")][3]
    assert m_opt == "inf" and float(xi_opt) == 1.0
    # large power: single-shot region with partial squeezing
    m_opt, xi_opt = table[("50", "0.9")][2], table[("50", "0.9")][3]
    assert m_opt == "1" and 0.0 < float(xi_opt) < 1.0
    # at eta <= 1/sqrt(2) the single shot always wins
    assert table[("0.01", "0.5")][2] == "1"
    assert table[("50", "0.5")][2] == "1"


def test_sweep_total_tmsv_scale(capsys):
    # total TMSV QFI 4 T/(1-eta^2) ~ 10 around T = 1, eta ~ 0.775
    code, out, _ = run_cli(capsys, ["sweep-total", "--total-ns-grid", "1,2",
                                    "--eta-grid", "0.775,0.9", "--nb", "0"])
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    tmsv_total = float(row[4]) / float(row[6])
    assert tmsv_total == pytest.approx(10.0, rel=0.05)


def test_sweep_total_rejects_bare_thermal(capsys):
    code, _, err = run_cli(capsys, ["sweep-total", "--total-ns-grid", "1,2",
                                    "--eta-grid", "0.5,0.9", "--nb", "1"])
    assert code == 2
    assert "diverge" in err


def test_advantage_values(capsys):
    code, out, _ = run_cli(capsys, ["advantage", "--eta-grid", "0.001,0.01",
                                    "--ns-grid", "0.01,1", "--nb", "1000",
                                    "--normalized"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "eta,ns,ratio_tmsv_coh"
    first = lines[1].split(",")
    assert 1.9 <= float(first[2]) <= 2.0


def test_hypothesis_delegates(capsys):
    with pytest.warns(UserWarning, match="threshold approximation is unreliable"):
        code, out, _ = run_cli(capsys, ["hypothesis", "--eta-plus", "0.9",
                                        "--eta-minus", "0.8", "--m", "10",
                                        "--probe", "coherent", "--ns", "1"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "eta_plus,eta_minus,m,fid_bound,qfi_approx,threshold_approx"
    row = lines[1].split(",")
    # coherent at N_B = 0: bound = exp(-M d^2 N_S / 2)/2
    assert float(row[3]) == pytest.approx(0.5 * np.exp(-10 * 0.01 * 1.0 / 2), rel=1e-9)
    assert 0.0 <= float(row[5]) <= 1.0


def test_json_format_mirrors_columns(capsys):
    code, out, _ = run_cli(capsys, ["qfi", "--eta", "0.5", "--probe",
                                    "coherent", "--ns", "1",
                                    "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["probe"] == "coherent"
    assert float(payload[0]["qfi"]) == pytest.approx(4.0, rel=1e-11)


def test_determinism_stdout_and_files(tmp_path, capsys):
    argv = ["sweep-xi", "--ns-grid", "0.1:10:4:log", "--eta-grid",
            "0.2:0.9:5", "--nb", "1"]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    assert out1 == out2

    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--out", str(f1)]) == 0
    assert main(argv + ["--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()
    assert f1.read_text().encode() == out1.encode()


def test_unwritable_out_exits_2(tmp_path, capsys):
    path = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(capsys, ["qfi", "--eta", "0.5", "--probe", "coherent",
                                      "--ns", "1", "--out", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(path) in err
    assert not path.parent.exists()


def test_repeated_calls_share_one_parser(capsys):
    # the parser is built once per process; a rejected flag must not leave
    # state behind that changes the next call
    good = ["qfi", "--eta", "0.6", "--nb", "1", "--probe", "dsq", "--ns", "2",
            "--xi", "0.5", "--route", "sld"]
    bad = ["qfi", "--eta", "0.6", "--probe", "dsq", "--ns", "2", "--bogus"]
    first = run_cli(capsys, good)
    rejected = run_cli(capsys, bad)
    assert first[0] == 0 and rejected[0] == 2
    for _ in range(2):
        assert run_cli(capsys, bad) == rejected
        assert run_cli(capsys, good) == first


def test_numbers_use_12_significant_digits(capsys):
    _, out, _ = run_cli(capsys, ["qfi", "--eta", "0.7071", "--probe", "tmsv",
                                 "--ns", "1"])
    value = out.strip().split("\n")[1].split(",")[5]
    assert len(value.replace(".", "").replace("-", "").lstrip("0")) == 12


def test_cells_keep_the_sign_of_infinity():
    column = [float("inf"), -float("inf")]
    assert _render(["x"], [column], "csv") == "x\ninf\n-inf\n"
    assert json.loads(_render(["x"], [column], "json")) == [{"x": "inf"}, {"x": "-inf"}]


def test_numerical_failure_exits_3(monkeypatch, capsys):
    import lossfish.cli as cli_mod

    # numpy's LinAlgError is a ValueError, but a numerical failure
    for error in (SingularSystem, np.linalg.LinAlgError):
        def boom(*args, **kwargs):
            raise error("synthetic failure")

        monkeypatch.setattr(cli_mod, "qfi_sld", boom)
        code, _, err = run_cli(capsys, ["qfi", "--eta", "0.5", "--probe",
                                        "coherent", "--ns", "1", "--route", "sld"])
        assert code == 3
        assert "synthetic failure" in err


@pytest.mark.parametrize("argv,message", [
    # output covariances whose Williamson basis the rounding of S leaves
    # without a finite digit
    ("qfi --eta 0.999 --nb 0 --probe tmsv --ns 1e14 --route sld",
     "SLD item 0 has no finite Williamson basis"),
    ("qfi --eta 0.999 --nb 1 --probe twomode --zeta 1 --r 1 --ns 1e15 --route sld",
     "SLD item 0 has no finite Williamson basis"),
    ("hypothesis --eta-plus 0.9995 --eta-minus 0.9985 --m 10 --probe tmsv --ns 1e14",
     "SLD item 0 has no finite Williamson basis"),
], ids=["qfi-sld-singular-tmsv", "qfi-sld-singular-twomode", "hypothesis-singular"])
def test_singular_system_exits_3(capsys, argv, message):
    code, out, err = run_cli(capsys, argv.split())
    assert (code, out, err) == (3, "", f"error: {message}\n")


@pytest.mark.parametrize("argv,row,tmsv_params", [
    ("qfi --eta 0.999 --nb 0.001 --probe tmsv --ns 1000 --route sld",
     "0.999,0.001,tmsv,1000,sld,1999665.83402", ChannelParams(0.999, 1e-3)),
    # the argmax row, above the coherent, squeezed-vacuum and TMSV corners
    ("sweep-twomode --ns 1000 --eta 0.999 --nb 0.001 --normalized",
     "1,1,1067022.34078", ChannelParams(0.999, 1e-3, normalized=True)),
], ids=["qfi-sld", "sweep-twomode-normalized"])
def test_unsettled_stein_items_answer(capsys, argv, row, tmsv_params):
    # the Stein solve leaves these TMSV items above its residual tolerance,
    # and the sum in Stein's basis answers, within 1e-9 of the closed form
    code, out, err = run_cli(capsys, argv.split())
    assert (code, err) == (0, "")
    lines = out.split("\n")
    cell = lines[1] if lines[0].startswith("eta") else lines[-6]
    assert cell == row
    exact = qfi_tmsv(1e3, tmsv_params)
    assert abs(float(row.split(",")[-1]) - exact) <= 1e-9 * exact


def test_closed_route_answers_where_the_sld_route_exits_3(capsys):
    code, out, _ = run_cli(capsys, "qfi --eta 0.999 --nb 0.001 --probe tmsv "
                                   "--ns 1000 --route closed".split())
    assert code == 0
    assert out.split("\n")[1] == "0.999,0.001,tmsv,1000,closed,1999665.83425"


def test_sweep_twomode_r_min_rounded_to_zero_exits_2(capsys):
    code, out, err = run_cli(capsys, "sweep-twomode --ns 1e8 --eta 0.5 --nb 1".split())
    assert (code, out) == (2, "")
    assert err == "error: n_s = 100000000.0 is too large: r_min rounds to 0\n"


def test_sweep_twomode_r_min_overflow_exits_2(capsys):
    code, out, err = run_cli(capsys,
                             "sweep-twomode --ns 1e300 --eta 0.5 --nb 1".split())
    assert (code, out) == (2, "")
    assert err == "error: n_s = 1e+300 is too large: r_min is not finite\n"


@pytest.mark.parametrize("argv", [
    "sweep-total --total-ns-grid 1e300,1e306 --eta-grid 0.5 --nb 0",
    "sweep-xi --ns-grid 1e300,1e306 --eta-grid 0.5 --nb 0",
    "advantage --eta-grid 0.5 --ns-grid 1e300 --nb 0",
    "qfi --nb 1e300 --route sld --eta 0.5 --probe coherent --ns 1",
    "qfi --probe sq --ns 1e9 --route sld --eta 0.5 --nb 0",
    # scalar closed forms, on numpy floats
    "qfi --eta 0.5 --nb 0 --probe tmsv --ns 1e306",
    "qfi --eta 0.5 --nb 1 --probe tmsv --ns 1e306",
    "qfi --eta 0.5 --nb 2 --normalized --probe tmsv --ns 1e306",
    "qfi --eta 0.5 --nb 0 --probe twomode --zeta 0.5 --r 1 --ns 1e306",
    # r = -inf on the way once printed a finite value here
    "qfi --eta 0.5 --nb 1 --probe dsq --xi 0.5 --ns 1e306",
], ids=["sweep-total-overflow", "sweep-xi-overflow", "advantage-overflow",
        "qfi-sld-overflow", "qfi-sld-divide", "qfi-tmsv-overflow",
        "qfi-tmsv-thermal-overflow", "qfi-tmsv-normalized-overflow",
        "qfi-twomode-overflow", "qfi-dsq-overflow"])
def test_floating_point_failure_exits_3(capsys, argv):
    # an overflowed or divided-by-zero intermediate must not reach stdout
    code, out, err = run_cli(capsys, argv.split())
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and ("overflow" in err or "divide" in err)


@pytest.mark.parametrize("argv", [
    "qfi --eta 0.5 --nb 1e200 --probe coherent --ns 1",
    "sweep-xi --ns-grid 1,2 --eta-grid 0.5,0.6 --nb 1e200",
    "sweep-total --total-ns-grid 1,2 --eta-grid 0.5 --nb 1e200 --normalized",
    "advantage --eta-grid 0.5 --ns-grid 1 --nb 1e200",
    "qfi --eta 0.5 --nb 1e200 --probe twomode --ns 1 --zeta 0.5 --r 1",
], ids=["qfi", "sweep-xi", "sweep-total", "advantage", "twomode"])
def test_python_float_overflow_exits_3(capsys, argv):
    # N_B enters the closed forms as a numpy float: nb ** 2 overflows with a
    # numpy signal, not with a bare Python OverflowError
    code, out, err = run_cli(capsys, argv.split())
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and "overflow" in err

