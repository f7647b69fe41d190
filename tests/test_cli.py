import csv
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from coopmac import cli, monte_carlo
from coopmac.cli import ConfigError, RunConfig, main, parse_config


def test_defaults_are_reference_parameters():
    cfg = parse_config()
    assert cfg.pt == 0.0
    assert cfg.pth == -98.0
    assert cfg.k_const == -40.0
    assert cfg.alpha == 3.0
    assert cfg.sigma == 6.0
    assert cfg.channel().nu == pytest.approx(-58 / 6)


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# experiment\nlambda = 0.001 0.002\ntrials=500\nseed = 9\nclass=D\nconditioning=k=4\n"
    )
    cfg = parse_config(str(path))
    assert cfg.densities == (0.001, 0.002)
    assert cfg.trials == 500
    assert cfg.seed == 9
    assert cfg.link_class == "D"
    assert cfg.k_value() == 4


def test_parse_config_rejections(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(overrides={"alpha": "9"})
    with pytest.raises(ConfigError):
        parse_config(overrides={"sigma": "0"})
    for key, value in (("pt", "nan"), ("pth", "inf"), ("k_const", "-inf"), ("sigma", "inf"), ("sigma", "nan")):
        with pytest.raises(ConfigError, match="finite"):
            parse_config(overrides={key: value})
    with pytest.raises(ConfigError):
        parse_config(overrides={"nonsense": "1"})
    with pytest.raises(ConfigError):
        parse_config(overrides={"trials": "zero"})
    bad = tmp_path / "bad.cfg"
    bad.write_text("this is not a key value line\n")
    with pytest.raises(ConfigError):
        parse_config(str(bad))
    with pytest.raises(ConfigError):
        parse_config(overrides={"conditioning": "k=x"})
    for value in ("nan", "inf", "0.001 -inf"):
        with pytest.raises(ConfigError, match="finite"):
            parse_config(overrides={"lambda": value})
    with pytest.raises(ConfigError, match="seed"):
        parse_config(overrides={"seed": "-1"})
    # the frame-size keys are gone; nothing read them
    frames = tmp_path / "frames.cfg"
    frames.write_text("rts_bits=352\n")
    with pytest.raises(ConfigError, match="unknown config key 'rts_bits'"):
        parse_config(str(frames))


def test_config_hash_ignores_output_path():
    a = RunConfig(out="a.csv").hash()
    b = RunConfig(out="b.csv").hash()
    c = RunConfig(trials=7).hash()
    assert a == b != c


def test_exit_codes(tmp_path):
    assert main(["bounds", "--class", "C", "--lambda", "0.002", "--out", str(tmp_path / "b.csv")]) == 0
    assert main(["nonsense"]) == 1
    assert main([]) == 1
    assert main(["bounds", "--class", "C", "--lambda", "-1"]) == 2
    assert main(["bounds", "--class", "C", "--lambda", "0.002", "--conditioning", "k=oops"]) == 2
    assert main(["simulate", "--class", "C", "--lambda", "nan", "--trials", "10"]) == 2
    assert main(["simulate", "--class", "C", "--lambda", "0.002", "--seed", "-3", "--trials", "10"]) == 2
    assert main(["bounds", "--class", "C", "--lambda", ""]) == 2
    assert main(["simulate", "--class", "C", "--lambda", "", "--trials", "10"]) == 2
    assert main(["reproduce", "fig7", "--lambda", "", "--trials", "10"]) == 2
    # input-determined failures found by the library are config errors too
    assert main(["simulate", "--class", "D", "--lambda", "0.05", "--conditioning", "k=1", "--trials", "10"]) == 2
    assert main(["reproduce", "fig9", "--lambda", "0.05", "--conditioning", "k=1", "--trials", "100"]) == 2
    assert main(["contour", "--class", "C", "--r-k", "90"]) == 2
    assert main(["reproduce", "fig99"]) == 1
    # a figure fixes its classes, schemes and mode, so reproduce takes none of these flags
    assert main(["reproduce", "fig7", "--mode", "sampled", "--trials", "100"]) == 1
    assert main(["reproduce", "fig7", "--scheme", "proposed", "--trials", "100"]) == 1
    assert main(["reproduce", "fig7", "--class", "D", "--trials", "100"]) == 1
    # ... nor as keys of a config file, which would otherwise be ignored
    for line in ("mode=sampled", "scheme=proposed", "class=D", "link_class=D"):
        config = tmp_path / "figure.cfg"
        config.write_text("trials=100\n%s\n" % line)
        assert main(["reproduce", "fig7", "--lambda", "0.002", "--config", str(config)]) == 2
    assert main(["simulate", "--lambda", "0.002", "--config", str(config)]) == 0
    # a non-finite channel key of a config file is a config error for every subcommand
    for line in ("pt=nan", "sigma=inf"):
        config = tmp_path / "channel.cfg"
        config.write_text("trials=10\n%s\n" % line)
        assert main(["simulate", "--class", "C", "--lambda", "0.001", "--config", str(config)]) == 2
        assert main(["bounds", "--class", "C", "--lambda", "0.001", "--config", str(config)]) == 2


def test_a_runtime_failure_exits_3(monkeypatch, capsys):
    # no rejection round may run, so the first placement of a helper fails
    monkeypatch.setattr(monte_carlo, "_MAX_ROUNDS", 0)
    assert main(["simulate", "--class", "C", "--lambda", "0.002", "--trials", "100"]) == 3
    assert capsys.readouterr().err == "error: rejection sampling of helper positions did not finish\n"


def test_bounds_csv_shape(tmp_path):
    out = tmp_path / "bounds.csv"
    assert main(["bounds", "--class", "D", "--lambda", "0.001", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [r["regime"] for r in rows] == ["D1", "D2"]
    for r in rows:
        assert float(r["lower"]) <= float(r["upper"])
        assert r["seed"] == "0" and len(r["config_hash"]) == 12


def test_simulate_determinism_bit_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--class", "C", "--lambda", "0.002", "--trials", "2000", "--seed", "7"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--workers", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_csv_round_trip(tmp_path):
    out = tmp_path / "sim.csv"
    main(["simulate", "--class", "C", "--lambda", "0.003", "--trials", "1000", "--seed", "2", "--out", str(out)])
    text = out.read_text()
    assert "\r" not in text
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 2  # both schemes by default
    for row in rows:
        # values re-parse exactly as printed (4-decimal Mbps)
        assert f"{float(row['mean']):.4f}" == row["mean"]


def test_json_output_full_precision(tmp_path):
    out = tmp_path / "sim.json"
    main(
        [
            "simulate", "--class", "C", "--scheme", "proposed", "--lambda", "0.003",
            "--trials", "1000", "--seed", "2", "--format", "json", "--out", str(out),
        ]
    )
    rows = json.loads(out.read_text())
    assert len(rows) == 1
    assert isinstance(rows[0]["mean"], float)
    assert rows[0]["trials"] == 1000


def test_contour_command(tmp_path):
    out = tmp_path / "contour.csv"
    assert main(["contour", "--class", "C", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert rows
    assert max(float(r["throughput"]) for r in rows) <= 5.5


@pytest.mark.parametrize(
    "r_k,regimes",
    [("80", {"D1"}), ("99", {"D2"}), ("96.4", {"D1", "D2"}), ("101", None), ("nan", None), ("0", None), ("-3", None)],
)
def test_contour_class_d_picks_the_regimes_holding_r_k(tmp_path, r_k, regimes):
    out = tmp_path / "contour.csv"
    code = main(["contour", "--class", "D", "--r-k", r_k, "--resolution", "2", "--out", str(out)])
    if regimes is None:
        assert code == 2 and not out.exists()
        return
    assert code == 0
    assert {r["regime"] for r in csv.DictReader(out.read_text().splitlines())} == regimes


@pytest.mark.parametrize("how", ["flag", "file"])
def test_contour_negative_r_k_is_a_config_error(tmp_path, how):
    # -1 once stood for an absent --r-k and mapped the regime midpoint
    out = tmp_path / "contour.csv"
    if how == "flag":
        args = ["--r-k", "-1"]
    else:
        config = tmp_path / "contour.cfg"
        config.write_text("r_k = -1\n")
        args = ["--config", str(config)]
    assert main(["contour", "--class", "C", *args, "--resolution", "5", "--out", str(out)]) == 2
    assert not out.exists()
    assert parse_config().r_k is None


@pytest.mark.parametrize("command", ["bounds", "simulate"])
def test_k_band_without_probability_is_a_config_error(command, capsys):
    # the 10000th neighbor at 0.005 nodes/m^2 lies ~800 m away: the C band's mass
    # is 0.0 in double precision, and bounds used to print 0.0000 for every value
    args = [command, "--class", "C", "--lambda", "0.005", "--conditioning", "k=10000", "--trials", "10"]
    assert main(args) == 2
    assert "holds no probability" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["bounds", "simulate"])
def test_k_beyond_int64_is_a_config_error(command, capsys):
    # 2^70 used to reach scipy as a Python int and fail with a ufunc TypeError (exit 3)
    args = [command, "--class", "C", "--lambda", "0.005", "--conditioning", "k=%d" % 2**70, "--trials", "10"]
    assert main(args) == 2
    assert "k must be an integer >= 1" in capsys.readouterr().err


def test_reproduce_requires_known_figure(tmp_path):
    assert main(["reproduce", "fig99", "--out", str(tmp_path / "x.csv")]) == 1


def _json_rows(tmp_path, args):
    out = tmp_path / "rows.json"
    assert main([*args, "--format", "json", "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_reproduce_unknown_figure_from_a_config_file(tmp_path, capsys):
    # the positional figure is checked by argparse (exit 1); a config file's by RunConfig
    config = tmp_path / "figure.cfg"
    config.write_text("figure=fig11\n")
    out = tmp_path / "x.csv"
    assert main(["reproduce", "--config", str(config), "--out", str(out)]) == 2
    assert "unknown figure 'fig11'; valid ids: fig7" in capsys.readouterr().err
    assert not out.exists()
    config.write_text("figure=fig9\ntrials=100\nlambda=0.002\n")
    assert {r["regime"] for r in _json_rows(tmp_path, ["reproduce", "--config", str(config)])} == {"D1", "D2"}


@pytest.mark.parametrize("args", [["simulate", "--class", "C"], ["reproduce", "fig7"]], ids=lambda a: a[0])
def test_unwritable_out_fails_before_the_run(tmp_path, monkeypatch, capsys, args):
    # the whole run used to go ahead and then exit 3 on opening the file
    def run(*_):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "estimate_throughput", run)
    for out in (tmp_path / "missing" / "x.csv", tmp_path):
        assert main([*args, "--lambda", "0.001", "--trials", "2000", "--out", str(out)]) == 2
        assert "is not a file in a writable directory" in capsys.readouterr().err
    assert not (tmp_path / "missing").exists()


def test_contour_grid_above_the_node_cap_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "contour.csv"
    assert main(["contour", "--class", "D", "--resolution", "1e-4", "--out", str(out)]) == 2
    assert "above the cap" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("how", ["flag", "file"])
@pytest.mark.parametrize("workers", ["0", "-2"])
def test_worker_count_below_one_is_a_config_error(tmp_path, capsys, how, workers):
    # these used to exit 0 and run serially; no process is started
    if how == "flag":
        args = ["--workers", workers]
    else:
        config = tmp_path / "workers.cfg"
        config.write_text("workers=%s\n" % workers)
        args = ["--config", str(config)]
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--class", "C", "--lambda", "0.002", "--trials", "10", *args, "--out", str(out)]) == 2
    assert "workers must be an integer >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_reproduce_fig7_small_run(tmp_path):
    rows = _json_rows(tmp_path, ["reproduce", "fig7", "--lambda", "0.001,0.004", "--trials", "3000", "--seed", "2"])
    assert [row["density"] for row in rows] == [0.001, 0.004]
    for row in rows:
        assert row["regime"] == "C"
        assert row["upper"] >= row["lower"]
        assert set(row) >= {"density", "upper", "proposed", "conventional", "lower"}


@pytest.mark.parametrize("figure,density", [("fig7", 0.005), ("fig9", 0.003), ("fig9", 0.004)])
def test_reproduce_k_bracket_holds_the_estimates(tmp_path, figure, density):
    # under k the bounds are divided by the band's mass, so they bracket the band-conditional means; these
    # bands hold little mass at k = 10 (C at 0.005, D1 at 0.003 and 0.004), where the partial expectations
    # read about 1e-4
    rows = _json_rows(tmp_path, ["reproduce", figure, "--lambda", str(density), "--conditioning", "k=10",
                                 "--trials", "20000", "--seed", "5"])
    assert {row["regime"] for row in rows} >= ({"C"} if figure == "fig7" else {"D1"})
    for row in rows:
        slack = 4 * row["proposed_stderr"]
        assert row["lower"] - slack <= row["proposed"] <= row["upper"] + slack, row
        # the conventional scheme's helper is no better than the best of the lowest tier
        assert row["conventional"] <= row["upper"] + 4 * row["conventional_stderr"], row


def test_reproduce_fig9_covers_both_regimes(tmp_path):
    rows = _json_rows(tmp_path, ["reproduce", "fig9", "--lambda", "0.002", "--trials", "2000", "--seed", "2"])
    assert {row["regime"] for row in rows} == {"D1", "D2"}


def test_reproduce_repeated_density_gives_each_cell_its_row(tmp_path):
    # a density given twice is two cells with streams of their own; each row is
    # its own cell's estimate, as `simulate` prints it
    args = ["--lambda", "0.002 0.002", "--trials", "500"]
    rows = _json_rows(tmp_path, ["reproduce", "fig7", *args])
    cells = _json_rows(tmp_path, ["simulate", "--class", "C", "--scheme", "both", *args])
    for scheme in ("proposed", "conventional"):
        want = [(c["mean"], c["stderr"]) for c in cells if c["scheme"] == scheme]
        assert [(r[scheme], r[scheme + "_stderr"]) for r in rows] == want
        assert want[0] != want[1]


def test_reproduce_contour_rows(tmp_path):
    rows = _json_rows(tmp_path, ["reproduce", "contour_d2"])
    assert rows
    assert all(set(r) == {"regime", "x", "y", "tier", "throughput", "seed", "config_hash"} for r in rows)
    assert {r["regime"] for r in rows} == {"D2"}
    assert {r["tier"] for r in rows} == {2, 3, 4, 5}  # no tier-1 helper beyond 96.4 m
    assert max(r["throughput"] for r in rows) <= 11.0 / 3.0


def test_reproduce_contour_c_is_the_contour_command(tmp_path):
    # the figure runs the contour command's rows at the regime's default link length
    figure = _json_rows(tmp_path, ["reproduce", "contour_c"])
    command = _json_rows(tmp_path, ["contour", "--class", "C"])
    assert figure
    for rows in (figure, command):
        for row in rows:
            del row["config_hash"]  # the two commands' configs differ in `figure`
    assert figure == command


def test_reproduce_fig7_row_columns(tmp_path):
    out = tmp_path / "fig7.csv"
    code = main(
        ["reproduce", "fig7", "--lambda", "0.002", "--trials", "1000", "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 1
    assert {"density", "upper", "proposed", "conventional", "lower"} <= set(rows[0])


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    printed = capsys.readouterr().out
    assert "FAIL" not in printed
    assert "PASS" in printed


def test_python_m_coopmac_runs_the_cli_from_a_checkout(capsys):
    argv = ["bounds", "--class", "C", "--lambda", "0.001 0.004", "--conditioning", "k=10"]
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-m", "coopmac", *argv], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert main(argv) == 0
    assert done.stdout == capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    # conventional stderrs at 200k trials lie near 1e-5, which 4 decimals print as 0
    ["simulate", "--class", "C", "--scheme", "conventional", "--lambda", "0.005", "--trials", "200000"],
    ["reproduce", "fig7", "--lambda", "0.001,0.004", "--trials", "20000"],
    # one trial: the stderr is exactly 0
    ["simulate", "--class", "D", "--lambda", "0.002", "--trials", "1"],
    ["bounds", "--class", "all", "--conditioning", "k=10"],
])
def test_csv_stderr_reads_0_only_where_the_json_is_0(tmp_path, argv):
    # a stderr, band mass or bound of the CSV row re-parses to 0 exactly where the JSON row's value is 0, and to
    # its three significant digits below 0.01; means, and bounds from 0.01 on, keep 4 decimals
    paths = {fmt: tmp_path / ("out." + fmt) for fmt in ("csv", "json")}
    for fmt, path in paths.items():
        assert main(argv + ["--seed", "5", "--format", fmt, "--out", str(path)]) == 0
    rows = list(csv.DictReader(paths["csv"].read_text().splitlines()))
    full = json.loads(paths["json"].read_text())
    small = [key for key in full[0] if key in ("stderr", "band_mass", "lower", "upper") or key.endswith("_stderr")]
    assert small and len(rows) == len(full)
    for row, exact in zip(rows, full):
        for key in small:
            assert (float(row[key]) == 0.0) == (exact[key] == 0.0), (key, row[key], exact[key])
            if 0.0 < exact[key] < 0.01:
                assert float(row[key]) == pytest.approx(exact[key], rel=5e-3), (key, row[key], exact[key])
        for key in ("mean", "proposed", "conventional", "lower", "upper"):
            if key in row and (key not in small or abs(exact[key]) >= 0.01):
                assert row[key] == format(exact[key], ".4f")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_holds_the_rows_once(tmp_path, fmt):
    # a contour run emits ~10^5 rows; each is joined to the seed and config hash as it is
    # written, so writing them holds no second copy of the rows
    def contour_rows():
        return [{"regime": "C", "r_k": 71.0, "x": float(i), "y": -float(i), "class": "C", "tier": 1,
                 "g_joint": 0.5, "rate": 5.5, "throughput": 2.75} for i in range(20_000)]

    tracemalloc.start()
    try:
        rows = contour_rows()
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        cli._emit(rows, RunConfig(out=str(tmp_path / ("rows." + fmt)), format=fmt))
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak < held / 20, (peak, held)
    with open(tmp_path / ("rows." + fmt), encoding="utf-8") as stream:
        text = stream.read()
    meta = {"seed": 0, "config_hash": RunConfig(out=str(tmp_path / ("rows." + fmt)), format=fmt).hash()}
    if fmt == "json":
        assert text == json.dumps([{**row, **meta} for row in contour_rows()], indent=2) + "\n"
    else:
        assert next(csv.DictReader(text.splitlines())) == {k: str(cli._csv_field(k, v)) for k, v in {**rows[0], **meta}.items()}
        assert len(text.splitlines()) == 1 + len(rows)


def _exit_and_message(capsys, argv):
    """main's exit code and the last line it wrote to stderr."""
    code = main(argv)
    return code, capsys.readouterr().err.strip().splitlines()[-1]


def test_every_error_branch_exits_with_its_code_and_message(tmp_path, capsys, monkeypatch):
    out = str(tmp_path / "x.csv")
    bad_format = tmp_path / "format.cfg"
    bad_format.write_text("format=xml\n")
    cases = [
        (["bounds", "--class", "C", "--lambda", "0.002", "--conditioning", "k=oops"], 2,
         "config error: conditioning: expected k=<int>, got 'k=oops'"),
        (["bounds", "--class", "C", "--lambda", "0.002", "--config", str(bad_format)], 2,
         "config error: format must be csv or json"),
        (["bounds", "--config", str(tmp_path / "missing.cfg")], 2, "config error: cannot read config file: "),
        (["bounds", "--class", "A", "--lambda", "0.002", "--out", out], 2,
         "config error: bounds requires class C, D or all (A/B links have no cooperative bounds)"),
        (["contour", "--class", "all", "--out", out], 2, "config error: contour requires class C or D"),
        # argparse's own choices reject an unknown subcommand before any dispatch
        (["nonsense"], 1, "usage error: argument command: invalid choice: 'nonsense'"),
    ]
    for argv, code, message in cases:
        got_code, got = _exit_and_message(capsys, argv)
        assert (got_code, got[:len(message)]) == (code, message), argv
    assert not os.path.exists(out)
    # a failed selftest check is a runtime failure: exit 3
    monkeypatch.setattr(cli, "lens_area", lambda *args: 1.0)
    assert _exit_and_message(capsys, ["selftest"]) == (3, "error: selftest failed")
