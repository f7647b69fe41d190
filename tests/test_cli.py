import csv
import json

import pytest

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
    # input-determined failures found by the library are config errors too
    assert main(["simulate", "--class", "D", "--lambda", "0.05", "--conditioning", "k=1", "--trials", "10"]) == 2
    assert main(["reproduce", "fig9", "--lambda", "0.05", "--conditioning", "k=1", "--trials", "100"]) == 2
    assert main(["contour", "--class", "C", "--r-k", "90"]) == 2
    assert main(["reproduce", "fig99"]) == 1
    # a figure fixes its classes, schemes and mode, so reproduce takes none of these flags
    assert main(["reproduce", "fig7", "--mode", "sampled", "--trials", "100"]) == 1
    assert main(["reproduce", "fig7", "--scheme", "proposed", "--trials", "100"]) == 1
    assert main(["reproduce", "fig7", "--class", "D", "--trials", "100"]) == 1


def test_bounds_csv_shape(tmp_path):
    out = tmp_path / "bounds.csv"
    assert main(["bounds", "--class", "D", "--lambda", "0.001", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
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
    rows = list(csv.DictReader(out.open()))
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
    rows = list(csv.DictReader(out.open()))
    assert rows
    assert max(float(r["throughput"]) for r in rows) <= 5.5


@pytest.mark.parametrize("r_k,regimes", [("80", {"D1"}), ("99", {"D2"}), ("96.4", {"D1", "D2"}), ("101", None)])
def test_contour_class_d_picks_the_regimes_holding_r_k(tmp_path, r_k, regimes):
    out = tmp_path / "contour.csv"
    code = main(["contour", "--class", "D", "--r-k", r_k, "--resolution", "2", "--out", str(out)])
    if regimes is None:
        assert code == 2 and not out.exists()
        return
    assert code == 0
    assert {r["regime"] for r in csv.DictReader(out.open())} == regimes


def test_reproduce_requires_known_figure(tmp_path):
    assert main(["reproduce", "fig99", "--out", str(tmp_path / "x.csv")]) == 1


def test_reproduce_fig7_row_columns(tmp_path):
    out = tmp_path / "fig7.csv"
    code = main(
        ["reproduce", "fig7", "--lambda", "0.002", "--trials", "1000", "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 1
    assert {"density", "upper", "proposed", "conventional", "lower"} <= set(rows[0])


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    printed = capsys.readouterr().out
    assert "FAIL" not in printed
    assert "PASS" in printed
