"""Golden CLI outputs: a fixed seed gives the same bytes.

Each case runs one CLI command at small sizes and compares its output file
byte for byte with the fixture of the same name in `tests/golden/`.  A
change that is meant to leave every number as it is must keep these
passing; a change that moves numbers on purpose regenerates the fixtures
with

    PYTHONPATH=src python tests/test_golden.py

and says why in its description.
"""

import sys
from pathlib import Path

import pytest

from coopmac.cli import main

GOLDEN = Path(__file__).parent / "golden"
_LAMBDAS = ["--lambda", "0.0005,0.005"]
CASES = {
    "simulate_all_%s_%s.json" % (cond.replace("=", ""), mode): [
        "simulate", "--class", "all", "--scheme", "both", "--mode", mode, "--conditioning", cond,
        *_LAMBDAS, "--trials", "3000", "--seed", "7", "--format", "json",
    ]
    for cond in ("ppp", "k=10")
    for mode in ("analytic", "sampled")
}
CASES.update(
    {
        "bounds_all_%s.csv" % cond.replace("=", ""): ["bounds", "--class", "all", "--conditioning", cond]
        for cond in ("ppp", "k=10")
    }
)
CASES.update(
    {
        "reproduce_%s.json" % fig: ["reproduce", fig, "--lambda", "0.001,0.004", "--trials", "2000", "--seed", "3",
                                    "--format", "json"]
        for fig in ("fig7", "fig9")
    }
)


def _run(name, out):
    assert main(CASES[name] + ["--out", str(out)]) == 0


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_file(name, tmp_path):
    out = tmp_path / name
    _run(name, out)
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(CASES):
        _run(name, GOLDEN / name)
        print("wrote", GOLDEN / name, file=sys.stderr)
