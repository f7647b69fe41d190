"""Golden CLI outputs: a fixed seed gives the same bytes.

Each case runs one CLI command at small sizes and compares its output file
byte for byte with the fixture of the same name in `tests/golden/`.  A
change that is meant to leave every number as it is must keep these
passing; a change that moves numbers on purpose regenerates the fixtures
with

    PYTHONPATH=src python tests/test_golden.py

and says why in its description.  Before it overwrites a JSON fixture it
prints, for each estimate with a standard error, z = (new - old) /
sqrt(se_old^2 + se_new^2), how far the estimate moved in units of its noise.

`proposed_chunk.sha256` and `conventional_chunk.sha256` pin the bytes of
each scheme's chunk (`monte_carlo._chunk_throughput`) in both modes over a
grid of cells that the CLI cases do not reach (`proposed_chunk_digest`,
`conventional_chunk_digest`), so that a change meant to leave a scheme's
numbers as they are is checked on them too; the same command rewrites both.
"""

import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from coopmac.channel_model import ChannelParams
from coopmac.cli import main
from coopmac.monte_carlo import _chunk_throughput

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


CHUNK_DIGEST = GOLDEN / "proposed_chunk.sha256"
CONVENTIONAL_DIGEST = GOLDEN / "conventional_chunk.sha256"


def _chunk_digest(scheme, modes):
    """sha256 of the scheme's chunk bytes over {C, D1, D2, all} x {ppp, k=3, k=10} x {0.001, 0.005} x modes x 2 seeds."""
    digest = hashlib.sha256()
    for regime in ("C", "D1", "D2", "all"):
        for k in (None, 3, 10):
            for density in (0.001, 0.005):
                for mode in modes:
                    for seed in (0, 1):
                        rng = np.random.default_rng(seed)
                        digest.update(_chunk_throughput(regime, density, scheme, 2000, ChannelParams(), mode, k,
                                                        rng).tobytes())
    return digest.hexdigest()


def proposed_chunk_digest():
    """sha256 of the proposed scheme's chunk bytes in both modes (`_chunk_digest`)."""
    return _chunk_digest("proposed", ("analytic", "sampled"))


def conventional_chunk_digest():
    """sha256 of the conventional scheme's chunk bytes in both modes (`_chunk_digest`)."""
    return _chunk_digest("conventional", ("analytic", "sampled"))


def _run(name, out):
    assert main(CASES[name] + ["--out", str(out)]) == 0


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_file(name, tmp_path):
    out = tmp_path / name
    _run(name, out)
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_proposed_chunk_bytes_match_golden_digest():
    assert proposed_chunk_digest() == CHUNK_DIGEST.read_text().strip()


def test_conventional_chunk_bytes_match_golden_digest():
    assert conventional_chunk_digest() == CONVENTIONAL_DIGEST.read_text().strip()


def _moves(old, new):
    """(row label, estimate, z) for each estimate of two JSON outputs: a key `x` with a key `x_stderr`, or `mean` with `stderr`."""
    for before, after in zip(old, new):
        label = " ".join(str(before[key]) for key in ("density", "regime", "scheme") if key in before)
        for key in before:
            if key == "stderr" or key.endswith("_stderr"):
                estimate = key[:-len("_stderr")] if key != "stderr" else "mean"
                move = after[estimate] - before[estimate]
                scale = math.hypot(before[key], after[key])
                yield label, estimate, move / scale if scale else (math.copysign(math.inf, move) if move else 0.0)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(CASES):
        path = GOLDEN / name
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / name
            _run(name, out)
            if path.suffix == ".json" and path.exists():
                for label, estimate, z in _moves(json.loads(path.read_text()), json.loads(out.read_text())):
                    print("%s  %s %s: z = %+.2f" % (name, label, estimate, z), file=sys.stderr)
            path.write_bytes(out.read_bytes())
        print("wrote", path, file=sys.stderr)
    for path, make in ((CHUNK_DIGEST, proposed_chunk_digest), (CONVENTIONAL_DIGEST, conventional_chunk_digest)):
        path.write_text(make() + "\n")
        print("wrote", path, file=sys.stderr)
