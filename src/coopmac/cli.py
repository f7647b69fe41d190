"""Command-line front end: config parsing, dispatch, CSV/JSON output.

Subcommands
-----------
bounds      averaged lower/upper throughput bounds per link class
simulate    Monte-Carlo throughput estimates
contour     helper-position throughput map for one link
reproduce   figure-style sweep tables (fig7/fig9/fig10/contour_*)
selftest    quick built-in oracle checks

Configuration is a flat ``key=value`` text file plus command-line
overrides; defaults are the reference parameter set (0 dBm transmit,
-98 dBm threshold, alpha=3, sigma=6 dB, K=-40 dB).  Exit codes: 0 ok,
1 usage error, 2 config error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from .channel_model import ChannelParams, g_joint, p_success_direct, q_function
from .stochastic_geometry import (CLASS_REGIMES, CLASS_TIERS, HELPER_REGIMES, REGIMES, check_band, check_integer,
                                  lens_area, tier_region_areas)
from .analytic_bounds import averaged_bounds, band_mass, tier_probabilities, total_throughput_bounds
from .quadrature import gauss_kronrod
from .monte_carlo import DENSITY_GRID, ExperimentConfig, contour_grid, estimate_throughput

# figure id -> regimes of its density sweep, and one contour map per helper regime
SWEEP_FIGURES = {"fig7": CLASS_REGIMES["C"], "fig9": CLASS_REGIMES["D"], "fig10": CLASS_REGIMES["all"]}
CONTOUR_FIGURES = {"contour_" + regime.lower(): regime for regime in HELPER_REGIMES}
FIGURES = (*SWEEP_FIGURES, *CONTOUR_FIGURES)


class UsageError(Exception):
    pass


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    """Full run configuration: channel, experiment, output."""

    # channel (dBm / dB)
    pt: float = 0.0
    pth: float = -98.0
    k_const: float = -40.0
    alpha: float = 3.0
    sigma: float = 6.0
    # experiment
    link_class: str = "C"  # A | B | C | D | all
    scheme: str = "both"
    densities: tuple = DENSITY_GRID
    trials: int = 200_000
    seed: int = 0
    mode: str = "analytic"
    conditioning: str = "ppp"  # "ppp" or "k=<int>"
    r_k: Optional[float] = None  # contour link length; None (no --r-k) -> regime midpoint
    resolution: float = 0.5
    figure: str = "fig7"
    workers: int = 1
    # output
    out: str = "-"
    format: str = "csv"

    def channel(self) -> ChannelParams:
        return ChannelParams(pt=self.pt, pth=self.pth, k_const=self.k_const, alpha=self.alpha, sigma_sh=self.sigma)

    def k_value(self):
        """None for ppp conditioning, else the neighbor order k."""
        c = self.conditioning.strip()
        if c == "ppp":
            return None
        if c.startswith("k="):
            try:
                return int(c[2:])
            except ValueError:
                raise ConfigError("conditioning: expected k=<int>, got %r" % (c,))
        raise ConfigError("conditioning must be 'ppp' or 'k=<int>', got %r" % (c,))

    def validate(self):
        """Check the CLI's own fields here and the experiment fields through `ExperimentConfig`."""
        if self.format not in ("csv", "json"):
            raise ConfigError("format must be csv or json")
        if self.figure not in FIGURES:
            raise ConfigError("unknown figure %r; valid ids: %s" % (self.figure, ", ".join(FIGURES)))
        if self.out not in ("-", ""):
            # before the run, which can take minutes, and without opening the file, which `_emit` creates
            folder = os.path.dirname(os.path.abspath(self.out))
            if os.path.isdir(self.out) or not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
                raise ConfigError("out: %r is not a file in a writable directory" % (self.out,))
        try:
            check_band(self.link_class, CLASS_REGIMES)
            check_integer("workers", self.workers, 1)
            ExperimentConfig(densities=self.densities, scheme=self.scheme, trials=self.trials,
                             estimator_mode=self.mode, base_seed=self.seed, channel=self.channel(), k=self.k_value())
        except ValueError as e:
            raise ConfigError(str(e))
        return self

    def hash(self) -> str:
        """Short digest of the experiment-defining fields (not output/workers)."""
        payload = asdict(self)
        for key in ("out", "format", "workers"):
            payload.pop(key, None)
        # an absent --r-k hashes as the -1.0 that stood for it before, so hashes stay comparable
        payload["r_k"] = -1.0 if self.r_k is None else self.r_k
        return hashlib.sha256(json.dumps(payload, sort_keys=True, default=list).encode()).hexdigest()[:12]


_KEY_ALIASES = {"lambda": "densities", "class": "link_class"}
# A `reproduce` figure fixes its classes and runs both schemes in analytic
# mode, so it takes none of these keys, neither as flags nor from a file.
_FIGURE_FIXED_KEYS = ("link_class", "scheme", "mode")


def _assign(cfg: RunConfig, key: str, value: str):
    """Set one field from its text, parsed as the type of the field's default."""
    key = _KEY_ALIASES.get(key, key)
    if key not in {f.name for f in fields(RunConfig)}:
        raise ConfigError("unknown config key %r" % (key,))
    try:
        if key == "densities":
            cfg.densities = tuple(float(v) for v in str(value).replace(",", " ").split())
        elif key == "r_k":
            cfg.r_k = float(value)
        else:
            setattr(cfg, key, type(getattr(RunConfig, key))(value))
    except ValueError:
        raise ConfigError("invalid value %r for key %r" % (value, key))


def parse_config(path=None, overrides=None, fixed=()) -> RunConfig:
    """Merge defaults, an optional key=value file (setting none of `fixed`), and flag overrides."""
    cfg = RunConfig()
    if path:
        try:
            with open(path) as fh:
                lines = fh.readlines()
        except OSError as e:
            raise ConfigError("cannot read config file: %s" % (e,))
        for ln, line in enumerate(lines, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError("line %d: expected key=value, got %r" % (ln, line))
            key, value = line.split("=", 1)
            if _KEY_ALIASES.get(key.strip(), key.strip()) in fixed:
                raise ConfigError("line %d: this subcommand does not take %r" % (ln, key.strip()))
            _assign(cfg, key.strip(), value.strip())
    for key, value in (overrides or {}).items():
        if value is not None:
            _assign(cfg, key, value)
    return cfg.validate()


def _csv_field(key, value):
    """A row's value as the CSV prints it: a float but the density to 4 decimals, and a stderr, band mass or bound
    below 0.01, which 4 decimals would show with fewer than three digits or as 0, to three significant digits."""
    if not isinstance(value, float) or key == "density":
        return value
    small = key in ("stderr", "band_mass", "lower", "upper") or key.endswith("_stderr")
    return format(value, ".3g" if small and abs(value) < 0.01 else ".4f")


def _emit(rows, cfg: RunConfig):
    """Write rows (a non-empty list of dicts) as CSV (`_csv_field`) or JSON, each with the seed and config hash.

    Each row is joined to them as it is written, so no second copy of the
    rows is held; the JSON has the bytes of `json.dump(..., indent=2)` of the
    joined rows.
    """
    meta = {"seed": cfg.seed, "config_hash": cfg.hash()}
    stream = sys.stdout if cfg.out in ("-", "") else open(cfg.out, "w", newline="", encoding="utf-8")
    try:
        if cfg.format == "json":
            for i, row in enumerate(rows):
                stream.write(",\n  " if i else "[\n  ")
                stream.write(json.dumps({**row, **meta}, indent=2).replace("\n", "\n  "))
            stream.write("\n]\n")
        else:
            writer = csv.DictWriter(stream, fieldnames=list({**rows[0], **meta}), lineterminator="\n")
            writer.writeheader()
            for row in rows:
                writer.writerow({k: _csv_field(k, v) for k, v in {**row, **meta}.items()})
    finally:
        if stream is not sys.stdout:
            stream.close()


def _bound_pair(regime, density, k, params):
    """Averaged bounds of one regime; regime "all" is the network total."""
    if regime == "all":
        return total_throughput_bounds(density, k=k, params=params)
    return averaged_bounds(regime, density, k=k, params=params)


def _cmd_bounds(cfg: RunConfig):
    params = cfg.channel()
    k = cfg.k_value()
    if cfg.link_class == "all":
        regimes = HELPER_REGIMES + ("all",)
    elif cfg.link_class in CLASS_TIERS:
        regimes = CLASS_REGIMES[cfg.link_class]
    else:
        raise ConfigError("bounds requires class C, D or all (A/B links have no cooperative bounds)")
    rows = []
    for d in cfg.densities:
        for regime in regimes:
            pair = _bound_pair(regime, d, k, params)
            rows.append({"density": d, "regime": "total" if regime == "all" else regime, "lower": pair.lower,
                         "upper": pair.upper, "band_mass": band_mass(regime, d, k=k)})
    return rows


def _estimates(cfg: RunConfig, regime, scheme, mode):
    """The Monte-Carlo estimates of one regime over the run's densities, one per (density, scheme)."""
    config = ExperimentConfig(densities=cfg.densities, scheme=scheme, regime=regime, trials=cfg.trials,
                              estimator_mode=mode, base_seed=cfg.seed, channel=cfg.channel(), k=cfg.k_value())
    return estimate_throughput(config, workers=cfg.workers)


def _cmd_simulate(cfg: RunConfig):
    rows = []
    for regime in CLASS_REGIMES[cfg.link_class]:
        for est in _estimates(cfg, regime, cfg.scheme, cfg.mode):
            rows.append(
                {
                    "density": est.density,
                    "regime": est.regime,
                    "scheme": est.scheme,
                    "mean": est.mean,
                    "stderr": est.stderr,
                    "trials": est.trials,
                }
            )
    return rows


def _contour_rows(regimes, **grid_args):
    """One row per grid node inside a tier region, for each regime's `contour_grid`."""
    rows = []
    for regime in regimes:
        grid = contour_grid(regime, **grid_args)
        yy, xx = np.nonzero(~np.isnan(grid["throughput"]))
        for i, j in zip(yy, xx):
            rows.append(
                {
                    "regime": regime,
                    "x": float(grid["x"][j]),
                    "y": float(grid["y"][i]),
                    "tier": int(grid["tier"][i, j]),
                    "throughput": float(grid["throughput"][i, j]),
                }
            )
    return rows


def _cmd_contour(cfg: RunConfig):
    if cfg.link_class not in CLASS_TIERS:
        raise ConfigError("contour requires class C or D")
    check_band(cfg.link_class, CLASS_TIERS, cfg.r_k)
    # a given r_k selects the regimes whose closed band holds it (96.4 m: both D1 and D2)
    regimes = [regime for regime in CLASS_REGIMES[cfg.link_class]
               if cfg.r_k is None or REGIMES[regime][0] <= cfg.r_k <= REGIMES[regime][1]]
    return _contour_rows(regimes, r_k=cfg.r_k, resolution=cfg.resolution, params=cfg.channel())


def _cmd_reproduce(cfg: RunConfig):
    """Tabular dataset behind one of the headline figures.

    ``fig7``: Type-C density sweep (upper/proposed/conventional/lower).
    ``fig9``: Type-D sweep, one row group per regime (D1 and D2).
    ``fig10``: network-total sweep (all link classes combined).
    ``contour_c`` / ``contour_d1`` / ``contour_d2``: the `contour` command's
    rows for the regime's default link length and resolution.

    The estimates are means given that the link lies in the regime's band.
    Under k-nearest conditioning the bounds are partial expectations over
    the band, so they are divided by its mass (`band_mass`) to bound the
    same mean; under the PPP they are already band-conditional.
    """
    params = cfg.channel()
    if cfg.figure in CONTOUR_FIGURES:
        return _contour_rows([CONTOUR_FIGURES[cfg.figure]], params=params)
    k = cfg.k_value()
    rows = []
    for regime in SWEEP_FIGURES[cfg.figure]:
        # one (proposed, conventional) pair per density, in sweep order: a density
        # given twice is two cells with streams of their own
        estimates = _estimates(cfg, regime, "both", "analytic")
        for d, proposed, conventional in zip(cfg.densities, estimates[::2], estimates[1::2]):
            pair = _bound_pair(regime, d, k, params)
            lower, upper = pair.lower, pair.upper
            if k is not None:
                mass = band_mass(regime, d, k=k)
                lower, upper = lower / mass, upper / mass
            rows.append(
                {
                    "density": d,
                    "regime": regime,
                    "upper": upper,
                    "proposed": proposed.mean,
                    "conventional": conventional.mean,
                    "lower": lower,
                    "proposed_stderr": proposed.stderr,
                    "conventional_stderr": conventional.stderr,
                }
            )
    return rows


def _cmd_selftest(cfg: RunConfig):
    """Quick oracle battery; prints one pass/fail line per check."""
    params = ChannelParams()
    checks = []

    def check(name, ok):
        checks.append((name, bool(ok)))

    check("q_function(0) == 0.5", abs(q_function(0.0) - 0.5) < 1e-12)
    check("q symmetry", abs(q_function(1.25) + q_function(-1.25) - 1.0) < 1e-12)
    check("Ps(48.2) ~= 0.8946", abs(float(p_success_direct(48.2, params)) - 0.8946) < 1e-4)
    check("Ps(67.1) ~= 0.7030", abs(float(p_success_direct(67.1, params)) - 0.7030) < 1e-4)
    check("G(48.2,48.2) ~= 0.8003", abs(float(g_joint(48.2, 48.2, params)) - 0.8003) < 1e-4)
    check("lens full overlap", abs(lens_area(48.2, 48.2, 0.0) - np.pi * 48.2 ** 2) < 1e-9)
    check("lens tangent", lens_area(48.2, 48.2, 96.4) == 0.0)

    rng = np.random.default_rng(1)
    pts = rng.uniform([-48.2, -48.2], [70 + 48.2, 48.2], size=(200_000, 2))
    box = (70 + 96.4) * 96.4
    frac = np.mean((np.hypot(pts[:, 0], pts[:, 1]) < 48.2) & (np.hypot(pts[:, 0] - 70, pts[:, 1]) < 48.2))
    check("lens(48.2,48.2,70) vs MC", abs(frac * box - lens_area(48.2, 48.2, 70.0)) / lens_area(48.2, 48.2, 70.0) < 0.02)

    areas = tier_region_areas("C", 70.0)
    check("C areas positive", all(a > 0 for a in areas.areas))
    vec = tier_probabilities("C", 70.0, density=0.001)
    check("tier probs sum to 1", abs(sum(vec.probs.values()) + vec.residual - 1.0) < 1e-12)
    check("quadrature x^3", abs(gauss_kronrod(lambda x, part: x ** 3, [(0.0, 2.0)])[0] - 4.0) < 1e-9)

    config = ExperimentConfig(densities=(0.002,), regime="C", trials=2000, base_seed=9)
    a = estimate_throughput(config)[0]
    b = estimate_throughput(config)[0]
    check("simulation determinism", a == b)

    ok = True
    for name, passed in checks:
        print("%s %s" % ("PASS" if passed else "FAIL", name))
        ok = ok and passed
    if not ok:
        raise RuntimeError("selftest failed")
    return []


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="coopmac", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command")
    for name in ("bounds", "simulate", "contour", "reproduce", "selftest"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat key=value config file")
        if name != "reproduce":  # see _FIGURE_FIXED_KEYS
            p.add_argument("--class", dest="link_class", choices=list(CLASS_REGIMES))
            p.add_argument("--scheme", choices=["proposed", "conventional", "both"])
            p.add_argument("--mode", choices=["analytic", "sampled"])
        p.add_argument("--lambda", dest="densities", help="space/comma separated density list")
        p.add_argument("--trials", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--conditioning", help="ppp or k=<int>")
        p.add_argument("--workers", type=int)
        p.add_argument("--out")
        p.add_argument("--format", choices=["csv", "json"])
        if name == "contour":
            p.add_argument("--r-k", dest="r_k", type=float)
            p.add_argument("--resolution", type=float,
                           help="grid step in m (default 0.5); a grid of more than 10^6 nodes is a config error")
        if name == "reproduce":
            p.add_argument("figure", nargs="?", choices=FIGURES)
    return parser


_COMMANDS = {
    "bounds": _cmd_bounds,
    "simulate": _cmd_simulate,
    "contour": _cmd_contour,
    "reproduce": _cmd_reproduce,
    "selftest": _cmd_selftest,
}


def dispatch(command: str, cfg: RunConfig) -> int:
    handler = _COMMANDS.get(command)
    if handler is None:
        raise UsageError("unknown subcommand %r" % (command,))
    rows = handler(cfg)
    if rows:
        _emit(rows, cfg)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise UsageError("a subcommand is required (bounds, simulate, contour, reproduce, selftest)")
        overrides = {k: v for k, v in vars(args).items() if k not in ("command", "config") and v is not None}
        fixed = _FIGURE_FIXED_KEYS if args.command == "reproduce" else ()
        cfg = parse_config(getattr(args, "config", None), overrides, fixed)
        return dispatch(args.command, cfg)
    except UsageError as e:
        print("usage error: %s" % (e,), file=sys.stderr)
        return 1
    except (ConfigError, ValueError) as e:  # bad input, found here or by the library's own checks
        print("config error: %s" % (e,), file=sys.stderr)
        return 2
    except Exception as e:  # runtime failure
        print("error: %s" % (e,), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
