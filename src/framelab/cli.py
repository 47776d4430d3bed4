"""Command-line front end: each subcommand reproduces one experiment family
as a CSV (or JSON) data product with a full provenance header.

    framelab ie-hist   --frame dss --p 947 --k 378 --trials 2000 --out ie.csv
    framelab eig-hist  --frame iid --n 947 --m 473 --k 378 --out eig.csv
    framelab rate-loss --p 0.2 --sdr-grid 0:60:1 --out loss.csv
    framelab mlie      --frame bl --n 13 --m 7 --k 5 --mode exhaustive --out mlie.csv
    framelab coder     --frame bl --n 16 --m 16 --k 16 --trials 100000 --out coder.csv
    framelab optimize  --frame bl --n 13 --m 7 --k 5 --out opt.csv
    framelab construct dss --p 7 --out dss7.frame

`mlie` is `ie-hist` with a shorter header that fails when every pattern is
singular.  Headers are `# key=value` lines (sorted), one `timestamp` line
excepted from reproducibility: re-running with identical arguments reproduces
every other byte.  Exit codes: 0 success; 2 configuration error (argparse or
the library refused the input, an input asks for more memory than there is,
or an output file cannot be written); 3
numerical failure (a numpy LinAlgError, such as `spectral.SingularPatternError`
for a singular pattern where a finite eta is needed).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from . import frames, patterns, rd, spectral
from .coder import simulate
from .optimize import local_search, verify_local_min

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
MAX_GRID_POINTS = 10 ** 6  # --sdr-grid points; each is one optimize_beta call
FRAME_FAMILIES = ["bl", "iid", "dss", "spectrum", "paley"]


class ConfigError(ValueError):
    pass


# --- output plumbing ---------------------------------------------------------

def _header_pairs(subcommand, config):
    pairs = [("subcommand", subcommand), ("version", __version__),
             ("timestamp", time.strftime("%Y-%m-%dT%H:%M:%S"))]
    pairs += sorted((k, v) for k, v in config.items())
    return pairs


def write_output(path, subcommand, config, columns, rows, fmt="csv"):
    if fmt == "json":
        payload = {k: v for k, v in _header_pairs(subcommand, config)}
        payload["columns"] = list(columns)
        payload["rows"] = [list(r) for r in rows]
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1, default=str)
            fh.write("\n")
        return
    with open(path, "w", newline="") as fh:
        for k, v in _header_pairs(subcommand, config):
            fh.write(f"# {k}={v}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


# --- frame plumbing ----------------------------------------------------------

def add_frame_args(sub):
    sub.add_argument("--n", type=int, help="source length (rows)")
    sub.add_argument("--m", type=int, help="transform dimension (columns)")
    sub.add_argument("--p", type=float, help="prime modulus for dss frames")
    sub.add_argument("--field", choices=["real", "complex"], default="real",
                     help="entry field for iid frames")
    sub.add_argument("--spectrum", help="comma list of frequencies, or 'random'")
    sub.add_argument("--spectrum-seed", type=seed, default=0,
                     help="seed for --spectrum random")
    sub.add_argument("--frame-seed", type=seed, default=0, help="seed for iid frames")


def build_frame(args):
    kind = args.frame
    if kind is None:
        raise ConfigError("--frame is required")
    if kind in ("bl", "iid") and (args.n is None or args.m is None):
        raise ConfigError(f"{kind} frames need --n and --m")
    if kind == "bl":
        return frames.build_bandlimited_dft(args.n, args.m)
    if kind == "iid":
        return frames.build_random_iid(args.n, args.m, field=args.field,
                                       seed=args.frame_seed)
    if kind == "dss":
        if args.p is None:
            raise ConfigError("dss frames need --p (a prime = 3 mod 4)")
        if not args.p.is_integer():  # also refuses inf and nan
            raise ConfigError("--p must be an integer prime for dss frames")
        return frames.build_dss(int(args.p))
    if kind == "spectrum":
        if args.n is None or args.spectrum is None:
            raise ConfigError("spectrum frames need --n and --spectrum")
        if args.spectrum == "random":
            if args.m is None:
                raise ConfigError("--spectrum random needs --m")
            if not 1 <= args.m <= args.n:
                raise ConfigError(f"--spectrum random needs 1 <= m <= n, "
                                  f"got m={args.m}, n={args.n}")
            rng = np.random.default_rng(args.spectrum_seed)
            spec = sorted(rng.choice(args.n, size=args.m, replace=False).tolist())
        else:
            spec = [int(tok) for tok in args.spectrum.split(",")]
        return frames.build_dft_spectrum(args.n, spec)
    if kind == "paley":
        if args.n is None:
            raise ConfigError("paley frames need --n (= q+1, q prime = 1 mod 4)")
        return frames.build_paley_etf(args.n)
    raise ConfigError(f"unknown frame kind {kind!r}")


def frame_config(frame, args):
    cfg = {"frame": args.frame, "n": frame.n, "m": frame.m, "field": frame.field}
    if frame.kind == "random_iid":
        cfg["frame_seed"] = frame.seed
    if args.frame == "spectrum":
        cfg["spectrum"] = args.spectrum
        if args.spectrum == "random":
            cfg["spectrum_seed"] = args.spectrum_seed
    if args.frame == "dss":
        cfg["p_prime"] = int(args.p)
    return cfg


def _require_k(args, frame):
    if args.k is None:
        raise ConfigError("--k is required")
    if not 0 < args.k <= frame.m:
        raise ConfigError(f"need 0 < k <= m, got k={args.k}, m={frame.m}")
    return args.k


# --- subcommands -------------------------------------------------------------

def cmd_ie_hist(args):
    frame = build_frame(args)
    k = _require_k(args, frame)
    stats = patterns.ie_statistics(frame, k, mode=args.mode, trials=args.trials,
                                   seed=args.seed, bins=args.bins)
    mlie = args.subcommand == "mlie"
    if mlie and stats.fraction_singular == 1.0:
        raise spectral.SingularPatternError("every pattern is singular; MLIE undefined")
    config = frame_config(frame, args)
    if not mlie:
        config.update(beta=frame.m / k, eta_floor=k / frame.m, bins=args.bins,
                      iid_limit=repr(spectral.mp_eta_limit(frame.m / k)))
        law = spectral.reference_law(frame, k)
        if law.name == "manova":
            config["manova_limit"] = repr(law.eta_limit)
    config.update(k=k, mode="monte_carlo" if stats.mode == "sampled" else stats.mode,
                  trials=stats.trials, seed=args.seed,
                  mean=repr(stats.mean), median=repr(stats.median),
                  mlie_bits=repr(stats.mlie),
                  fraction_singular=repr(stats.fraction_singular))
    rows = [(repr(float(lo)), repr(float(hi)), int(c)) for lo, hi, c in
            zip(stats.log_bin_edges[:-1], stats.log_bin_edges[1:], stats.log_counts)]
    write_output(args.out, args.subcommand, config,
                 ("log10_eta_lo", "log10_eta_hi", "count"), rows, args.format)
    return EXIT_OK


def cmd_eig_hist(args):
    frame = build_frame(args)
    k = _require_k(args, frame)
    law = spectral.reference_law(frame, k)
    config = frame_config(frame, args)
    config.update(k=k, beta=frame.m / k, trials=args.trials, seed=args.seed,
                  bins=args.bins, reference=law.name)

    # one eigenvalue sweep, binned over the full range and over the zoom
    full = spectral.eigen_histogram(frame, k, trials=args.trials, bins=args.bins,
                                    seed=args.seed, value_range=law.value_range)
    zoom_range = (0.0, 0.2)
    for path, rng_, hist in ((args.out, law.value_range, full),
                             (zoom_path(args.out), zoom_range, full.rebin(zoom_range))):
        cfg = dict(config)
        cfg.update(value_lo=rng_[0], value_hi=rng_[1],
                   min_eigenvalue=repr(hist.min_eigenvalue),
                   max_eigenvalue=repr(hist.max_eigenvalue))
        rows = [(repr(float(c)), repr(float(d)), repr(float(r))) for c, d, r in
                zip(hist.bin_centers, hist.density, law.density(hist.bin_centers))]
        write_output(path, "eig-hist", cfg,
                     ("bin_center", "empirical_density", "reference_density"),
                     rows, args.format)
    return EXIT_OK


def zoom_path(path):
    """eig.csv -> eig_zoom.csv; only the file name's extension is split off."""
    stem, ext = os.path.splitext(path)
    return f"{stem}_zoom{ext}"


def parse_grid(spec):
    try:
        lo, hi, step = (float(tok) for tok in spec.split(":"))
    except ValueError:
        raise ConfigError(f"--sdr-grid wants lo:hi:step, got {spec!r}") from None
    if not (-math.inf < lo <= hi < math.inf and 0.0 < step < math.inf):  # nan fails too
        raise ConfigError("--sdr-grid needs finite lo <= hi and a finite step > 0")
    if lo + step == lo or hi + step == hi:  # the loop below would never pass hi
        raise ConfigError(f"--sdr-grid step {step!r} vanishes next to the bounds")
    if (hi - lo + 1e-9) / step >= MAX_GRID_POINTS:  # floor of that, plus one, points
        raise ConfigError(f"--sdr-grid {spec!r} has more than {MAX_GRID_POINTS} points")
    out = []
    v = lo
    while v <= hi + 1e-9:
        out.append(round(v, 12))
        v += step
    return out


def cmd_rate_loss(args):
    if args.p is None or not 0.0 < args.p < 1.0:
        raise ConfigError("--p in (0, 1) is required")
    grid = parse_grid(args.sdr_grid)
    if grid[-1] > 3082.5:  # the grid ascends; gamma overflows a double just above 3082.5 dB
        raise ConfigError(f"--sdr-grid point {grid[-1]!r} lies above 3082.5 dB: gamma overflows")
    si = rd.si_benchmark(args.p)
    rows = []
    signs = []
    for db in grid:
        gamma = rd.gamma_from_db(db)
        if gamma <= 1.0:
            gamma = 1.0 + 1e-12  # 0 dB endpoint: open the gamma > 1 domain
        beta_star, delta_star = rd.optimize_beta(args.p, gamma)
        asym = rd.high_sdr_asymptote(args.p, gamma) if gamma > math.e else float("nan")
        rows.append((db, repr(gamma), repr(beta_star), repr(delta_star), repr(si),
                     repr(asym), repr(delta_star - si)))
        signs.append(delta_star - si)
    crossings = [
        (grid[i], grid[i + 1])
        for i in range(len(signs) - 1)
        if signs[i] == 0.0 or (signs[i] < 0.0) != (signs[i + 1] < 0.0)
    ]
    config = {
        "p": args.p, "sdr_grid": args.sdr_grid, "si_bits": repr(si),
        "crossover_count": len(crossings),
        "crossover_db": ";".join(f"{a}..{b}" for a, b in crossings) or "none",
    }
    write_output(args.out, "rate-loss", config,
                 ("sdr_db", "gamma", "beta_star", "delta_opt_bits", "si_bits",
                  "asymptote_bits", "delta_minus_si_bits"),
                 rows, args.format)
    return EXIT_OK


def cmd_coder(args):
    frame = build_frame(args)
    k = _require_k(args, frame)
    fixed = tuple(int(tok) for tok in args.pattern.split(",")) if args.pattern else None
    report = simulate(frame, k, args.sigma_x2, args.sigma_q2,
                      trials=args.trials, seed=args.seed, pattern=fixed)
    config = frame_config(frame, args)
    config.update(k=k, trials=args.trials, seed=args.seed,
                  sigma_x2=args.sigma_x2, sigma_q2=args.sigma_q2,
                  pattern=args.pattern or "sampled")
    rows = [
        ("empirical_distortion", repr(report.empirical_distortion)),
        ("model_distortion", repr(report.model_distortion)),
        ("empirical_f_energy", repr(report.empirical_f_energy)),
        ("model_f_energy", repr(report.model_f_energy)),
        ("empirical_rate_bits", repr(report.empirical_rate)),
        ("max_interp_error", repr(report.max_interp_error)),
        ("alpha", repr(report.alpha)),
        ("singular_skipped", report.singular_skipped),
    ]
    write_output(args.out, "coder", config, ("quantity", "value"), rows, args.format)
    return EXIT_OK


def cmd_optimize(args):
    frame = build_frame(args)
    k = _require_k(args, frame)
    config = frame_config(frame, args)
    if args.verify:
        eps = tuple(float(tok) for tok in args.epsilons.split(","))
        report = verify_local_min(frame, k, epsilons=eps, trials=args.trials,
                                  seed=args.seed, mode=args.pattern_mode,
                                  pattern_budget=args.budget)
        config.update(k=k, trials=args.trials, seed=args.seed,
                      epsilons=args.epsilons, pattern_mode=report.pattern_mode,
                      pattern_count=report.pattern_count,
                      base_mlie_bits=repr(report.initial_mlie))
        rows = [(repr(e), t, repr(frac), repr(dec))
                for e, t, frac, dec in report.perturbation_verdicts]
        write_output(args.out, "optimize", config,
                     ("epsilon", "trials", "fraction_decreased", "max_decrease_bits"),
                     rows, args.format)
        return EXIT_OK
    report, final = local_search(frame, k, pattern_budget=args.budget,
                                 step_init=args.step, max_iters=args.iters, seed=args.seed)
    config.update(k=k, seed=args.seed, budget=args.budget,
                  pattern_mode=report.pattern_mode,
                  pattern_count=report.pattern_count,
                  initial_mlie_bits=repr(report.initial_mlie),
                  final_mlie_bits=repr(report.final_mlie),
                  converged=report.converged)
    if report.fresh_mlie is not None:
        config["fresh_mlie_bits"] = repr(report.fresh_mlie)
    rows = [(0, repr(report.mlie_history[0]), "")]
    rows += [(i + 1, repr(r), repr(s)) for i, (r, s) in
             enumerate(zip(report.mlie_history[1:], report.step_history))]
    write_output(args.out, "optimize", config,
                 ("iteration", "sampled_mlie_bits", "step"), rows, args.format)
    if args.save_frame:
        frames.save_frame(final, args.save_frame)
    return EXIT_OK


def cmd_construct(args):
    frame = build_frame(args)
    out = args.out or f"frame_{frame.kind}_{frame.n}x{frame.m}.txt"
    frames.save_frame(frame, out)
    report = frames.verify_etf(frame)
    pairs = _header_pairs("construct", {
        **frame_config(frame, args),
        "kind": frame.kind,
        "out": out,
        "is_tight": report.is_tight,
        "tightness_error": repr(report.tightness_error),
        "is_equiangular": report.is_equiangular,
        "welch_bound": repr(report.welch_bound),
        "max_welch_deviation": repr(report.max_welch_deviation),
    })
    for key, val in pairs:
        print(f"# {key}={val}")
    return EXIT_OK


# --- parser ------------------------------------------------------------------

def count(text, low=1):
    """argparse type for counts (trials, bins, budget): an int >= low."""
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    return value


def seed(text):
    """argparse type for seeds: an int >= 0, as numpy's generators need."""
    return count(text, low=0)


class PatternMode(argparse.Action):
    """Stores a pattern-set mode; the CLI's 'monte_carlo' (--mode) and 'mc'
    (--pattern-mode) are the library's 'sampled'."""

    def __call__(self, parser, namespace, value, option_string=None):
        setattr(namespace, self.dest, "sampled" if value in ("monte_carlo", "mc") else value)


@functools.cache  # parse_args leaves the parser as it was, so main reuses one
def build_parser():
    parser = argparse.ArgumentParser(
        prog="framelab",
        description="Frames, erasure patterns, inverse-energy statistics, and "
                    "rate-loss accounting for analog coding experiments.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(s, trials=2000, bins=60):
        s.add_argument("--frame", choices=FRAME_FAMILIES, help="frame family")
        add_frame_args(s)
        s.add_argument("--k", type=int, help="number of important samples")
        s.add_argument("--trials", type=count, default=trials)
        s.add_argument("--seed", type=seed, default=0)
        if bins:  # histogram subcommands only
            s.add_argument("--bins", type=count, default=bins)
        s.add_argument("--out", required=True, help="output file")
        s.add_argument("--format", choices=["csv", "json"], default="csv")

    s = sub.add_parser("ie-hist", help="inverse-energy log-histogram over patterns")
    common(s)
    s.add_argument("--mode", choices=["auto", "exhaustive", "monte_carlo"], default="auto",
                   action=PatternMode)
    s.set_defaults(func=cmd_ie_hist)

    s = sub.add_parser("eig-hist", help="Gram eigenvalue histogram with reference density")
    common(s, trials=200, bins=100)
    s.set_defaults(func=cmd_eig_hist)

    s = sub.add_parser("rate-loss", help="optimal-beta random-transform excess vs SI cost")
    s.add_argument("--p", type=float, help="importance fraction k/n")
    s.add_argument("--sdr-grid", default="0:60:1", help="SDR grid in dB, lo:hi:step")
    s.add_argument("--out", required=True)
    s.add_argument("--format", choices=["csv", "json"], default="csv")
    s.set_defaults(func=cmd_rate_loss)

    s = sub.add_parser("mlie", help="mean logarithmic inverse energy of a frame")
    common(s)
    s.add_argument("--mode", choices=["auto", "exhaustive", "monte_carlo"], default="auto",
                   action=PatternMode)
    s.set_defaults(func=cmd_ie_hist)

    s = sub.add_parser("coder", help="Monte Carlo run of the analog coding chain")
    common(s, trials=10000, bins=None)
    s.add_argument("--sigma-x2", type=float, default=1.0)
    s.add_argument("--sigma-q2", type=float, default=1.0)
    s.add_argument("--pattern", help="fixed pattern as comma-separated indices")
    s.set_defaults(func=cmd_coder)

    s = sub.add_parser("optimize", help="MLIE descent or local-minimum verification")
    common(s, trials=200, bins=None)
    s.add_argument("--budget", type=count, default=500, help="pattern budget")
    s.add_argument("--iters", type=int, default=200)
    s.add_argument("--step", type=float, default=1e-2)
    s.add_argument("--verify", action="store_true", help="probe local minimality instead")
    s.add_argument("--epsilons", default="1e-3,1e-2")
    s.add_argument("--pattern-mode", choices=["exhaustive", "mc"], default="exhaustive",
                   action=PatternMode)
    s.add_argument("--save-frame", help="write the final frame here")
    s.set_defaults(func=cmd_optimize)

    # no abbreviations: --frame would pass for --frame-seed
    s = sub.add_parser("construct", help="build a frame, save it, report ETF status",
                       allow_abbrev=False)
    s.add_argument("frame", choices=FRAME_FAMILIES)
    add_frame_args(s)
    s.add_argument("--out", help="frame file (default derived from the family)")
    s.set_defaults(func=cmd_construct)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except np.linalg.LinAlgError as exc:  # a ValueError, so it is caught first
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    # ConfigError, input the library refused, or a size memory cannot hold
    except (ValueError, OSError, MemoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
