"""The five benchmark workloads: CLI argv per op, output parsing and checks.

Each op is one `framelab.cli.main(argv)` call.  A workload turns an op seed
into argv, reads back what the op wrote, and checks it three ways:

* invariants the program promises (eta >= k/m or inf, never nan; descent
  never increases the objective; coder distortion near the model; ...);
* seed-independent numbers against the reference captured in
  `reference.json` (relative tolerance `RTOL`);
* seed-dependent summary statistics against the spread of the captured
  reference ops (at most `STAT_SIGMAS` standard deviations off).

The warm-up op always uses `REFERENCE_SEED`, and every number it writes is
compared with the reference at `RTOL`.  Byte digests are not used: the CLI
summaries already differ in the last digits between BLAS thread counts.
"""

from __future__ import annotations

import csv
import math

REFERENCE_SEED = 0
RTOL = 1e-9
ATOL = 1e-12
STAT_SIGMAS = 8.0


class CheckError(Exception):
    """An op's output failed a check."""


def read_output(path):
    """(header dict, column names, rows) of a framelab CSV data product."""
    header, body = {}, []
    with open(path, newline="") as fh:
        for line in fh:
            if line.startswith("# "):
                key, _, value = line[2:].rstrip("\n").partition("=")
                header[key] = value
            else:
                body.append(line)
    table = list(csv.reader(body))
    if not table:
        raise CheckError(f"{path}: no column row")
    return header, table[0], table[1:]


def close(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=ATOL)


def require(cond, msg):
    if not cond:
        raise CheckError(msg)


def _num(header, key):
    try:
        return float(header[key])
    except (KeyError, ValueError):
        raise CheckError(f"header field {key!r} missing or not a number") from None


class Workload:
    """One CLI experiment run many times with fresh seeds.

    Subclasses set `name`, `work_unit` (what `work_per_s` counts), `layers`
    (the traced layers that must record calls on this workload) and `sizes`
    (op parameters at full size and at the tiny smoke-test size).
    """

    name = ""
    work_unit = ""
    layers = ("cli.main", "cli.build_frame", "cli.write_output", "frames.build")
    seed_independent = ()  # summary keys that do not depend on the op seed
    statistics = ()  # summary keys checked against the reference spread
    sizes = {}

    def __init__(self, size):
        self.size = size
        self.p = self.sizes[size]

    def argv(self, op_seed, out):
        raise NotImplementedError

    def build_frame(self, frames):
        """The workload's frame, built once during set-up; None if it has none."""
        return None

    def outputs(self, out):
        return [out]

    def summarize(self, out):
        """(work done, {key: float}) read back from the op's output."""
        raise NotImplementedError

    def invariants(self, s):
        pass

    def exact_reference(self, ref, s):
        return {k: v for k, v in ref["warmup"].items() if k in self.seed_independent}

    def check(self, op_seed, out, ref):
        """Work done by the op; raises CheckError on any miss."""
        work, s = self.summarize(out)
        self.invariants(s)
        exact = dict(self.exact_reference(ref, s))
        if op_seed == REFERENCE_SEED:
            exact.update(ref["warmup"])
        for key, want in exact.items():
            require(key in s, f"{key} missing from output")
            require(close(s[key], want), f"{key}={s[key]!r}, reference {want!r}")
        for key, (mu, sd) in ref["stats"].items():
            require(abs(s[key] - mu) <= STAT_SIGMAS * sd + ATOL,
                    f"{key}={s[key]!r} is more than {STAT_SIGMAS:g} sd from "
                    f"the reference {mu!r} (sd {sd!r})")
        return work


class IEDss947(Workload):
    name = "ie-dss947"
    work_unit = "patterns"
    layers = Workload.layers + ("spectral.inverse_energy", "patterns.sample_pattern",
                                "patterns.ie_statistics")
    seed_independent = ("beta", "eta_floor", "iid_limit", "manova_limit", "trials")
    statistics = ("mean", "fraction_singular")
    sizes = {"full": dict(p=947, k=378, trials=2), "tiny": dict(p=7, k=2, trials=3)}

    def argv(self, op_seed, out):
        p = self.p
        return ["ie-hist", "--frame", "dss", "--p", str(p["p"]), "--k", str(p["k"]),
                "--mode", "monte_carlo", "--trials", str(p["trials"]),
                "--seed", str(op_seed), "--out", out]

    def build_frame(self, frames):
        return frames.build_dss(self.p["p"])

    def summarize(self, out):
        header, _, rows = read_output(out)
        s = {key: _num(header, key) for key in
             ("mean", "median", "mlie_bits", "fraction_singular", "beta",
              "eta_floor", "iid_limit", "trials", "k")}
        if "manova_limit" in header:
            s["manova_limit"] = _num(header, "manova_limit")
        counts = [int(r[2]) for r in rows]
        s.update({f"count.{i}": float(c) for i, c in enumerate(counts)})
        s["count_sum"] = float(sum(counts))
        return self.p["trials"], s

    def invariants(self, s):
        require(s["trials"] == self.p["trials"] == s["count_sum"],
                "trials and histogram total disagree with the request")
        floor = s["eta_floor"] - 1e-9
        for key in ("mean", "median"):
            v = s[key]
            require(not math.isnan(v) and (math.isinf(v) or v >= floor),
                    f"{key}={v!r} is nan or below the floor k/m")


class EigIid947(Workload):
    name = "eig-iid947"
    work_unit = "patterns"
    layers = Workload.layers + ("spectral.gram_eigenvalues", "spectral.eigen_histogram",
                                "patterns.sample_pattern")
    statistics = ("mean_eigenvalue",)
    sizes = {"full": dict(n=947, m=473, k=378, trials=1),
             "tiny": dict(n=12, m=6, k=4, trials=3)}

    def argv(self, op_seed, out):
        p = self.p
        return ["eig-hist", "--frame", "iid", "--n", str(p["n"]), "--m", str(p["m"]),
                "--k", str(p["k"]), "--trials", str(p["trials"]),
                "--seed", str(op_seed), "--out", out]

    def build_frame(self, frames):
        return frames.build_random_iid(self.p["n"], self.p["m"])

    def outputs(self, out):
        stem, _, ext = out.rpartition(".")
        return [out, f"{stem}_zoom.{ext}"]

    def summarize(self, out):
        s = {}
        for tag, path in zip(("", "zoom."), self.outputs(out)):
            header, _, rows = read_output(path)
            for key in ("min_eigenvalue", "max_eigenvalue", "value_lo", "value_hi",
                        "trials", "bins"):
                s[tag + key] = _num(header, key)
            require(len(rows) == s[tag + "bins"], f"{path}: row count != bins")
            centers = [float(r[0]) for r in rows]
            density = [float(r[1]) for r in rows]
            width = (s[tag + "value_hi"] - s[tag + "value_lo"]) / len(rows)
            for i, r in enumerate(rows):
                s[f"{tag}bin_center.{i}"] = centers[i]
                s[f"{tag}density.{i}"] = density[i]
                s[f"{tag}reference_density.{i}"] = float(r[2])
            s[tag + "area"] = math.fsum(d * width for d in density)
            s[tag + "mean_eigenvalue"] = math.fsum(
                c * d * width for c, d in zip(centers, density))
        return self.p["trials"], s

    def exact_reference(self, ref, s):
        return {k: v for k, v in ref["warmup"].items()
                if "bin_center." in k or "reference_density." in k
                or k.endswith(("trials", "bins", "value_lo", "value_hi"))}

    def invariants(self, s):
        require(s["trials"] == self.p["trials"], "trials disagree with the request")
        for key in ("min_eigenvalue", "max_eigenvalue"):
            require(s[key] == s["zoom." + key],
                    f"{key} differs between the two histograms of one sweep")
        require(0.0 < s["min_eigenvalue"] <= s["max_eigenvalue"] < math.inf,
                "eigenvalues not positive and finite")
        require(s["area"] <= 1.0 + 1e-9 and s["zoom.area"] <= 1.0 + 1e-9,
                "histogram area exceeds 1")
        if s["max_eigenvalue"] < s["value_hi"]:
            require(abs(s["area"] - 1.0) <= 1e-9, "full-range histogram area != 1")


class CoderDss127(Workload):
    name = "coder-dss127"
    work_unit = "trials"
    layers = Workload.layers + ("frames.submatrix", "coder.encoder_matrix",
                                "coder.simulate", "patterns.sample_pattern")
    seed_independent = ("model_distortion", "alpha", "trials")
    statistics = ("distortion_rel_err", "f_energy_rel_err", "singular_skipped")
    sizes = {"full": dict(p=127, k=50, trials=7), "tiny": dict(p=7, k=2, trials=20)}

    def argv(self, op_seed, out):
        p = self.p
        return ["coder", "--frame", "dss", "--p", str(p["p"]), "--k", str(p["k"]),
                "--sigma-x2", "1", "--sigma-q2", "1", "--trials", str(p["trials"]),
                "--seed", str(op_seed), "--out", out]

    def build_frame(self, frames):
        return frames.build_dss(self.p["p"])

    def summarize(self, out):
        header, _, rows = read_output(out)
        s = {name: float(value) for name, value in rows}
        s["trials"] = _num(header, "trials")
        s["distortion_rel_err"] = s["empirical_distortion"] / s["model_distortion"] - 1.0
        s["f_energy_rel_err"] = s["empirical_f_energy"] / s["model_f_energy"] - 1.0
        return self.p["trials"], s

    def invariants(self, s):
        require(s["trials"] == self.p["trials"], "trials disagree with the request")
        for key in ("empirical_distortion", "empirical_f_energy", "model_f_energy",
                    "empirical_rate_bits", "max_interp_error"):
            require(math.isfinite(s[key]), f"{key}={s[key]!r} is not finite")


class OptBl13(Workload):
    name = "opt-bl13"
    work_unit = "iterations"
    layers = Workload.layers + ("optimize.sampled_mlie", "optimize.mlie_gradient",
                                "optimize.local_search", "patterns.sample_pattern")
    seed_independent = ("pattern_count",)
    statistics = ("initial_mlie_bits",)
    sizes = {"full": dict(n=13, m=7, k=5, budget=35, iters=20),
             "tiny": dict(n=13, m=7, k=5, budget=10, iters=3)}

    def argv(self, op_seed, out):
        p = self.p
        return ["optimize", "--frame", "bl", "--n", str(p["n"]), "--m", str(p["m"]),
                "--k", str(p["k"]), "--budget", str(p["budget"]),
                "--iters", str(p["iters"]), "--seed", str(op_seed), "--out", out]

    def build_frame(self, frames):
        return frames.build_bandlimited_dft(self.p["n"], self.p["m"])

    def summarize(self, out):
        header, _, rows = read_output(out)
        require(header.get("pattern_mode") == "sampled", "pattern set is not sampled")
        s = {key: _num(header, key) for key in
             ("initial_mlie_bits", "final_mlie_bits", "fresh_mlie_bits", "pattern_count")}
        history = [float(r[1]) for r in rows]
        s.update({f"history.{i}": v for i, v in enumerate(history)})
        s["iterations"] = float(len(history) - 1)
        return len(history) - 1, s

    def invariants(self, s):
        p = self.p
        require(s["pattern_count"] == p["budget"], "pattern count != budget")
        require(s["iterations"] <= p["iters"], "more iterations than requested")
        history = [s[f"history.{i}"] for i in range(int(s["iterations"]) + 1)]
        require(history[0] == s["initial_mlie_bits"] and history[-1] == s["final_mlie_bits"],
                "history endpoints disagree with the header")
        require(all(b <= a for a, b in zip(history, history[1:])),
                "sampled MLIE increased between accepted iterates")
        floor = 0.5 * (p["m"] / p["n"]) * math.log2(p["k"] / p["m"]) - 1e-9
        for key in ("initial_mlie_bits", "final_mlie_bits", "fresh_mlie_bits"):
            require(math.isfinite(s[key]) and s[key] >= floor,
                    f"{key}={s[key]!r} is not finite or below log2(k/m) floor")


class RateLossP02(Workload):
    name = "rateloss-p02"
    work_unit = "points"
    layers = ("cli.main", "cli.write_output", "rd.optimize_beta")
    columns = ("gamma", "beta_star", "delta_opt_bits", "si_bits", "asymptote_bits",
               "delta_minus_si_bits")
    # every op evaluates `points` grid values spaced `step` dB apart, from a
    # seed-chosen whole-dB offset in [0, step), so all ops do equal work
    sizes = {"full": dict(p=0.2, points=11, step=27), "tiny": dict(p=0.2, points=3, step=10)}
    table_grid = {"full": "0:299:1", "tiny": "0:29:1"}

    def grid(self, op_seed):
        p = self.p
        lo = op_seed % p["step"]
        return f"{lo}:{lo + p['step'] * (p['points'] - 1)}:{p['step']}"

    def argv(self, op_seed, out, grid=None):
        return ["rate-loss", "--p", str(self.p["p"]),
                "--sdr-grid", grid or self.grid(op_seed), "--out", out]

    def summarize(self, out):
        header, columns, rows = read_output(out)
        require(tuple(columns[1:]) == self.columns, f"unexpected columns {columns}")
        s = {"si_bits": _num(header, "si_bits")}
        for r in rows:
            db = float(r[0])
            s.update({f"{col}@{db:g}": float(v) for col, v in zip(self.columns, r[1:])})
        s["points"] = float(len(rows))
        return len(rows), s

    def exact_reference(self, ref, s):
        table = ref["table"]
        unknown = [k for k in s if k != "points" and k not in table]
        require(not unknown, f"grid values outside the reference table: {unknown[:3]}")
        return {k: table[k] for k in s if k != "points"}

    def invariants(self, s):
        p = self.p
        require(s["points"] == p["points"], "grid point count != request")
        for key, v in s.items():
            if key.startswith("delta_opt_bits@"):
                require(v >= -1e-12, f"{key}={v!r} is negative")
            if key.startswith("beta_star@"):
                require(1.0 < v <= 1.0 / p["p"] + 1e-12, f"{key}={v!r} outside (1, 1/p]")


WORKLOADS = {cls.name: cls for cls in (IEDss947, EigIid947, CoderDss127, OptBl13, RateLossP02)}
