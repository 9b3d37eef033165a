"""The four workloads: their generated inputs, their timed body (a call into
a real priorsweep entry point), and the correctness checks on its outputs.

Every input derives from the workload seed.  Exact references are computed
in ``prepare``, outside the timed body.  Sizes are cut from paper scale so
that one iteration takes a few seconds on a 2-core machine; see README.md.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np
import yaml
from scipy.special import logsumexp

BASELINE = (0.5, 15.0)
# the 16-point skeleton of the US-crime study, baseline h1 first
SKELETON_1 = [BASELINE] + [(w, g) for w in (0.3, 0.5, 0.6, 0.8)
                           for g in (15.0, 50.0, 100.0, 225.0) if (w, g) != BASELINE]
# the paper's Table 1: posterior inclusion probabilities at two (w, g)
TABLE_1 = {
    (0.65, 20.0): [0.93, 0.39, 0.99, 0.70, 0.51, 0.34, 0.35, 0.52,
                   0.83, 0.40, 0.76, 0.55, 1.00, 0.96, 0.55],
    (0.50, 20.0): [0.85, 0.29, 0.97, 0.67, 0.45, 0.22, 0.22, 0.38,
                   0.70, 0.27, 0.62, 0.38, 1.00, 0.90, 0.39],
}
# bounds of the repository's own gates
A1_RMSE_BOUND = 0.06       # bf_cv_hat RMSE against the enumeration
A3_Z_BOUND = 3.0           # |z| of an MCMC estimate against the exact value
ORACLE_TOL = 1e-12         # enumeration identities in the unit tests
OUTPUT_FILES = ("ratio.json", "surface.csv", "variance.csv", "oracle.csv")


def seeds(seed: int, salt: str, count: int) -> list[int]:
    """Distinct 32-bit seeds for one workload, derived from the workload seed."""
    entropy = (seed, int.from_bytes(hashlib.sha256(salt.encode()).digest()[:4], "big"))
    return [int(s) for s in np.random.SeedSequence(entropy).generate_state(count)]


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def output_digest(out: Path) -> str:
    h = hashlib.sha256()
    for name in OUTPUT_FILES:
        p = out / name
        if p.exists():
            h.update(name.encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def output_bytes(out: Path) -> int:
    """Bytes written, less manifest.json, whose timings vary run to run."""
    return sum(p.stat().st_size for p in out.rglob("*")
               if p.is_file() and p.name != "manifest.json")


class Workload:
    """One workload; BENCHMARK.json and README.md give the reason for each."""

    name = ""
    # checks against a statistical tolerance: at a fixed tolerance they fail
    # at some seeds even for a correct program, so they count in "failed" but
    # do not make the result incorrect; every other check is exact
    statistical: frozenset[str] = frozenset()

    def __init__(self, root: Path, work: Path, seed: int, threads: int):
        self.root, self.work, self.seed, self.threads = root, work, seed, threads

    def prepare(self) -> None:
        """Write inputs and compute exact references (untimed)."""

    def run(self, out: Path) -> None:
        """The timed body; raises on failure."""
        raise NotImplementedError

    def check(self, out: Path) -> list[tuple[str, bool, str]]:
        raise NotImplementedError

    def digest(self, out: Path) -> str:
        return output_digest(out)

    def setup_config(self) -> Path:
        """The config a fresh process loads when set-up time is measured."""
        raise NotImplementedError

    def sizes(self) -> dict:
        return {}

    def info(self) -> dict:
        """Informational, non-gating numbers for the result."""
        return {}


class CrimeWorkload(Workload):
    """A `priorsweep run` or `priorsweep oracle` on the bundled US-crime data."""

    command = "run"
    stage1: dict
    stage2: dict
    grid: dict
    functions: list = []
    threaded = False

    @property
    def config_path(self) -> Path:
        return self.work / "study.yaml"

    def write_config(self) -> None:
        raw = {
            "model": {"kind": "blvs",
                      "dataset": str(self.root / "src/priorsweep/data/uscrime.csv"),
                      "response": "y", "binary": ["S"]},
            "skeleton": [list(h) for h in SKELETON_1],
            "stage1": {**self.stage1, "seed": 1},
            "stage2": {**self.stage2, "seed": 2},
            "grid": self.grid,
            "functions": self.functions,
        }
        with open(self.config_path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(raw, fh)

    def setup_config(self) -> Path:
        return self.config_path

    def argv(self, out: Path) -> list[str]:
        argv = [self.command, "--config", str(self.config_path), "--out", str(out)]
        if self.command == "run":
            s1, s2 = seeds(self.seed, self.name, 2)
            argv += ["--seed-override", f"stage1={s1}", "--seed-override", f"stage2={s2}"]
            if self.threaded:
                argv += ["--threads", str(self.threads)]
        return argv

    def prepare(self) -> None:
        self.write_config()
        from priorsweep.config import load_config
        self.cfg = load_config(self.config_path)

    def call(self, argv: list[str]) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            status = sys.modules["priorsweep.cli"].main(argv)
        if status != 0:
            raise RuntimeError(f"priorsweep {argv[0]} exited with status {status}")

    def run(self, out: Path) -> None:
        self.call(self.argv(out))

    def sizes(self) -> dict:
        k = len(self.cfg.skeleton)
        return {"k": k, "N": self.cfg.stage1.total if self.command == "run" else 0,
                "n": self.cfg.stage2.total if self.command == "run" else 0,
                "burn_in": [self.cfg.stage1.burn_in, self.cfg.stage2.burn_in],
                "grid_points": len(self.cfg.grid), "functions": len(self.cfg.functions),
                "threads": self.threads if self.threaded else 1}

    def exact_log_marginals(self, points) -> np.ndarray:
        enum = self.cfg.family.enumeration()
        return np.array([enum.log_marginal(h) for h in points])


class CrimeSweep(CrimeWorkload):
    """Stage 2 and the grid sweep.  Stage 1 runs once, untimed, in prepare:
    the timed body is `run --stage 2` on the ratio.json it wrote, so the grid
    sweep dominates and the stage-1 estimate is long enough for the RMSE gate."""

    name = "crime-sweep"
    stage1 = {"length": 150, "burn_in": 20}
    stage2 = {"length": 80, "burn_in": 20}
    # the study's box at a coarser step: 10 x 9 = 90 points
    grid = {"w": {"min": 0.1, "max": 0.91, "step": 0.09},
            "g": {"min": 4, "max": 100, "step": 12}}
    functions = ["inclusion:*"]
    statistical = frozenset({"bf_cv_hat RMSE vs enumeration < 0.06"})

    def prepare(self) -> None:
        super().prepare()
        lm = self.exact_log_marginals([BASELINE, *self.cfg.grid])
        self.exact_bf = np.exp(lm[1:] - lm[0])
        self.stage1_dir = self.work / "stage1"
        self.stage1_dir.mkdir()
        self.call(self.argv(self.stage1_dir) + ["--stage", "1"])

    def run(self, out: Path) -> None:
        shutil.copy(self.stage1_dir / "ratio.json", out / "ratio.json")
        self.call(self.argv(out) + ["--stage", "2"])

    def check(self, out: Path) -> list[tuple[str, bool, str]]:
        rows = read_csv(out / "surface.csv")
        est = np.array([float(r["bf_cv_hat"]) for r in rows])
        rmse = float(np.sqrt(np.mean((est - self.exact_bf) ** 2)))
        pe = np.array([[float(v) for k, v in r.items() if k.startswith("pe_")] for r in rows])
        se = np.array([[float(v) for k, v in r.items() if k.startswith("se_")] for r in rows])
        return [
            ("bf_cv_hat RMSE vs enumeration < 0.06", rmse < A1_RMSE_BOUND,
             f"rmse {rmse:.5f} over {len(rows)} points"),
            ("every pe_* in [0, 1]", bool(np.all((pe >= 0.0) & (pe <= 1.0))),
             f"range [{pe.min():.4g}, {pe.max():.4g}]"),
            ("every SE finite", bool(np.all(np.isfinite(se))),
             f"{int(np.sum(~np.isfinite(se)))} non-finite of {se.size}"),
        ]


class CrimeChains(CrimeWorkload):
    name = "crime-chains"
    stage1 = {"length": 160, "burn_in": 60}
    stage2 = {"length": 40, "burn_in": 20}
    grid = {"points": [[w, g] for w in (0.2, 0.4, 0.6, 0.8) for g in (10, 30, 50, 70, 90)]}
    threaded = True
    statistical = frozenset({"every d_hat within |z| <= 3 of the exact ratio"})

    def prepare(self) -> None:
        super().prepare()
        lm = self.exact_log_marginals(self.cfg.skeleton)
        self.exact_d = np.exp(lm - lm[0])

    def check(self, out: Path) -> list[tuple[str, bool, str]]:
        ratio = json.loads((out / "ratio.json").read_text())
        d_hat = np.asarray(ratio["d_hat"], dtype=float)
        se = np.sqrt(np.diag(np.asarray(ratio["sigma_hat"], dtype=float)) / ratio["N"])
        z = (d_hat[1:] - self.exact_d[1:]) / se
        rows = read_csv(out / "surface.csv")
        return [
            ("every d_hat within |z| <= 3 of the exact ratio",
             bool(np.all(np.abs(z) <= A3_Z_BOUND)), f"max |z| {np.max(np.abs(z)):.3f}"),
            ("surface has every grid point", len(rows) == len(self.cfg.grid),
             f"{len(rows)} rows"),
        ]


class CrimeOracle(CrimeWorkload):
    name = "crime-oracle"
    command = "oracle"
    # nothing is sampled, but a config needs both stages
    stage1 = stage2 = {"length": 10}
    # the study's box with every other w and g: 14 x 17 = 238 points
    grid = {"w": {"min": 0.1, "max": 0.91, "step": 0.06},
            "g": {"min": 4, "max": 100, "step": 6}}
    functions = ["inclusion:*"]

    def prepare(self) -> None:
        super().prepare()
        family = self.cfg.family
        q = family.q
        bits = ((np.arange(1 << q)[:, None] >> np.arange(q)) & 1).astype(bool)
        q_gamma = bits.sum(axis=1)

        def per_model(g):
            return np.array([family.log_marginal_of_model(b, g) for b in bits])

        def log_weights(lm, w):
            return q_gamma * math.log(w) + (q - q_gamma) * math.log1p(-w) + lm

        def inclusion(lw):
            return np.array([math.exp(logsumexp(lw[bits[:, i]]) - logsumexp(lw))
                             for i in range(q)])

        # spot checks: three points on one seed-chosen row of the grid
        rng = np.random.default_rng(seeds(self.seed, self.name, 1)[0])
        gs = sorted({h[1] for h in self.cfg.grid})
        ws = sorted({h[0] for h in self.cfg.grid})
        g = gs[int(rng.integers(len(gs)))]
        picks = sorted(rng.choice(len(ws), size=3, replace=False))
        self.spots = [(float(ws[i]), float(g)) for i in picks]
        lm = per_model(g)
        lws = [log_weights(lm, w) for w, _ in self.spots]
        self.spot_log_m = [float(logsumexp(lw)) for lw in lws]
        self.spot_incl = [inclusion(lw) for lw in lws]
        # informational: distance of the bundled data's oracle from Table 1
        lm20 = per_model(20.0)
        self.table1_miss = max(float(np.max(np.abs(inclusion(log_weights(lm20, w))
                                                   - np.array(expected))))
                               for (w, _), expected in TABLE_1.items())

    def check(self, out: Path) -> list[tuple[str, bool, str]]:
        rows = {(float(r["w"]), float(r["g"])): r for r in read_csv(out / "oracle.csv")}
        worst_bf = worst_incl = 0.0
        names = self.cfg.family.names
        for (h, log_m, incl) in zip(self.spots, self.spot_log_m, self.spot_incl):
            row = rows[h]
            got = np.array([float(row[f"pe_inclusion:{nm}_exact"]) for nm in names])
            worst_incl = max(worst_incl, float(np.max(np.abs(got - incl))))
            # Bayes factors between the spot points cancel the baseline h1
            ref = self.spots[0]
            got_ratio = float(row["bf_exact"]) / float(rows[ref]["bf_exact"])
            want_ratio = math.exp(log_m - self.spot_log_m[0])
            worst_bf = max(worst_bf, abs(got_ratio - want_ratio) / want_ratio)
        ok = worst_bf <= ORACLE_TOL and worst_incl <= ORACLE_TOL
        return [
            ("oracle agrees with per-model log_marginal_of_model sums to 1e-12", ok,
             f"at {[(round(w, 4), g) for w, g in self.spots]}: max rel BF error {worst_bf:.2e}, "
             f"max inclusion error {worst_incl:.2e}"),
            ("oracle has every grid point", len(rows) == len(self.cfg.grid),
             f"{len(rows)} rows"),
        ]

    def info(self) -> dict:
        return {"table1_max_miss": self.table1_miss, "table1_tolerance": 0.011}


class ToyReplicate(Workload):
    name = "toy-replicate"
    # V3 checks exact identities; the other suites are statistical
    statistical = frozenset({"V1 ratio-estimator calibration",
                             "V2 variance validation (iid)", "V2 variance validation (ar1)",
                             "V4 control-variate variance reduction"})
    REPS_SCALE = 0.1

    def setup_config(self) -> Path:
        # the toy shape the suites use: three skeleton points, 19 grid points
        path = self.work / "toy.yaml"
        path.write_text(yaml.safe_dump({
            "model": {"kind": "toy", "y_obs": 0.0, "sampler": "iid"},
            "skeleton": [[0.0], [1.0], [2.0]],
            "stage1": {"length": 1500, "seed": 1}, "stage2": {"length": 1500, "seed": 2},
            "grid": {"h": {"min": 0.1, "max": 1.9, "step": 0.1}},
            "functions": ["identity"]}))
        return path

    def reps(self, full: int) -> int:
        return max(20, int(round(full * self.REPS_SCALE)))   # as validate.run_all

    def run(self, out: Path) -> None:
        self.results = []
        v = sys.modules["priorsweep.validate"]
        m1, m2i, m2a, m3, m4 = seeds(self.seed, self.name, 5)
        self.results = [
            v.suite_v1_ratio_calibration(reps=self.reps(200), master_seed=m1),
            v.suite_v3_exact_identities(master_seed=m3),
            v.suite_v2_variance_validation("iid", reps=self.reps(500), master_seed=m2i),
            v.suite_v2_variance_validation("ar1", reps=self.reps(500), master_seed=m2a),
            v.suite_v4_cv_reduction(reps=self.reps(200), master_seed=m4),
        ]

    def check(self, out: Path) -> list[tuple[str, bool, str]]:
        return [(r.name, bool(r.passed), "; ".join(r.details)) for r in self.results]

    def digest(self, out: Path) -> str:
        doc = [[r.name, bool(r.passed), r.details] for r in self.results]
        return hashlib.sha256(json.dumps(doc).encode()).hexdigest()

    def sizes(self) -> dict:
        return {"k": [3, 2, 3, 3, 3], "reps_scale": self.REPS_SCALE,
                "reps": {"V1": self.reps(200), "V2-iid": self.reps(500),
                         "V2-ar1": self.reps(500), "V3": 1, "V4": self.reps(200)},
                "per_chain": {"V1": 20000, "V2": 10000 // 3, "V3": 4000, "V4": 1500},
                "grid_points": {"V1": 0, "V2": 1, "V3": 7, "V4": 19},
                "functions": 1, "threads": 1}


WORKLOADS = {w.name: w for w in (CrimeSweep, CrimeChains, CrimeOracle, ToyReplicate)}
