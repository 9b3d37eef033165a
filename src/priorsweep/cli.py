"""Command-line front end: two-stage runs, oracle comparisons, stage-size
planning, and the built-in validation suites.

`run` and `plan` share the stage code (`_stage1`, `_stage2`).  Stage 1
writes ratio.json and stage 2 always reads it back, in the same invocation
or a later one.  All outputs are deterministic for a fixed config (seeds
included).  Each stage's chains are sampled serially, in one pass.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .blvs import BlvsFamily
from .config import StudyConfig, load_config, nonnegative
from .errors import ConfigError, PriorsweepError
from .ratio import RatioEstimate, build_log_weight_matrix, estimate_ratios
from .surface import Stage2Workspace, surface
from .validate import run_all
from .variance import MIN_SERIES_LENGTH, PlanInputs, q_opt

MANIFEST_SCHEMA_VERSION = 1
THREADS_HELP = ("accepted and ignored: chains run serially, since the Gibbs "
                "loop holds the GIL and threads only slowed it down")


def _write_csv(path: Path, header, rows, template: str) -> None:
    """The header through csv.writer, then each row by one % on template,
    formatted and written one row at a time.  "%.17g" of a float gives the
    bytes csv.writer writes for f"{x:.17g}", and template's lines end in
    "\r\n" as csv.writer's do."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(template % row for row in rows)


def _write_floats(path: Path, header, *columns) -> None:
    """A CSV of float columns (arrays of one or more columns each), every
    value written as "%.17g"."""
    rows = (tuple(row.tolist()) for row in np.column_stack(columns))
    _write_csv(path, header, rows, ",".join(["%.17g"] * len(header)) + "\r\n")


def _write_chain_csv(path: Path, family, chain) -> None:
    if isinstance(family, BlvsFamily):
        # each draw's model as a string of 0s and 1s, predictor 0 first
        bits = (chain.astype(np.uint8) + ord("0")).view(f"S{family.q}")[:, 0]
        _write_csv(path, ["sweep", "gamma"], enumerate(bits.astype(str).tolist()),
                   "%d,%s\r\n")
    else:
        _write_csv(path, ["step", "theta"],
                   enumerate(np.asarray(chain, dtype=float).tolist()), "%d,%.17g\r\n")


def _write_surface_csv(path: Path, cfg: StudyConfig, surf) -> None:
    se = surf.se
    # each function's estimate next to its standard error
    pe_se = np.stack([surf.pe, se[:, 2:]], axis=2).reshape(len(se), 2 * len(cfg.functions))
    _write_floats(path, [*cfg.family.coord_names, "bf_hat", "bf_cv_hat", "se_bf", "se_bf_cv",
                         *[col for nm in cfg.functions for col in (f"pe_{nm}", f"se_pe_{nm}")],
                         "ess", "max_weight_share"],
                  surf.h, surf.bf, surf.bf_cv, se[:, :2], pe_se, surf.ess, surf.max_weight_share)


def _write_variance_csv(path: Path, cfg: StudyConfig, surf) -> None:
    """Variance surface of the control-variate estimator (with k = 1 there
    are no control variates and it is the plain estimator's)."""
    _write_floats(path, [*cfg.family.coord_names, "stage1_term", "stage2_term", "total", "se"],
                  surf.h, surf.stage1[:, 1], surf.stage2[:, 1], surf.total[:, 1], surf.se[:, 1])


@contextmanager
def _timed(timings: dict, key: str):
    """Add the wall time of the block to timings[key]."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        timings[key] = timings.get(key, 0.0) + time.perf_counter() - t0


def _manifest(cfg: StudyConfig, timings: dict, **extra) -> dict:
    """The manifest.json of a command: config and versions, its timings and
    then `extra`."""
    return {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "package_version": __version__,
        "config_hash": cfg.config_hash,
        "config": cfg.raw,
        **extra,
        "versions": {"python": sys.version.split()[0],
                     "numpy": np.__version__},
        "timings": timings,
        "sizes": {},
    }


def _stage1(cfg: StudyConfig, specs, timings: dict):
    """Sample the stage-1 chains of specs and estimate the ratios from them:
    (chains, RatioEstimate), timed into timings."""
    with _timed(timings, "stage1_s"):
        chains = cfg.family.sample_chains(specs)
    timings["t1_s_per_step"] = timings["stage1_s"] / sum(sp.length + sp.burn_in
                                                         for sp in specs)
    with _timed(timings, "weights_s"):
        W1 = build_log_weight_matrix(cfg.family, cfg.skeleton, chains)
    with _timed(timings, "ratio_s"):
        est = estimate_ratios(W1)
    return chains, est


def _stage2(cfg: StudyConfig, est: RatioEstimate, specs, grid, timings: dict):
    """Sample the stage-2 chains of specs and sweep grid with the stage-1
    estimate est, at q = n / N: (chains, Surface), timed into timings."""
    with _timed(timings, "stage2_s"):
        chains = cfg.family.sample_chains(specs)
    with _timed(timings, "weights_s"):
        W2 = build_log_weight_matrix(cfg.family, cfg.skeleton, chains)
    with _timed(timings, "workspace_s"):
        ws = Stage2Workspace(W2, est.d_hat)
    with _timed(timings, "sweep_s"):
        F = cfg.family.function_rows(cfg.functions, ws.W.samples)
        surf = surface(ws, grid, F, est.sigma_hat, ws.n / est.N)
    timings["t2_s_per_term"] = timings["sweep_s"] / (len(grid) * ws.n)
    return chains, surf


def cmd_run(cfg: StudyConfig, stage: str) -> Path:
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    ratio_path = out / "ratio.json"
    timings: dict = {}
    manifest = _manifest(cfg, timings, stages_run=stage)

    if isinstance(cfg.family, BlvsFamily):
        # the 1 - R^2 table, built before any chain starts
        with _timed(timings, "table_s"):
            cfg.family.model_table()
    if stage in ("1", "both"):
        chains, est = _stage1(cfg, cfg.stage1.chain_specs(cfg.skeleton), timings)
        with _timed(timings, "write_s"):
            if cfg.save_chains:
                for i, c in enumerate(chains):
                    _write_chain_csv(out / f"chain-stage1-{i:02d}.csv", cfg.family, c)
            est.save(ratio_path, cfg.stage1_hash)
    if stage in ("2", "both"):
        est = RatioEstimate.load(ratio_path, cfg.skeleton, cfg.stage1_hash)
        chains, surf = _stage2(cfg, est, cfg.stage2.chain_specs(cfg.skeleton), cfg.grid,
                               timings)
        manifest["sizes"] = {"N": int(est.N), "n": surf.n, "q": surf.n / est.N,
                             "k": len(cfg.skeleton), "grid": len(cfg.grid)}
        manifest["d_hat_provenance"] = ("this run" if stage == "both"
                                        else str(ratio_path))
        with _timed(timings, "write_s"):
            if cfg.save_chains:
                for i, c in enumerate(chains):
                    _write_chain_csv(out / f"chain-stage2-{i:02d}.csv", cfg.family, c)
            _write_surface_csv(out / "surface.csv", cfg, surf)
            _write_variance_csv(out / "variance.csv", cfg, surf)
        totals = surf.total[:, 1]
        imax = int(np.argmax(totals))
        manifest["variance_argmax"] = {"h": surf.h[imax].tolist(),
                                       "total": float(totals[imax])}
    if isinstance(cfg.family, BlvsFamily):
        manifest["sizes"]["models_fitted"] = cfg.family.models_fitted
    # a stage-2 run into a stage-1 directory keeps the stage-1 manifest
    name = "manifest-stage2.json" if stage == "2" else "manifest.json"
    with open(out / name, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, default=str)
    return out


def _read_estimates(surface_path: Path, cfg: StudyConfig) -> dict[str, np.ndarray]:
    """The columns of a run's surface.csv that the oracle compares, by name,
    refused unless the file carries them all, the grid's row count and the
    grid."""
    with open(surface_path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        est_rows = list(reader)
    coord_names = cfg.family.coord_names
    needed = [*coord_names, "bf_hat", "bf_cv_hat", "se_bf_cv",
              *[f"pe_{nm}" for nm in cfg.functions]]
    missing = [col for col in needed if col not in (reader.fieldnames or ())]
    if missing:
        raise ConfigError(f"{surface_path} lacks columns {', '.join(missing)}")
    if len(est_rows) != len(cfg.grid):
        raise ConfigError(
            f"{surface_path} has {len(est_rows)} rows, expected {len(cfg.grid)}")
    est = dict(zip(needed, np.empty((len(needed), len(est_rows)))))
    for i, row in enumerate(est_rows):
        try:
            for col in needed:
                est[col][i] = float(row[col])
        except (TypeError, ValueError):
            raise ConfigError(f"{surface_path}, row {i + 1}: not a number in "
                              f"every column of the header") from None
    got = np.column_stack([est[col] for col in coord_names])
    bad = np.flatnonzero((np.abs(got - cfg.grid) > 1e-9).any(axis=1))
    if bad.size:
        raise ConfigError(f"grid mismatch against {surface_path}: "
                          f"{tuple(got[bad[0]].tolist())} vs "
                          f"{tuple(cfg.grid[bad[0]].tolist())}")
    return est


def cmd_oracle(cfg: StudyConfig, estimates_dir: Path | None) -> Path:
    # a surface.csv to compare against is checked before anything is written;
    # only the implicit one in out_dir may be absent
    surface_path = Path(estimates_dir or cfg.out_dir) / "surface.csv"
    if estimates_dir is not None and not surface_path.is_file():
        raise ConfigError(f"--estimates {estimates_dir}: no surface.csv there")
    timings: dict = {}
    manifest = _manifest(cfg, timings, command="oracle")
    if isinstance(cfg.family, BlvsFamily):
        # the 1 - R^2 table of every model, outside the grid pass
        with _timed(timings, "table_s"):
            cfg.family.enumeration()
        manifest["sizes"]["models"] = 1 << cfg.family.q
        # the grid pass sums the models once per distinct g
        manifest["sizes"]["g_values"] = len({cfg.skeleton[0][1], *cfg.grid[:, 1].tolist()})
    with _timed(timings, "grid_s"):
        exact_bf, exact_pe = cfg.family.exact(cfg.skeleton[0], cfg.grid, cfg.functions)
    manifest["sizes"]["grid"] = len(exact_bf)
    est = _read_estimates(surface_path, cfg) if surface_path.exists() else None
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    with _timed(timings, "write_s"):
        _write_floats(out / "oracle.csv", [*cfg.family.coord_names, "bf_exact",
                                           *[f"pe_{nm}_exact" for nm in cfg.functions]],
                      cfg.grid, exact_bf, exact_pe)

    report = {"grid_points": len(exact_bf)}
    if est is not None:
        for col in ("bf_hat", "bf_cv_hat"):
            err = est[col] - exact_bf
            report[f"rmse_{col}"] = float(np.sqrt(np.mean(err**2)))
            report[f"max_abs_err_{col}"] = float(np.max(np.abs(err)))
        se = est["se_bf_cv"]
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(se > 0, (est["bf_cv_hat"] - exact_bf) / se, np.nan)
        z = z[np.isfinite(z)]
        if z.size:
            report["z_bf_cv"] = {"mean": float(z.mean()),
                                 "sd": float(z.std(ddof=1)) if z.size > 1 else 0.0,
                                 "max_abs": float(np.max(np.abs(z)))}
        else:
            report["z_bf_cv"] = None
        per_f = {nm: {"rmse": float(np.sqrt(np.mean((est[f"pe_{nm}"] - exact) ** 2))),
                      "max_abs_err": float(np.max(np.abs(est[f"pe_{nm}"] - exact)))}
                 for nm, exact in zip(cfg.functions, exact_pe.T)}
        if per_f:
            report["functions"] = per_f
    with _timed(timings, "write_s"), \
            open(out / "comparison.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    # a name of its own, so an oracle into a run's directory keeps the run's manifest
    with open(out / "oracle-manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, default=str)
    return out


def cmd_plan(cfg: StudyConfig, budget_s: float, pilot_length: int) -> Path:
    """Measure t1/t2 and pilot variance components, then solve for q_opt."""
    if pilot_length < MIN_SERIES_LENGTH:
        raise ConfigError(f"--pilot-length must be at least {MIN_SERIES_LENGTH}, "
                          f"got {pilot_length}")
    if not (math.isfinite(budget_s) and budget_s > 0):
        raise ConfigError(f"--budget must be a positive number of seconds, got {budget_s}")
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    specs1, specs2 = ([dataclasses.replace(sp, length=pilot_length)
                       for sp in stage.chain_specs(cfg.skeleton)]
                      for stage in (cfg.stage1, cfg.stage2))
    if isinstance(cfg.family, BlvsFamily):
        cfg.family.model_table()    # built before the chains and outside t1
    # `run`'s two stages at pilot length, so t1 and t2 are the manifest's and
    # q = n / N is 1; the pilot variance components (v1 = c' Sigma c, v2 =
    # tau^2) are the plain estimator's at a few representative grid points
    timings: dict = {}
    _, est = _stage1(cfg, specs1, timings)
    probe = cfg.grid[sorted({0, len(cfg.grid) // 2, len(cfg.grid) - 1})]
    _, surf = _stage2(cfg, est, specs2, probe, timings)
    t1, t2 = timings["t1_s_per_step"], timings["t2_s_per_term"]
    pilots = [{"h": h, "v1": v1, "v2": v2} for h, v1, v2 in
              zip(surf.h.tolist(), surf.stage1[:, 0].tolist(), surf.stage2[:, 0].tolist())]

    plans = []
    for p in pilots:
        if p["v1"] <= 0 or p["v2"] <= 0:
            continue
        inputs = PlanInputs(t1=max(t1, 1e-12), t2=max(t2, 1e-12),
                            g=len(cfg.grid), T=budget_s, v1=p["v1"], v2=p["v2"])
        sol = q_opt(inputs)
        plans.append({"h": p["h"], "q_opt": sol.q_opt,
                      "n": sol.n, "N": sol.N})
    doc = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "t1_s_per_step": t1,
        "t2_s_per_term": t2,
        "grid_points": len(cfg.grid),
        "budget_s": budget_s,
        "pilot_points": pilots,
        "plans": plans,
        "q_opt_spread": ([min(p["q_opt"] for p in plans),
                          max(p["q_opt"] for p in plans)] if plans else None),
    }
    with open(out / "plan.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    return out


def cmd_validate(reps_scale: float) -> int:
    if not (math.isfinite(reps_scale) and reps_scale > 0):
        raise ConfigError(f"--reps-scale must be a positive number, got {reps_scale}")
    results = run_all(reps_scale=reps_scale)
    failed = 0
    for res in results:
        print(res.line())
        for d in res.details:
            print(f"    {d}")
        failed += 0 if res.passed else 1
    return 1 if failed else 0


def _seed_overrides(overrides: list[str]) -> dict[str, int]:
    """The --seed-override values STAGE=SEED as a {stage: seed} mapping for
    load_config, the last one of a stage winning."""
    seeds = {}
    for ov in overrides:
        if "=" not in ov:
            raise ConfigError(f"bad --seed-override {ov!r}; expected stage1=SEED")
        key, val = ov.split("=", 1)
        if key not in ("stage1", "stage2"):
            raise ConfigError(f"unknown seed override target {key!r}")
        try:
            val = int(val)
        except ValueError:
            pass                # left a string, which the check refuses
        seeds[key] = nonnegative(val, f"--seed-override {key}")
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="priorsweep",
        description="Bayes-factor and posterior-expectation surfaces over a "
                    "prior hyperparameter space from two stages of MCMC runs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="two-stage estimation run")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--stage", choices=["1", "2", "both"], default="both")
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--threads", type=int, default=None, help=THREADS_HELP)
    p_run.add_argument("--seed-override", action="append", default=[],
                       metavar="STAGE=SEED")

    p_or = sub.add_parser("oracle", help="exact surfaces and comparison report")
    p_or.add_argument("--config", required=True)
    p_or.add_argument("--out", default=None)
    p_or.add_argument("--estimates", default=None,
                      help="directory holding surface.csv to compare against")

    p_plan = sub.add_parser("plan", help="stage-allocation planning")
    p_plan.add_argument("--config", required=True)
    p_plan.add_argument("--budget", type=float, required=True,
                        help="total computational budget in seconds")
    p_plan.add_argument("--pilot-length", type=int, default=500)
    p_plan.add_argument("--out", default=None)

    p_val = sub.add_parser("validate", help="run the built-in toy suites")
    p_val.add_argument("--reps-scale", type=float, default=1.0)

    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            return cmd_validate(args.reps_scale)
        # only `run` takes --seed-override
        cfg = load_config(args.config, out=args.out,
                          seeds=_seed_overrides(getattr(args, "seed_override", [])))
        if args.command == "run":
            out = cmd_run(cfg, args.stage)
            print(f"wrote {out}")
            return 0
        if args.command == "oracle":
            out = cmd_oracle(cfg, Path(args.estimates) if args.estimates else None)
            print(f"wrote {out / 'oracle.csv'}")
            return 0
        if args.command == "plan":
            out = cmd_plan(cfg, args.budget, args.pilot_length)
            print(f"wrote {out / 'plan.json'}")
            return 0
        raise ConfigError(f"unknown command {args.command}")
    except (PriorsweepError, OSError, ValueError) as exc:
        print(f"priorsweep: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
