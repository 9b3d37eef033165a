"""Command-line front end: two-stage runs, oracle comparisons, stage-size
planning, and the built-in validation suites.

Stages can run in separate invocations: stage 1 writes ratio.json, stage 2
reads it back, which mirrors the independence of the two sampling stages.
All outputs are deterministic for a fixed config (seeds included).  Each
stage's chains are sampled serially, in one pass.
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
from .config import StudyConfig, load_config
from .errors import ConfigError, PriorsweepError
from .families import ConjugateToy
from .ratio import RatioEstimate, build_log_weight_matrix, estimate_ratios
from .surface import Stage2Workspace, surface
from .validate import run_all
from .variance import MIN_SERIES_LENGTH, PlanInputs, q_opt

MANIFEST_SCHEMA_VERSION = 1
THREADS_HELP = ("accepted and ignored: chains run serially, since the Gibbs "
                "loop holds the GIL and threads only slowed it down")


def _fmt(x) -> str:
    if x is None:
        return ""
    return f"{float(x):.17g}"


def _write_chain_csv(path: Path, family, chain) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if isinstance(family, BlvsFamily):
            writer.writerow(["sweep", "gamma"])
            for i, gamma in enumerate(chain.gamma.tolist()):
                writer.writerow([i, "".join("1" if g else "0" for g in gamma)])
        else:
            writer.writerow(["step", "theta"])
            for i, th in enumerate(np.asarray(chain)):
                writer.writerow([i, _fmt(th)])


def _write_surface_csv(path: Path, cfg: StudyConfig, records) -> None:
    names = [f.name for f in cfg.functions]
    header = [*cfg.family.coord_names, "bf_hat", "bf_cv_hat", "se_bf", "se_bf_cv"]
    for nm in names:
        header += [f"pe_{nm}", f"se_pe_{nm}"]
    header += ["ess", "max_weight_share"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for rec in records:
            row = [*(_fmt(c) for c in rec.h), _fmt(rec.bf), _fmt(rec.bf_cv),
                   _fmt(rec.var["bf"].se), _fmt(rec.var["bf_cv"].se)]
            for nm in names:
                row += [_fmt(rec.pe[nm]), _fmt(rec.var[f"pe:{nm}"].se)]
            writer.writerow([*row, _fmt(rec.ess), _fmt(rec.max_weight_share)])


def _write_variance_csv(path: Path, cfg: StudyConfig, records) -> None:
    """Variance surface of the control-variate estimator (with k = 1 there
    are no control variates and it is the plain estimator's)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([*cfg.family.coord_names,
                         "stage1_term", "stage2_term", "total", "se"])
        for rec in records:
            vb = rec.var["bf_cv"]
            writer.writerow([*(_fmt(c) for c in rec.h), _fmt(vb.stage1_term),
                             _fmt(vb.stage2_term), _fmt(vb.total), _fmt(vb.se)])


def _check_ratio_matches(est: RatioEstimate, cfg: StudyConfig, path: Path) -> None:
    """Refuse a stage-1 estimate made for another skeleton or stage-1 config."""
    if est.skeleton is None or est.stage1_hash is None:
        raise ConfigError(f"{path} records no skeleton or stage-1 config hash; "
                          f"rerun stage 1")
    if est.skeleton != cfg.skeleton:
        raise ConfigError(f"{path} was estimated for skeleton {est.skeleton}, "
                          f"not {cfg.skeleton}; rerun stage 1")
    if est.stage1_hash != cfg.stage1_hash:
        raise ConfigError(f"{path} was estimated under another model, skeleton "
                          f"or stage1 config; rerun stage 1")


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
    est = None
    if stage in ("1", "both"):
        specs = cfg.stage1.chain_specs(cfg.skeleton)
        with _timed(timings, "stage1_s"):
            chains = cfg.family.sample_chains(specs)
        steps = sum(sp.length + sp.burn_in for sp in specs)
        timings["t1_s_per_step"] = timings["stage1_s"] / steps
        if cfg.save_chains:
            with _timed(timings, "write_s"):
                for i, c in enumerate(chains):
                    _write_chain_csv(out / f"chain-stage1-{i:02d}.csv", cfg.family, c)
        with _timed(timings, "weights_s"):
            W1 = build_log_weight_matrix(cfg.family, cfg.skeleton, chains)
        with _timed(timings, "ratio_s"):
            est = estimate_ratios(W1)
        est.stage1_hash = cfg.stage1_hash
        with _timed(timings, "write_s"):
            est.save(ratio_path)
    if stage in ("2", "both"):
        if est is None:
            if not ratio_path.exists():
                raise ConfigError(f"stage 2 requires {ratio_path} from a prior "
                                  f"stage-1 run")
            est = RatioEstimate.load(ratio_path)
            _check_ratio_matches(est, cfg, ratio_path)
        specs = cfg.stage2.chain_specs(cfg.skeleton)
        with _timed(timings, "stage2_s"):
            chains = cfg.family.sample_chains(specs)
        if cfg.save_chains:
            with _timed(timings, "write_s"):
                for i, c in enumerate(chains):
                    _write_chain_csv(out / f"chain-stage2-{i:02d}.csv", cfg.family, c)
        with _timed(timings, "weights_s"):
            W2 = build_log_weight_matrix(cfg.family, cfg.skeleton, chains)
        ws = Stage2Workspace(W2, est.d_hat)
        n, N = ws.n, est.N
        q = n / N
        with _timed(timings, "sweep_s"):
            records = surface(ws, cfg.grid, cfg.functions, est.sigma_hat, q)
        timings["t2_s_per_term"] = timings["sweep_s"] / (len(cfg.grid) * n)
        manifest["sizes"] = {"N": int(N), "n": int(n), "q": q,
                             "k": len(cfg.skeleton), "grid": len(cfg.grid)}
        manifest["d_hat_provenance"] = ("this run" if stage == "both"
                                        else str(ratio_path))
        with _timed(timings, "write_s"):
            _write_surface_csv(out / "surface.csv", cfg, records)
            _write_variance_csv(out / "variance.csv", cfg, records)
        totals = [rec.var["bf_cv"].total for rec in records]
        imax = int(np.argmax(totals))
        manifest["variance_argmax"] = {"h": list(records[imax].h),
                                       "total": totals[imax]}
    if isinstance(cfg.family, BlvsFamily):
        manifest["sizes"]["models_fitted"] = cfg.family.models_fitted
    # a stage-2 run into a stage-1 directory keeps the stage-1 manifest
    name = "manifest-stage2.json" if stage == "2" else "manifest.json"
    with open(out / name, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, default=str)
    return out


def _exact_surface(cfg: StudyConfig):
    """Exact Bayes factors and posterior expectations on the config grid."""
    family = cfg.family
    h1 = cfg.skeleton[0]
    rows = []
    if isinstance(family, ConjugateToy):
        for h in cfg.grid:
            pes = {f.name: family.exact_pe(f.name, h) for f in cfg.functions}
            rows.append((h, family.exact_bf(h, h1), pes))
    elif isinstance(family, BlvsFamily):
        # one pass over h1 and the grid, which keeps the grid's order
        log_m, incl = family.enumeration().evaluate([h1, *cfg.grid])
        cols = {f.name: family.names.index(f.name.split(":", 1)[1])
                for f in cfg.functions if f.name.startswith("inclusion:")}
        for h, log_mh, probs in zip(cfg.grid, log_m[1:].tolist(), incl[1:]):
            pes = {name: float(probs[j]) for name, j in cols.items()}
            rows.append((h, math.exp(log_mh - log_m[0]), pes))
    else:
        raise ConfigError("no exact oracle for this model kind")
    return rows


def _read_estimates(surface_path: Path, cfg: StudyConfig, exact) -> list[dict]:
    """The rows of a run's surface.csv, refused unless they carry the oracle's
    columns, row count and grid."""
    with open(surface_path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        est_rows = list(reader)
    coord_names = cfg.family.coord_names
    missing = [col for col in (*coord_names, "bf_hat", "bf_cv_hat", "se_bf_cv",
                               *[f"pe_{f.name}" for f in cfg.functions])
               if col not in (reader.fieldnames or ())]
    if missing:
        raise ConfigError(f"{surface_path} lacks columns {', '.join(missing)}")
    if len(est_rows) != len(exact):
        raise ConfigError(
            f"{surface_path} has {len(est_rows)} rows, expected {len(exact)}")
    for row, (h, _, _) in zip(est_rows, exact):
        got = tuple(float(row[c]) for c in coord_names)
        if any(abs(a - b) > 1e-9 for a, b in zip(got, h)):
            raise ConfigError(f"grid mismatch against {surface_path}: "
                              f"{got} vs {h}")
    return est_rows


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
        manifest["sizes"]["g_values"] = len({h[1] for h in (cfg.skeleton[0], *cfg.grid)})
    with _timed(timings, "grid_s"):
        exact = _exact_surface(cfg)
    manifest["sizes"]["grid"] = len(exact)
    est_rows = (_read_estimates(surface_path, cfg, exact)
                if surface_path.exists() else None)
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    names = [f.name for f in cfg.functions]
    with _timed(timings, "write_s"), \
            open(out / "oracle.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([*cfg.family.coord_names, "bf_exact",
                         *[f"pe_{nm}_exact" for nm in names]])
        for h, bf, pes in exact:
            writer.writerow([*(_fmt(c) for c in h), _fmt(bf),
                             *[_fmt(pes.get(nm)) for nm in names]])

    report = {"grid_points": len(exact)}
    if est_rows is not None:
        exact_bf = np.array([bf for _, bf, _ in exact])
        for col in ("bf_hat", "bf_cv_hat"):
            est = np.array([float(r[col]) for r in est_rows])
            err = est - exact_bf
            report[f"rmse_{col}"] = float(np.sqrt(np.mean(err**2)))
            report[f"max_abs_err_{col}"] = float(np.max(np.abs(err)))
        se = np.array([float(r["se_bf_cv"]) for r in est_rows])
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(se > 0, (np.array([float(r["bf_cv_hat"]) for r in est_rows])
                                  - exact_bf) / se, np.nan)
        z = z[np.isfinite(z)]
        if z.size:
            report["z_bf_cv"] = {"mean": float(z.mean()),
                                 "sd": float(z.std(ddof=1)) if z.size > 1 else 0.0,
                                 "max_abs": float(np.max(np.abs(z)))}
        else:
            report["z_bf_cv"] = None
        per_f = {}
        for nm in names:
            exact_pe = np.array([pes[nm] for _, _, pes in exact])
            est = np.array([float(r[f"pe_{nm}"]) for r in est_rows])
            per_f[nm] = {
                "rmse": float(np.sqrt(np.mean((est - exact_pe) ** 2))),
                "max_abs_err": float(np.max(np.abs(est - exact_pe))),
            }
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
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    specs1, specs2 = ([dataclasses.replace(sp, length=pilot_length)
                       for sp in stage.chain_specs(cfg.skeleton)]
                      for stage in (cfg.stage1, cfg.stage2))
    if isinstance(cfg.family, BlvsFamily):
        cfg.family.model_table()    # built before the chains and outside t1
    t0 = time.perf_counter()
    chains1 = cfg.family.sample_chains(specs1)
    t1 = (time.perf_counter() - t0) / sum(sp.length + sp.burn_in for sp in specs1)
    W1 = build_log_weight_matrix(cfg.family, cfg.skeleton, chains1)
    est = estimate_ratios(W1)

    chains2 = cfg.family.sample_chains(specs2)
    W2 = build_log_weight_matrix(cfg.family, cfg.skeleton, chains2)
    ws = Stage2Workspace(W2, est.d_hat)

    # pilot variance components (q = 1: v1 = c' Sigma c, v2 = tau^2) of the
    # plain estimator at a few representative grid points
    probe = [cfg.grid[i] for i in sorted({0, len(cfg.grid) // 2, len(cfg.grid) - 1})]
    t0 = time.perf_counter()
    records = surface(ws, probe, (), est.sigma_hat, 1.0)
    t2 = (time.perf_counter() - t0) / (len(probe) * ws.n)
    pilots = [{"h": list(rec.h), "v1": rec.var["bf"].stage1_term,
               "v2": rec.var["bf"].stage2_term} for rec in records]

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
    results = run_all(reps_scale=reps_scale)
    failed = 0
    for res in results:
        print(res.line())
        for d in res.details:
            print(f"    {d}")
        failed += 0 if res.passed else 1
    return 1 if failed else 0


def _apply_overrides(cfg: StudyConfig, overrides: list[str]) -> None:
    for ov in overrides or []:
        if "=" not in ov:
            raise ConfigError(f"bad --seed-override {ov!r}; expected stage1=SEED")
        key, val = ov.split("=", 1)
        if key not in ("stage1", "stage2"):
            raise ConfigError(f"unknown seed override target {key!r}")
        getattr(cfg, key).seed = int(val)
        cfg.raw.setdefault(key, {})["seed"] = int(val)
    if cfg.stage1.seed == cfg.stage2.seed:
        raise ConfigError("stage1 and stage2 seeds must differ")


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
    p_plan.add_argument("--threads", type=int, default=None, help=THREADS_HELP)
    p_plan.add_argument("--out", default=None)

    p_val = sub.add_parser("validate", help="run the built-in toy suites")
    p_val.add_argument("--reps-scale", type=float, default=1.0)

    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            return cmd_validate(args.reps_scale)
        cfg = load_config(args.config)
        if args.out:
            cfg.out_dir = Path(args.out)
        if args.command == "run":
            _apply_overrides(cfg, args.seed_override)
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
