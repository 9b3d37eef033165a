import csv
import json
import math
import shutil
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

from priorsweep import validate
from priorsweep.blvs import BlvsFamily, ingest_csv
from priorsweep.cli import _write_chain_csv, main
from priorsweep.config import load_config
from priorsweep.families import ChainSpec

from test_config import write_toy_config


@pytest.fixture
def toy_config(tmp_path):
    p = tmp_path / "study.yaml"
    write_toy_config(p, out=str(tmp_path / "out"))
    return p


SMOKE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "uscrime-smoke.yaml"
RUN_TIMINGS = {"stage1_s", "t1_s_per_step", "weights_s", "ratio_s", "stage2_s",
               "sweep_s", "t2_s_per_term", "write_s"}


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestRun:
    def test_toy_smoke_completes_quickly(self, toy_config, tmp_path):
        t0 = time.time()
        assert main(["run", "--config", str(toy_config)]) == 0
        assert time.time() - t0 < 10.0
        out = tmp_path / "out"
        for name in ("ratio.json", "surface.csv", "variance.csv", "manifest.json"):
            assert (out / name).exists(), name
        with open(out / "surface.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 11
        assert {"h", "bf_hat", "bf_cv_hat", "se_bf", "se_bf_cv",
                "pe_identity", "se_pe_identity"} <= set(rows[0])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["sizes"]["n"] == 1600
        assert "models_fitted" not in manifest["sizes"]
        assert set(manifest["timings"]) == RUN_TIMINGS
        assert all(manifest["timings"][key] > 0 for key in RUN_TIMINGS)

    def test_deterministic_across_runs_and_threads(self, tmp_path):
        p = tmp_path / "study.yaml"
        write_toy_config(p, out="a")
        assert main(["run", "--config", str(p)]) == 0
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "b"),
                     "--threads", "4"]) == 0
        for name in ("surface.csv", "variance.csv", "ratio.json"):
            assert read_bytes(tmp_path / "a" / name) \
                == read_bytes(tmp_path / "b" / name), name

    def test_blvs_deterministic_across_threads(self, tmp_path):
        raw = yaml.safe_load(SMOKE_CONFIG.read_text())
        raw["model"]["dataset"] = str(SMOKE_CONFIG.parent / raw["model"]["dataset"])
        p = tmp_path / "study.yaml"
        p.write_text(yaml.safe_dump(raw))
        for threads in ("1", "2"):
            assert main(["run", "--config", str(p), "--out", str(tmp_path / threads),
                         "--threads", threads]) == 0
        names = sorted(f.name for f in (tmp_path / "1").iterdir())
        assert len(names) == 4 + 2 * len(raw["skeleton"])
        for name in names:
            if name != "manifest.json":
                assert read_bytes(tmp_path / "1" / name) \
                    == read_bytes(tmp_path / "2" / name), name
        manifest = json.loads((tmp_path / "2" / "manifest.json").read_text())
        assert set(manifest["timings"]) == RUN_TIMINGS | {"table_s"}
        assert manifest["sizes"]["models_fitted"] == 1 << 15

    def test_two_stage_isolation(self, toy_config, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--config", str(toy_config)]) == 0
        surface_before = read_bytes(out / "surface.csv")
        (out / "surface.csv").unlink()
        (out / "variance.csv").unlink()
        assert main(["run", "--config", str(toy_config), "--stage", "2"]) == 0
        assert read_bytes(out / "surface.csv") == surface_before

    def test_stage2_keeps_the_stage1_manifest(self, toy_config, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--config", str(toy_config), "--stage", "1"]) == 0
        stage1_manifest = read_bytes(out / "manifest.json")
        assert "stage1_s" in json.loads(stage1_manifest)["timings"]
        assert main(["run", "--config", str(toy_config), "--stage", "2"]) == 0
        assert read_bytes(out / "manifest.json") == stage1_manifest
        manifest = json.loads((out / "manifest-stage2.json").read_text())
        assert manifest["stages_run"] == "2"
        assert "sweep_s" in manifest["timings"]

    def test_stage2_requires_ratio_json(self, toy_config, tmp_path):
        assert main(["run", "--config", str(toy_config), "--stage", "2",
                     "--out", str(tmp_path / "fresh")]) == 2

    def test_stage2_refuses_ratio_json_of_another_skeleton(self, tmp_path, capsys):
        p = tmp_path / "study.yaml"
        raw = write_toy_config(p, out="out")
        assert main(["run", "--config", str(p), "--stage", "1"]) == 0
        raw["skeleton"] = [[0.0], [3.0]]          # same size, another point
        p.write_text(yaml.safe_dump(raw))
        assert main(["run", "--config", str(p), "--stage", "2"]) == 2
        assert "skeleton" in capsys.readouterr().err
        assert not (tmp_path / "out" / "surface.csv").exists()

    def test_stage2_refuses_ratio_json_of_another_stage1_config(self, toy_config, tmp_path):
        assert main(["run", "--config", str(toy_config), "--stage", "1"]) == 0
        assert main(["run", "--config", str(toy_config), "--stage", "2",
                     "--seed-override", "stage1=999"]) == 2

    def test_stage2_refuses_ratio_json_without_provenance(self, toy_config, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--config", str(toy_config), "--stage", "1"]) == 0
        doc = json.loads((out / "ratio.json").read_text())
        del doc["skeleton"], doc["stage1_hash"]
        (out / "ratio.json").write_text(json.dumps(doc))
        assert main(["run", "--config", str(toy_config), "--stage", "2"]) == 2

    # a ratio.json with a field dropped, or of another schema, is refused
    # before stage 2 samples anything
    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.pop("d_hat"), "lacks fields d_hat"),
        (lambda doc: doc.pop("counts"), "lacks fields counts"),
        (lambda doc: doc.pop("solver"), "lacks fields solver.iterations"),
        (lambda doc: doc.update(schema_version=99), "unsupported schema_version 99"),
    ], ids=["no-d_hat", "no-counts", "no-solver", "schema-99"])
    def test_stage2_refuses_malformed_ratio_json(self, toy_config, tmp_path, capsys,
                                                 edit, message):
        out = tmp_path / "out"
        assert main(["run", "--config", str(toy_config), "--stage", "1"]) == 0
        doc = json.loads((out / "ratio.json").read_text())
        edit(doc)
        (out / "ratio.json").write_text(json.dumps(doc))
        assert main(["run", "--config", str(toy_config), "--stage", "2"]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "surface.csv").exists()

    def test_stage2_accepts_a_new_stage2_seed(self, toy_config, tmp_path):
        assert main(["run", "--config", str(toy_config), "--stage", "1"]) == 0
        assert main(["run", "--config", str(toy_config), "--stage", "2",
                     "--seed-override", "stage2=777"]) == 0
        assert (tmp_path / "out" / "surface.csv").exists()

    def test_seed_override_changes_outputs(self, toy_config, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--config", str(toy_config)]) == 0
        base = read_bytes(out / "surface.csv")
        assert main(["run", "--config", str(toy_config), "--out",
                     str(tmp_path / "o2"), "--seed-override", "stage2=777"]) == 0
        assert read_bytes(tmp_path / "o2" / "surface.csv") != base

    def test_missing_dataset_exits_2(self, tmp_path, capsys):
        cfg = {
            "model": {"kind": "blvs", "dataset": "does-not-exist.csv"},
            "skeleton": [[0.5, 15]],
            "stage1": {"length": 10, "seed": 1},
            "stage2": {"length": 10, "seed": 2},
            "grid": {"points": [[0.5, 15]]},
        }
        p = tmp_path / "bad.yaml"
        p.write_text(yaml.safe_dump(cfg))
        assert main(["run", "--config", str(p)]) == 2
        assert "does-not-exist.csv" in capsys.readouterr().err

    def test_save_chains(self, tmp_path):
        p = tmp_path / "study.yaml"
        raw = write_toy_config(p, out="out")
        raw["save_chains"] = True
        raw["stage1"]["length"] = 50
        raw["stage2"]["length"] = 50
        p.write_text(yaml.safe_dump(raw))
        assert main(["run", "--config", str(p)]) == 0
        chain_files = sorted((tmp_path / "out").glob("chain-stage*.csv"))
        assert len(chain_files) == 4

    def test_blvs_chain_csv_parses_back_to_the_chain(self, uscrime_path, tmp_path):
        fam = BlvsFamily(ingest_csv(uscrime_path, "y", ["S"]))
        chain = fam.gibbs_run(ChainSpec(h=(0.5, 15.0), length=40, burn_in=5, seed=3))
        path = tmp_path / "chain.csv"
        _write_chain_csv(path, fam, chain)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(chain)
        for i, row in enumerate(rows):
            gamma = chain.gamma[i]
            assert int(row["sweep"]) == i
            assert row["gamma"] == "".join("1" if g else "0" for g in gamma)
            assert float(row["sigma"]) == chain.sigma[i]
            assert float(row["beta0"]) == chain.beta0[i]
            for j, name in enumerate(fam.names):
                cell = row[f"b_{name}"]
                if gamma[j]:
                    assert float(cell) == chain.beta[i, j]
                else:
                    assert cell == ""


class TestOracle:
    def test_oracle_and_comparison(self, toy_config, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--config", str(toy_config)]) == 0
        assert main(["oracle", "--config", str(toy_config)]) == 0
        assert (out / "oracle.csv").exists()
        report = json.loads((out / "comparison.json").read_text())
        assert report["grid_points"] == 11
        assert report["rmse_bf_cv_hat"] < 0.05
        assert "z_bf_cv" in report

    def test_estimates_missing_a_function_column_exit_2(self, tmp_path, capsys):
        p = tmp_path / "study.yaml"
        raw = write_toy_config(p, out="run")
        assert main(["run", "--config", str(p)]) == 0
        raw["functions"] = ["identity", "square"]
        p.write_text(yaml.safe_dump(raw))
        assert main(["oracle", "--config", str(p), "--out", str(tmp_path / "oracle"),
                     "--estimates", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "pe_square" in err and "pe_identity" not in err
        assert not (tmp_path / "oracle" / "comparison.json").exists()
        assert not (tmp_path / "oracle" / "oracle.csv").exists()

    def test_self_comparison_rmse_zero(self, toy_config, tmp_path):
        # a surface whose estimates equal the oracle values compares at RMSE 0
        out = tmp_path / "out"
        assert main(["oracle", "--config", str(toy_config)]) == 0
        with open(out / "oracle.csv", newline="") as fh:
            oracle_rows = list(csv.DictReader(fh))
        with open(out / "surface.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["h", "bf_hat", "bf_cv_hat", "se_bf", "se_bf_cv",
                             "pe_identity", "se_pe_identity"])
            for row in oracle_rows:
                writer.writerow([row["h"], row["bf_exact"], row["bf_exact"],
                                 "0", "0", row["pe_identity_exact"], "0"])
        assert main(["oracle", "--config", str(toy_config)]) == 0
        report = json.loads((out / "comparison.json").read_text())
        assert report["rmse_bf_cv_hat"] == 0.0
        assert report["max_abs_err_bf_hat"] == 0.0


@pytest.fixture
def regression_config(tmp_path):
    """A small regression study whose grid lists g fastest, so the grid's
    order is not the order in which the oracle groups points by g."""
    rng = np.random.default_rng(12)
    X = np.exp(rng.normal(size=(30, 5)))
    y = np.exp(0.3 + 1.2 * np.log(X[:, 0]) - 0.8 * np.log(X[:, 3])
               + rng.normal(scale=0.6, size=30))
    data = tmp_path / "data.csv"
    with open(data, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y", *[f"x{j}" for j in range(5)]])
        writer.writerows([[yi, *row] for yi, row in zip(y.tolist(), X.tolist())])
    raw = {"model": {"kind": "blvs", "dataset": str(data), "response": "y"},
           "skeleton": [[0.5, 10.0], [0.3, 40.0]],
           "stage1": {"length": 50, "seed": 1}, "stage2": {"length": 50, "seed": 2},
           "grid": {"points": [[w, g] for w in (0.2, 0.5, 0.8) for g in (3.0, 40.0, 10.0)]},
           "functions": ["inclusion:*"],
           "out": str(tmp_path / "out")}
    p = tmp_path / "study.yaml"
    p.write_text(yaml.safe_dump(raw))
    return p, raw


class TestRegressionOracle:
    def test_rows_in_config_order_match_the_enumeration(self, regression_config, tmp_path):
        p, raw = regression_config
        assert main(["oracle", "--config", str(p)]) == 0
        out = tmp_path / "out"
        with open(out / "oracle.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        grid = [tuple(h) for h in raw["grid"]["points"]]
        assert [(float(r["w"]), float(r["g"])) for r in rows] == grid
        family = load_config(p).family     # the enumeration refers to it weakly
        enum = family.enumeration()
        log_m1 = enum.log_marginal(tuple(raw["skeleton"][0]))
        for row, h in zip(rows, grid):
            assert float(row["bf_exact"]) == pytest.approx(
                math.exp(enum.log_marginal(h) - log_m1), rel=1e-12)
            got = [float(row[f"pe_inclusion:x{j}_exact"]) for j in range(5)]
            np.testing.assert_allclose(got, enum.inclusion_probs(h), rtol=1e-12, atol=1e-15)
        manifest = json.loads((out / "oracle-manifest.json").read_text())
        assert manifest["command"] == "oracle"
        assert set(manifest["timings"]) == {"table_s", "grid_s", "write_s"}
        assert manifest["sizes"] == {"models": 32, "grid": len(grid)}

    def test_oracle_after_run_keeps_the_run_manifest(self, regression_config, tmp_path):
        # both commands write to the config's out
        p, _ = regression_config
        out = tmp_path / "out"
        assert main(["run", "--config", str(p)]) == 0
        run_manifest = read_bytes(out / "manifest.json")
        assert main(["oracle", "--config", str(p)]) == 0
        assert read_bytes(out / "manifest.json") == run_manifest
        assert "d_hat_provenance" in json.loads(run_manifest)
        assert json.loads((out / "oracle-manifest.json").read_text())["command"] == "oracle"

    def test_self_comparison_rmse_zero(self, regression_config, tmp_path):
        p, _ = regression_config
        assert main(["oracle", "--config", str(p)]) == 0
        out = tmp_path / "out"
        with open(out / "oracle.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        names = [f"inclusion:x{j}" for j in range(5)]
        with open(out / "surface.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["w", "g", "bf_hat", "bf_cv_hat", "se_bf", "se_bf_cv",
                             *[c for nm in names for c in (f"pe_{nm}", f"se_pe_{nm}")]])
            for row in rows:
                writer.writerow([row["w"], row["g"], row["bf_exact"], row["bf_exact"], "0", "0",
                                 *[c for nm in names for c in (row[f"pe_{nm}_exact"], "0")]])
        assert main(["oracle", "--config", str(p)]) == 0
        report = json.loads((out / "comparison.json").read_text())
        assert report["grid_points"] == len(rows)
        assert report["rmse_bf_cv_hat"] == 0.0 and report["max_abs_err_bf_hat"] == 0.0
        assert all(f["rmse"] == 0.0 for f in report["functions"].values())


class TestPlan:
    def test_short_pilot_rejected_before_sampling(self, toy_config, tmp_path, capsys):
        assert main(["plan", "--config", str(toy_config), "--budget", "60",
                     "--pilot-length", "9"]) == 2
        assert "--pilot-length must be at least 10" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_plan_outputs(self, toy_config, tmp_path):
        assert main(["plan", "--config", str(toy_config), "--budget", "60",
                     "--pilot-length", "300"]) == 0
        doc = json.loads((tmp_path / "out" / "plan.json").read_text())
        assert doc["t1_s_per_step"] > 0
        assert doc["t2_s_per_term"] > 0
        assert doc["plans"], "expected at least one pilot plan"
        for plan in doc["plans"]:
            assert plan["q_opt"] > 0
            assert plan["N"] == pytest.approx(plan["n"] / plan["q_opt"], rel=1e-9)


class TestValidateCommand:
    def test_reduced_reps_smoke_passes(self, capsys):
        assert main(["validate", "--reps-scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5
        assert "FAIL" not in out

    def test_corrupt_dhat_negative_control_fails(self, monkeypatch):
        # V2's coverage checks must catch a broken stage-1 ratio estimate
        real = validate.estimate_ratios

        def corrupt(W):
            est = real(W)
            est.d_hat = est.d_hat.copy()
            est.d_hat[1:] *= 1.5
            return est

        monkeypatch.setattr(validate, "estimate_ratios", corrupt)
        assert not validate.suite_v2_variance_validation("iid", reps=50).passed
