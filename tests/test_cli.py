import csv
import json
import shutil
import time

import numpy as np
import pytest
import yaml

from priorsweep.cli import main

from test_config import write_toy_config


@pytest.fixture
def toy_config(tmp_path):
    p = tmp_path / "study.yaml"
    write_toy_config(p, out=str(tmp_path / "out"))
    return p


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
        assert manifest["timings"]["t1_s_per_step"] > 0
        assert manifest["timings"]["sweep_s"] > 0

    def test_deterministic_across_runs_and_threads(self, tmp_path):
        p = tmp_path / "study.yaml"
        write_toy_config(p, out="a")
        assert main(["run", "--config", str(p)]) == 0
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "b"),
                     "--threads", "4"]) == 0
        for name in ("surface.csv", "variance.csv", "ratio.json"):
            assert read_bytes(tmp_path / "a" / name) \
                == read_bytes(tmp_path / "b" / name), name

    def test_two_stage_isolation(self, toy_config, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--config", str(toy_config)]) == 0
        surface_before = read_bytes(out / "surface.csv")
        (out / "surface.csv").unlink()
        (out / "variance.csv").unlink()
        assert main(["run", "--config", str(toy_config), "--stage", "2"]) == 0
        assert read_bytes(out / "surface.csv") == surface_before

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


class TestPlan:
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

    def test_corrupt_dhat_negative_control_fails(self, capsys):
        assert main(["validate", "--reps-scale", "0.1", "--corrupt-dhat"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
