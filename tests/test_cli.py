import csv
import json
import math
import shutil
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from priorsweep import cli, validate
from priorsweep.blvs import BlvsFamily, ingest_csv
from priorsweep.cli import (_write_chain_csv, _write_floats, _write_surface_csv,
                            _write_variance_csv, main)
from priorsweep.config import load_config
from priorsweep.families import ChainSpec, ConjugateToy
from priorsweep.surface import Surface

from test_config import write_toy_config


@pytest.fixture
def toy_config(tmp_path):
    p = tmp_path / "study.yaml"
    write_toy_config(p, out=str(tmp_path / "out"))
    return p


SMOKE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "uscrime-smoke.yaml"
RUN_TIMINGS = {"stage1_s", "t1_s_per_step", "weights_s", "ratio_s", "stage2_s",
               "workspace_s", "sweep_s", "t2_s_per_term", "write_s"}


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
        # the weight diagnostics come last, after the pe_*/se_* pairs
        assert list(rows[0])[-2:] == ["ess", "max_weight_share"]
        for row in rows:
            assert 1.0 <= float(row["ess"]) <= 1600
            assert 0.0 < float(row["max_weight_share"]) <= 1.0
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
        assert manifest["timings"]["workspace_s"] > 0

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

    # a ratio.json with a field dropped, of another schema, with a count
    # that is not an integer, or with numbers that do not fit together, is
    # refused before stage 2 samples anything; schema 2 weighted the
    # regression model's draws by the joint prior of (gamma, sigma, beta),
    # and schema 3 took sigma_hat from Bartlett long-run covariances rather
    # than batch means.  Three skeleton points, so sigma_hat is 2 x 2.
    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.pop("d_hat"), "lacks fields d_hat"),
        (lambda doc: doc.pop("counts"), "lacks fields counts"),
        (lambda doc: doc.pop("solver"), "lacks fields solver.iterations"),
        (lambda doc: doc.update(schema_version=99), "unsupported schema_version 99"),
        (lambda doc: doc.update(schema_version=2), "unsupported schema_version 2"),
        (lambda doc: doc.update(skeleton=5), "ratio.json holds a field of the wrong type"),
        (lambda doc: doc.update(schema_version=3), "unsupported schema_version 3"),
        (lambda doc: doc.update(N=None), "ratio.json holds a field of the wrong type"),
        (lambda doc: doc.update(N=1200.5), "N must be an integer, got 1200.5"),
        (lambda doc: doc.update(N=True), "N must be an integer, got True"),
        (lambda doc: doc["counts"].__setitem__(0, 600.0), "counts entry must be an integer"),
        (lambda doc: doc["counts"].__setitem__(1, True), "counts entry must be an integer"),
        (lambda doc: doc["solver"].update(iterations=3.5),
         "solver.iterations must be an integer, got 3.5"),
        (lambda doc: doc["solver"].update(iterations=True),
         "solver.iterations must be an integer, got True"),
        (lambda doc: doc["sigma_hat"][0].__setitem__(0, math.nan),
         "ratio.json: sigma_hat must be finite and symmetric; rerun stage 1"),
        (lambda doc: doc.update(N=7), "ratio.json: N is 7, but the counts sum to 2400"),
        (lambda doc: doc["counts"].pop(),
         "ratio.json: counts has 2 entries for 3 skeleton points; rerun stage 1"),
        (lambda doc: doc["sigma_hat"][0].__setitem__(1, 2 * doc["sigma_hat"][1][0] + 1.0),
         "ratio.json: sigma_hat must be finite and symmetric"),
        (lambda doc: doc["d_hat"].__setitem__(1, math.nan),
         "ratio.json: d_hat must be finite and positive, with first entry 1; rerun stage 1"),
        (lambda doc: doc["d_hat"].__setitem__(2, -0.5),
         "ratio.json: d_hat must be finite and positive"),
    ], ids=["no-d_hat", "no-counts", "no-solver", "schema-99", "schema-2",
            "skeleton-a-number", "schema-3", "N-null", "N-fractional", "N-true",
            "counts-float", "counts-true", "iterations-fractional", "iterations-true",
            "sigma-nan", "N-not-the-counts-sum", "counts-short", "sigma-asymmetric",
            "d_hat-nan", "d_hat-negative"])
    def test_stage2_refuses_malformed_ratio_json(self, tmp_path, capsys, edit, message):
        toy_config = tmp_path / "study.yaml"
        raw = write_toy_config(toy_config, out=str(tmp_path / "out"))
        raw["skeleton"].append([2.0])
        toy_config.write_text(yaml.safe_dump(raw))
        out = tmp_path / "out"
        assert main(["run", "--config", str(toy_config), "--stage", "1"]) == 0
        doc = json.loads((out / "ratio.json").read_text())
        edit(doc)
        (out / "ratio.json").write_text(json.dumps(doc))
        assert main(["run", "--config", str(toy_config), "--stage", "2"]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "surface.csv").exists()

    @pytest.mark.parametrize("override, message", [
        ("stage1=-3", "--seed-override stage1 must be nonnegative, got -3"),
        ("stage2=abc", "--seed-override stage2 must be an integer, got 'abc'"),
    ], ids=["negative", "not-a-number"])
    def test_bad_seed_override_rejected_before_sampling(self, toy_config, tmp_path, capsys,
                                                        override, message):
        assert main(["run", "--config", str(toy_config), "--seed-override", override]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    # a dataset the model cannot use is refused, and the error names the file
    @pytest.mark.parametrize("text, message", [
        ("y,a,b\n1,2,1\n2,2,0\n3,2,1\n",
         "constant predictor column(s) after transformation: ['a']"),
        ("y,a,b\n1,2,1\n2,nan,0\n3,4,1\n", "non-finite value in column 'a'"),
        ("y,a,b\n", "no data rows"),
        ("y,a,b\n2,1,1\n2,3,0\n2,4,1\n", "response is constant"),
    ], ids=["constant-column", "nan-cell", "no-rows", "constant-response"])
    def test_unusable_dataset_exits_2_naming_the_file(self, tmp_path, capsys, text, message):
        data = tmp_path / "data.csv"
        data.write_text(text)
        cfg = {
            "model": {"kind": "blvs", "dataset": str(data), "binary": ["b"]},
            "skeleton": [[0.5, 15]],
            "stage1": {"length": 10, "seed": 1},
            "stage2": {"length": 10, "seed": 2},
            "grid": {"points": [[0.5, 15]]},
            "out": str(tmp_path / "out"),
        }
        p = tmp_path / "bad.yaml"
        p.write_text(yaml.safe_dump(cfg))
        assert main(["run", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert f"{data}: {message}" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

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
        chain = fam.sample_chains([ChainSpec(h=(0.5, 15.0), length=40, burn_in=5, seed=3)])[0]
        path = tmp_path / "chain.csv"
        _write_chain_csv(path, fam, chain)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(chain)
        for i, row in enumerate(rows):
            gamma = chain[i]
            assert int(row["sweep"]) == i
            assert row["gamma"] == "".join("1" if g else "0" for g in gamma)
        assert list(rows[0]) == ["sweep", "gamma"]


def _fmt(x):
    """Each value as the CSV writers formatted it one at a time for csv.writer."""
    return "" if x is None else f"{float(x):.17g}"


def csv_writer_bytes(path, header, rows):
    """The reference: csv.writer with _fmt of every float."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, int) else _fmt(v) for v in row])
    return read_bytes(path)


def special_floats(rng, shape):
    """Random floats over the whole exponent range, with -0.0, nan, +-inf,
    +-1e308 and subnormals among them."""
    X = rng.standard_normal(shape) * 10.0 ** rng.uniform(-300, 300, shape)
    specials = [-0.0, 0.0, math.nan, math.inf, -math.inf, 1e308, -1e308,
                5e-324, 2.2e-310, -4.9e-320]
    X.flat[rng.choice(X.size, size=2 * len(specials), replace=False)] = specials * 2
    return X


def parsed(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return np.array([[float(v) for v in row] for row in list(csv.reader(fh))[1:]])


def same_floats(a, b):
    """Exactly equal, nan equal to nan, and zeros of the same sign."""
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a), np.signbit(b))


class TestWriters:
    def random_surface(self, G=40, J=3, k=4, n=1000):
        rng = np.random.default_rng(5)
        stage1, stage2 = np.abs(special_floats(rng, (2, G, 2 + J)))
        stage1[3, 1] = stage2[3, 1] = -0.0
        surf = Surface(special_floats(rng, (G, 2)), *special_floats(rng, (2, G)),
                       special_floats(rng, (G, k - 1)), special_floats(rng, (G, J)),
                       *special_floats(rng, (2, G)), stage1, stage2, n)
        # a point where nu_h vanishes on every sample
        surf.bf[7] = surf.bf_cv[7] = surf.stage2[7, 0] = 0.0
        for col in (surf.pe[7], surf.stage1[7, 2:], surf.stage2[7, 2:],
                    surf.ess[7:8], surf.max_weight_share[7:8]):
            col[...] = math.nan
        cfg = SimpleNamespace(family=SimpleNamespace(coord_names=("w", "g")),
                              functions=list("abc"[:J]))
        return cfg, surf

    def test_surface_csv_bytes_and_values(self, tmp_path):
        cfg, surf = self.random_surface()
        _write_surface_csv(tmp_path / "surface.csv", cfg, surf)
        header = ["w", "g", "bf_hat", "bf_cv_hat", "se_bf", "se_bf_cv",
                  "pe_a", "se_pe_a", "pe_b", "se_pe_b", "pe_c", "se_pe_c",
                  "ess", "max_weight_share"]
        rows = []
        for i in range(len(surf.h)):
            se = [math.sqrt((a + b) / surf.n) for a, b in zip(surf.stage1[i], surf.stage2[i])]
            rows.append([*surf.h[i], surf.bf[i], surf.bf_cv[i], *se[:2],
                         *[v for j in range(3) for v in (surf.pe[i, j], se[2 + j])],
                         surf.ess[i], surf.max_weight_share[i]])
        assert read_bytes(tmp_path / "surface.csv") == csv_writer_bytes(
            tmp_path / "reference.csv", header, rows)
        assert same_floats(parsed(tmp_path / "surface.csv"), np.array(rows))
        assert math.isnan(parsed(tmp_path / "surface.csv")[7, 6])

    def test_variance_csv_bytes_and_values(self, tmp_path):
        cfg, surf = self.random_surface()
        _write_variance_csv(tmp_path / "variance.csv", cfg, surf)
        rows = [[*h, a, b, a + b, math.sqrt((a + b) / surf.n)]
                for h, a, b in zip(surf.h, surf.stage1[:, 1], surf.stage2[:, 1])]
        assert read_bytes(tmp_path / "variance.csv") == csv_writer_bytes(
            tmp_path / "reference.csv", ["w", "g", "stage1_term", "stage2_term", "total", "se"],
            rows)
        assert same_floats(parsed(tmp_path / "variance.csv"), np.array(rows))

    def test_oracle_table_bytes_and_values(self, tmp_path):
        rng = np.random.default_rng(6)
        h, bf, pe = (special_floats(rng, shape) for shape in ((30, 2), 30, (30, 2)))
        header = ["w", "g", "bf_exact", "pe_a_exact", "pe_b_exact"]
        _write_floats(tmp_path / "oracle.csv", header, h, bf, pe)
        rows = [[*a, b, *c] for a, b, c in zip(h, bf, pe)]
        assert read_bytes(tmp_path / "oracle.csv") == csv_writer_bytes(
            tmp_path / "reference.csv", header, rows)
        assert same_floats(parsed(tmp_path / "oracle.csv"), np.array(rows))

    def test_toy_chain_csv_bytes(self, tmp_path):
        theta = special_floats(np.random.default_rng(7), 50)
        _write_chain_csv(tmp_path / "chain.csv", ConjugateToy(y_obs=0.0), theta)
        assert read_bytes(tmp_path / "chain.csv") == csv_writer_bytes(
            tmp_path / "reference.csv", ["step", "theta"], list(enumerate(theta.tolist())))


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

    @pytest.mark.parametrize("edit", [
        lambda line: ",".join(line.split(",")[:3]),              # fields short
        lambda line: line.replace(line.split(",")[2], "abc", 1),  # bf_hat not a number
    ], ids=["short-row", "non-numeric-cell"])
    def test_estimates_with_a_malformed_row_exit_2(self, toy_config, tmp_path, capsys, edit):
        # refused naming the file and the row, before anything is written
        assert main(["run", "--config", str(toy_config), "--out", str(tmp_path / "run")]) == 0
        path = tmp_path / "run" / "surface.csv"
        lines = path.read_text().splitlines()
        lines[4] = edit(lines[4])
        path.write_text("\n".join(lines) + "\n")
        assert main(["oracle", "--config", str(toy_config), "--out", str(tmp_path / "oracle"),
                     "--estimates", str(tmp_path / "run")]) == 2
        assert f"{path}, row 4: not a number" in capsys.readouterr().err
        assert not (tmp_path / "oracle").exists()

    def test_estimates_dir_without_surface_exit_2(self, toy_config, tmp_path, capsys):
        # an explicit --estimates must hold a surface.csv; out_dir need not
        (tmp_path / "empty").mkdir()
        assert main(["oracle", "--config", str(toy_config),
                     "--estimates", str(tmp_path / "empty")]) == 2
        assert "surface.csv" in capsys.readouterr().err
        assert not (tmp_path / "out" / "oracle.csv").exists()
        assert not (tmp_path / "out" / "comparison.json").exists()
        assert main(["oracle", "--config", str(toy_config)]) == 0
        report = json.loads((tmp_path / "out" / "comparison.json").read_text())
        assert report == {"grid_points": 11}

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
        enum = load_config(p).family.enumeration()
        log_m1 = enum.log_marginal(tuple(raw["skeleton"][0]))
        for row, h in zip(rows, grid):
            assert float(row["bf_exact"]) == pytest.approx(
                math.exp(enum.log_marginal(h) - log_m1), rel=1e-12)
            got = [float(row[f"pe_inclusion:x{j}_exact"]) for j in range(5)]
            np.testing.assert_allclose(got, enum.evaluate([h])[1][0], rtol=1e-12, atol=1e-15)
        manifest = json.loads((out / "oracle-manifest.json").read_text())
        assert manifest["command"] == "oracle"
        assert set(manifest["timings"]) == {"table_s", "grid_s", "write_s"}
        # g = 10 at the baseline, and 3, 40 and 10 on the grid
        assert manifest["sizes"] == {"models": 32, "grid": len(grid), "g_values": 3}

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

    @pytest.mark.parametrize("budget", ["nan", "inf", "0", "-5"])
    def test_budget_not_positive_and_finite_rejected(self, toy_config, tmp_path, capsys,
                                                     budget):
        assert main(["plan", "--config", str(toy_config), "--budget", budget]) == 2
        assert "--budget must be a positive number of seconds" in capsys.readouterr().err
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

    def test_plan_writes_only_plan_json(self, tmp_path):
        # plan runs `run`'s stage functions, but saves no chains or ratio.json
        p = tmp_path / "study.yaml"
        raw = write_toy_config(p, out="out")
        raw["save_chains"] = True
        p.write_text(yaml.safe_dump(raw))
        assert main(["plan", "--config", str(p), "--budget", "60",
                     "--pilot-length", "100"]) == 0
        assert [f.name for f in (tmp_path / "out").iterdir()] == ["plan.json"]
        doc = json.loads((tmp_path / "out" / "plan.json").read_text())
        assert len(doc["pilot_points"]) == 3

    def test_plan_times_the_configured_functions(self, toy_config, monkeypatch):
        # t2 is timed on the sweep that `run` performs, functions included
        seen = []
        real = cli.surface

        def spy(ws, grid, F, sigma_hat, q):
            seen.append((F, ws.W.samples, q))
            return real(ws, grid, F, sigma_hat, q)

        monkeypatch.setattr(cli, "surface", spy)
        assert main(["plan", "--config", str(toy_config), "--budget", "60",
                     "--pilot-length", "100"]) == 0
        assert load_config(toy_config).functions == ["identity"]
        # one sweep, on the row of the identity at the pilot's pooled samples,
        # at q = n / N of two pilot stages of equal chain lengths
        [(F, samples, q)] = seen
        assert F.shape == (1, len(samples)) and np.array_equal(F[0], samples)
        assert q == 1.0


class TestValidateCommand:
    def test_reduced_reps_smoke_passes(self, capsys):
        assert main(["validate", "--reps-scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5
        assert "FAIL" not in out

    @pytest.mark.parametrize("scale", ["inf", "nan", "0", "-1"])
    def test_reps_scale_not_positive_and_finite_rejected(self, capsys, monkeypatch, scale):
        ran = []
        monkeypatch.setattr(cli, "run_all", lambda **kw: ran.append(kw) or [])
        assert main(["validate", "--reps-scale", scale]) == 2
        assert "--reps-scale must be a positive number" in capsys.readouterr().err
        assert not ran

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
