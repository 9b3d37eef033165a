import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from priorsweep.cli import main
from priorsweep.config import StageConfig, load_config, make_grid
from priorsweep.errors import ConfigError


class TestMakeGrid:
    def test_paper_style_two_axis_grid_has_924_points(self):
        cfg = {"w": {"min": 0.1, "max": 0.91, "step": 0.03},
               "g": {"min": 4, "max": 100, "step": 3}}
        grid = make_grid(cfg, ("w", "g"))
        assert len(grid) == 924
        ws = sorted({h[0] for h in grid})
        gs = sorted({h[1] for h in grid})
        assert len(ws) == 28 and len(gs) == 33
        assert ws[0] == pytest.approx(0.1) and ws[-1] == pytest.approx(0.91)
        assert gs[0] == 4 and gs[-1] == 100

    def test_explicit_points(self):
        grid = make_grid({"points": [[0.5, 10], [0.6, 20]]}, ("w", "g"))
        assert grid == [(0.5, 10.0), (0.6, 20.0)]

    def test_missing_axis(self):
        with pytest.raises(ConfigError, match="missing axis"):
            make_grid({"w": {"min": 0, "max": 1, "step": 0.1}}, ("w", "g"))

    def test_bad_step(self):
        with pytest.raises(ConfigError):
            make_grid({"h": {"min": 0, "max": 1, "step": 0}}, ("h",))


class TestStageConfig:
    def test_scalar_length_broadcasts(self):
        sc = StageConfig.parse({"length": 100, "seed": 5}, 3, "stage1")
        assert sc.lengths == [100, 100, 100]

    def test_lengths_list(self):
        sc = StageConfig.parse({"lengths": [10, 20], "seed": 5}, 2, "stage1")
        assert sc.lengths == [10, 20]
        assert sc.total == 30

    def test_chain_specs_derive_distinct_seeds(self):
        sc = StageConfig.parse({"length": 10, "seed": 5}, 3, "stage1")
        specs = sc.chain_specs([(0.0,), (1.0,), (2.0,)])
        seeds = {sp.seed for sp in specs}
        assert len(seeds) == 3

    def test_missing_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            StageConfig.parse({"length": 10}, 1, "stage1")

    # every chain must be long enough for a long-run variance (10 draws)
    @pytest.mark.parametrize("raw", [{"length": 9}, {"length": 0}, {"length": -3},
                                     {"lengths": [10, 5]}])
    def test_chain_too_short_for_long_run_variance(self, raw):
        k = len(raw.get("lengths", [0, 0]))
        with pytest.raises(ConfigError, match="at least 10"):
            StageConfig.parse({**raw, "seed": 5}, k, "stage1")

    @pytest.mark.parametrize("lengths", [5, "ab", [10]])
    def test_lengths_not_a_k_entry_list(self, lengths):
        with pytest.raises(ConfigError, match="k-entry 'lengths' list"):
            StageConfig.parse({"lengths": lengths, "seed": 5}, 2, "stage1")

    def test_negative_burn_in(self):
        with pytest.raises(ConfigError, match="burn_in"):
            StageConfig.parse({"length": 10, "burn_in": -1, "seed": 5}, 1, "stage1")

    @pytest.mark.parametrize("raw", [{"length": 10}, {"length": 10, "burn_in": 0},
                                     {"lengths": [10, 11], "burn_in": 3}])
    def test_shortest_valid_chains(self, raw):
        sc = StageConfig.parse({**raw, "seed": 5}, 2, "stage1")
        assert min(sc.lengths) == 10


def write_toy_config(path, out="run-out", seed1=11, seed2=22):
    cfg = {
        "model": {"kind": "toy", "y_obs": 0.0},
        "skeleton": [[0.0], [1.0]],
        "stage1": {"length": 800, "burn_in": 0, "seed": seed1},
        "stage2": {"length": 800, "burn_in": 0, "seed": seed2},
        "grid": {"h": {"min": -0.5, "max": 2.0, "step": 0.25}},
        "functions": ["identity"],
        "out": out,
    }
    path.write_text(yaml.safe_dump(cfg))
    return cfg


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "study.yaml"
        write_toy_config(p)
        cfg = load_config(p)
        assert len(cfg.skeleton) == 2
        assert len(cfg.grid) == 11
        assert [f.name for f in cfg.functions] == ["identity"]
        assert cfg.out_dir == tmp_path / "run-out"
        assert len(cfg.config_hash) == 64

    def test_equal_stage_seeds_rejected(self, tmp_path):
        p = tmp_path / "study.yaml"
        write_toy_config(p, seed1=7, seed2=7)
        with pytest.raises(ConfigError, match="seeds must differ"):
            load_config(p)

    def test_empty_skeleton_rejected(self, tmp_path):
        p = tmp_path / "study.yaml"
        raw = write_toy_config(p)
        raw["skeleton"] = []
        p.write_text(yaml.safe_dump(raw))
        with pytest.raises(ConfigError, match="skeleton"):
            load_config(p)

    def test_blvs_config_with_inclusion_star(self, tmp_path, uscrime_path):
        cfg = {
            "model": {"kind": "blvs", "dataset": str(uscrime_path),
                      "response": "y", "binary": ["S"]},
            "skeleton": [[0.5, 15], [0.5, 50]],
            "stage1": {"length": 50, "seed": 1},
            "stage2": {"length": 50, "seed": 2},
            "grid": {"points": [[0.5, 15]]},
            "functions": ["inclusion:*"],
        }
        p = tmp_path / "blvs.yaml"
        p.write_text(yaml.safe_dump(cfg))
        study = load_config(p)
        assert len(study.functions) == 15
        assert study.functions[0].name == "inclusion:Age"
        # the model table is built by the commands that sample, not at load
        assert study.family._table is None

    def test_unknown_inclusion_predictor_rejected(self, tmp_path, capsys, uscrime_path):
        cfg = {
            "model": {"kind": "blvs", "dataset": str(uscrime_path),
                      "response": "y", "binary": ["S"]},
            "skeleton": [[0.5, 15], [0.5, 50]],
            "stage1": {"length": 50, "seed": 1},
            "stage2": {"length": 50, "seed": 2},
            "grid": {"points": [[0.5, 15]]},
            "functions": ["inclusion:Age", "inclusion:Nope"],
            "out": str(tmp_path / "out"),
        }
        p = tmp_path / "blvs.yaml"
        p.write_text(yaml.safe_dump(cfg))
        with pytest.raises(ConfigError, match=r"unknown predictor 'Nope' \(known: Age, S, Ed,"):
            load_config(p)
        assert main(["run", "--config", str(p)]) == 2
        assert "'inclusion:Nope': unknown predictor 'Nope'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_model_kind(self, tmp_path):
        p = tmp_path / "study.yaml"
        p.write_text(yaml.safe_dump({"model": {"kind": "mystery"}}))
        with pytest.raises(ConfigError, match="unknown model kind"):
            load_config(p)

    def test_grid_point_outside_domain_rejected(self, tmp_path, uscrime_path):
        cfg = {
            "model": {"kind": "blvs", "dataset": str(uscrime_path),
                      "response": "y", "binary": ["S"]},
            "skeleton": [[0.5, 15]],
            "stage1": {"length": 50, "seed": 1},
            "stage2": {"length": 50, "seed": 2},
            "grid": {"points": [[0.5, 15], [1.2, 15]]},
        }
        p = tmp_path / "blvs.yaml"
        p.write_text(yaml.safe_dump(cfg))
        with pytest.raises(ConfigError, match="grid: w must lie in"):
            load_config(p)

    # a misspelt section, and the removed q override and threads keys
    @pytest.mark.parametrize("key", ["skeletn", "q", "threads"])
    def test_unknown_key_rejected(self, tmp_path, capsys, key):
        p = tmp_path / "study.yaml"
        raw = write_toy_config(p)
        raw[key] = 0.5
        p.write_text(yaml.safe_dump(raw))
        assert main(["run", "--config", str(p)]) == 2
        assert f"unknown config key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "run-out").exists()

    @pytest.mark.parametrize("config", ["toy", "uscrime-smoke"])
    def test_load_does_not_import_scipy_signal(self, tmp_path, config):
        # the runtime needs numpy and PyYAML only: neither loading a config
        # nor sampling its stage-1 chains (the toy's AR(1) chain, the US-crime
        # Gibbs sampler) may import any of scipy, a test dependency
        root = Path(__file__).resolve().parent.parent
        if config == "toy":
            p = tmp_path / "study.yaml"
            raw = write_toy_config(p)
            raw["model"]["sampler"] = "ar1"
            p.write_text(yaml.safe_dump(raw))
        else:
            p = root / "configs" / f"{config}.yaml"
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import priorsweep; "
                "from priorsweep.config import load_config; cfg = load_config(sys.argv[2]); "
                "[cfg.family.sample_posterior(sp) "
                "for sp in cfg.stage1.chain_specs(cfg.skeleton)]; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code, str(root / "src"), str(p)],
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    # sections of the wrong YAML shape in the US-crime smoke config
    @pytest.mark.parametrize("section, value, message", [
        ("grid", {"w": {"min": 0.2, "max": 0.8}, "g": {"min": 10, "max": 100, "step": 45}},
         "grid axis 'w': need min, max and step"),
        ("functions", [1], "functions: expected a list of function names"),
        ("functions", "inclusion:*", "functions must be a list, got str"),
        ("skeleton", 5, "skeleton must be a list, got int"),
        ("grid", {"points": [0.5, 0.6]}, "grid: points must be a list of coordinate lists"),
    ], ids=["axis-without-step", "function-not-a-string", "functions-a-string",
            "skeleton-an-int", "points-not-lists"])
    def test_malformed_section_rejected(self, tmp_path, capsys, uscrime_path,
                                        section, value, message):
        root = Path(__file__).resolve().parent.parent
        raw = yaml.safe_load((root / "configs" / "uscrime-smoke.yaml").read_text())
        raw["model"]["dataset"] = str(uscrime_path)
        raw["out"] = "oracle-out"
        raw[section] = value
        p = tmp_path / "study.yaml"
        p.write_text(yaml.safe_dump(raw))
        assert main(["oracle", "--config", str(p)]) == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [p]

    def test_empty_grid_rejected(self, tmp_path, capsys):
        p = tmp_path / "study.yaml"
        raw = write_toy_config(p)
        raw["grid"] = {"points": []}
        p.write_text(yaml.safe_dump(raw))
        assert main(["run", "--config", str(p)]) == 2
        assert "grid has no points" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [p]

    # the Bartlett lag rule is a constant: a spectral section, whatever
    # truncation_scale it sets, is an unknown key
    @pytest.mark.parametrize("scale", [-2, 0, float("inf")])
    def test_bad_truncation_scale_rejected(self, tmp_path, scale):
        p = tmp_path / "study.yaml"
        raw = write_toy_config(p)
        raw["spectral"] = {"truncation_scale": scale}
        p.write_text(yaml.safe_dump(raw))
        with pytest.raises(ConfigError, match="unknown config key 'spectral'"):
            load_config(p)

    def test_stage1_hash_ignores_stage2_and_grid(self, tmp_path):
        p = tmp_path / "study.yaml"
        raw = write_toy_config(p)
        base = load_config(p).stage1_hash
        raw["stage2"]["seed"] = 99
        raw["grid"] = {"points": [[0.5]]}
        p.write_text(yaml.safe_dump(raw))
        assert load_config(p).stage1_hash == base
        raw["skeleton"] = [[0.0], [3.0]]
        p.write_text(yaml.safe_dump(raw))
        assert load_config(p).stage1_hash != base
