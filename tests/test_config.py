import numpy as np
import pytest
import yaml

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

    @pytest.mark.parametrize("q", [-3, float("nan"), float("inf")])
    def test_bad_q_rejected(self, tmp_path, q):
        p = tmp_path / "study.yaml"
        raw = write_toy_config(p)
        raw["q"] = q
        p.write_text(yaml.safe_dump(raw))
        with pytest.raises(ConfigError, match="q must be"):
            load_config(p)

    def test_q_zero_accepted(self, tmp_path):
        p = tmp_path / "study.yaml"
        raw = write_toy_config(p)
        raw["q"] = 0
        p.write_text(yaml.safe_dump(raw))
        assert load_config(p).q_override == 0.0

    @pytest.mark.parametrize("scale", [-2, 0, float("inf")])
    def test_bad_truncation_scale_rejected(self, tmp_path, scale):
        p = tmp_path / "study.yaml"
        raw = write_toy_config(p)
        raw["spectral"] = {"truncation_scale": scale}
        p.write_text(yaml.safe_dump(raw))
        with pytest.raises(ConfigError, match="truncation_scale"):
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
