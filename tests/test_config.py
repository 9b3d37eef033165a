import dataclasses
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from priorsweep.cli import main
from priorsweep.config import YAML_LOADER, StageConfig, load_config, make_grid
from priorsweep.errors import ConfigError
from priorsweep.families import ConjugateToy


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

    # a value that is not a YAML integer is refused, not truncated by int()
    @pytest.mark.parametrize("raw, key", [
        ({"length": 300.9, "seed": 5}, "length"),
        ({"lengths": [10, "20"], "seed": 5}, "lengths"),
        ({"length": 10, "burn_in": True, "seed": 5}, "burn_in"),
        ({"length": 10, "seed": 5.0}, "seed"),
    ], ids=["length", "lengths", "burn_in", "seed"])
    def test_non_integer_rejected(self, raw, key):
        with pytest.raises(ConfigError, match=f"^stage2: {key} must be an integer, got "):
            StageConfig.parse(raw, 2, "stage2")

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="^stage1: seed must be nonnegative, got -3$"):
            StageConfig.parse({"length": 10, "seed": -3}, 2, "stage1")

    # `length` is not dropped in favour of `lengths`
    def test_length_next_to_lengths_rejected(self):
        with pytest.raises(ConfigError, match="^stage1: give 'length' or 'lengths', not both$"):
            StageConfig.parse({"length": 100, "lengths": [200, 300], "seed": 1}, 2, "stage1")


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
        assert cfg.functions == ["identity"]
        assert cfg.out_dir == tmp_path / "run-out"
        assert len(cfg.config_hash) == 64

    def test_equal_stage_seeds_rejected(self, tmp_path):
        p = tmp_path / "study.yaml"
        write_toy_config(p, seed1=7, seed2=7)
        with pytest.raises(ConfigError, match="seeds must differ"):
            load_config(p)

    def test_unknown_toy_function_rejected(self, tmp_path):
        p = tmp_path / "study.yaml"
        raw = write_toy_config(p)
        raw["functions"] = ["square", "cube"]
        p.write_text(yaml.safe_dump(raw))
        with pytest.raises(ConfigError, match="^unknown toy function 'cube'$"):
            load_config(p)

    def test_toy_function_named_twice_rejected(self, tmp_path):
        p = tmp_path / "study.yaml"
        raw = write_toy_config(p)
        raw["functions"] = ["identity", "square", "identity"]
        p.write_text(yaml.safe_dump(raw))
        with pytest.raises(ConfigError,
                           match="^functions: 'identity' is named more than once$"):
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
        assert study.functions == [f"inclusion:{nm}" for nm in study.family.names]
        assert study.functions[0] == "inclusion:Age"
        # the model table is built by the commands that sample, not at load
        assert study.family._table is None

    def test_blvs_function_named_twice_rejected(self, tmp_path, uscrime_path):
        # inclusion:* already names every predictor
        cfg = {
            "model": {"kind": "blvs", "dataset": str(uscrime_path),
                      "response": "y", "binary": ["S"]},
            "skeleton": [[0.5, 15], [0.5, 50]],
            "stage1": {"length": 50, "seed": 1},
            "stage2": {"length": 50, "seed": 2},
            "grid": {"points": [[0.5, 15]]},
            "functions": ["inclusion:*", "inclusion:Ed"],
        }
        p = tmp_path / "blvs.yaml"
        p.write_text(yaml.safe_dump(cfg))
        with pytest.raises(ConfigError,
                           match="^functions: 'inclusion:Ed' is named more than once$"):
            load_config(p)

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

    # a key that no parser reads, in any section, is refused before any
    # sampling, and the error names the section and the key and lists the
    # keys the section takes
    def run_with(self, tmp_path, capsys, section, value):
        p = tmp_path / "study.yaml"
        raw = write_toy_config(p)
        raw[section] = value
        p.write_text(yaml.safe_dump(raw))
        assert main(["run", "--config", str(p)]) == 2
        assert list(tmp_path.iterdir()) == [p]
        return capsys.readouterr().err

    def test_unknown_stage_key_rejected(self, tmp_path, capsys):
        err = self.run_with(tmp_path, capsys, "stage1", {"length": 100, "burnin": 50, "seed": 1})
        assert "stage1: unknown key 'burnin' (known: length, lengths, burn_in, seed)" in err

    @pytest.mark.parametrize("model, message", [
        ({"kind": "toy", "y_ob": 3.0}, "model: unknown toy key 'y_ob' (known: kind, y_obs, "
                                       "prior_sd, like_sd, sampler, ar1_phi)"),
        ({"kind": "blvs", "dataset": "x.csv", "respons": "y"},
         "model: unknown blvs key 'respons' (known: kind, dataset, response, binary)"),
    ], ids=["toy", "blvs"])
    def test_unknown_model_key_rejected(self, tmp_path, capsys, model, message):
        assert message in self.run_with(tmp_path, capsys, "model", model)

    @pytest.mark.parametrize("grid, message", [
        ({"points": [[0.2]], "h": {"min": 0, "max": 1, "step": 0.5}},
         "grid: 'points' next to axis key(s) ['h']: give points or axes, not both"),
        ({"points": [[0.2]], "h": {"min": 0, "max": 1, "step": 0.5}, "x": {}},
         "grid: unknown key 'x' (known: points, h)"),
        ({"h": {"min": 0, "max": 1, "step": 0.5}, "x": {"min": 0, "max": 1, "step": 0.5}},
         "grid: unknown key 'x' (known: points, h)"),
    ], ids=["points-and-axis", "points-and-unknown", "axis-and-unknown"])
    def test_unknown_grid_key_rejected(self, tmp_path, capsys, grid, message):
        assert message in self.run_with(tmp_path, capsys, "grid", grid)

    def test_unknown_axis_key_rejected(self, tmp_path, capsys):
        axis = {"min": 0, "max": 1, "step": 0.5, "stepp": 0.25}
        err = self.run_with(tmp_path, capsys, "grid", {"h": axis})
        assert "grid axis 'h': unknown key 'stepp' (known: min, max, step)" in err

    # every number of a config is read by one check that names its key; a
    # boolean is no number, and a toy parameter or an axis bound must be
    # finite (a non-finite coordinate is the family's to name, with its point)
    @pytest.mark.parametrize("section, value, message", [
        ("model", {"kind": "toy", "y_obs": "abc"},
         "model: y_obs must be a finite number, got 'abc'"),
        ("model", {"kind": "toy", "prior_sd": True},
         "model: prior_sd must be a finite number, got True"),
        ("grid", {"h": {"min": "zero", "max": 1, "step": 0.5}},
         "grid axis 'h': min must be a finite number, got 'zero'"),
        ("grid", {"h": {"min": 0, "max": float("inf"), "step": 0.5}},
         "grid axis 'h': max must be a finite number, got inf"),
        ("skeleton", [["one"], [1.0]], "skeleton: point coordinate must be a number, got 'one'"),
        ("grid", {"points": [[0.5], ["x"]]}, "grid: point coordinate must be a number, got 'x'"),
    ], ids=["y_obs-a-string", "prior_sd-a-boolean", "axis-min-a-string", "axis-max-infinite",
            "skeleton-coordinate-a-string", "grid-point-a-string"])
    def test_number_not_read_rejected(self, tmp_path, capsys, section, value, message):
        assert message in self.run_with(tmp_path, capsys, section, value)

    # a string is iterable but no list of names: Po1 is not the columns P, o and 1
    @pytest.mark.parametrize("binary", ["Po1", "S"])
    def test_binary_not_a_list_rejected(self, tmp_path, capsys, uscrime_path, binary):
        model = {"kind": "blvs", "dataset": str(uscrime_path), "binary": binary}
        err = self.run_with(tmp_path, capsys, "model", model)
        assert "model: binary must be a list of column names" in err

    # a dataset is a path and a response a column name: 5 is no path, and
    # [y] is a list, not the column y
    @pytest.mark.parametrize("model, message", [
        ({"kind": "blvs", "dataset": 5}, "model: dataset must be a CSV path, got 5"),
        ({"kind": "blvs", "response": ["y"]}, "model: response must be a column name, got ['y']"),
    ], ids=["dataset-a-number", "response-a-list"])
    def test_dataset_or_response_not_a_string_rejected(self, tmp_path, capsys, uscrime_path,
                                                       model, message):
        model = {"dataset": str(uscrime_path), **model}
        assert message in self.run_with(tmp_path, capsys, "model", model)

    def test_toy_defaults_are_the_signature_defaults(self, tmp_path):
        p = tmp_path / "study.yaml"
        raw = write_toy_config(p)
        raw["model"] = {"kind": "toy"}
        p.write_text(yaml.safe_dump(raw))
        family = load_config(p).family
        assert vars(family) == vars(ConjugateToy())

    def test_overrides_enter_before_parsing(self, tmp_path):
        # the file's equal seeds are replaced before the stages are checked
        p = tmp_path / "study.yaml"
        write_toy_config(p, seed1=7, seed2=7)
        cfg = load_config(p, out=str(tmp_path / "elsewhere"), seeds={"stage2": 8})
        assert (cfg.stage1.seed, cfg.stage2.seed) == (7, 8)
        assert cfg.raw["stage2"]["seed"] == 8
        assert cfg.out_dir == tmp_path / "elsewhere"
        assert cfg.stage1_hash != load_config(p, seeds={"stage1": 9, "stage2": 8}).stage1_hash
        with pytest.raises(ConfigError, match="seeds must differ"):
            load_config(p, seeds={"stage1": 7})

    def test_parsed_study_is_frozen(self, tmp_path):
        p = tmp_path / "study.yaml"
        write_toy_config(p)
        cfg = load_config(p)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.out_dir = tmp_path
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.stage1.seed = 3

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
                "cfg.family.sample_chains(cfg.stage1.chain_specs(cfg.skeleton)); "
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
        ("functions", ["inclusion:*", "identity"], "unknown function 'identity' for this model"),
        ("skeleton", 5, "skeleton must be a list, got int"),
        ("grid", {"points": [0.5, 0.6]}, "grid: points must be a list of coordinate lists"),
        ("stage1", {"length": 300.9, "burn_in": 50, "seed": 202011},
         "stage1: length must be an integer, got 300.9"),
    ], ids=["axis-without-step", "function-not-a-string", "functions-a-string",
            "function-of-another-model", "skeleton-an-int", "points-not-lists",
            "fractional-length"])
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

    def test_malformed_yaml_exits_2_naming_the_file(self, tmp_path, capsys):
        p = tmp_path / "study.yaml"
        p.write_text("model: {kind: toy\nskeleton: [[0.0]]\n")
        assert main(["run", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert f"{p}: not valid YAML" in err and "Traceback" not in err

    @pytest.mark.parametrize("path", sorted(
        (Path(__file__).resolve().parent.parent / "configs").glob("*.yaml")),
        ids=lambda p: p.name)
    def test_both_yaml_loaders_give_equal_dicts(self, path):
        text = path.read_text(encoding="utf-8")
        assert yaml.load(text, Loader=YAML_LOADER) == yaml.load(text, Loader=yaml.SafeLoader)

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
