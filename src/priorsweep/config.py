"""Study configuration: one YAML file drives chain generation, both
estimation stages, the grid sweep, and all outputs.  Every random draw stems
from the per-stage seeds recorded here, so a config reproduces a run exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .blvs import BlvsFamily, ingest_csv
from .errors import ConfigError, InvalidHyperparameterError
from .families import ChainSpec, ConjugateToy, DensityFamily, FunctionOfTheta, toy_function
from .variance import MIN_SERIES_LENGTH

STAGE1_SECTIONS = ("model", "skeleton", "stage1")
# every top-level section with the YAML shape it must have
SECTIONS = {"model": (dict, "mapping"), "skeleton": (list, "list"),
            "stage1": (dict, "mapping"), "stage2": (dict, "mapping"),
            "grid": (dict, "mapping"), "functions": (list, "list"),
            "out": (str, "string"), "save_chains": (bool, "boolean")}


@dataclass
class StageConfig:
    lengths: list[int]        # one entry per skeleton chain
    burn_in: int
    seed: int

    @classmethod
    def parse(cls, raw: dict, k: int, label: str) -> "StageConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"{label}: expected a mapping")
        if "seed" not in raw:
            raise ConfigError(f"{label}: missing seed")
        length = raw.get("length")
        lengths = raw.get("lengths", [length] * k if length is not None else None)
        if not isinstance(lengths, list) or len(lengths) != k:
            raise ConfigError(f"{label}: need 'length' or a k-entry 'lengths' list")
        lengths = [int(v) for v in lengths]
        if any(v < MIN_SERIES_LENGTH for v in lengths):
            raise ConfigError(f"{label}: chain lengths must be at least "
                              f"{MIN_SERIES_LENGTH}, the shortest series a long-run "
                              f"variance is taken of")
        burn_in = int(raw.get("burn_in", 0))
        if burn_in < 0:
            raise ConfigError(f"{label}: burn_in must be nonnegative, got {burn_in}")
        return cls(lengths=lengths, burn_in=burn_in, seed=int(raw["seed"]))

    def chain_specs(self, skeleton) -> list[ChainSpec]:
        specs = []
        for idx, (h, length) in enumerate(zip(skeleton, self.lengths)):
            seed = int(np.random.SeedSequence((self.seed, idx)).generate_state(1)[0])
            specs.append(ChainSpec(h=h, length=length, burn_in=self.burn_in, seed=seed))
        return specs

    @property
    def total(self) -> int:
        return sum(self.lengths)


@dataclass
class StudyConfig:
    raw: dict
    base_dir: Path
    family: DensityFamily
    skeleton: list[tuple]
    stage1: StageConfig
    stage2: StageConfig
    grid: list[tuple]
    functions: list[FunctionOfTheta]
    out_dir: Path
    save_chains: bool = False

    @property
    def config_hash(self) -> str:
        return _sha256(self.raw)

    @property
    def stage1_hash(self) -> str:
        """Hash of the config sections a stage-1 ratio estimate depends on
        (seed overrides included, since they are written into raw)."""
        return _sha256({key: self.raw.get(key) for key in STAGE1_SECTIONS})


def _sha256(doc) -> str:
    blob = json.dumps(doc, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


def _build_family(model: dict, base_dir: Path) -> DensityFamily:
    kind = model.get("kind")
    if kind == "toy":
        return ConjugateToy(
            y_obs=float(model.get("y_obs", 0.0)),
            prior_sd=float(model.get("prior_sd", 1.0)),
            like_sd=float(model.get("like_sd", 1.0)),
            sampler=model.get("sampler", "iid"),
            ar1_phi=float(model.get("ar1_phi", 0.5)),
        )
    if kind == "blvs":
        if "dataset" not in model:
            raise ConfigError("blvs model requires a 'dataset' CSV path")
        path = Path(model["dataset"])
        if not path.is_absolute():
            path = base_dir / path
        dataset = ingest_csv(path, model.get("response", "y"),
                             model.get("binary", []))
        return BlvsFamily(dataset)
    raise ConfigError(f"unknown model kind {kind!r}")


def _build_functions(spec_list, family) -> list[FunctionOfTheta]:
    if not all(isinstance(item, str) for item in spec_list):
        raise ConfigError("functions: expected a list of function names")
    out = []
    for item in spec_list:
        if isinstance(family, BlvsFamily) and item == "inclusion:*":
            out.extend(family.inclusion_function(nm) for nm in family.names)
        elif isinstance(family, BlvsFamily) and item.startswith("inclusion:"):
            name = item.split(":", 1)[1]
            if name not in family.names:
                raise ConfigError(f"function {item!r}: unknown predictor {name!r} "
                                  f"(known: {', '.join(family.names)})")
            out.append(family.inclusion_function(name))
        elif isinstance(family, ConjugateToy):
            out.append(toy_function(item))
        else:
            raise ConfigError(f"unknown function {item!r} for this model")
    return out


def make_grid(grid_cfg, coord_names) -> list[tuple]:
    """Cartesian grid from per-coordinate {min, max, step}, or explicit points."""
    if grid_cfg is None:
        raise ConfigError("missing grid")
    if "points" in grid_cfg:
        points = grid_cfg["points"]
        if not isinstance(points, list) or not all(isinstance(pt, list) for pt in points):
            raise ConfigError("grid: points must be a list of coordinate lists")
        return [tuple(float(c) for c in pt) for pt in points]
    axes = []
    for name in coord_names:
        if name not in grid_cfg:
            raise ConfigError(f"grid: missing axis {name!r}")
        ax = grid_cfg[name]
        if not isinstance(ax, dict) or not {"min", "max", "step"} <= ax.keys():
            raise ConfigError(f"grid axis {name!r}: need min, max and step")
        lo, hi, step = float(ax["min"]), float(ax["max"]), float(ax["step"])
        if step <= 0 or hi < lo:
            raise ConfigError(f"grid axis {name!r}: need step > 0 and max >= min")
        count = int(math.floor((hi - lo) / step + 1e-9)) + 1
        axes.append(lo + step * np.arange(count))
    mesh = [[]]
    for ax in axes:
        mesh = [prefix + [v] for prefix in mesh for v in ax]
    return [tuple(pt) for pt in mesh]


def load_config(path) -> StudyConfig:
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    for key, value in raw.items():
        if key not in SECTIONS:
            raise ConfigError(f"{path}: unknown config key {key!r} "
                              f"(known: {', '.join(SECTIONS)})")
        kind, noun = SECTIONS[key]
        if not isinstance(value, kind):
            raise ConfigError(f"{path}: {key} must be a {noun}, "
                              f"got {type(value).__name__}")
    base_dir = path.parent
    family = _build_family(raw.get("model", {}), base_dir)
    skeleton_raw = raw.get("skeleton")
    if not skeleton_raw:
        raise ConfigError("skeleton must be a nonempty list of hyperparameters")
    skeleton = [family.validate_h(h) for h in skeleton_raw]
    k = len(skeleton)
    stage1 = StageConfig.parse(raw.get("stage1", {}), k, "stage1")
    stage2 = StageConfig.parse(raw.get("stage2", {}), k, "stage2")
    if stage1.seed == stage2.seed:
        raise ConfigError("stage1 and stage2 seeds must differ "
                          "(the two stages must be independent)")
    grid = make_grid(raw.get("grid"), family.coord_names)
    if not grid:
        raise ConfigError("grid has no points")
    for h in grid:
        try:
            family.validate_h(h)
        except InvalidHyperparameterError as exc:
            raise ConfigError(f"grid: {exc}") from None
    functions = _build_functions(raw.get("functions", []), family)
    out_dir = Path(raw.get("out", "priorsweep-out"))
    if not out_dir.is_absolute():
        out_dir = base_dir / out_dir
    return StudyConfig(
        raw=raw, base_dir=base_dir, family=family, skeleton=skeleton,
        stage1=stage1, stage2=stage2, grid=grid, functions=functions,
        out_dir=out_dir,
        save_chains=raw.get("save_chains", False),
    )
