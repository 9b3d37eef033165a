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
from .errors import ConfigError, InvalidHyperparameterError, integer, number
from .families import ChainSpec, ConjugateToy, DensityFamily
from .variance import MIN_SERIES_LENGTH

STAGE1_SECTIONS = ("model", "skeleton", "stage1")
# every top-level section with the YAML shape it must have
SECTIONS = {"model": (dict, "mapping"), "skeleton": (list, "list"),
            "stage1": (dict, "mapping"), "stage2": (dict, "mapping"),
            "grid": (dict, "mapping"), "functions": (list, "list"),
            "out": (str, "string"), "save_chains": (bool, "boolean")}
STAGE_KEYS = ("length", "lengths", "burn_in", "seed")
# the keys of the model section besides `kind`, by kind
MODEL_KEYS = {"toy": ("y_obs", "prior_sd", "like_sd", "sampler", "ar1_phi"),
              "blvs": ("dataset", "response", "binary")}
AXIS_KEYS = ("min", "max", "step")
# libyaml's parser where PyYAML was built with it: the same dicts, about 9x faster
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def nonnegative(value, name: str) -> int:
    """value if it is an integer (as `integer` checks) of at least 0, else
    ConfigError."""
    if integer(value, name) < 0:
        raise ConfigError(f"{name} must be nonnegative, got {value}")
    return value


def known_keys(raw: dict, known, where: str) -> None:
    """ConfigError naming the first key of raw that is not in known, after
    `where`, and listing the known keys."""
    for key in raw:
        if key not in known:
            raise ConfigError(f"{where} {key!r} (known: {', '.join(known)})")


@dataclass(frozen=True)
class StageConfig:
    lengths: list[int]        # one entry per skeleton chain
    burn_in: int
    seed: int

    @classmethod
    def parse(cls, raw: dict, k: int, label: str) -> "StageConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"{label}: expected a mapping")
        known_keys(raw, STAGE_KEYS, f"{label}: unknown key")
        if "seed" not in raw:
            raise ConfigError(f"{label}: missing seed")
        if "length" in raw and "lengths" in raw:
            raise ConfigError(f"{label}: give 'length' or 'lengths', not both")
        length = raw.get("length")
        if length is not None:
            integer(length, f"{label}: length")
        lengths = raw.get("lengths", [length] * k if length is not None else None)
        if not isinstance(lengths, list) or len(lengths) != k:
            raise ConfigError(f"{label}: need 'length' or a k-entry 'lengths' list")
        lengths = [integer(v, f"{label}: lengths") for v in lengths]
        if any(v < MIN_SERIES_LENGTH for v in lengths):
            raise ConfigError(f"{label}: chain lengths must be at least "
                              f"{MIN_SERIES_LENGTH}, the shortest series a long-run "
                              f"variance is taken of")
        return cls(lengths=lengths, burn_in=nonnegative(raw.get("burn_in", 0), f"{label}: burn_in"),
                   seed=nonnegative(raw["seed"], f"{label}: seed"))

    def chain_specs(self, skeleton) -> list[ChainSpec]:
        specs = []
        for idx, (h, length) in enumerate(zip(skeleton, self.lengths)):
            seed = int(np.random.SeedSequence((self.seed, idx)).generate_state(1)[0])
            specs.append(ChainSpec(h=h, length=length, burn_in=self.burn_in, seed=seed))
        return specs

    @property
    def total(self) -> int:
        return sum(self.lengths)


@dataclass(frozen=True)
class StudyConfig:
    raw: dict
    family: DensityFamily
    skeleton: list[tuple]
    stage1: StageConfig
    stage2: StageConfig
    grid: np.ndarray              # (G, d), read-only
    functions: list[str]          # the family's function names, inclusion:* expanded
    out_dir: Path
    save_chains: bool = False

    @property
    def config_hash(self) -> str:
        return _sha256(self.raw)

    @property
    def stage1_hash(self) -> str:
        """Hash of the config sections a stage-1 ratio estimate depends on
        (a seed override included, since load_config writes it into raw)."""
        return _sha256({key: self.raw.get(key) for key in STAGE1_SECTIONS})


def _sha256(doc) -> str:
    blob = json.dumps(doc, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


def _build_family(model: dict, base_dir: Path) -> DensityFamily:
    kind = model.get("kind")
    if kind not in MODEL_KEYS:
        raise ConfigError(f"unknown model kind {kind!r}")
    known_keys(model, ("kind", *MODEL_KEYS[kind]), f"model: unknown {kind} key")
    if kind == "toy":
        # the toy's defaults are those of its signature
        return ConjugateToy(**{key: value if key == "sampler" else number(value, f"model: {key}")
                               for key, value in model.items() if key != "kind"})
    if "dataset" not in model:
        raise ConfigError("blvs model requires a 'dataset' CSV path")
    dataset, response = model["dataset"], model.get("response", "y")
    if not isinstance(dataset, str):
        raise ConfigError(f"model: dataset must be a CSV path, got {dataset!r}")
    if not isinstance(response, str):
        raise ConfigError(f"model: response must be a column name, got {response!r}")
    binary = model.get("binary", [])
    if not (isinstance(binary, list) and all(isinstance(nm, str) for nm in binary)):
        raise ConfigError("model: binary must be a list of column names")
    path = Path(dataset)
    if not path.is_absolute():
        path = base_dir / path
    return BlvsFamily(ingest_csv(path, response, binary))


def point(raw, name: str) -> tuple[float, ...]:
    """The coordinates of a skeleton or grid point, a list of numbers or one
    number, each read by `number`; one that is not finite is left to the
    family's domain check, which names the whole point."""
    return tuple(number(c, name, finite=False) for c in (raw if isinstance(raw, list) else [raw]))


def make_grid(grid_cfg, coord_names):
    """The points of a Cartesian grid from per-coordinate {min, max, step},
    as the rows of an array with the first coordinate slowest, or the
    explicit points as tuples; a grid holds points or axes, not both."""
    if grid_cfg is None:
        raise ConfigError("missing grid")
    known_keys(grid_cfg, ("points", *coord_names), "grid: unknown key")
    if "points" in grid_cfg:
        if len(grid_cfg) > 1:
            raise ConfigError(f"grid: 'points' next to axis key(s) "
                              f"{[key for key in grid_cfg if key != 'points']}: "
                              f"give points or axes, not both")
        points = grid_cfg["points"]
        if not isinstance(points, list) or not all(isinstance(pt, list) for pt in points):
            raise ConfigError("grid: points must be a list of coordinate lists")
        return [point(pt, "grid: point coordinate") for pt in points]
    axes = []
    for name in coord_names:
        if name not in grid_cfg:
            raise ConfigError(f"grid: missing axis {name!r}")
        ax = grid_cfg[name]
        if not isinstance(ax, dict) or not set(AXIS_KEYS) <= ax.keys():
            raise ConfigError(f"grid axis {name!r}: need min, max and step")
        known_keys(ax, AXIS_KEYS, f"grid axis {name!r}: unknown key")
        lo, hi, step = (number(ax[key], f"grid axis {name!r}: {key}") for key in AXIS_KEYS)
        if step <= 0 or hi < lo:
            raise ConfigError(f"grid axis {name!r}: need step > 0 and max >= min")
        count = int(math.floor((hi - lo) / step + 1e-9)) + 1
        axes.append(lo + step * np.arange(count))
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def load_config(path, out=None, seeds=None) -> StudyConfig:
    """The study of the config file at path, checked whole before any
    sampling.  out, a directory, replaces the config's `out` (and is not
    relative to the config file); seeds, a {"stage1" | "stage2": seed}
    mapping, replaces those stages' seeds before the stages are parsed, and
    is written into raw, so the manifest and stage1_hash record it."""
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        try:
            raw = yaml.load(fh, Loader=YAML_LOADER)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: not valid YAML: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    known_keys(raw, SECTIONS, f"{path}: unknown config key")
    for key, value in raw.items():
        kind, noun = SECTIONS[key]
        if not isinstance(value, kind):
            raise ConfigError(f"{path}: {key} must be a {noun}, "
                              f"got {type(value).__name__}")
    for key, seed in (seeds or {}).items():
        raw.setdefault(key, {})["seed"] = seed
    base_dir = path.parent
    family = _build_family(raw.get("model", {}), base_dir)
    skeleton_raw = raw.get("skeleton")
    if not skeleton_raw:
        raise ConfigError("skeleton must be a nonempty list of hyperparameters")
    skeleton = [family.validate_h(point(h, "skeleton: point coordinate"))
                for h in skeleton_raw]
    k = len(skeleton)
    stage1 = StageConfig.parse(raw.get("stage1", {}), k, "stage1")
    stage2 = StageConfig.parse(raw.get("stage2", {}), k, "stage2")
    if stage1.seed == stage2.seed:
        raise ConfigError("stage1 and stage2 seeds must differ "
                          "(the two stages must be independent)")
    try:
        grid = family.validate_grid(make_grid(raw.get("grid"), family.coord_names))
    except InvalidHyperparameterError as exc:
        raise ConfigError(f"grid: {exc}") from None
    if not len(grid):
        raise ConfigError("grid has no points")
    functions = raw.get("functions", [])
    if not all(isinstance(item, str) for item in functions):
        raise ConfigError("functions: expected a list of function names")
    functions = family.function_names(functions)
    repeated = [nm for i, nm in enumerate(functions) if nm in functions[:i]]
    if repeated:
        raise ConfigError(f"functions: {repeated[0]!r} is named more than once")
    # an absolute `out` stays as it is, since joining it to base_dir gives it
    out_dir = Path(out) if out else base_dir / raw.get("out", "priorsweep-out")
    return StudyConfig(
        raw=raw, family=family, skeleton=skeleton,
        stage1=stage1, stage2=stage2, grid=grid, functions=functions,
        out_dir=out_dir,
        save_chains=raw.get("save_chains", False),
    )
