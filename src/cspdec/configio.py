"""Serialization: model-config JSON, results JSON/CSV, sweep CSV.

All emitted files are byte-stable for a fixed (config, seed): keys are
sorted, floats go through ``repr``, and nothing records wall-clock state.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .autoregressive import ARBackboneSpec, Model
from .bench import SweepResult
from .diffusion import DenoiserSpec
from .engine import RunStats, SpecDecodeConfig

SCHEMA_VERSION = 1

RESULT_CSV_HEADER = ["replicate", "position", "origin", "accepted", "log_ratio", "trials"]
SWEEP_CSV_HEADER = ["axis_value", "mean_alpha", "stderr_alpha", "mean_trials", "tokens_per_step"]


class ConfigError(ValueError):
    """A config document failed to parse or validate."""


def _checked_object(data, path: str, keys, required) -> dict:
    """``data`` as a JSON object whose keys are among ``keys`` and include ``required``."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object, got {type(data).__name__}")
    if not set(data) <= set(keys):
        raise ConfigError(f"{path}: unknown keys {sorted(set(data) - set(keys))}")
    for key in required:
        if key not in data:
            raise ConfigError(f"{path}: missing key {key!r}")
    return data


def _array(value, shape: tuple[int, ...], path: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    # asarray reads "0.1" and true as numbers and null as NaN, so each leaf is looked at.
    for leaf in np.asarray(value, dtype=object).flat:
        if leaf is None or isinstance(leaf, (bool, str)):
            raise ConfigError(f"{path}: expected numbers, got {leaf!r}")
    if arr.ndim == 0:
        arr = arr.reshape(1)  # a scalar is a one-element vector, as ``as_vector`` reads it
    if arr.shape != shape:
        raise ConfigError(f"{path}: expected shape {shape}, got {arr.shape}")
    return arr


def _spec_from_dict(cls, data, shape: tuple[int, ...], path: str):
    """A ``cls`` read from a JSON object keyed by its fields; each array field has ``shape``."""
    specs = fields(cls)
    required = [f.name for f in specs if f.default is MISSING]
    _checked_object(data, path, [f.name for f in specs], required)
    arrays = [k for k, t in get_type_hints(cls).items() if t is np.ndarray]
    values = {k: _array(v, shape, f"{path}.{k}") if k in arrays else v for k, v in data.items()}
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _spec_to_dict(spec: DenoiserSpec | ARBackboneSpec) -> dict:
    """Every field of a denoiser or backbone spec, arrays as nested lists."""
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in asdict(spec).items()}


def model_to_dict(model: Model) -> dict:
    return {"denoiser": _spec_to_dict(model.denoiser), "backbone": _spec_to_dict(model.backbone)}


def _model_from_dict(data, steps: int, dim: int, path: str) -> Model:
    _checked_object(data, path, ("denoiser", "backbone"), ("denoiser", "backbone"))
    return Model(
        denoiser=_spec_from_dict(DenoiserSpec, data["denoiser"], (steps, dim), f"{path}.denoiser"),
        backbone=_spec_from_dict(ARBackboneSpec, data["backbone"], (dim,), f"{path}.backbone"),
    )


@dataclass(frozen=True)
class ModelConfig:
    """Parsed model-config document: two models of one ``(steps, dim)`` plus run defaults."""

    target: Model
    draft: Model
    run_defaults: dict

    def __post_init__(self):
        shape, draft_shape = (self.steps, self.dim), (self.draft.steps, self.draft.dim)
        if draft_shape != shape:
            raise ValueError(f"draft (T, d) {draft_shape} differs from the target's {shape}")
        self.spec_config()  # the run defaults alone must make a valid run

    @property
    def steps(self) -> int:
        return self.target.steps

    @property
    def dim(self) -> int:
        return self.target.dim

    def spec_config(self, **overrides) -> SpecDecodeConfig:
        """Build a run config from the document defaults plus overrides."""
        params = {"gamma": 4, "length": 16, **self.run_defaults}
        params.update({k: v for k, v in overrides.items() if v is not None})
        return SpecDecodeConfig(steps=self.steps, dim=self.dim, **params)


def config_to_dict(config: ModelConfig) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "T": config.steps,
        "d": config.dim,
        "target": model_to_dict(config.target),
        "draft": model_to_dict(config.draft),
    }
    if config.run_defaults:
        doc["run"] = dict(config.run_defaults)
    return doc


# The run parameters a document's "run" block, a results echo and a CLI flag may set.
RUN_KEYS = ("gamma", "length", "rho", "temperature", "max_resample_trials", "seed")
# Every key of a model config is required but the last, "run".
_CONFIG_KEYS = ("schema_version", "T", "d", "target", "draft", "run")


def config_from_dict(doc) -> ModelConfig:
    where, prefix = "top level", ""
    if isinstance(doc, dict) and "results" in doc:
        # A results file: its echoed config reproduces the run.
        _checked_object(doc, where, ("schema_version", "config", "results"), ["config"])
        doc, where, prefix = doc["config"], "config", "config."
    _checked_object(doc, where, _CONFIG_KEYS, _CONFIG_KEYS[:-1])
    version = doc["schema_version"]
    if version != SCHEMA_VERSION:
        raise ConfigError(f"{prefix}schema_version: expected {SCHEMA_VERSION}, got {version!r}")
    for key, least in (("T", 2), ("d", 1)):
        # type(...) is int also turns away JSON true/false, which are ints to isinstance.
        if type(doc[key]) is not int or doc[key] < least:
            raise ConfigError(f"{prefix}{key}: expected an integer >= {least}, got {doc[key]!r}")
    steps, dim = doc["T"], doc["d"]
    run = _checked_object(doc.get("run", {}), f"{prefix}run", RUN_KEYS, ())
    target = _model_from_dict(doc["target"], steps, dim, f"{prefix}target")
    draft = _model_from_dict(doc["draft"], steps, dim, f"{prefix}draft")
    try:
        return ModelConfig(target, draft, run_defaults=dict(run))
    except ValueError as exc:
        # The models share (T, d) here, so only a run value can fail.
        raise ConfigError(f"{prefix}run: {exc}") from exc


def load_model_config(path: str | Path) -> ModelConfig:
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    try:
        return config_from_dict(doc)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def dump_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def save_model_config(config: ModelConfig, path: str | Path) -> None:
    Path(path).write_text(dump_json(config_to_dict(config)))


def results_to_dict(
    model_config: ModelConfig, run_config: SpecDecodeConfig, stats_list: list[RunStats]
) -> dict:
    echo = config_to_dict(model_config)
    echo["run"] = {key: getattr(run_config, key) for key in RUN_KEYS}
    return {
        "schema_version": SCHEMA_VERSION,
        "config": echo,
        "results": [st.to_dict() for st in stats_list],
    }


def _position_rows(stats: RunStats, replicate: int) -> list[dict]:
    # Last examined proposal per position: the one that produced (or lost) the
    # token there.
    by_position: dict[int, tuple[float, bool]] = {}
    for pos, lr, exam, acc in zip(
        stats.proposal_positions,
        stats.proposal_log_ratios,
        stats.proposal_examined,
        stats.proposal_accepted,
    ):
        if exam:
            by_position[pos] = (lr, acc)
    trials_at = dict(zip(stats.resample_positions, stats.resample_trials))
    rows = []
    for pos, origin in enumerate(stats.origins):
        lr, acc = by_position.get(pos, (None, None))
        rows.append(
            {
                "replicate": replicate,
                "position": pos,
                "origin": origin,
                "accepted": acc,
                "log_ratio": lr,
                "trials": trials_at.get(pos),
            }
        )
    return rows


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def results_to_csv(stats_list: list[RunStats]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RESULT_CSV_HEADER)
    for replicate, stats in enumerate(stats_list):
        for row in _position_rows(stats, replicate):
            writer.writerow([_csv_cell(row[k]) for k in RESULT_CSV_HEADER])
    return buf.getvalue()


def sweep_to_csv(result: SweepResult) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_CSV_HEADER)
    for pt in result.points:
        writer.writerow([_csv_cell(getattr(pt, k)) for k in SWEEP_CSV_HEADER])
    return buf.getvalue()


def sweep_to_dict(result: SweepResult) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "axis": result.axis,
        "replicates": result.replicates,
        "seed": result.seed,
        "points": [
            {
                **{k: getattr(pt, k) for k in SWEEP_CSV_HEADER + ["mean_alpha_examined"]},
                "per_position_alpha": {str(k): v for k, v in pt.per_position_alpha.items()},
            }
            for pt in result.points
        ],
    }
