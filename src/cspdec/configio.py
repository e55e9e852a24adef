"""Serialization: model-config JSON, results JSON/CSV, sweep CSV.

All emitted files are byte-stable for a fixed (config, seed): keys are
sorted, floats go through ``repr``, and nothing records wall-clock state.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass
from pathlib import Path

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


def _matrix(values, steps: int, dim: int, path: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != (steps, dim):
        raise ConfigError(f"{path}: expected a {steps}x{dim} array, got shape {arr.shape}")
    return arr


def _spec_to_dict(spec: DenoiserSpec | ARBackboneSpec) -> dict:
    """Every field of a denoiser or backbone spec, arrays as nested lists."""
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in asdict(spec).items()}


def model_to_dict(model: Model) -> dict:
    return {"denoiser": _spec_to_dict(model.denoiser), "backbone": _spec_to_dict(model.backbone)}


def _denoiser_from_dict(data: dict, steps: int, dim: int, path: str) -> DenoiserSpec:
    try:
        return DenoiserSpec(
            state_coef=_matrix(data["state_coef"], steps, dim, f"{path}.state_coef"),
            cond_coef=_matrix(data["cond_coef"], steps, dim, f"{path}.cond_coef"),
            offset=_matrix(data["offset"], steps, dim, f"{path}.offset"),
            variance=_matrix(data["variance"], steps, dim, f"{path}.variance"),
            nonlinearity=data.get("nonlinearity", "identity"),
        )
    except KeyError as exc:
        raise ConfigError(f"{path}: missing key {exc.args[0]!r}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _backbone_from_dict(data: dict, dim: int, path: str) -> ARBackboneSpec:
    try:
        spec = ARBackboneSpec(
            prefix=data["prefix"],
            weight=data["weight"],
            bias=data["bias"],
            nonlinearity=data.get("nonlinearity", "identity"),
        )
    except KeyError as exc:
        raise ConfigError(f"{path}: missing key {exc.args[0]!r}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if spec.dim != dim:
        raise ConfigError(f"{path}: dimension {spec.dim} does not match global d={dim}")
    return spec


def _model_from_dict(data: dict, steps: int, dim: int, path: str) -> Model:
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object")
    return Model(
        denoiser=_denoiser_from_dict(data.get("denoiser", {}), steps, dim, f"{path}.denoiser"),
        backbone=_backbone_from_dict(data.get("backbone", {}), dim, f"{path}.backbone"),
    )


@dataclass(frozen=True)
class ModelConfig:
    """Parsed model-config document: the two models plus run defaults."""

    target: Model
    draft: Model
    steps: int
    dim: int
    run_defaults: dict

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


_RUN_KEYS = {"gamma", "length", "rho", "temperature", "max_resample_trials", "seed"}


def config_from_dict(doc: dict) -> ModelConfig:
    if not isinstance(doc, dict):
        raise ConfigError("top level: expected an object")
    if "config" in doc and "results" in doc:
        # A results file: its echoed config reproduces the run.
        doc = doc["config"]
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version: expected {SCHEMA_VERSION}, got {version!r}")
    for key in ("T", "d", "target", "draft"):
        if key not in doc:
            raise ConfigError(f"top level: missing key {key!r}")
    steps = doc["T"]
    dim = doc["d"]
    # type(...) is int also turns away JSON true/false, which are ints to isinstance.
    if type(steps) is not int or steps < 2:
        raise ConfigError(f"T: expected an integer >= 2, got {steps!r}")
    if type(dim) is not int or dim < 1:
        raise ConfigError(f"d: expected an integer >= 1, got {dim!r}")
    run = doc.get("run", {})
    if not isinstance(run, dict) or not set(run) <= _RUN_KEYS:
        raise ConfigError(f"run: unknown keys {sorted(set(run) - _RUN_KEYS)}")
    return ModelConfig(
        target=_model_from_dict(doc["target"], steps, dim, "target"),
        draft=_model_from_dict(doc["draft"], steps, dim, "draft"),
        steps=steps,
        dim=dim,
        run_defaults=dict(run),
    )


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
    echo["run"] = {key: getattr(run_config, key) for key in sorted(_RUN_KEYS)}
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
