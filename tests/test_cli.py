import argparse
import hashlib
import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import cspdec.cli as cli
import cspdec.oracle as oracle
from cspdec.autoregressive import ARBackboneSpec, Model
from cspdec.cli import main
from cspdec.configio import (
    RUN_KEYS,
    ConfigError,
    ModelConfig,
    RESULT_CSV_HEADER,
    SWEEP_CSV_HEADER,
    config_from_dict,
    config_to_dict,
    dump_json,
    load_model_config,
    save_model_config,
)
from cspdec.engine import SpecDecodeConfig
from cspdec.oracle import DistCheckResult, PositionKS
from cspdec.scenarios import SCENARIOS, scenario_path, standard_pair

from conftest import BELOW_FLOOR, random_denoiser


@pytest.fixture(scope="module")
def std_config_path():
    return str(scenario_path("standard_pair"))


@pytest.fixture()
def tiny_config_path(tmp_path):
    """Standard pair with a short default run, for fast CLI calls."""
    target, draft, config = standard_pair()
    mc = ModelConfig(
        target=target,
        draft=draft,
        run_defaults={"gamma": 2, "length": 4, "seed": 7},
    )
    path = tmp_path / "tiny.json"
    save_model_config(mc, path)
    return str(path)


class TestConfigIO:
    def test_round_trip(self, std_config_path):
        loaded = load_model_config(std_config_path)
        again = config_from_dict(config_to_dict(loaded))
        assert np.array_equal(
            loaded.target.denoiser.variance, again.target.denoiser.variance
        )
        assert loaded.run_defaults == again.run_defaults

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "T": 3,\n  "d": \n}\n')
        with pytest.raises(ConfigError, match="line 4, column 1"):
            load_model_config(path)

    def test_step_count_mismatch_rejected(self, std_config_path):
        doc = json.loads(Path(std_config_path).read_text())
        doc["draft"]["denoiser"]["variance"] = doc["draft"]["denoiser"]["variance"][:2]
        with pytest.raises(ConfigError, match="draft.denoiser.variance"):
            config_from_dict(doc)

    def test_unknown_schema_rejected(self, std_config_path):
        doc = json.loads(Path(std_config_path).read_text())
        doc["schema_version"] = 99
        with pytest.raises(ConfigError, match="schema_version"):
            config_from_dict(doc)

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_shipped_config_round_trips_byte_for_byte(self, name):
        path = scenario_path(name)
        assert dump_json(config_to_dict(load_model_config(path))) == path.read_text()

    def test_random_pair_round_trips_field_for_field(self):
        rng = np.random.default_rng(11)

        def model():
            denoiser = random_denoiser(rng, steps=5, dim=3, tanh_prob=1.0)
            backbone = ARBackboneSpec(*rng.uniform(-1.0, 1.0, (3, 3)), nonlinearity="tanh")
            return Model(denoiser, backbone)

        written = ModelConfig(model(), model(), run_defaults={"gamma": 2, "rho": 0.25})
        read = config_from_dict(json.loads(dump_json(config_to_dict(written))))
        assert (read.steps, read.dim) == (5, 3)
        assert read.run_defaults == written.run_defaults
        for role in ("target", "draft"):
            for part in ("denoiser", "backbone"):
                before = getattr(getattr(written, role), part)
                after = getattr(getattr(read, role), part)
                assert before.nonlinearity == after.nonlinearity == "tanh"
                for f in fields(before):
                    assert np.array_equal(getattr(before, f.name), getattr(after, f.name))

    def test_scalar_prefix_and_default_nonlinearity_still_load(self, std_config_path):
        shipped = load_model_config(std_config_path)
        doc = json.loads(Path(std_config_path).read_text())
        doc["target"]["backbone"]["prefix"] = doc["target"]["backbone"]["prefix"][0]
        del doc["draft"]["denoiser"]["nonlinearity"]
        loaded = config_from_dict(doc)
        assert np.array_equal(loaded.target.backbone.prefix, shipped.target.backbone.prefix)
        assert loaded.draft.denoiser.nonlinearity == "identity"

    def test_model_config_takes_its_shape_from_the_target(self, std_pair):
        target, draft, _ = std_pair
        assert [f.name for f in fields(ModelConfig)] == ["target", "draft", "run_defaults"]
        config = ModelConfig(target, draft, run_defaults={})
        assert (config.steps, config.dim) == (target.steps, target.dim) == (3, 1)
        longer = Model(random_denoiser(np.random.default_rng(2), 5, 1), draft.backbone)
        with pytest.raises(ValueError, match=r"draft \(T, d\) \(5, 1\) differs"):
            ModelConfig(target, longer, run_defaults={})

    def test_model_config_rejects_a_run_block_that_fails(self, std_pair):
        target, draft, _ = std_pair
        with pytest.raises(ValueError, match="gamma must be an integer, got 'x'"):
            ModelConfig(target, draft, run_defaults={"gamma": "x"})

    def test_run_keys_are_run_config_fields_and_one_flag_each(self):
        names = {f.name for f in fields(SpecDecodeConfig)}
        assert set(RUN_KEYS) <= names and len(set(RUN_KEYS)) == len(RUN_KEYS)
        subparsers = next(
            a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        for command in ("generate", "check-dist", "sweep"):
            dests = [a.dest for a in subparsers.choices[command]._actions]
            for key in RUN_KEYS:
                assert dests.count(key) == 1, (command, key)


def _set(*keys, value):
    """A document edit: set ``doc[k0][k1]...`` to ``value``."""

    def edit(doc):
        *parents, last = keys
        obj = doc
        for key in parents:
            obj = obj[key]
        obj[last] = value
        return doc

    return edit


def _results_file(**extra):
    """A document edit: wrap the config as a results file's echo."""
    return lambda doc: {"schema_version": 1, "config": doc, "results": [], **extra}


class TestMalformedDocuments:
    """Every JSON object level is checked alike: a malformed document exits 2
    with ``error:`` and the offending path leading the message."""

    CASES = {
        "top-level-misspelt-key": (_set("Tee", value=3), "top level: unknown keys ['Tee']"),
        "top-level-missing-schema": (
            lambda doc: {k: v for k, v in doc.items() if k != "schema_version"},
            "top level: missing key 'schema_version'",
        ),
        "results-misspelt-key": (
            _results_file(reslts=[]), "top level: unknown keys ['reslts']"
        ),
        "results-config-not-object": (
            lambda doc: {"config": 5, "results": []}, "config: expected an object, got int"
        ),
        "results-config-misspelt-key": (
            lambda doc: _results_file()({**doc, "dd": 1}), "config: unknown keys ['dd']"
        ),
        "run-not-object": (_set("run", value=5), "run: expected an object, got int"),
        "run-misspelt-key": (_set("run", "gama", value=2), "run: unknown keys ['gama']"),
        "target-misspelt-key": (
            _set("target", "denoser", value={}), "target: unknown keys ['denoser']"
        ),
        "target-missing-denoiser": (_set("target", value={}), "target: missing key 'denoiser'"),
        "draft-misspelt-key": (
            _set("draft", "backbon", value={}), "draft: unknown keys ['backbon']"
        ),
        "denoiser-misspelt-key": (
            _set("target", "denoiser", "nonlinarity", value="tanh"),
            "target.denoiser: unknown keys ['nonlinarity']",
        ),
        "denoiser-not-object": (
            _set("target", "denoiser", value=[1, 2]),
            "target.denoiser: expected an object, got list",
        ),
        "denoiser-wrong-shape": (
            _set("target", "denoiser", "state_coef", value=[[0.5]] * 5),
            "target.denoiser.state_coef: expected shape (3, 1), got (5, 1)",
        ),
        "backbone-misspelt-key": (
            _set("draft", "backbone", "prefx", value=[0.0]),
            "draft.backbone: unknown keys ['prefx']",
        ),
        "backbone-not-object": (
            _set("draft", "backbone", value="x"), "draft.backbone: expected an object, got str"
        ),
        "backbone-wrong-dim": (
            _set("draft", "backbone", "bias", value=[0.1, 0.2]),
            "draft.backbone.bias: expected shape (1,), got (2,)",
        ),
        "denoiser-numeric-strings": (
            _set("target", "denoiser", "offset", value=[["0.1"], [True], ["1e0"]]),
            "target.denoiser.offset: expected numbers, got '0.1'",
        ),
        "denoiser-json-boolean": (
            _set("target", "denoiser", "offset", value=[[0.1], [True], [1.0]]),
            "target.denoiser.offset: expected numbers, got True",
        ),
        "backbone-numeric-string": (
            _set("draft", "backbone", "bias", value="0.18"),
            "draft.backbone.bias: expected numbers, got '0.18'",
        ),
        "denoiser-zero-variance": (
            _set("target", "denoiser", "variance", 0, value=[0]),
            "target.denoiser: variance must be at least 1e-12",
        ),
        "denoiser-negative-variance": (
            _set("target", "denoiser", "variance", 0, value=[-0.5]),
            "target.denoiser: variance must be at least 1e-12",
        ),
        "denoiser-json-null": (
            _set("target", "denoiser", "offset", value=[[0.1], [None], [1.0]]),
            "target.denoiser.offset: expected numbers, got None",
        ),
        "backbone-json-null": (
            _set("target", "backbone", "bias", value=None),
            "target.backbone.bias: expected numbers, got None",
        ),
        "run-mistyped-value": (
            _set("run", "gamma", value="x"), "run: gamma must be an integer, got 'x'"
        ),
        "results-run-mistyped-value": (
            lambda doc: _results_file()(_set("run", "rho", value=2.0)(doc)),
            "config.run: rho must lie in [0, 1]",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exits_2_naming_the_path(self, case, std_config_path, tmp_path, capsys):
        edit, message = self.CASES[case]
        doc = edit(json.loads(Path(std_config_path).read_text()))
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "x.json"
        assert main(["generate", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not out.exists()


class TestFormulaCommand:
    def test_direct_evaluation(self, capsys):
        assert main(["formula", "0.5", "1", "0"]) == 0
        assert capsys.readouterr().out == "1.500000\n"

    def test_reported_point(self, capsys):
        assert main(["formula", "0.19", "32", "0.38"]) == 0
        out = capsys.readouterr().out.strip()
        assert abs(float(out) - 0.0938) < 1e-4

    def test_zero_alpha(self, capsys):
        assert main(["formula", "0", "4", "0.5"]) == 0
        assert capsys.readouterr().out == "0.333333\n"

    def test_out_of_range_alpha_exits_2(self, capsys):
        assert main(["formula", "1.0", "4", "0.5"]) == 2

    @pytest.mark.parametrize(
        "args, message",
        [
            (["0.5", "0", "0.5"], "gamma must be >= 1"),
            (["0.5", "1", "-1"], "cost_ratio"),
            (["0.5", "1", "nan"], "cost_ratio"),
            (["0.5", "1", "inf"], "cost_ratio"),
        ],
    )
    def test_out_of_range_gamma_or_cost_exits_2(self, args, message, capsys):
        assert main(["formula"] + args) == 2
        assert message in capsys.readouterr().err


class TestConfigTypes:
    """A mistyped config value exits 2 with a message, never a traceback."""

    def _generate(self, doc, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        return main(["generate", "--config", str(path), "--out", str(tmp_path / "x.json")])

    @pytest.mark.parametrize(
        "key, value",
        [
            ("gamma", 2.5),
            ("max_resample_trials", "10"),
            ("length", True),
            ("seed", 1.0),
            ("rho", "0.1"),
            ("temperature", True),
        ],
    )
    def test_mistyped_run_value_exits_2(self, key, value, std_config_path, tmp_path, capsys):
        doc = json.loads(Path(std_config_path).read_text())
        doc["run"][key] = value
        assert self._generate(doc, tmp_path) == 2
        assert capsys.readouterr().err.startswith(f"error: {tmp_path}/cfg.json: run: {key} must be")

    def test_negative_seed_exits_2(self, std_config_path, tmp_path, capsys):
        out = str(tmp_path / "x.json")
        assert main(["generate", "--config", std_config_path, "--seed", "-1", "--out", out]) == 2
        assert "error: seed must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["T", "d"])
    def test_bool_shape_exits_2(self, key, std_config_path, tmp_path, capsys):
        doc = json.loads(Path(std_config_path).read_text())
        doc[key] = True
        assert self._generate(doc, tmp_path) == 2
        assert f"{key}: expected an integer" in capsys.readouterr().err


class TestGenerateCommand:
    def test_byte_identical_reruns(self, tiny_config_path, tmp_path, capsys):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        args = ["generate", "--config", tiny_config_path, "--seed", "42"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_results_echo_reproduces_run(self, tiny_config_path, tmp_path):
        first = tmp_path / "a.json"
        again = tmp_path / "b.json"
        assert main(
            ["generate", "--config", tiny_config_path, "--seed", "9", "--out", str(first)]
        ) == 0
        # feed the results file back as the config
        assert main(
            ["generate", "--config", str(first), "--seed", "9", "--out", str(again)]
        ) == 0
        assert first.read_bytes() == again.read_bytes()

    def test_worker_count_does_not_change_output(self, tiny_config_path, tmp_path):
        outs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}.json"
            assert main(
                [
                    "generate", "--config", tiny_config_path, "--seed", "5",
                    "--replicates", "8", "--jobs", jobs, "--out", str(out),
                ]
            ) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_csv_format_and_header(self, tiny_config_path, tmp_path):
        out = tmp_path / "run.csv"
        assert main(
            [
                "generate", "--config", tiny_config_path, "--seed", "1",
                "--replicates", "2", "--format", "csv", "--out", str(out),
            ]
        ) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(RESULT_CSV_HEADER)
        assert len(lines) == 1 + 2 * 4  # header + one row per position per replicate

    def test_full_prefill_origins(self, tiny_config_path, tmp_path):
        out = tmp_path / "run.json"
        assert main(
            [
                "generate", "--config", tiny_config_path, "--seed", "3",
                "--rho", "1.0", "--out", str(out),
            ]
        ) == 0
        doc = json.loads(out.read_text())
        origins = doc["results"][0]["origins"]
        assert origins == ["prefilled"] * 4

    @pytest.mark.parametrize("flag", ["--steps", "--dim"])
    def test_model_shape_is_not_a_flag(self, flag, tiny_config_path, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert main(["generate", "--config", tiny_config_path, flag, "3", "--out", str(out)]) == 2
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--temp", "1e-170", BELOW_FLOOR.format("1e-170")),
            ("--temp", "1e-7", BELOW_FLOOR.format("1e-07")),
            ("--temp", "1e200", BELOW_FLOOR.format("1e+200")),
            ("--temp", "inf", "temperature must be positive and finite"),
            ("--jobs", "0", "jobs must be >= 1, got 0"),
            ("--jobs", "-3", "jobs must be >= 1, got -3"),
        ],
    )
    def test_bad_temperature_or_jobs_exits_2_before_writing(
        self, flag, value, message, std_config_path, tmp_path, capsys
    ):
        out = tmp_path / "x.json"
        args = ["generate", "--config", std_config_path, "--replicates", "20", "--seed", "7"]
        assert main(args + [flag, value, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_exits_2(self, tmp_path):
        assert main(
            ["generate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x")]
        ) == 2

    def test_divergent_model_exits_3(self, tmp_path):
        doc = {
            "schema_version": 1,
            "T": 2,
            "d": 1,
            "target": {
                "denoiser": {
                    "state_coef": [[1e200], [1e200]],
                    "cond_coef": [[0.0], [0.0]],
                    "offset": [[1e200], [1e200]],
                    "variance": [[1.0], [1.0]],
                },
                "backbone": {"prefix": [0.0], "weight": [0.0], "bias": [0.0]},
            },
            "draft": {
                "denoiser": {
                    "state_coef": [[0.5], [0.5]],
                    "cond_coef": [[0.0], [0.0]],
                    "offset": [[0.0], [0.0]],
                    "variance": [[1.0], [1.0]],
                },
                "backbone": {"prefix": [0.0], "weight": [0.0], "bias": [0.0]},
            },
            "run": {"length": 3, "gamma": 1},
        }
        path = tmp_path / "divergent.json"
        path.write_text(json.dumps(doc))
        with np.errstate(over="ignore"):
            assert main(
                ["generate", "--config", str(path), "--out", str(tmp_path / "x.json")]
            ) == 3


class TestSweepCommand:
    def test_gamma_sweep_rows_and_determinism(self, tiny_config_path, tmp_path):
        out1 = tmp_path / "s1.csv"
        out2 = tmp_path / "s2.csv"
        args = [
            "sweep", "gamma", "1", "2", "3", "--config", tiny_config_path,
            "--replicates", "4", "--seed", "2",
        ]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[0] == ",".join(SWEEP_CSV_HEADER)
        assert len(lines) == 4

    def test_prefill_axis_matches_requested_values(self, tiny_config_path, tmp_path):
        out = tmp_path / "p.csv"
        assert main(
            [
                "sweep", "prefill", "0", "0.05", "0.15", "--config", tiny_config_path,
                "--replicates", "2", "--out", str(out),
            ]
        ) == 0
        values = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
        assert values == ["0.0", "0.05", "0.15"]

    def test_unknown_kind_exits_2(self, tiny_config_path, tmp_path):
        assert main(
            ["sweep", "nope", "1", "--config", tiny_config_path, "--out", str(tmp_path / "x")]
        ) == 2

    def test_bad_axis_value_exits_2(self, tiny_config_path, tmp_path):
        assert main(
            [
                "sweep", "prefill", "1.5", "--config", tiny_config_path,
                "--out", str(tmp_path / "x"),
            ]
        ) == 2

    @pytest.mark.parametrize(
        "kind, value, message",
        [
            ("temperature", "0", "temperature must be positive"),
            ("gamma", "0", "gamma must be >= 1"),
            ("gamma", "2.5", "axis values for gamma"),
        ],
    )
    def test_axis_checked_by_the_run_config_exits_2(
        self, kind, value, message, tiny_config_path, tmp_path, capsys
    ):
        out = tmp_path / "x"
        assert main(
            ["sweep", kind, "1", value, "--config", tiny_config_path, "--out", str(out)]
        ) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_json_format_carries_per_position_curve(self, tiny_config_path, tmp_path):
        out = tmp_path / "s.json"
        assert main(
            [
                "sweep", "gamma", "1", "2", "--config", tiny_config_path,
                "--replicates", "3", "--format", "json", "--out", str(out),
            ]
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["axis"] == "gamma"
        assert len(doc["points"]) == 2
        assert "per_position_alpha" in doc["points"][0]


class TestByteStability:
    """Output digests of the shipped pairs, pinned so that a refactor cannot
    silently change a results file.  A deliberate change to the sampled
    values (a new RNG, say) updates these digests and says so in CHANGES.md.
    """

    COMMON = ["--seed", "7", "--replicates", "20"]
    # "sweep" is the gamma sweep; it keeps that key from before the other axes.
    ARGS = {
        "generate": ["generate"],
        "sweep": ["sweep", "gamma", "1", "2", "3"],
        "sweep-prefill": ["sweep", "prefill", "0", "0.05", "0.15"],
        "sweep-temperature": ["sweep", "temperature", "0.7", "1.0", "1.3"],
    }
    DIGESTS = {
        ("generate", "standard_pair", "json"):
            "fd2c003f464ae2fe22b61f97da812ac801e71715b2f2da99fb4eaa4da8792efe",
        ("generate", "standard_pair", "csv"):
            "3253975c6a94bf7d9e1d0b485602daf9eab67af8e2ea435c78b6c4bebd5988e2",
        ("generate", "prefix_divergent_pair", "json"):
            "6d0bfe39e49bf147f79841626317c669c2fd2c44865f3c0dd192cf4d9b9412db",
        ("generate", "prefix_divergent_pair", "csv"):
            "c2f1f79b067183d51fd3a693bf187d1291dd9baaf7f8915139e6070d00e9f4b3",
        ("sweep", "standard_pair", "json"):
            "99a319b52614e2e09bc4cfc1c4870f32104b475fc7e55617323cf948828b17e8",
        ("sweep", "standard_pair", "csv"):
            "4d6322ca0adbca6c5c3f3b2b4b436cd4a1396df2a2ef6756fe343cd42ed21819",
        ("sweep-prefill", "standard_pair", "json"):
            "43bb1760be5090fea4d32116426221960f9a85876181b348c8ce0ca83f1b3688",
        ("sweep-prefill", "standard_pair", "csv"):
            "a06686a4bc80b9c7ab4d4f7c00c15ad3eadcc74b9e9fe9191523fbc3e6724b86",
        ("sweep-temperature", "standard_pair", "json"):
            "24561225bd2fe6b78932459f5b51383d9083341791a523871e6403693bfed123",
        ("sweep-temperature", "standard_pair", "csv"):
            "d153524d4523b17cb7d5415c48855501d7196aa39f356413bfa0b1b84ef02db9",
    }

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("command, scenario, fmt", sorted(DIGESTS))
    def test_output_digest(self, command, scenario, fmt, jobs, tmp_path):
        out = tmp_path / f"out.{fmt}"
        assert main(
            self.ARGS[command]
            + ["--config", str(scenario_path(scenario)), "--format", fmt, "--jobs", jobs]
            + self.COMMON + ["--out", str(out)]
        ) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == self.DIGESTS[(command, scenario, fmt)]


    # A d = 3 pair with tanh backbones and tanh denoisers, so that a mix-up of
    # rows and columns, which the d = 1 digests above cannot show, changes the
    # output.  Its tail variances are shared; the final ones differ.
    D3_PAIR = {
        "schema_version": 1, "T": 3, "d": 3,
        "run": {"gamma": 3, "length": 5, "rho": 0.2, "temperature": 1.0,
                "max_resample_trials": 10000, "seed": 0},
        "target": {
            "backbone": {"prefix": [0.25, -0.4, 0.1], "weight": [0.55, -0.3, 0.8],
                         "bias": [0.1, 0.0, -0.2], "nonlinearity": "tanh"},
            "denoiser": {
                "state_coef": [[0.9, -0.5, 0.3], [0.55, 0.7, -0.4], [0.35, 0.2, 0.6]],
                "cond_coef": [[0.5, 0.4, -0.6], [0.35, -0.2, 0.5], [0.6, 0.9, 0.25]],
                "offset": [[0.0, 0.2, -0.1], [0.1, -0.3, 0.0], [0.05, 0.15, -0.25]],
                "variance": [[0.7, 0.5, 0.9], [0.4, 0.6, 0.3], [0.2, 0.35, 0.25]],
                "nonlinearity": "tanh"},
        },
        "draft": {
            "backbone": {"prefix": [-0.15, -0.2, 0.3], "weight": [0.45, -0.1, 0.7],
                         "bias": [0.18, 0.05, -0.1], "nonlinearity": "tanh"},
            "denoiser": {
                "state_coef": [[0.75, -0.4, 0.2], [0.6, 0.5, -0.3], [0.45, 0.1, 0.5]],
                "cond_coef": [[0.4, 0.5, -0.5], [0.3, -0.1, 0.6], [0.5, 0.8, 0.3]],
                "offset": [[0.1, 0.1, 0.0], [0.0, -0.2, 0.1], [0.18, 0.05, -0.2]],
                "variance": [[0.7, 0.5, 0.9], [0.4, 0.6, 0.3], [0.3, 0.25, 0.3]],
                "nonlinearity": "tanh"},
        },
    }
    D3_DIGEST = "acb9945abf6adcc1e66bb8140fd8aa1160ef6716c3aee59884faab34ffa79bc2"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_d3_tanh_pair_output_digest(self, jobs, tmp_path):
        config = tmp_path / "d3.json"
        config.write_text(json.dumps(self.D3_PAIR))
        out = tmp_path / "out.json"
        assert main(
            ["generate", "--config", str(config), "--format", "json", "--jobs", jobs]
            + self.COMMON + ["--out", str(out)]
        ) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.D3_DIGEST


class TestCheckDistCommand:
    def test_rejects_too_few_runs(self, tiny_config_path):
        assert main(
            ["check-dist", "--config", tiny_config_path, "--replicates", "100"]
        ) == 2

    def test_significance_outside_unit_interval_exits_2_before_any_run(
        self, tiny_config_path, monkeypatch, capsys
    ):
        runs = []
        monkeypatch.setattr(oracle, "speculative_token_matrix", lambda *a, **k: runs.append(a))
        assert main(
            ["check-dist", "--config", tiny_config_path, "--replicates", "1000",
             "--significance", "1.5"]
        ) == 2
        assert "error: significance must lie in (0, 1)" in capsys.readouterr().err
        assert runs == []

    def test_passes_on_identity_and_prints_per_position(self, tmp_path, capsys):
        # draft == target passes trivially
        target, _, config = standard_pair()
        mc = ModelConfig(
            target=target, draft=target,
            run_defaults={"gamma": 2, "length": 3, "seed": 1},
        )
        path = tmp_path / "same.json"
        save_model_config(mc, path)
        code = main(
            ["check-dist", "--config", str(path), "--replicates", "1000", "--jobs", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("position ") == 3
        assert "overall: PASS" in out

    def test_deterministic_stdout(self, tmp_path, capsys):
        target, draft, config = standard_pair()
        mc = ModelConfig(
            target=target, draft=draft,
            run_defaults={"gamma": 2, "length": 3, "seed": 4},
        )
        path = tmp_path / "std.json"
        save_model_config(mc, path)
        args = ["check-dist", "--config", str(path), "--replicates", "1000"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second

    def test_failing_position_exits_1(self, tiny_config_path, monkeypatch, capsys):
        failing = DistCheckResult(runs=1000, significance=0.01, tests=(
            PositionKS(position=0, coordinate=0, statistic=0.01, pvalue=0.9, critical=0.07),
            PositionKS(position=1, coordinate=0, statistic=0.2, pvalue=1e-9, critical=0.07),
        ))
        monkeypatch.setattr(cli, "distribution_check", lambda *args, **kwargs: failing)
        code = main(["check-dist", "--config", tiny_config_path, "--replicates", "1000"])
        out = capsys.readouterr().out
        assert code == 1
        assert "position 1: ks=0.200000 crit=0.070000 p=0.0000 FAIL" in out
        assert "overall: FAIL" in out
