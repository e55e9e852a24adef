import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from cspdec.cli import main
from cspdec.configio import (
    ConfigError,
    ModelConfig,
    RESULT_CSV_HEADER,
    SWEEP_CSV_HEADER,
    config_from_dict,
    config_to_dict,
    load_model_config,
    save_model_config,
)
from cspdec.scenarios import scenario_path, standard_pair


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
        steps=config.steps,
        dim=config.dim,
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
        [(["0.5", "0", "0.5"], "gamma must be >= 1"), (["0.5", "1", "-1"], "cost_ratio")],
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
        assert f"error: {key} must be" in capsys.readouterr().err

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

    def test_steps_assertion_mismatch_exits_2(self, tiny_config_path, tmp_path):
        assert main(
            [
                "generate", "--config", tiny_config_path, "--steps", "5",
                "--out", str(tmp_path / "x.json"),
            ]
        ) == 2

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


class TestCheckDistCommand:
    def test_rejects_too_few_runs(self, tiny_config_path):
        assert main(
            ["check-dist", "--config", tiny_config_path, "--replicates", "100"]
        ) == 2

    def test_passes_on_identity_and_prints_per_position(self, tmp_path, capsys):
        # draft == target passes trivially
        target, _, config = standard_pair()
        mc = ModelConfig(
            target=target, draft=target, steps=config.steps, dim=config.dim,
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
            target=target, draft=draft, steps=config.steps, dim=config.dim,
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
