"""Command-line interface: subcommands, artifacts, exit codes, determinism."""

import json
from pathlib import Path

import pytest

from mutsel.cli import main


def run(argv):
    return main(argv)


@pytest.fixture()
def outdir(tmp_path):
    return tmp_path / "out"


class TestSpectrumCommand:
    def test_fig1_lambda_bracket(self, outdir, capsys):
        assert run([
            "spectrum", "--preset", "fig1", "--epsilon", "1e-2",
            "--output-dir", str(outdir),
        ]) == 0
        lines = (outdir / "spectrum.csv").read_text().splitlines()
        assert lines[0].startswith("# schema=mutsel.spectrum.v")
        row = lines[2].split(",")
        assert 3.7 < float(row[1]) < 4.0

    def test_fig2_host2_below_one(self, outdir):
        assert run([
            "spectrum", "--preset", "fig2", "--host", "2", "--epsilon", "1e-2",
            "--output-dir", str(outdir),
        ]) == 0
        row = (outdir / "spectrum.csv").read_text().splitlines()[2].split(",")
        assert float(row[1]) < 1.0

    def test_missing_model_is_usage_error(self, outdir):
        with pytest.raises(SystemExit) as exc:
            run(["spectrum", "--epsilon", "1e-2", "--output-dir", str(outdir)])
        assert exc.value.code == 2

    def test_missing_epsilon_is_usage_error(self, outdir):
        with pytest.raises(SystemExit) as exc:
            run(["spectrum", "--preset", "fig1", "--output-dir", str(outdir)])
        assert exc.value.code == 2

    def test_manifest_written(self, outdir):
        run([
            "spectrum", "--preset", "fig1", "--epsilon", "5e-2", "--n", "512",
            "--output-dir", str(outdir),
        ])
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["schema_version"] == 1
        assert manifest["model"] == {"preset": "fig1"}
        assert manifest["options"]["n"] == 512
        assert manifest["options"]["epsilon"] == [0.05]


class TestEquilibriumCommand:
    def test_fig1_masses(self, outdir):
        assert run([
            "equilibrium", "--preset", "fig1", "--epsilon", "1e-2",
            "--output-dir", str(outdir),
        ]) == 0
        diag = json.loads((outdir / "equilibrium.json").read_text())
        assert diag["classification"] == "endemic"
        assert abs(diag["masses"]["A"] - 0.625) / 0.625 < 0.1
        assert (outdir / "equilibrium_fields.csv").exists()

    def test_scale_beta_extinction(self, outdir):
        assert run([
            "equilibrium", "--preset", "fig1", "--epsilon", "1e-2",
            "--scale-beta", "0.1", "--output-dir", str(outdir),
        ]) == 0
        diag = json.loads((outdir / "equilibrium.json").read_text())
        assert diag["classification"] == "disease_free"

    def test_multistart_spread_reported(self, outdir):
        assert run([
            "equilibrium", "--preset", "fig1", "--epsilon", "2e-2",
            "--starts", "3", "--seed", "7", "--output-dir", str(outdir),
        ]) == 0
        diag = json.loads((outdir / "equilibrium.json").read_text())
        assert diag["multistart_spread"] < 1e-6

    def test_determinism(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run([
                "equilibrium", "--preset", "fig1", "--epsilon", "2e-2",
                "--starts", "2", "--seed", "3", "--output-dir", str(out),
            ])
            outs.append((out / "equilibrium.json").read_text())
        assert outs[0] == outs[1]

    def test_stability_flag(self, outdir):
        assert run([
            "equilibrium", "--preset", "fig2", "--epsilon", "2e-2",
            "--stability", "--output-dir", str(outdir),
        ]) == 0
        diag = json.loads((outdir / "equilibrium.json").read_text())
        assert diag["stability"]["stable"] is True


class TestSweepCommand:
    def test_small_sweep_tables(self, outdir):
        assert run([
            "sweep", "--preset", "fig1", "--epsilon", "5e-2", "--epsilon", "2e-2",
            "--tol", "1e-9", "--output-dir", str(outdir),
        ]) == 0
        conc = (outdir / "concentration.csv").read_text().splitlines()
        sup = (outdir / "superposition.csv").read_text().splitlines()
        assert len(conc) == 4 and len(sup) == 4
        targets = json.loads((outdir / "targets.json").read_text())
        assert targets["S1"] == pytest.approx(0.125, rel=1e-3)

    def test_parallel_jobs_same_result(self, tmp_path):
        texts = []
        for jobs, name in (("1", "serial"), ("2", "parallel")):
            out = tmp_path / name
            run([
                "sweep", "--preset", "fig1", "--epsilon", "5e-2", "--epsilon", "2e-2",
                "--tol", "1e-9", "--jobs", jobs, "--output-dir", str(out),
            ])
            texts.append((out / "concentration.csv").read_text())
        assert texts[0] == texts[1]

    def test_negative_epsilon_usage_error(self, outdir):
        with pytest.raises(SystemExit) as exc:
            run(["sweep", "--preset", "fig1", "--epsilon", "-1", "--output-dir", str(outdir)])
        assert exc.value.code == 2


class TestDynamicsCommand:
    def test_short_run(self, outdir):
        assert run([
            "dynamics", "--preset", "fig1", "--epsilon", "2e-2",
            "--t-end", "40", "--dt", "0.02", "--output-dir", str(outdir),
        ]) == 0
        summary = json.loads((outdir / "dynamics_summary.json").read_text())
        assert summary["clip_events"] == 0
        assert (outdir / "trajectory.csv").exists()

    def test_euler_dt_precheck(self, outdir):
        with pytest.raises(SystemExit) as exc:
            run([
                "dynamics", "--preset", "fig1", "--epsilon", "2e-2",
                "--method", "euler", "--dt", "1.0", "--output-dir", str(outdir),
            ])
        assert exc.value.code == 2


class TestStabilityCommand:
    def test_fig1_stable(self, outdir):
        assert run([
            "stability", "--preset", "fig1", "--epsilon", "2e-2",
            "--output-dir", str(outdir),
        ]) == 0
        rep = json.loads((outdir / "stability.json").read_text())
        assert rep["stable"] is True
        assert rep["spectral_radius"] < 1.0


class TestConfigFile:
    def test_json_model(self, tmp_path, outdir):
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({
            "lambda": 1.0, "theta": 1.0, "delta": 1.0,
            "hosts": [
                {"xi": 0.5, "beta": "200*pos((x-0.2)*(0.6-x))",
                 "beta_support": [0.2, 0.6]},
                {"xi": 0.5, "beta": "400*pos((x-0.7)*(0.9-x))",
                 "beta_support": [0.7, 0.9]},
            ],
        }))
        assert run([
            "spectrum", "--config", str(cfg), "--epsilon", "2e-2",
            "--output-dir", str(outdir),
        ]) == 0
        row = (outdir / "spectrum.csv").read_text().splitlines()[2].split(",")
        assert 3.5 < float(row[1]) < 4.0

    def test_preset_and_config_conflict(self, tmp_path, outdir):
        cfg = tmp_path / "model.json"
        cfg.write_text("{}")
        with pytest.raises(SystemExit) as exc:
            run([
                "spectrum", "--preset", "fig1", "--config", str(cfg),
                "--epsilon", "1e-2", "--output-dir", str(outdir),
            ])
        assert exc.value.code == 2


def _status(argv):
    """Exit status of a CLI run, whether it returns or raises SystemExit."""
    try:
        return run(argv)
    except SystemExit as exc:
        return exc.code


def _config(tmp_path, **host1):
    hosts = [
        {"xi": 0.5, "beta": "200*pos((x-0.2)*(0.6-x))", "beta_support": [0.2, 0.6]},
        {"xi": 0.5, "beta": "400*pos((x-0.7)*(0.9-x))", "beta_support": [0.7, 0.9]},
    ]
    hosts[0].update(host1)
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"lambda": 1.0, "theta": 1.0, "delta": 1.0, "hosts": hosts}))
    return ["--config", str(path)]


MALFORMED = {
    "too few nodes": lambda tmp: ["spectrum", "--preset", "fig1", "--epsilon", "5e-2",
                                  "--n", "8"],
    "nan epsilon": lambda tmp: ["spectrum", "--preset", "fig1", "--epsilon", "nan"],
    "nan epsilon in sweep": lambda tmp: ["sweep", "--preset", "fig1", "--epsilon", "nan"],
    "non-numeric xi": lambda tmp: ["spectrum", *_config(tmp, xi="abc"), "--epsilon", "5e-2"],
    "one-point beta support": lambda tmp: ["spectrum", *_config(tmp, beta_support=[0.2]),
                                           "--epsilon", "5e-2"],
    "trait syntax error": lambda tmp: ["spectrum", *_config(tmp, beta="200*(x-"),
                                       "--epsilon", "5e-2"],
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_usage_error(case, tmp_path, capsys):
    argv = MALFORMED[case](tmp_path) + ["--output-dir", str(tmp_path / "out")]
    assert _status(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("command", [["stability"], ["equilibrium", "--stability"]])
def test_dense_stability_limit_is_usage_error(command, outdir, capsys):
    argv = [*command, "--preset", "fig1", "--epsilon", "5e-2", "--n", "4097",
            "--output-dir", str(outdir)]
    assert _status(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "4096" in err
