"""Command-line interface: subcommands, artifacts, exit codes, determinism."""

import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

import mutsel
from mutsel import cli
from mutsel import dynamics as dyn
from mutsel import equilibrium as eq
from mutsel import spectral as spec
from mutsel import stability as stab
from mutsel.cli import main
from mutsel.model import build_problem, preset
from mutsel.spectral import solve_host_spectrum


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

    def test_gap_sweep(self, outdir):
        assert run([
            "spectrum", "--preset", "fig1", "--host", "1", "--n", "512",
            "--epsilon", "0.1", "--epsilon", "0.05", "--epsilon", "0.02",
            "--output-dir", str(outdir),
        ]) == 0
        rows = (outdir / "spectrum.csv").read_text().splitlines()[2:]
        assert len(rows) == 3 and all(float(r.split(",")[3]) > 0 for r in rows)
        summary = json.loads((outdir / "spectrum_summary.json").read_text())
        assert math.isfinite(summary["gap_exponent"])
        assert summary["degenerate"] is False
        assert summary["assumption_warnings"] == []

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
        assert set(manifest["versions"]) == {"mutsel", "numpy", "scipy", "python"}


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
        assert diag["assumption_warnings"] == []

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
        assert len(diag["stability"]["eigenvalues"]) == 20
        assert 0.0 < diag["stability"]["error_bound"] < 1e-8
        assert isinstance(diag["restarts"], int) and diag["restarts"] >= 0


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
        assert targets["assumption_warnings"] == []

    def test_jobs_fork_no_more_workers_than_entries(self, outdir, monkeypatch):
        sizes = []

        class SerialPool:
            """Records the pool size it is asked for and maps in this process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, payloads):
                return map(fn, payloads)

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", SerialPool)
        assert run([
            "sweep", "--preset", "fig1", "--epsilon", "5e-2", "--epsilon", "2e-2",
            "--jobs", "64", "--output-dir", str(outdir),
        ]) == 0
        assert sizes == [2]

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

    def test_extrapolated_targets(self, tmp_path):
        out = tmp_path / "three"
        assert run([
            "sweep", "--preset", "fig1", "--epsilon", "2e-2", "--epsilon", "1e-1",
            "--epsilon", "5e-2", "--output-dir", str(out),
        ]) == 0
        lines = (out / "concentration.csv").read_text().splitlines()
        header = lines[1].split(",")
        coarse, fine = (dict(zip(header, line.split(","))) for line in lines[-2:])
        assert (float(coarse["epsilon"]), float(fine["epsilon"])) == (0.05, 0.02)
        f = 0.05 / 0.02
        extrapolated = json.loads((out / "targets.json").read_text())["extrapolated"]
        for name in ("S1", "S2", "I1_mass", "I2_mass", "A_mass", "A_first_moment"):
            expected = (f * float(fine[name]) - float(coarse[name])) / (f - 1.0)
            assert extrapolated[name] == pytest.approx(expected, rel=1e-12)
        assert extrapolated["A_argmax"] == float(fine["A_argmax"])
        # one width: nothing to extrapolate from
        out = tmp_path / "one"
        assert run(["sweep", "--preset", "fig1", "--epsilon", "5e-2",
                    "--output-dir", str(out)]) == 0
        assert "extrapolated" not in json.loads((out / "targets.json").read_text())

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
        assert summary["assumption_warnings"] == []
        # dop853 by default: one start derivative, then 12 stages per attempted step
        assert summary["method"] == "dop853"
        attempts = summary["steps"] + summary["rejected_steps"]
        assert summary["rhs_evals"] == 1 + 12 * attempts

    def test_rhs_budget_exceeded_exits_1(self, outdir, monkeypatch, capsys):
        monkeypatch.setattr(dyn, "MAX_RHS_EVALS", 50)
        assert run([
            "dynamics", "--preset", "fig1", "--epsilon", "5e-2",
            "--t-end", "5", "--dt", "0.5", "--output-dir", str(outdir),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "budget" in err

    @pytest.mark.parametrize("method", ["dopri5", "euler"])
    def test_dopri5_is_no_method(self, outdir, method):
        with pytest.raises(SystemExit) as exc:
            run([
                "dynamics", "--preset", "fig1", "--epsilon", "2e-2",
                "--method", method, "--output-dir", str(outdir),
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
        assert 0.0 < rep["error_bound"] < 1e-8
        assert rep["assumption_warnings"] == []

    def test_fig3_lists_overlapping_supports(self, outdir):
        assert run([
            "stability", "--preset", "fig3", "--epsilon", "2.5e-3",
            "--output-dir", str(outdir),
        ]) == 0
        rep = json.loads((outdir / "stability.json").read_text())
        assert any("overlapping supports" in w for w in rep["assumption_warnings"])


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

    @pytest.mark.parametrize("name, betas", [
        ("fig1", [("200*pos((x-0.2)*(0.6-x))", [0.2, 0.6]),
                  ("400*pos((x-0.7)*(0.9-x))", [0.7, 0.9])]),
        ("fig2", [("200*pos((x-0.2)*(0.6-x))", [0.2, 0.6]),
                  ("150*pos((x-0.7)*(0.9-x))", [0.7, 0.9])]),
        ("fig3", [("200*pos((x-0.3)*(0.7-x))", [0.3, 0.7]),
                  ("400*pos((x-0.6)*(0.8-x))", [0.6, 0.8])]),
    ])
    def test_preset_is_its_document(self, name, betas, tmp_path):
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({
            "lambda": 1.0, "theta": 1.0, "delta": 1.0,
            "hosts": [{"xi": 0.5, "beta": b, "beta_support": s} for b, s in betas],
        }))
        for source, out in ((["--config", str(cfg)], "config"), (["--preset", name], "preset")):
            assert run(["equilibrium", *source, "--epsilon", "5e-2",
                        "--output-dir", str(tmp_path / out)]) == 0
        for artifact in ("equilibrium.json", "equilibrium_fields.csv"):
            assert ((tmp_path / "config" / artifact).read_bytes()
                    == (tmp_path / "preset" / artifact).read_bytes()), artifact

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


def _config_file(tmp_path, data: bytes):
    path = tmp_path / "model.json"
    path.write_bytes(data)
    return ["--config", str(path)]


def _file_parent(tmp_path):
    (tmp_path / "file").write_text("")
    return ["--output-dir", str(tmp_path / "file" / "out")]


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
    # names inside a lambda are not among the expression's own names
    "trait lambda": lambda tmp: [
        "spectrum", "--epsilon", "5e-2", *_config(
            tmp, beta="(lambda: ().__class__.__base__.__subclasses__())() "
                      "and 200*pos((x-0.2)*(0.6-x))")],
    "trait division by zero": lambda tmp: ["spectrum", *_config(tmp, beta="1/0"),
                                           "--epsilon", "5e-2"],
    "trait type error": lambda tmp: ["spectrum", *_config(tmp, beta="x + 'a'"),
                                     "--epsilon", "5e-2"],
    "infinite trait": lambda tmp: ["spectrum", *_config(tmp, beta="1e308*10 + x"),
                                   "--epsilon", "5e-2"],
    "nan dt": lambda tmp: ["dynamics", "--preset", "fig1", "--epsilon", "5e-2",
                           "--dt", "nan"],
    "infinite t-end": lambda tmp: ["dynamics", "--preset", "fig1", "--epsilon", "5e-2",
                                   "--t-end", "inf"],
    "negative t-end": lambda tmp: ["dynamics", "--preset", "fig1", "--epsilon", "5e-2",
                                   "--t-end", "-5"],
    "zero sample-every": lambda tmp: ["dynamics", "--preset", "fig1", "--epsilon", "5e-2",
                                      "--sample-every", "0"],
    "negative tol": lambda tmp: ["equilibrium", "--preset", "fig1", "--epsilon", "5e-2",
                                 "--tol", "-1"],
    "nan tol": lambda tmp: ["equilibrium", "--preset", "fig1", "--epsilon", "5e-2",
                            "--tol", "nan"],
    "subnormal dt": lambda tmp: ["dynamics", "--preset", "fig1", "--epsilon", "5e-2",
                                 "--dt", "5e-324"],
    "too many steps": lambda tmp: ["dynamics", "--preset", "fig1", "--epsilon", "5e-2",
                                   "--dt", "1e-300"],
    # round(t_end/dt) = 0: nothing would be integrated
    "zero steps": lambda tmp: ["dynamics", "--preset", "fig1", "--epsilon", "5e-2",
                               "--t-end", "1", "--dt", "3"],
    "negative seed": lambda tmp: ["equilibrium", "--preset", "fig1", "--epsilon", "5e-2",
                                  "--seed", "-1"],
    "two widths for equilibrium": lambda tmp: ["equilibrium", "--preset", "fig1",
                                               "--epsilon", "5e-2", "--epsilon", "2e-2"],
    "two widths for dynamics": lambda tmp: ["dynamics", "--preset", "fig1",
                                            "--epsilon", "5e-2", "--epsilon", "2e-2"],
    "two widths for stability": lambda tmp: ["stability", "--preset", "fig1",
                                             "--epsilon", "5e-2", "--epsilon", "2e-2"],
    "repeated epsilon in sweep": lambda tmp: ["sweep", "--preset", "fig1",
                                              "--epsilon", "5e-2", "--epsilon", "5e-2"],
    "repeated epsilon in spectrum": lambda tmp: ["spectrum", "--preset", "fig1",
                                                 "--epsilon", "5e-2", "--epsilon", "5e-2"],
    "infinite scale-beta": lambda tmp: ["equilibrium", "--preset", "fig1", "--epsilon", "5e-2",
                                        "--scale-beta", "inf"],
    "nan scale-beta": lambda tmp: ["equilibrium", "--preset", "fig1", "--epsilon", "5e-2",
                                   "--scale-beta", "nan"],
    "negative starts": lambda tmp: ["equilibrium", "--preset", "fig1", "--epsilon", "5e-2",
                                    "--starts", "-3"],
    "negative jobs": lambda tmp: ["spectrum", "--preset", "fig1", "--epsilon", "5e-2",
                                  "--jobs", "-4"],
    "config is a directory": lambda tmp: ["spectrum", "--config", str(tmp),
                                          "--epsilon", "5e-2"],
    "non-UTF-8 config": lambda tmp: ["spectrum", *_config_file(tmp, b"{\xff\xfe}"),
                                     "--epsilon", "5e-2"],
    "config without hosts": lambda tmp: ["spectrum", *_config_file(tmp, b'{"lambda": 1}'),
                                         "--epsilon", "5e-2"],
    # windows whose length overflows to inf, and a width whose node count does
    "infinite window": lambda tmp: ["spectrum", "--preset", "fig1", "--epsilon", "1e307"],
    "infinite window with n": lambda tmp: ["spectrum", "--preset", "fig1",
                                           "--epsilon", "1e307", "--n", "100"],
    "infinite beta support": lambda tmp: ["spectrum", *_config(tmp, beta_support=[-1e308, 1e308]),
                                          "--epsilon", "5e-2"],
    "subnormal epsilon": lambda tmp: ["spectrum", "--preset", "fig1", "--epsilon", "1e-320"],
    "output dir under a file": lambda tmp: ["spectrum", "--preset", "fig1", "--epsilon", "5e-2",
                                            *_file_parent(tmp)],
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_usage_error(case, tmp_path, capsys):
    argv = MALFORMED[case](tmp_path)
    if "--output-dir" not in argv:
        argv += ["--output-dir", str(tmp_path / "out")]
    assert _status(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_config_error_names_path_and_key(tmp_path, capsys):
    argv = ["spectrum", *_config_file(tmp_path, b'{"lambda": 1}'), "--epsilon", "5e-2",
            "--output-dir", str(tmp_path / "out")]
    assert _status(argv) == 2
    err = capsys.readouterr().err
    assert str(tmp_path / "model.json") in err and "'hosts'" in err


@pytest.mark.parametrize("scale", ["inf", "nan"])
def test_non_finite_scale_beta_names_the_option(scale, tmp_path, capsys):
    argv = ["equilibrium", "--preset", "fig1", "--epsilon", "5e-2", "--scale-beta", scale,
            "--output-dir", str(tmp_path / "out")]
    assert _status(argv) == 2
    assert "--scale-beta" in capsys.readouterr().err


def test_non_integer_jobs_env_is_usage_error(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("MUTSEL_JOBS", "abc")
    argv = ["spectrum", "--preset", "fig1", "--epsilon", "5e-2",
            "--output-dir", str(tmp_path / "out")]
    assert _status(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "MUTSEL_JOBS" in err


def test_stability_on_fine_grid(outdir):
    # n = 8193: the matrix-free eigensolve has no grid-size limit
    assert run(["stability", "--preset", "fig1", "--epsilon", "1e-3",
                "--output-dir", str(outdir)]) == 0
    rep = json.loads((outdir / "stability.json").read_text())
    assert len(rep["eigenvalues"]) == 20
    host1 = solve_host_spectrum(build_problem(preset("fig1"), 1e-3), 1, tol=1e-12,
                                with_second=True)
    assert rep["spectral_radius"] == pytest.approx(host1.lambda2 / host1.lambda1, abs=1e-9)


UNCONVERGED = {
    "equilibrium": ["equilibrium"],
    "stability": ["stability"],
    "dynamics": ["dynamics", "--t-end", "1", "--dt", "0.02"],
}


@pytest.mark.parametrize("command", sorted(UNCONVERGED))
def test_unconverged_solve_exits_1(command, monkeypatch, outdir, capsys):
    monkeypatch.setattr(eq, "DEFAULT_MAX_ITER", 3)
    argv = [*UNCONVERGED[command], "--preset", "fig1", "--epsilon", "5e-2",
            "--output-dir", str(outdir)]
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    lines = (outdir / "residual_history.csv").read_text().splitlines()
    assert lines[1] == "start,iteration,residual"
    assert [line.split(",")[:2] for line in lines[2:]] == [["0", "1"], ["0", "2"], ["0", "3"]]
    assert run([*argv, "--allow-partial"]) == 0


def test_unconverged_later_start_exits_1(monkeypatch, outdir):
    solve = eq.solve_coupled

    def random_starts_fail(problem, *, start=None, tol):
        if start is not None:
            monkeypatch.setattr(eq, "DEFAULT_MAX_ITER", 3)
        return solve(problem, start=start, tol=tol)

    monkeypatch.setattr(eq, "solve_coupled", random_starts_fail)
    assert run(["equilibrium", "--preset", "fig1", "--epsilon", "5e-2", "--starts", "2",
                "--output-dir", str(outdir)]) == 1
    lines = (outdir / "residual_history.csv").read_text().splitlines()
    assert {line.split(",")[0] for line in lines[2:]} == {"1"}


def test_arnoldi_failure_exits_1(monkeypatch, outdir, capsys):
    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.array([]), np.array([]))

    monkeypatch.setattr(stab, "eigs", no_convergence)
    assert run(["stability", "--preset", "fig1", "--epsilon", "5e-2",
                "--output-dir", str(outdir)]) == 1
    assert capsys.readouterr().err.startswith("error: Arnoldi")


SPECTRAL_FAILURE = {"equilibrium": "equilibrium.json", "sweep": "targets.json"}


@pytest.mark.parametrize("command", sorted(SPECTRAL_FAILURE))
def test_lanczos_failure_exits_1(command, monkeypatch, outdir, capsys):
    # with nothing converged the Rayleigh-quotient fallback reads about 0.7
    # at fig1, which would classify the endemic state as disease-free
    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.array([]), np.array([]))

    monkeypatch.setattr(spec, "eigsh", no_convergence)
    assert run([command, "--preset", "fig1", "--epsilon", "5e-2",
                "--output-dir", str(outdir)]) == 1
    assert capsys.readouterr().err.startswith("error: combined spectral radius")
    assert not (outdir / SPECTRAL_FAILURE[command]).exists()


def test_unconverged_host_spectrum_exits_1(monkeypatch, outdir, capsys):
    solve = spec.solve_host_spectrum

    def unconverged(*args, **kwargs):
        res = solve(*args, **kwargs)
        res.converged = False
        return res

    monkeypatch.setattr(spec, "solve_host_spectrum", unconverged)
    assert run(["equilibrium", "--preset", "fig1", "--epsilon", "5e-2",
                "--output-dir", str(outdir)]) == 1
    assert capsys.readouterr().err.startswith("error: host 1 spectrum")
    assert not (outdir / "equilibrium.json").exists()


# dotted names under mutsel that the benchmark's span tracer looks up: after a
# rename its layer metrics would silently read zero
TRACED_NAMES = (
    "operators.ConvolutionEngine.convolve_values",
    "operators.UpdateMap.apply_values",
    "equilibrium.solve_coupled",
    "equilibrium.solve_uncoupled",
    "equilibrium.reconstruct",
    "spectral.principal_eigenpair",
    "spectral.symmetric_spectrum",
    "stability.stability_report",
    "dynamics.integrate",
    "dynamics._System.rhs",
    "model.build_problem",
    "cli.write_csv",
    "cli.write_json",
)


# every subcommand's options: a new one is a visible edit here
COMMON_OPTIONS = {"preset", "config", "epsilon", "n", "tol", "scale_beta", "jobs",
                  "allow_partial", "output_dir"}
CLI_SURFACE = {
    "spectrum": COMMON_OPTIONS | {"host"},
    "equilibrium": COMMON_OPTIONS | {"starts", "seed", "stability"},
    "sweep": COMMON_OPTIONS,
    "dynamics": COMMON_OPTIONS | {"t_end", "dt", "method", "bump", "sample_every"},
    "stability": COMMON_OPTIONS,
}


def _option_dests() -> dict[str, set[str]]:
    """Each subcommand's option dests, read from the parser."""
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    return {name: {a.dest for a in p._actions if a.option_strings and a.dest != "help"}
            for name, p in sub.choices.items()}


def test_cli_surface():
    assert _option_dests() == CLI_SURFACE


MANIFEST_RUNS = {
    "spectrum": ["spectrum", "--host", "2"],
    "equilibrium": ["equilibrium", "--starts", "2", "--seed", "3"],
    "sweep": ["sweep", "--tol", "1e-9"],
    "dynamics": ["dynamics", "--t-end", "1", "--sample-every", "7", "--bump", "2e-3"],
    "stability": ["stability", "--n", "401"],
}


@pytest.mark.parametrize("command", sorted(MANIFEST_RUNS))
def test_manifest_echoes_every_option(command, tmp_path):
    argv = [*MANIFEST_RUNS[command], "--preset", "fig1", "--epsilon", "5e-2", "--jobs", "1",
            "--output-dir", str(tmp_path / "out")]
    parsed = vars(cli.build_parser().parse_args(argv))
    assert run(argv) == 0
    options = json.loads((tmp_path / "out" / "manifest.json").read_text())["options"]
    assert set(options) == _option_dests()[command] - {"preset", "config", "scale_beta"}
    for name, value in options.items():
        want = str(Path(parsed[name]).resolve()) if name == "output_dir" else parsed[name]
        assert value == want, name


def test_traced_names_resolve():
    for dotted in TRACED_NAMES:
        module, *attrs = dotted.split(".")
        obj = importlib.import_module(f"mutsel.{module}")
        for attr in attrs:
            obj = getattr(obj, attr)
        assert callable(obj), dotted
    # the tracer patches every binding of a traced function, this one included
    assert spec.host_operator is importlib.import_module("mutsel.operators").host_operator


def _probe(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter that imports this mutsel."""
    src = str(Path(mutsel.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip()


def test_cli_import_leaves_out_scipy_signal():
    # scipy.signal alone was most of the CLI's import time; nothing needs it
    assert _probe("import sys, mutsel.cli; print('scipy.signal' in sys.modules)") == "False"


def test_dynamics_run_leaves_out_scipy_integrate(tmp_path):
    # scipy.integrate pulls in scipy.optimize: +27% peak RSS on a dynamics run
    argv = ["dynamics", "--preset", "fig1", "--epsilon", "5e-2", "--t-end", "1",
            "--output-dir", str(tmp_path / "out")]
    code = ("import sys, mutsel.cli; "
            f"assert mutsel.cli.main({argv!r}) == 0; "
            "print('scipy.integrate' in sys.modules)")
    assert _probe(code).splitlines()[-1] == "False"
