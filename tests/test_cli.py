"""Command-line interface: subcommands, artifacts, exit codes, determinism."""

import csv
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
from scipy.linalg import LinAlgError

import mutsel
from mutsel import cli
from mutsel import dynamics as dyn
from mutsel import equilibrium as eq
from mutsel import spectral as spec
from mutsel.cli import main
from mutsel.model import build_problem, preset
from mutsel.spectral import solve_host_spectrum
from mutsel.stability import INITIAL_SAMPLES


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
        assert run(["spectrum", "--epsilon", "1e-2", "--output-dir", str(outdir)]) == 2

    def test_missing_epsilon_is_usage_error(self, outdir):
        assert run(["spectrum", "--preset", "fig1", "--output-dir", str(outdir)]) == 2

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

    def test_scale_beta_past_overflow(self, outdir):
        # past about 1e154, w gain times L phi overflows in the combined
        # radius's Rayleigh quotient unless it is taken with the gain's share
        assert run([
            "equilibrium", "--preset", "fig2", "--epsilon", "0.05",
            "--scale-beta", "1e200", "--output-dir", str(outdir),
        ]) == 0
        diag = json.loads((outdir / "equilibrium.json").read_text())
        assert diag["classification"] == "endemic"

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

    def test_jobs_one_writes_the_same_artifacts(self, tmp_path):
        # --jobs accepts only 1, its default: passing it changes no artifact,
        # the manifest's options included
        texts = []
        for name, jobs in (("default", []), ("one", ["--jobs", "1"])):
            out = tmp_path / name
            assert run(["sweep", "--preset", "fig1", "--epsilon", "5e-2", "--epsilon", "2e-2",
                        "--tol", "1e-9", *jobs, "--output-dir", str(out)]) == 0
            texts.append({p.name: p.read_text().replace(str(out.resolve()), "OUT")
                          for p in out.iterdir()})
        assert len(texts[0]) == 4 and texts[0] == texts[1]

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
        assert run(["sweep", "--preset", "fig1", "--epsilon", "-1",
                    "--output-dir", str(outdir)]) == 2


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

    @pytest.mark.parametrize("bump, status, message", [
        ("-1", 2, "--bump"), ("nan", 2, "--bump"), ("inf", 2, "--bump"),
        # a start past the blow-up norm: reported at t = 0, without numpy warnings
        ("1e13", 1, "blew up at t=0"),
    ])
    def test_bad_bump(self, outdir, capsys, bump, status, message):
        assert run([
            "dynamics", "--preset", "fig1", "--epsilon", "5e-2", "--t-end", "1",
            "--bump", bump, "--output-dir", str(outdir),
        ]) == status
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err

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
        solve = rep["eigensolve"]
        assert solve["mode"] == "shift-invert" and solve["fallback"] is None
        assert solve["certified"] is True and 0 < solve["operator_applications"] <= 100
        cert = solve["certificate"]
        assert cert["pencil_count"] - cert["winding"] == 20
        assert 0.0 < cert["radius"] < min(abs(complex(z["re"], z["im"])) for z in rep["eigenvalues"])
        assert cert["samples"] >= INITIAL_SAMPLES

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
        assert run([
            "spectrum", "--preset", "fig1", "--config", str(cfg),
            "--epsilon", "1e-2", "--output-dir", str(outdir),
        ]) == 2


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
    "too many nodes": lambda tmp: ["equilibrium", "--preset", "fig1", "--epsilon", "1e-2",
                                   "--n", "10000000000"],
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
    # an f-string's text would parse as the number 1
    "trait f-string": lambda tmp: ["spectrum", *_config(tmp, beta='f"{1:{10**3}}"'),
                                   "--epsilon", "5e-2"],
    "infinite trait": lambda tmp: ["spectrum", *_config(tmp, beta="1e308*10 + x"),
                                   "--epsilon", "5e-2"],
    # cast to float, these would keep their real parts: an endemic state, and
    # a host 1 fitness that is identically zero
    "complex trait": lambda tmp: ["equilibrium", "--epsilon", "5e-2", *_config(
        tmp, beta="200*pos((x-0.2)*(0.6-x)) + 1e-3j")],
    "imaginary trait": lambda tmp: ["equilibrium", *_config(tmp, beta="1j*x"),
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
    "jobs other than one": lambda tmp: ["sweep", "--preset", "fig1", "--epsilon", "5e-2",
                                        "--jobs", "2"],
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
    # at most 8,193 default nodes, too few to resolve the kernel at this width
    "under-resolved kernel": lambda tmp: ["stability", "--preset", "fig1", "--epsilon", "1e-4"],
    "under-resolved width in sweep": lambda tmp: ["sweep", "--preset", "fig1",
                                                  "--epsilon", "5e-2", "--epsilon", "1e-4"],
    "output dir under a file": lambda tmp: ["spectrum", "--preset", "fig1", "--epsilon", "5e-2",
                                            *_file_parent(tmp)],
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_usage_error(case, tmp_path, capsys):
    # main returns the status, with one error line, and raises no SystemExit
    argv = MALFORMED[case](tmp_path)
    if "--output-dir" not in argv:
        argv += ["--output-dir", str(tmp_path / "out")]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("case", ["negative seed", "nan dt", "two widths for stability",
                                  "too many nodes", "too few nodes", "infinite window",
                                  "under-resolved kernel", "under-resolved width in sweep"])
def test_malformed_input_creates_nothing(case, tmp_path):
    # commands check their input, and the grid of every width, before the
    # output directory
    assert run([*MALFORMED[case](tmp_path), "--output-dir", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_config_error_names_path_and_key(tmp_path, capsys):
    argv = ["spectrum", *_config_file(tmp_path, b'{"lambda": 1}'), "--epsilon", "5e-2",
            "--output-dir", str(tmp_path / "out")]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert str(tmp_path / "model.json") in err and "'hosts'" in err


@pytest.mark.parametrize("scale", ["inf", "nan"])
def test_non_finite_scale_beta_names_the_option(scale, tmp_path, capsys):
    argv = ["equilibrium", "--preset", "fig1", "--epsilon", "5e-2", "--scale-beta", scale,
            "--output-dir", str(tmp_path / "out")]
    assert run(argv) == 2
    assert "--scale-beta" in capsys.readouterr().err


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
    "sweep": ["sweep"],
}


@pytest.mark.parametrize("command", sorted(UNCONVERGED))
def test_unconverged_solve_exits_1(command, monkeypatch, outdir, capsys):
    monkeypatch.setattr(eq, "DEFAULT_MAX_ITER", 3)
    argv = [*UNCONVERGED[command], "--preset", "fig1", "--epsilon", "5e-2",
            "--output-dir", str(outdir)]
    assert run(argv) == 1
    err = capsys.readouterr().err
    if command == "sweep":
        # the sweep writes its tables, the entry marked not converged, and no histories
        assert err == "error: 1 sweep entr(ies) did not converge\n"
        assert (outdir / "concentration.csv").read_text().splitlines()[2].endswith(",False")
        assert not (outdir / "residual_history.csv").exists()
    else:
        assert err == "error: 1 coupled solve(s) did not converge\n"
        lines = (outdir / "residual_history.csv").read_text().splitlines()
        assert lines[1] == "start,iteration,residual"
        assert [line.split(",")[:2] for line in lines[2:]] == [["0", "1"], ["0", "2"], ["0", "3"]]
    # the manifest is written before the solve
    _assert_manifest_echoes(argv, outdir)


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
    # neither the shift-invert nor the regular run converges within its budget
    monkeypatch.setattr("mutsel.stability.arnoldi", lambda apply, v0, want: (None, 0))
    assert run(["stability", "--preset", "fig1", "--epsilon", "5e-2",
                "--output-dir", str(outdir)]) == 1
    assert capsys.readouterr().err.startswith("error: Arnoldi")


SPECTRAL_FAILURE = {"equilibrium": "equilibrium.json", "sweep": "targets.json"}


def _factor_fails(*args, **kwargs):
    raise LinAlgError("tridiagonal factorization failed")


@pytest.mark.parametrize("command", sorted(SPECTRAL_FAILURE))
def test_lanczos_failure_exits_1(command, monkeypatch, outdir, capsys):
    # a failed tridiagonal eigensolve must stop the run before anything is
    # classified by the combined radius it did not deliver
    monkeypatch.setattr(spec, "TridiagonalLU", _factor_fails)
    assert run([command, "--preset", "fig1", "--epsilon", "5e-2",
                "--output-dir", str(outdir)]) == 1
    assert capsys.readouterr().err.startswith("error: combined spectral radius")
    assert not (outdir / SPECTRAL_FAILURE[command]).exists()


def test_bisection_failure_exits_1_from_spectrum(monkeypatch, outdir, capsys):
    monkeypatch.setattr(spec, "TridiagonalLU", _factor_fails)
    assert run(["spectrum", "--preset", "fig1", "--epsilon", "5e-2",
                "--output-dir", str(outdir)]) == 1
    assert capsys.readouterr().err.startswith("error: 1 spectral solve(s) did not converge")


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
    "stability.stability_report",
    "dynamics.integrate",
    "dynamics._System.rhs",
    "model.build_problem",
    "cli.write_csv",
    "cli.write_json",
)


# every subcommand's options: a new one is a visible edit here
COMMON_OPTIONS = {"preset", "config", "epsilon", "n", "tol", "scale_beta", "jobs",
                  "output_dir"}
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


def _assert_manifest_echoes(argv, outdir):
    """``outdir``'s manifest holds every option dest of ``argv``'s subcommand
    but the model source, each with its parsed value."""
    parsed = vars(cli.build_parser().parse_args(argv))
    options = json.loads((outdir / "manifest.json").read_text())["options"]
    assert set(options) == _option_dests()[argv[0]] - {"preset", "config", "scale_beta"}
    for name, value in options.items():
        want = str(Path(parsed[name]).resolve()) if name == "output_dir" else parsed[name]
        assert value == want, name


@pytest.mark.parametrize("command", sorted(MANIFEST_RUNS))
def test_manifest_echoes_every_option(command, tmp_path):
    argv = [*MANIFEST_RUNS[command], "--preset", "fig1", "--epsilon", "5e-2", "--jobs", "1",
            "--output-dir", str(tmp_path / "out")]
    assert run(argv) == 0
    _assert_manifest_echoes(argv, tmp_path / "out")


def test_one_stability_block(tmp_path):
    # equilibrium --stability writes the report that stability writes, less
    # the keys stability.json adds around it
    model = ["--preset", "fig1", "--epsilon", "5e-2"]
    assert run(["equilibrium", *model, "--stability", "--output-dir", str(tmp_path / "eq")]) == 0
    assert run(["stability", *model, "--output-dir", str(tmp_path / "st")]) == 0
    block = json.loads((tmp_path / "eq" / "equilibrium.json").read_text())["stability"]
    report = json.loads((tmp_path / "st" / "stability.json").read_text())
    for key in ("classification", "assumption_warnings", "schema_version"):
        del report[key]
    assert block == report


MANIFEST_KEYS = {"command", "model.preset", "schema_version", "versions.mutsel",
                 "versions.numpy", "versions.python", "versions.scipy"}
STABILITY_KEYS = {
    "eigensolve.certificate.pencil_count", "eigensolve.certificate.radius",
    "eigensolve.certificate.samples", "eigensolve.certificate.winding",
    "eigensolve.certified", "eigensolve.fallback", "eigensolve.mode",
    "eigensolve.operator_applications", "eigenvalues[].im", "eigenvalues[].re",
    "error_bound", "spectral_radius", "stable",
}
# each subcommand's run and its artifacts other than the manifest: the schema
# and header lines of a CSV file, the key paths of a JSON file
SCHEMA_RUNS = {
    "spectrum": (["spectrum", "--host", "1", "--epsilon", "5e-2", "--epsilon", "2e-2"], {
        "spectrum.csv": "# schema=mutsel.spectrum.v1\n"
                        "epsilon,lambda1,lambda2,gap,residual,iterations,converged",
        "spectrum_summary.json": {"assumption_warnings", "degenerate", "gap_exponent", "rows",
                                  "schema_version"},
    }),
    "equilibrium": (["equilibrium", "--epsilon", "5e-2", "--starts", "2", "--stability"], {
        "equilibrium_fields.csv": "# schema=mutsel.fields.v1\nx,A,I1,I2",
        "equilibrium.json": {
            "S1", "S2", "mu1", "mu2", "masses.A", "masses.I1", "masses.I2", "masses.xA",
            "a_argmax", "assumption_warnings", "classification", "iterations", "restarts",
            "residual", "multistart_spread", "schema_version",
            "lower_bounds[].beta_mass", "lower_bounds[].bound", "lower_bounds[].host",
            "lower_bounds[].ok", "pinning[].host", "pinning[].inequality_ok",
            "pinning[].lambda1", "pinning[].mu_over_theta", "pinning[].pinned",
            "pinning[].signed_gap", "superposition.e_complement", "superposition.e_sigma1",
            "superposition.e_sigma2", "superposition.e_total",
            "stability.is_fixed_point", *(f"stability.{key}" for key in STABILITY_KEYS),
        },
    }),
    "sweep": (["sweep", "--epsilon", "5e-2", "--epsilon", "2e-2"], {
        "concentration.csv": "# schema=mutsel.concentration.v1\n"
                             "epsilon,S1,S2,I1_mass,I2_mass,A_mass,A_first_moment,A_argmax,"
                             "converged",
        "superposition.csv": "# schema=mutsel.superposition.v1\n"
                             "epsilon,e_total,e_sigma1,e_sigma2,e_complement",
        "targets.json": {
            "S1", "S2", "I1_mass", "I2_mass", "A_mass", "A_first_moment",
            "assumption_warnings", "schema_version", "extrapolated.A_argmax",
            "extrapolated.S1", "extrapolated.S2", "extrapolated.I1_mass",
            "extrapolated.I2_mass", "extrapolated.A_mass", "extrapolated.A_first_moment",
        },
    }),
    "dynamics": (["dynamics", "--epsilon", "5e-2", "--t-end", "1"], {
        "trajectory.csv": "# schema=mutsel.trajectory.v1\n"
                          "t,S1,S2,I1_mass,I2_mass,A_mass,A_argmax",
        "dynamics_summary.json": {
            "assumption_warnings", "clip_events", "distance_to_equilibrium",
            "equilibrium_classification", "method", "rejected_steps", "rhs_evals",
            "schema_version", "steps", "terminal_a_mass", "terminal_time",
        },
    }),
    "stability": (["stability", "--epsilon", "5e-2"], {
        "stability.json": STABILITY_KEYS | {"assumption_warnings", "classification",
                                            "is_fixed_point", "schema_version"},
    }),
}


def _key_paths(doc, prefix: str = "") -> set[str]:
    """The dotted key paths of a JSON document's leaves, ``name[].key`` for the
    keys of the objects in a list; any other value is a leaf."""
    if isinstance(doc, list) and doc and all(isinstance(d, dict) for d in doc):
        return set().union(*(_key_paths(d, prefix + "[]") for d in doc))
    if isinstance(doc, dict) and doc:
        return set().union(*(_key_paths(v, f"{prefix}.{k}" if prefix else k)
                             for k, v in doc.items()))
    return {prefix}


@pytest.mark.parametrize("command", sorted(SCHEMA_RUNS))
def test_artifact_schema(command, outdir):
    # the benchmark reads S1, S2, masses.A, iterations, distance_to_equilibrium,
    # clip_events, steps, is_fixed_point, stable, spectral_radius and the
    # columns of spectrum.csv: a renamed key fails here, not in the benchmark
    argv, artifacts = SCHEMA_RUNS[command]
    assert run([*argv, "--preset", "fig1", "--output-dir", str(outdir)]) == 0
    options = {f"options.{o}" for o in CLI_SURFACE[command] - {"preset", "config", "scale_beta"}}
    expected = {**artifacts, "manifest.json": MANIFEST_KEYS | options}
    assert sorted(p.name for p in outdir.iterdir()) == sorted(expected)
    for name, keys in expected.items():
        text = (outdir / name).read_text()
        if name.endswith(".csv"):
            assert "\n".join(text.splitlines()[:2]) == keys, name
        else:
            assert _key_paths(json.loads(text)) == keys, name


def test_traced_names_resolve():
    for dotted in TRACED_NAMES:
        module, *attrs = dotted.split(".")
        obj = importlib.import_module(f"mutsel.{module}")
        for attr in attrs:
            obj = getattr(obj, attr)
        assert callable(obj), dotted
    # the tracer patches every binding of a traced function, this one included
    assert spec.host_operator is importlib.import_module("mutsel.operators").host_operator


def _fresh(code: str, *, check: bool) -> subprocess.CompletedProcess:
    """``code`` run in a fresh interpreter that imports this mutsel; a run that
    hangs fails with ``TimeoutExpired`` after a minute."""
    src = str(Path(mutsel.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=check, timeout=60)


def _probe(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter that imports this mutsel."""
    return _fresh(code, check=True).stdout.strip()


def test_cli_import_leaves_out_scipy_signal():
    # scipy.signal alone was most of the CLI's import time; nothing needs it
    assert _probe("import sys, mutsel.cli; print('scipy.signal' in sys.modules)") == "False"


def test_cli_import_leaves_out_scipy_fft():
    # the Laplace kernel's convolutions are tridiagonal solves, not FFTs
    assert _probe("import sys, mutsel.cli; print('scipy.fft' in sys.modules)") == "False"


def test_cli_import_leaves_out_scipy_sparse():
    # nothing loads scipy.sparse: the stability report's Arnoldi run is numpy's
    assert _probe("import sys, mutsel.cli; print('scipy.sparse' in sys.modules)") == "False"


def test_cli_import_leaves_out_scipy_linalg():
    # operators loads scipy's LAPACK extension alone: the package's __init__
    # builds an array-API namespace that imports numpy.f2py and numpy.testing
    left_out = ["scipy.linalg", "scipy._lib._array_api", "numpy.f2py", "numpy.testing"]
    code = f"import sys, mutsel.cli; print([m for m in {left_out!r} if m in sys.modules])"
    assert _probe(code) == "[]"


@pytest.mark.parametrize("first", ["mutsel.operators", "scipy.linalg.lapack"])
def test_operators_binds_scipys_lapack_routines(first):
    # operators loads scipy.linalg._flapack from its file and registers it, so
    # scipy.linalg.lapack, imported before or after it, uses the same module
    routines = ["dpttrf", "dpttrs", "dgttrf", "dgttrs", "zgttrf", "zgttrs", "dstebz"]
    code = (f"import importlib, sys; importlib.import_module({first!r}); "
            "import mutsel.operators as ops, scipy.linalg.lapack as lapack; "
            "print(ops._flapack is sys.modules['scipy.linalg._flapack'], "
            f"all(getattr(ops, n) is getattr(lapack, n) for n in {routines!r}))")
    assert _probe(code) == "True True"


def test_missing_lapack_extension_names_scipy_and_directory(tmp_path):
    # no fallback: without the extension, importing operators fails and says where it looked
    code = f"import scipy; scipy.__path__[0] = {str(tmp_path)!r}; import mutsel.operators"
    err = _fresh(code, check=False).stderr.strip().splitlines()[-1]
    assert err == (f"ImportError: scipy {scipy.__version__} has no scipy.linalg._flapack "
                   f"in {tmp_path}/linalg")


def test_no_command_loads_scipy_linalg_or_scipy_sparse(tmp_path):
    # no command imports scipy.linalg or scipy.sparse, before or during its
    # run: the stability report's Arnoldi run is numpy's
    common = ["--preset", "fig1", "--epsilon", "5e-2"]
    runs = [["equilibrium", *common], ["equilibrium", *common, "--stability"],
            ["dynamics", *common, "--t-end", "1"], ["spectrum", *common, "--host", "1"],
            ["sweep", *common], ["stability", *common]]
    out = tmp_path / "out"
    code = "\n".join([
        "import json, sys, mutsel.cli",
        f"for argv in {runs!r}:",
        f"    assert mutsel.cli.main([*argv, '--output-dir', {str(out)!r}]) == 0, argv",
        "    assert not {'scipy.linalg', 'scipy.sparse'} & set(sys.modules), argv",
        f"rep = json.load(open({str(out / 'stability.json')!r}))",
        "print(rep['eigensolve']['mode'], rep['eigensolve']['certified'])",
    ])
    assert _probe(code).splitlines()[-1] == "shift-invert True"


def _rowwise_csv(path, name, header, rows):
    """The row-by-row writer ``write_csv`` replaced, the reference of its bytes."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# schema=mutsel.{name}.v{cli.SCHEMA_VERSION}\n")
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


def _float_table(rows):
    """Random floats of every magnitude, with the special values among them."""
    rng = np.random.default_rng(rows)
    table = rng.standard_normal((rows, 4)) * 10.0 ** rng.integers(-320, 300, (rows, 4))
    specials = (-0.0, 5e-324, 1e300, np.inf, -np.inf, np.nan, 0.1, 1.0)
    table.flat[: min(table.size, len(specials))] = specials[: table.size]
    return table


CSV_TABLES = {
    "mixed rows": lambda: [[0, True, -0.0, 5e-324], [-3, False, 1e300, math.inf],
                           [7, True, math.nan, 0.1], [2**70, False, -math.inf, 1e-5]],
    "no rows": lambda: _float_table(0),
    "partial last block": lambda: _float_table(2 * cli.CSV_BLOCK_ROWS + 5),
}


@pytest.mark.parametrize("table", sorted(CSV_TABLES))
def test_write_csv_matches_rowwise_writer(table, tmp_path):
    rows = CSV_TABLES[table]()
    header = ["a", "b", "c", "d"]
    cli.write_csv(tmp_path / "blocks.csv", "t", header, rows)
    _rowwise_csv(tmp_path / "rows.csv", "t", header,
                 rows.tolist() if isinstance(rows, np.ndarray) else rows)
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


CSV_RUNS = {
    "equilibrium": ["equilibrium"],
    "dynamics": ["dynamics", "--t-end", "1"],
    "sweep": ["sweep"],
    "spectrum": ["spectrum", "--host", "2"],
}


@pytest.mark.parametrize("command", sorted(CSV_RUNS))
def test_csv_artifacts_parse(command, outdir):
    # every cell is a number that float() reads, or a boolean flag
    assert run([*CSV_RUNS[command], "--preset", "fig1", "--epsilon", "5e-2",
                "--output-dir", str(outdir)]) == 0
    paths = sorted(outdir.glob("*.csv"))
    assert paths
    for path in paths:
        with open(path, encoding="utf-8", newline="") as fh:
            header, *rows = csv.reader(line for line in fh if not line.startswith("#"))
        assert rows and all(len(row) == len(header) for row in rows), path.name
        for cell in (cell for row in rows for cell in row):
            if cell not in ("True", "False"):
                float(cell)


def test_dynamics_run_leaves_out_scipy_integrate(tmp_path):
    # scipy.integrate pulls in scipy.optimize: +27% peak RSS on a dynamics run
    argv = ["dynamics", "--preset", "fig1", "--epsilon", "5e-2", "--t-end", "1",
            "--output-dir", str(tmp_path / "out")]
    code = ("import sys, mutsel.cli; "
            f"assert mutsel.cli.main({argv!r}) == 0; "
            "print('scipy.integrate' in sys.modules)")
    assert _probe(code).splitlines()[-1] == "False"


def test_every_convolution_passes_the_engine(monkeypatch, outdir):
    # the benchmark's tracer counts and prices convolutions at
    # ConvolutionEngine.convolve_values: a spectrum run makes two, both on the
    # whole grid: the eigenfunction and its residual, the full-grid
    # applications reported as ``iterations`` (building the operator makes none)
    engine = importlib.import_module("mutsel.operators").ConvolutionEngine
    convolve = engine.convolve_values
    lengths = []

    def counted(self, values):
        lengths.append(len(values))
        return convolve(self, values)

    monkeypatch.setattr(engine, "convolve_values", counted)
    assert run(["spectrum", "--preset", "fig1", "--host", "1", "--epsilon", "5e-3",
                "--jobs", "1", "--output-dir", str(outdir)]) == 0
    lines = (outdir / "spectrum.csv").read_text().splitlines()
    iterations = int(dict(zip(lines[1].split(","), lines[2].split(",")))["iterations"])
    n = build_problem(preset("fig1"), 5e-3).grid.n
    assert len(lengths) == iterations
    assert lengths.count(n) == 2


@pytest.mark.parametrize("beta", ["exp(1000*x)", "log(x)"])
def test_non_finite_trait_prints_only_the_error(beta, tmp_path):
    # in a fresh interpreter, where warnings are printed rather than raised
    argv = ["spectrum", *_config(tmp_path, beta=beta), "--epsilon", "5e-2",
            "--output-dir", str(tmp_path / "out")]
    out = _fresh(f"import sys, mutsel.cli; sys.exit(mutsel.cli.main({argv!r}))", check=False)
    assert out.returncode == 2
    assert out.stderr == "error: host 1 trait functions must be finite and nonnegative\n"


@pytest.mark.parametrize("beta", [
    "9**9**9**9",
    "((1>0)<<60)**((1>0)<<60)",
    "[1]*10**10",
    "'a'*10**10",
    "1" * 400,
])
def test_unbounded_trait_arithmetic_exits_2(beta, tmp_path):
    # numbers in a trait expression are float64: Python ints would grow
    # without bound (or ask for a 10**10-long list) before any check ran
    argv = ["spectrum", *_config(tmp_path, beta=beta), "--epsilon", "5e-2",
            "--output-dir", str(tmp_path / "out")]
    out = _fresh(f"import sys, mutsel.cli; sys.exit(mutsel.cli.main({argv!r}))", check=False)
    assert out.returncode == 2
    assert out.stderr.startswith("error: ")


def test_bool_arithmetic_in_trait_is_bounded(tmp_path):
    # a comparison is the float64 0.0 or 1.0, so this tower of 2s is float64
    # arithmetic, not Python ints: it overflows to inf at once and is rejected
    tower = "**".join(["((pi>e)+(pi>e))"] * 20)
    argv = ["spectrum", *_config(tmp_path, beta=tower), "--epsilon", "5e-2",
            "--output-dir", str(tmp_path / "out")]
    out = _fresh(f"import sys, mutsel.cli; sys.exit(mutsel.cli.main({argv!r}))", check=False)
    assert (out.returncode, out.stderr) == (
        2, "error: host 1 trait functions must be finite and nonnegative\n")
