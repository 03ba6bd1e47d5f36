"""Command-line front end: config validation, runs, reports, round trips."""

import collections
import dataclasses
import itertools
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import gradwave.cli
import gradwave.minimize
import gradwave.potential
import gradwave.speed
import gradwave.verify
from gradwave import (
    AssumptionViolationError,
    Grid,
    Profile,
    compute_constants,
    decoupled_quartic,
    write_csv,
)
from gradwave.cli import main
from gradwave.config import load_config
from conftest import X0_TANH

SCALAR_SPEED_CONFIG = """
[potential]
variant = scalar_cubic
alpha = 0.6

[grid]
h = 0.02

[solver]
opt_tol = 1e-6

[mode]
c_tol = 5e-3

[output]
directory = {out}
"""


SCALAR = "variant = scalar_cubic\nalpha = 0.6"


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigErrors:
    def test_negative_h_names_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, """
[potential]
variant = scalar_cubic
alpha = 0.6

[grid]
h = -0.01
""")
        assert main(["bounds", "--config", cfg]) == 1
        assert "grid.h" in capsys.readouterr().err

    def test_removed_refinement_key_rejected(self, tmp_path, capsys):
        # the geometric grid was removed; a config still naming it is refused
        cfg = write_config(tmp_path, f"[potential]\n{SCALAR}\n[grid]\nrefinement = uniform\n")
        assert main(["bounds", "--config", cfg]) == 1
        assert "unknown key grid.refinement" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, """
[potential]
variant = scalar_cubic
alpha = 0.6
bogus = 1
""")
        assert main(["bounds", "--config", cfg]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_empty_c_list_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, """
[potential]
variant = scalar_cubic
alpha = 0.6

[mode]
c_list =
""")
        assert main(["gamma", "--config", cfg]) == 1
        assert "c_list" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["bounds", "--config", str(tmp_path / "nope.ini")]) == 1

    @pytest.mark.parametrize("command, message", [
        ("gamma", "mode.c or mode.c_list is required for the gamma command"),
        ("speed", "mode.c_tol is required for the speed command"),
        ("verify", "mode.c is required for the verify command"),
    ], ids=["gamma", "speed", "verify"])
    def test_mode_key_required(self, tmp_path, capsys, command, message):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, f"[potential]\n{SCALAR}\n[output]\ndirectory = {out}\n")
        extra = ["--profile", str(tmp_path / "wave.csv")] if command == "verify" else []
        assert main([command, "--config", cfg, *extra]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    # without the check these end in a traceback or exit 2 as solver errors
    @pytest.mark.parametrize("key, potential, extra", [
        ("potential.box", "variant = user_polynomial\ndim = 1\nterms = 0.5 4; -1.0 2\n"
                          "well_b = 1.0\nbox = -2:abc", ""),
        ("potential.terms", "variant = user_polynomial\ndim = 1\nterms = 0.5 4; nan 3; -1.0 2\n"
                            "well_b = 1.0\nbox = -2:2", ""),
        ("grid.x_left", SCALAR, "[grid]\nx_left = nan\nh = 0.05\n[mode]\nc = 0.6"),
        ("grid.x_right", SCALAR, "[grid]\nx_right = inf\nh = 0.05\n[mode]\nc = 0.6"),
        ("mode.c_list", SCALAR, "[grid]\nh = 0.05\n[mode]\nc_list = 0.5, nan"),
        # out of the family's range: the constructors hold the ranges
        ("potential.alpha", "variant = scalar_cubic\nalpha = 3.0", ""),
        ("potential.alpha, potential.beta",
         "variant = decoupled_quartic\nalpha = 1.2\nbeta = 0.6", ""),
        ("potential.terms", "variant = user_polynomial\ndim = 1\nterms = 0.5 4; -1.0 -2\n"
                            "well_b = 1.0\nbox = -2:2", ""),
    ], ids=["box", "terms", "x_left", "x_right", "c_list",
            "alpha", "alpha_beta", "exponent"])
    def test_bad_number_exits_1_and_names_key(self, tmp_path, capsys, key, potential, extra):
        cfg = write_config(tmp_path, f"[potential]\n{potential}\n{extra}\n"
                                     f"[output]\ndirectory = {tmp_path / 'out'}\n")
        command = "bounds" if key.startswith("potential.") else "gamma"
        assert main([command, "--config", cfg]) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["penalty_kappa", "max_iters", "feas_tol"])
    def test_removed_solver_key_rejected(self, tmp_path, capsys, key):
        # the penalty weight, step cap and feasibility bar are constants now
        cfg = write_config(tmp_path, f"[potential]\n{SCALAR}\n[solver]\n{key} = 1e3\n"
                                     f"[output]\ndirectory = {tmp_path / 'out'}\n")
        assert main(["bounds", "--config", cfg]) == 1
        assert capsys.readouterr() == ("", f"error: unknown key solver.{key}\n")

    @pytest.mark.parametrize("text, where", [
        (f"[potential]\n{SCALAR}\nalpha = 0.5\n", "[line 4]: option 'alpha'"),
        (f"[potential]\n{SCALAR}\n[potential]\n", "[line 4]: section 'potential'"),
        (f"{SCALAR}\n[potential]\n", "line: 1"),
        (f"[potential]\n{SCALAR}\n# caf\xe9\n".encode("latin-1"), "not UTF-8 text"),
        (f"[potential]\n{SCALAR}\n[output]\ndirectory = out%1\n", None),
    ], ids=["duplicate_key", "duplicate_section", "no_section_header", "not_utf8", "percent"])
    def test_unparsable_file_exits_1_with_one_line(self, tmp_path, monkeypatch, capsys,
                                                   text, where):
        # configparser raises on the first four, and its interpolation on the
        # "%" when the value is read; a "%" is now a literal character.  main
        # returns only if no exception escaped it, so there is no traceback
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "run.ini"
        (path.write_bytes if isinstance(text, bytes) else path.write_text)(text)
        code = main(["bounds", "--config", str(path)])
        out, err = capsys.readouterr()
        if where is None:
            assert (code, err) == (0, "")
            assert (tmp_path / "out%1" / "report.json").is_file()
            return
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err and where in err
        assert "Traceback" not in err

    def test_unwritable_output_exits_1(self, tmp_path, capsys):
        blocker = tmp_path / "taken"
        blocker.write_text("a file, not a directory\n")
        cfg = write_config(tmp_path, f"[potential]\n{SCALAR}\n[output]\ndirectory = {blocker}\n")
        assert main(["bounds", "--config", cfg]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: cannot write the output: ") and err.count("\n") == 1
        assert str(blocker) in err

    @pytest.mark.parametrize("restarts, seed, message", [
        ("0", "5", None),
        ("3", "0", "solver.restarts: random restarts were removed; only 0 is accepted"),
        ("0", "-1", "solver.seed: must be nonnegative"),
    ])
    def test_restarts_and_seed_kept_for_old_inputs(self, tmp_path, capsys,
                                                     restarts, seed, message):
        cfg = write_config(tmp_path, f"""
[potential]
variant = scalar_cubic
alpha = 0.6

[solver]
restarts = {restarts}
seed = {seed}

[output]
directory = {tmp_path / "out"}
""")
        assert main(["bounds", "--config", cfg]) == (1 if message else 0)
        if message:
            assert message in capsys.readouterr().err


def test_readme_config_examples_load(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = [b.split("```")[0] for b in readme.split("```ini\n")[1:]]
    assert blocks
    for k, block in enumerate(blocks):
        path = tmp_path / f"readme{k}.ini"
        path.write_text(block)
        load_config(path)


def test_readme_library_use_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library use")[1].split("```python\n")[1].split("```")[0]
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["report"].passed
    assert abs(namespace["result"].c_star - 1.2) <= 1e-3
    assert namespace["J"] == pytest.approx(namespace["cells"].sum(), rel=0, abs=1e-9)


class TestBoundsCommand:
    def test_decoupled_report(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, f"""
[potential]
variant = decoupled_quartic
alpha = 0.6
beta = 1.2

[output]
directory = {out}
""")
        assert main(["bounds", "--config", cfg]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["schema_version"] == 2
        assert report["constants"]["m"] == pytest.approx(2.4, abs=1e-6)
        assert report["constants"]["mu"] == pytest.approx(1.6, abs=1e-9)
        lo, hi = report["result"]["bracket"]
        assert lo < 1.2 <= hi

    def test_missed_deepest_well_exits_2(self, tmp_path, monkeypatch, capsys):
        # m is read off the equilibria; if the search misses the deepest
        # well, the scan still sees it and the analysis refuses the potential
        find_equilibria = gradwave.potential.find_equilibria

        def without_deepest(spec):
            found = find_equilibria(spec)
            vals = spec.value(np.array(found))
            return [q for q, v in zip(found, vals) if v > vals.min()]

        monkeypatch.setattr(gradwave.potential, "find_equilibria", without_deepest)
        message = "below the deepest equilibrium found"
        with pytest.raises(AssumptionViolationError, match=message):
            compute_constants(decoupled_quartic(0.6, 1.2))
        cfg = write_config(tmp_path, f"""
[potential]
variant = decoupled_quartic
alpha = 0.6
beta = 1.2

[output]
directory = {tmp_path / "out"}
""")
        assert main(["bounds", "--config", cfg]) == 2
        assert message in capsys.readouterr().err


class TestPolynomialConfig:
    def test_bounds_from_term_table(self, tmp_path):
        # the scalar quartic well written as a monomial table reproduces the
        # builtin's constants through the full config path
        out = tmp_path / "out"
        cfg = write_config(tmp_path, f"""
[potential]
variant = user_polynomial
dim = 1
terms = 0.5 4; -0.2 3; -1.0 2; 0.6 1; 0.1 0
well_b = 1.0
box = -2:2

[output]
directory = {out}
""")
        assert main(["bounds", "--config", cfg]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["constants"]["m"] == pytest.approx(0.8, abs=1e-6)
        assert report["constants"]["mu"] == pytest.approx(2.8, abs=1e-6)
        assert report["constants"]["d"] == pytest.approx(1.13667504192892, abs=1e-5)

    def test_semicolon_after_a_space_separates_terms(self, tmp_path):
        # only "#" starts an inline comment; ";" starts only a full-line one
        cfg = write_config(tmp_path, """
[potential]
; the scalar double well as two terms, about b = 1
variant = user_polynomial
dim = 1
terms = 0.5 4 ; -1.0 2
well_b = 1.0
box = -2:2

[grid]
h = 0.05  # note
""")
        loaded = load_config(cfg)
        assert loaded.terms == [(0.5, [4]), (-1.0, [2])]
        assert loaded.h == 0.05

    def test_malformed_term_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, """
[potential]
variant = user_polynomial
dim = 1
terms = 0.5 4 2; -0.2 3
well_b = 1.0
box = -2:2
""")
        assert main(["bounds", "--config", cfg]) == 1
        assert "terms" in capsys.readouterr().err


class TestGammaCommand:
    def test_curve_signs_and_files(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, f"""
[potential]
variant = scalar_cubic
alpha = 0.6

[grid]
x_left = -40
x_right = 12
h = 0.02

[solver]
opt_tol = 1e-6

[mode]
c_list = 0.3, 0.6, 1.0

[output]
directory = {out}
""")
        assert main(["gamma", "--config", cfg]) == 0
        rows = (out / "gamma_vs_c.csv").read_text().strip().splitlines()
        assert rows[0] == "c,gamma,grad_norm,feasibility"
        gammas = [float(r.split(",")[1]) for r in rows[1:]]
        assert gammas[0] < 0
        assert abs(gammas[1]) <= 2e-3
        assert gammas[2] > 0
        for c in (0.3, 0.6, 1.0):
            assert (out / f"profile_c{c:g}.csv").exists()
        # the written minimizer at the root speed matches the exact front
        from gradwave import read_csv
        from gradwave.potential import scalar_cubic as _sc

        prof = read_csv(out / "profile_c0.6.csv", _sc(0.6))
        u = prof.values[:, 0]
        s = np.arctanh(np.clip(u[prof.grid.index_zero], -0.999999, 0.999999))
        assert np.max(np.abs(u - np.tanh(prof.grid.nodes + s))) <= 1e-2

    def test_explicit_grid_sweep(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, f"""
[potential]
variant = scalar_cubic
alpha = 0.6

[grid]
x_left = -30
x_right = 10
h = 0.05

[solver]
opt_tol = 1e-5

[mode]
c_list = 0.4, 0.9

[output]
directory = {out}
""")
        assert main(["gamma", "--config", cfg]) == 0
        rows = (out / "gamma_vs_c.csv").read_text().strip().splitlines()
        gammas = [float(r.split(",")[1]) for r in rows[1:]]
        assert gammas[0] < 0 < gammas[1]


    def test_close_speeds_get_their_own_profiles(self, tmp_path, monkeypatch):
        # 0.6000001 prints as 0.6 under :g; its profile must not overwrite 0.6's
        results = []
        curve = gradwave.cli.gamma_curve

        def recording(*args, **kwargs):
            results.extend(curve(*args, **kwargs))
            return results

        monkeypatch.setattr(gradwave.cli, "gamma_curve", recording)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, f"""
[potential]
variant = scalar_cubic
alpha = 0.6

[grid]
x_left = -30
x_right = 10
h = 0.05

[solver]
opt_tol = 1e-5

[mode]
c_list = 0.6, 0.6000001

[output]
directory = {out}
""")
        assert main(["gamma", "--config", cfg]) == 0
        paths = json.loads((out / "report.json").read_text())["result"]["profiles"]
        assert [Path(p).name for p in paths] == ["profile_c0.6.csv", "profile_c0.6000001.csv"]
        from gradwave import read_csv
        from gradwave.potential import scalar_cubic as _sc

        assert len(results) == 2
        for path, res in zip(paths, results):
            prof = read_csv(path, _sc(0.6))
            assert np.array_equal(prof.grid.nodes, res.profile.grid.nodes)
            assert np.array_equal(prof.values, res.profile.values)

    def test_unconverged_speed_exits_2_and_says_why(self, tmp_path, capsys):
        # below c* the cold race on the three-well quartic stops on its
        # plateau far above opt_tol at c = 0.3; the other speeds converge
        cfg = write_config(tmp_path, f"""
[potential]
variant = decoupled_quartic
alpha = 0.6
beta = 1.2

[grid]
h = 0.05

[mode]
c_list = 0.3, 0.6, 1.2, 1.6

[output]
directory = {tmp_path / "out"}
""")
        assert main(["gamma", "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert [line.endswith("converged=False") for line in out.splitlines()[:4]] == [
            True, False, False, False]
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        grad_norm = report["result"]["curve"][0]["grad_norm"]
        assert err == (f"solver error: the minimizer did not converge at "
                       f"c=0.3 (grad_norm {grad_norm:.2e})\n")

    def test_penalty_kappa_reaches_every_descent(self, tmp_path, monkeypatch):
        # every descent builds one operator, and each must carry the penalty
        # weight: the operator's own default, 0, would drop the penalty
        built, descents = [], []
        operator, descent = gradwave.minimize.WeightedEnergy, gradwave.minimize._descent

        def spy_operator(*args, **kwargs):
            op = operator(*args, **kwargs)
            built.append(op.kappa)
            return op

        def spy_descent(*args, **kwargs):
            descents.append(args[5])
            return descent(*args, **kwargs)

        monkeypatch.setattr(gradwave.minimize, "WeightedEnergy", spy_operator)
        monkeypatch.setattr(gradwave.minimize, "_descent", spy_descent)
        cfg = write_config(tmp_path, f"""
[potential]
variant = decoupled_quartic
alpha = 0.6
beta = 1.2

[grid]
h = 0.05

[solver]
opt_tol = 1e-5

[mode]
c_list = 0.8, 1.6

[output]
directory = {tmp_path / "out"}
""")
        assert main(["gamma", "--config", cfg]) == 0
        # the cold first speed races one seed per well and descends the best;
        # the second speed is warm-started
        assert descents.count(gradwave.minimize._RACE_BUDGET) == 3 and len(descents) >= 4
        assert built == [gradwave.minimize.PENALTY_KAPPA] * len(descents)


class TestSpeedCommand:
    def test_full_run(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, SCALAR_SPEED_CONFIG.format(out=out))
        assert main(["speed", "--config", cfg]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["result"]["c_star"] == pytest.approx(0.6, abs=1e-2)
        assert report["result"]["wave_ok"] is True
        assert report["verify"]["pass"] is True
        # the report names the well the left tail approaches (not asserted
        # to be any particular one; here the potential has a single well)
        assert report["result"]["left_tail_well"] == pytest.approx([-1.0], abs=1e-6)
        assert (out / "wave.csv").exists()
        hist = (out / "bracket_history.csv").read_text().strip().splitlines()
        assert hist[0] == "c_lo,c_hi,gamma_lo,gamma_hi"
        for row in hist[1:]:
            c_lo, c_hi, g_lo, g_hi = (float(v) for v in row.split(","))
            assert g_lo < 0 < g_hi

    def test_round_trip_through_verify(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, SCALAR_SPEED_CONFIG.format(out=out))
        assert main(["speed", "--config", cfg]) == 0
        report = json.loads((out / "report.json").read_text())
        c_star = report["result"]["c_star"]

        out2 = tmp_path / "out2"
        cfg2 = write_config(tmp_path, f"""
[potential]
variant = scalar_cubic
alpha = 0.6

[mode]
c = {c_star!r}

[output]
directory = {out2}
""", name="verify.ini")
        assert main(["verify", "--config", cfg2, "--profile", str(out / "wave.csv")]) == 0
        report2 = json.loads((out2 / "report.json").read_text())
        # residuals that depend only on (c, profile) reproduce exactly
        for key in ("el_residual", "first_integral", "halfline_right",
                    "halfline_left", "halfline_slope", "decay_rate"):
            assert abs(report2["verify"][key]["value"] - report["verify"][key]["value"]) <= 1e-12

    def test_reproducible_digest(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, SCALAR_SPEED_CONFIG.format(out=out))
        assert main(["speed", "--config", cfg]) == 0
        first = (out / "report.json").read_bytes()
        assert main(["speed", "--config", cfg]) == 0
        second = (out / "report.json").read_bytes()
        ra, rb = json.loads(first), json.loads(second)
        assert ra["digest"] == rb["digest"]
        # byte-identical digest-covered sections: only timings may differ
        for r in (ra, rb):
            r.pop("timings")
        assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)

    def test_unconverged_minimizer_exits_2(self, tmp_path, monkeypatch, capsys):
        # the wave is still written and reported, but a minimizer that did
        # not converge is a solver failure, not a certified wave
        find_speed = gradwave.cli.find_speed

        def unconverged(*args, **kwargs):
            res = find_speed(*args, **kwargs)
            return dataclasses.replace(
                res, gamma_result=dataclasses.replace(res.gamma_result, converged=False))

        monkeypatch.setattr(gradwave.cli, "find_speed", unconverged)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, SCALAR_SPEED_CONFIG.format(out=out))
        assert main(["speed", "--config", cfg]) == 2
        report = json.loads((out / "report.json").read_text())
        assert report["result"]["gamma_result"]["converged"] is False
        assert (out / "wave.csv").exists() and (out / "bracket_history.csv").exists()
        assert "did not converge" in capsys.readouterr().err

    def test_bracket_failure_exits_2_with_probe_table(self, tmp_path, monkeypatch, capsys):
        real = gradwave.speed.compute_bounds
        monkeypatch.setattr(gradwave.speed, "compute_bounds",
                            lambda *args: dataclasses.replace(real(*args), bracket_hi=0.05))
        cfg = write_config(tmp_path, SCALAR_SPEED_CONFIG.format(out=tmp_path / "out")
                           .replace("h = 0.02", "h = 0.05"))
        assert main(["speed", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "no positive minimum energy found up to c=0.569531" in err
        table = err.split("probe table (c, gamma):\n")[1].splitlines()
        assert [row.split()[0] for row in table] == [
            "0.25041", "0.05", "0.075", "0.1125", "0.16875", "0.253125", "0.379688", "0.569531"]


class TestVerifyCommand:
    def _write_wave_csv(self, tmp_path, spec, shift_extra=0.0):
        grid = Grid.uniform(-50.0, 21.0, 0.01)
        vals = np.tanh(grid.nodes + X0_TANH + shift_extra)[:, None]
        vals[-1] = 1.0
        prof = Profile(grid=grid, values=vals, well_b=np.array([1.0]))
        path = tmp_path / "wave.csv"
        write_csv(path, prof, spec)
        return path

    def test_external_wave_passes(self, tmp_path, scalar_spec):
        path = self._write_wave_csv(tmp_path, scalar_spec)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, f"""
[potential]
variant = scalar_cubic
alpha = 0.6

[mode]
c = 0.6

[output]
directory = {out}
""")
        assert main(["verify", "--config", cfg, "--profile", str(path)]) == 0

    def test_wrong_speed_fails_el(self, tmp_path, scalar_spec):
        path = self._write_wave_csv(tmp_path, scalar_spec)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, f"""
[potential]
variant = scalar_cubic
alpha = 0.6

[mode]
c = 0.7

[output]
directory = {out}
""")
        assert main(["verify", "--config", cfg, "--profile", str(path)]) == 3
        report = json.loads((out / "report.json").read_text())
        assert report["verify"]["el_residual"]["pass"] is False

    def test_truncated_tail_fails_decay(self, tmp_path, scalar_spec):
        grid = Grid.uniform(-10.0, 1.5, 0.05)
        vals = np.tanh(grid.nodes + X0_TANH)[:, None]
        vals[-1] = 1.0
        prof = Profile(grid=grid, values=vals, well_b=np.array([1.0]))
        path = tmp_path / "short.csv"
        write_csv(path, prof, scalar_spec)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, f"""
[potential]
variant = scalar_cubic
alpha = 0.6

[mode]
c = 0.6

[output]
directory = {out}
""")
        assert main(["verify", "--config", cfg, "--profile", str(path)]) == 3
        report = json.loads((out / "report.json").read_text())
        assert report["verify"]["decay_rate"]["pass"] is False


    VERIFY_CONFIG = """
[potential]
variant = scalar_cubic
alpha = 0.6

[mode]
c = 0.6

[output]
directory = {out}
"""

    def test_missing_profile_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.VERIFY_CONFIG.format(out=tmp_path / "out"))
        missing = tmp_path / "nope.csv"
        assert main(["verify", "--config", cfg, "--profile", str(missing)]) == 1
        assert "nope.csv" in capsys.readouterr().err

    def test_non_numeric_field_exits_2(self, tmp_path, scalar_spec, capsys):
        path = self._write_wave_csv(tmp_path, scalar_spec)
        lines = path.read_text().split("\n")
        fields = lines[3].split(",")
        fields[1] = "abc"
        lines[3] = ",".join(fields)
        path.write_text("\n".join(lines))
        cfg = write_config(tmp_path, self.VERIFY_CONFIG.format(out=tmp_path / "out"))
        assert main(["verify", "--config", cfg, "--profile", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 4" in err and "column 'u1'" in err and "'abc'" in err

    @pytest.mark.parametrize("col, text", [(1, "inf"), (1, "nan"), (0, "nan")])
    def test_non_finite_field_exits_2(self, tmp_path, scalar_spec, capsys, col, text):
        # rejected as read, before any check computes on it or a derived
        # column is blamed
        path = self._write_wave_csv(tmp_path, scalar_spec)
        lines = path.read_text().split("\n")
        fields = lines[3].split(",")
        fields[col] = text
        lines[3] = ",".join(fields)
        path.write_text("\n".join(lines))
        cfg = write_config(tmp_path, self.VERIFY_CONFIG.format(out=tmp_path / "out"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["verify", "--config", cfg, "--profile", str(path)]) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        name = ("x", "u1")[col]
        assert f"line 4, column '{name}': {text!r} is not a finite number" in err

    @pytest.mark.parametrize("col, name", [(-2, "W"), (-1, "du_norm")])
    def test_non_numeric_derived_column_exits_2(self, tmp_path, scalar_spec, capsys,
                                                col, name):
        # every field must parse, not only those read into the profile
        path = self._write_wave_csv(tmp_path, scalar_spec)
        lines = path.read_text().split("\n")
        fields = lines[5].split(",")
        fields[col] = "abc"
        lines[5] = ",".join(fields)
        path.write_text("\n".join(lines))
        cfg = write_config(tmp_path, self.VERIFY_CONFIG.format(out=tmp_path / "out"))
        assert main(["verify", "--config", cfg, "--profile", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 6" in err and f"column '{name}'" in err and "'abc'" in err

    @pytest.mark.parametrize("col, name, text", [(-2, "W", "12345.0"),
                                                 (-1, "du_norm", "0.0")])
    def test_wrong_derived_column_exits_2(self, tmp_path, scalar_spec, capsys,
                                          col, name, text):
        # W and du_norm must describe the profile, not only parse
        path = self._write_wave_csv(tmp_path, scalar_spec)
        lines = path.read_text().split("\n")
        row = 5001  # the node at x = 0, where |u'| is near its largest
        for i in range(1, len(lines) - 1):
            if col == -2 or i == row:
                fields = lines[i].split(",")
                fields[col] = text
                lines[i] = ",".join(fields)
        path.write_text("\n".join(lines))
        cfg = write_config(tmp_path, self.VERIFY_CONFIG.format(out=tmp_path / "out"))
        assert main(["verify", "--config", cfg, "--profile", str(path)]) == 2
        err = capsys.readouterr().err
        line = 2 if col == -2 else row + 1
        assert f"line {line}," in err and f"column '{name}'" in err and repr(text) in err

    def test_empty_profile_exits_2(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("")
        cfg = write_config(tmp_path, self.VERIFY_CONFIG.format(out=tmp_path / "out"))
        assert main(["verify", "--config", cfg, "--profile", str(path)]) == 2
        assert "header mismatch" in capsys.readouterr().err


class TestPotentialAnalysedOnce:
    def test_speed_and_verify_scan_and_search_once(self, tmp_path, monkeypatch):
        # compute_constants validates on its one scan and carries the
        # equilibria, so no later step repeats either
        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        find_equilibria = counted("find_equilibria", gradwave.potential.find_equilibria)
        for module in (gradwave.potential, gradwave.cli, gradwave.verify):
            monkeypatch.setattr(module, "find_equilibria", find_equilibria)
        # the multi-point grid_value calls are the scan's slabs, the box's
        # faces and the search windows around b; the assumption checks also
        # probe the kernel at one-point grids.  Calls made while the search
        # for d runs are its windows
        points = {"scan": collections.Counter(), "window": collections.Counter()}
        in_window = []
        nearest_negative = gradwave.potential._nearest_negative

        def nearest_counted(*args):
            in_window.append(True)
            try:
                return nearest_negative(*args)
            finally:
                in_window.pop()

        monkeypatch.setattr(gradwave.potential, "_nearest_negative", nearest_counted)
        build_potential = gradwave.cli.build_potential

        def build_counted(cfg):
            spec = build_potential(cfg)

            def grid_value(axes):
                if any(len(a) > 1 for a in axes):
                    kind = "window" if in_window else "scan"
                    points[kind].update(itertools.product(*(a.tolist() for a in axes)))
                return spec.grid_value(axes)
            return dataclasses.replace(spec, grid_value=grid_value)

        monkeypatch.setattr(gradwave.cli, "build_potential", build_counted)

        out = tmp_path / "out"
        cfg = write_config(tmp_path, SCALAR_SPEED_CONFIG.format(out=out))
        # scalar_cubic's faces are single points: every multi-point call
        # outside the windows belongs to the scan, which covers its 401
        # points once; the windows stay inside it
        scan = collections.Counter((x,) for x in np.linspace(-2.0, 2.0, 401).tolist())

        def analysed_once():
            assert points["scan"] == scan
            assert points["window"] and set(points["window"]) <= set(scan)
            assert calls == {"find_equilibria": 1}

        assert main(["speed", "--config", cfg]) == 0
        analysed_once()

        calls.clear()
        for counter in points.values():
            counter.clear()
        c_star = json.loads((out / "report.json").read_text())["result"]["c_star"]
        cfg2 = write_config(tmp_path, f"""
[potential]
variant = scalar_cubic
alpha = 0.6

[mode]
c = {c_star!r}

[output]
directory = {tmp_path / "out2"}
""", name="verify.ini")
        assert main(["verify", "--config", cfg2, "--profile", str(out / "wave.csv")]) == 0
        analysed_once()


@pytest.mark.parametrize("command", ["speed", "verify"])
def test_stdout_lists_checks_then_report(tmp_path, monkeypatch, capsys, scalar_spec, command):
    # speed first prints c*; both then print one line per check, in the
    # order run_verify made them, and last the report's path
    reports = []
    run_verify = gradwave.cli.run_verify

    def recorded(*args):
        reports.append(run_verify(*args))
        return reports[-1]

    monkeypatch.setattr(gradwave.cli, "run_verify", recorded)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, SCALAR_SPEED_CONFIG.format(out=out)
                       .replace("c_tol = 5e-3", "c_tol = 5e-3\nc = 0.6"))
    argv = [command, "--config", cfg]
    if command == "verify":
        grid = Grid.uniform(-50.0, 21.0, 0.01)
        vals = np.tanh(grid.nodes + X0_TANH)[:, None]
        vals[-1] = 1.0
        write_csv(tmp_path / "wave.csv", Profile(grid=grid, values=vals, well_b=np.array([1.0])),
                  scalar_spec)
        argv += ["--profile", str(tmp_path / "wave.csv")]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    report = json.loads((out / "report.json").read_text())
    (checks,) = [r.checks for r in reports]
    expected = [f"  {name:20s} {val:12.6g}  {'PASS' if ok else 'FAIL'}"
                for name, (val, _, ok) in checks.items()]
    if command == "speed":
        res = report["result"]
        expected.insert(0, f"c* = {res['c_star']:.6g}   gamma(c*) = {res['gamma_at_c_star']:+.3e}")
    assert lines == expected + [f"report: {out / 'report.json'}"]
    assert [line.split()[0] for line in lines[-1 - len(checks):-1]] == list(checks)


def test_cli_import_leaves_scipy_optimize_unloaded(tmp_path, scalar_spec):
    # importing scipy.optimize costs a fresh process about 0.4 s; nothing in
    # the package needs it.  scipy.linalg costs about 0.2 s and 20 MB, and
    # only the descent needs it, so bounds and verify never load it and the
    # first minimize_profile does
    grid = Grid.uniform(-50.0, 21.0, 0.01)
    vals = np.tanh(grid.nodes + X0_TANH)[:, None]
    vals[-1] = 1.0
    wave = tmp_path / "wave.csv"
    write_csv(wave, Profile(grid=grid, values=vals, well_b=np.array([1.0])), scalar_spec)
    cfg = write_config(tmp_path, f"[potential]\n{SCALAR}\n\n[mode]\nc = 0.6\n\n"
                                 f"[output]\ndirectory = {tmp_path / 'out'}\n")
    src = str(Path(gradwave.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = f"""
import json, sys
def loaded():
    return [name for name in ("scipy.optimize", "scipy.linalg") if name in sys.modules]
stages = {{}}
import gradwave
stages["import gradwave"] = loaded()
import gradwave.cli
stages["import gradwave.cli"] = loaded()
assert gradwave.cli.main(["bounds", "--config", {cfg!r}]) == 0
stages["bounds"] = loaded()
assert gradwave.cli.main(["verify", "--config", {cfg!r}, "--profile", {str(wave)!r}]) == 0
stages["verify"] = loaded()
spec = gradwave.scalar_cubic(0.6)
consts = gradwave.compute_constants(spec)
grid = gradwave.Grid.uniform(-20.0, 12.0, 0.05)
gradwave.minimize_profile(spec, consts, gradwave.FunctionalParams(c=0.5), grid,
                          gradwave.segment_profile(spec, grid, consts.point_a), 1e-6)
stages["minimize_profile"] = loaded()
print(json.dumps(stages))
"""
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1]) == {
        "import gradwave": [], "import gradwave.cli": [], "bounds": [], "verify": [],
        "minimize_profile": ["scipy.linalg"]}
