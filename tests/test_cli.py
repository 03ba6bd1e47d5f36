"""Command-line front end: config validation, runs, reports, round trips."""

import collections
import json

import numpy as np
import pytest

import gradwave.cli
import gradwave.potential
import gradwave.verify
from gradwave import Grid, Profile, write_csv
from gradwave.cli import main
from conftest import X0_TANH

SCALAR_SPEED_CONFIG = """
[potential]
variant = scalar_cubic
alpha = 0.6

[grid]
h = 0.02

[solver]
opt_tol = 1e-6
restarts = 1
seed = 0

[mode]
c_tol = 5e-3

[output]
directory = {out}
"""


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

    def test_gamma_requires_mode(self, tmp_path, capsys):
        cfg = write_config(tmp_path, """
[potential]
variant = scalar_cubic
alpha = 0.6
""")
        assert main(["gamma", "--config", cfg]) == 1


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
        assert report["schema_version"] == 1
        assert report["constants"]["m"] == pytest.approx(2.4, abs=1e-6)
        assert report["constants"]["mu"] == pytest.approx(1.6, abs=1e-9)
        lo, hi = report["result"]["bracket"]
        assert lo < 1.2 <= hi


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
restarts = 0

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
restarts = 0

[mode]
c_list = 0.4, 0.9

[output]
directory = {out}
""")
        assert main(["gamma", "--config", cfg]) == 0
        rows = (out / "gamma_vs_c.csv").read_text().strip().splitlines()
        gammas = [float(r.split(",")[1]) for r in rows[1:]]
        assert gammas[0] < 0 < gammas[1]


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
        monkeypatch.setattr(gradwave.potential, "_scan_points",
                            counted("_scan_points", gradwave.potential._scan_points))

        out = tmp_path / "out"
        cfg = write_config(tmp_path, SCALAR_SPEED_CONFIG.format(out=out))
        assert main(["speed", "--config", cfg]) == 0
        assert calls == {"find_equilibria": 1, "_scan_points": 1}

        calls.clear()
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
        assert calls == {"find_equilibria": 1, "_scan_points": 1}
