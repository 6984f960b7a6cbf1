import json
import os
import sys
import tracemalloc

import numpy as np
import pytest

from toomlab import cli
from toomlab.rules import builtin


def run(tmp_path, command, config, *extra):
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    argv = [command, "--config", str(path), "--out", str(out), *extra]
    code = cli.main(argv)
    return code, out


def read_json(path):
    return json.loads(path.read_text())


class TestCheck:
    def test_nec_eroder_exit_zero(self, tmp_path, capsys):
        code, out = run(tmp_path, "check", {"rule": "nec", "eps": 1e-40})
        assert code == 0
        report = read_json(out / "bounds_report.json")["bounds"]
        assert report["q"] == 3 and report["admissible"]
        cert = read_json(out / "certificate.json")["certificate"]
        assert cert["verdict"] == "ERODER"
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "ERODER"

    def test_majority1d_exit_two_with_witness(self, tmp_path, capsys):
        code, out = run(tmp_path, "check", {"rule": "majority1d"})
        assert code == 2
        cert = read_json(out / "certificate.json")["certificate"]
        assert cert["verdict"] == "NON_ERODER"
        assert cert["witness"] == ["0/1"]

    def test_invalid_rule_exit_one(self, tmp_path, capsys):
        rule_file = tmp_path / "xor.json"
        rule_file.write_text(
            '{"dimension": 1, "neighborhood": [[0], [1]], "table": "6"}'
        )
        code, out = run(tmp_path, "check", {"rule": str(rule_file)})
        assert code == 1
        report = read_json(out / "check_report.json")
        assert report["rule_valid"] is False
        assert report["monotone"] is False
        assert report["witness"] is not None

    def test_unknown_field_rejected(self, tmp_path, capsys):
        code, _ = run(tmp_path, "check", {"rule": "nec", "bogus": 1})
        assert code == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert "bogus" in err["message"]


class TestErode:
    def test_stavskaya_island_five(self, tmp_path, capsys):
        code, out = run(
            tmp_path, "erode",
            {"rule": "stavskaya", "island": [[0], [1], [2], [3], [4]],
             "dims": [64], "cutoff": 16},
        )
        assert code == 0
        report = read_json(out / "erosion_report.json")
        assert report["erased"] and report["steps"] == 5

    def test_nec_square_island(self, tmp_path):
        island = [[i, j] for i in range(3) for j in range(3)]
        code, out = run(
            tmp_path, "erode",
            {"rule": "nec", "island": island, "dims": [64, 64], "cutoff": 24},
        )
        assert code == 0
        report = read_json(out / "erosion_report.json")
        assert report["erased"] and report["steps"] <= 64 * 4
        # exact step count and shrink profile, frozen from the first run
        assert report["steps"] == 5
        assert report["sizes"] == [8, 6, 3, 1, 0]

    def test_majority1d_persists(self, tmp_path):
        code, out = run(
            tmp_path, "erode",
            {"rule": "majority1d", "island": [[0], [1]], "dims": [60], "cutoff": 25},
        )
        assert code == 0
        report = read_json(out / "erosion_report.json")
        assert not report["erased"]

    def test_frames_written(self, tmp_path):
        code, out = run(
            tmp_path, "erode",
            {"rule": "nec", "island": [[0, 0], [1, 1]], "dims": [40, 40],
             "cutoff": 10, "snapshot_every": 1},
        )
        assert code == 0
        frames = sorted(out.glob("erode_*.ppm"))
        assert frames
        head = frames[0].read_bytes()[:2]
        assert head == b"P6"


class TestSimulate:
    def test_density_csv(self, tmp_path):
        code, out = run(
            tmp_path, "simulate",
            {"rule": "stavskaya", "noise": {"kind": "symmetric", "eps": 0.1},
             "dims": [32], "steps": 20, "burn_in": 5, "seed": 3},
        )
        assert code == 0
        lines = (out / "density.csv").read_text().splitlines()
        assert lines[0].startswith("# config: ")
        assert lines[1] == "step,density"
        assert len(lines) == 23  # comment + header + 21 rows

    def test_zero_steps_initial_only(self, tmp_path, capsys):
        code, out = run(
            tmp_path, "simulate",
            {"rule": "stavskaya", "noise": {"kind": "symmetric", "eps": 0.1},
             "dims": [16], "steps": 0},
        )
        # no step follows the burn-in, so there is nothing to average
        assert code == 0 and json.loads(capsys.readouterr().out)["density_mean"] is None
        lines = (out / "density.csv").read_text().splitlines()
        assert len(lines) == 3 and lines[2] == "0,0.0"

    def test_byte_identical_reruns(self, tmp_path):
        cfg = {"rule": "stavskaya", "noise": {"kind": "symmetric", "eps": 0.15},
               "dims": [64], "steps": 30, "seed": 12}
        _, out1 = run(tmp_path, "simulate", cfg)
        body1 = (out1 / "density.csv").read_bytes()
        os.rename(out1 / "density.csv", out1 / "density_first.csv")
        _, out2 = run(tmp_path, "simulate", cfg)
        assert (out2 / "density.csv").read_bytes() == body1

    def test_threads_flag_does_not_change_results(self, tmp_path):
        cfg = {"rule": "nec", "noise": {"kind": "symmetric", "eps": 0.2},
               "dims": [16, 16], "steps": 20, "seed": 8}
        _, out1 = run(tmp_path, "simulate", cfg)
        body1 = (out1 / "density.csv").read_bytes()
        os.rename(out1 / "density.csv", out1 / "density_first.csv")
        _, out2 = run(tmp_path, "simulate", cfg, "--threads", "8")
        assert (out2 / "density.csv").read_bytes() == body1

    def test_strip_snapshot_1d(self, tmp_path):
        code, out = run(
            tmp_path, "simulate",
            {"rule": "stavskaya", "noise": {"kind": "symmetric", "eps": 0.2},
             "dims": [32], "steps": 10, "snapshot_every": 2, "seed": 4},
        )
        assert code == 0
        data = (out / "strip.ppm").read_bytes()
        assert data.startswith(b"P6")
        # strip has one row per recorded step plus the initial row
        assert b"32 6" in data[:200]

    def test_frames_2d(self, tmp_path):
        code, out = run(
            tmp_path, "simulate",
            {"rule": "nec", "noise": {"kind": "symmetric", "eps": 0.3},
             "dims": [8, 8], "steps": 4, "snapshot_every": 2, "seed": 4},
        )
        assert code == 0
        assert (out / "frame_000000.ppm").exists()
        assert (out / "frame_000002.ppm").exists()


class TestSeedPrecedence:
    def test_env_overrides_config(self, tmp_path, monkeypatch):
        cfg = {"rule": "stavskaya", "noise": {"kind": "symmetric", "eps": 0.2},
               "dims": [32], "steps": 10, "seed": 1}
        monkeypatch.setenv(cli.SEED_ENV, "777")
        _, out = run(tmp_path, "simulate", cfg)
        embedded = (out / "density.csv").read_text().splitlines()[0]
        assert '"seed":777' in embedded

    def test_flag_overrides_env(self, tmp_path, monkeypatch):
        cfg = {"rule": "stavskaya", "noise": {"kind": "symmetric", "eps": 0.2},
               "dims": [32], "steps": 10, "seed": 1}
        monkeypatch.setenv(cli.SEED_ENV, "777")
        _, out = run(tmp_path, "simulate", cfg, "--seed", "42")
        embedded = (out / "density.csv").read_text().splitlines()[0]
        assert '"seed":42' in embedded


class TestExact:
    def test_stavskaya_symmetric_report(self, tmp_path, capsys):
        code, out = run(
            tmp_path, "exact",
            {"rule": "stavskaya", "noise": {"kind": "symmetric", "eps": 0.1},
             "dims": [8], "tol": 1e-10},
        )
        assert code == 0
        report = read_json(out / "exact_report.json")
        assert len(report["stationary_marginal"]) == 2
        assert 0.0 < report["fitted_rate"] < 1.0
        assert report["duality_residual"] < 1e-12
        assert report["fit_r_squared"] > 0.99

    def test_biased_all_minus_point_mass(self, tmp_path):
        code, out = run(
            tmp_path, "exact",
            {"rule": "stavskaya", "noise": {"kind": "biased", "eps_plus": 0.3, "eps_minus": 0.0},
             "dims": [6], "tol": 1e-9, "max_iter": 2000000, "allow_absorbing": True},
        )
        assert code == 0
        report = read_json(out / "exact_report.json")
        # window marginal at the origin: essentially all mass on spin -1
        assert report["stationary_marginal"][0] > 0.999

    @pytest.mark.parametrize("config, solver", [
        ({"rule": "stavskaya", "noise": {"kind": "symmetric", "eps": 0.1}, "dims": [8]},
         "krylov"),
        ({"rule": "stavskaya", "noise": {"kind": "symmetric", "eps": 0.1}, "dims": [12],
          "tv_steps": 20}, "krylov"),
    ])
    def test_reports_stationary_route(self, tmp_path, config, solver):
        code, out = run(tmp_path, "exact", config)
        assert code == 0
        report = read_json(out / "exact_report.json")
        assert report["stationary_solver"] == solver
        assert report["stationary_iterations"] > 0
        assert 0.0 <= report["stationary_residual"] < 1e-10

    def test_refuses_a_law_not_proven_unique(self, tmp_path, capsys):
        # eps = 0 fixes both all-minus and all-plus: two closed classes
        code, out = run(
            tmp_path, "exact",
            {"rule": "stavskaya", "noise": {"kind": "symmetric", "eps": 0.0}, "dims": [6],
             "allow_absorbing": True, "tv_steps": 20},
        )
        assert code == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "ConfigError" and "not proven unique" in error["message"]
        assert not (out / "exact_report.json").exists()

    def test_absorbing_chain_needs_no_opt_in(self, tmp_path):
        # no allow_absorbing: the uniqueness proof alone admits the chain
        code, out = run(
            tmp_path, "exact",
            {"rule": "stavskaya", "noise": {"kind": "biased", "eps_plus": 0.3, "eps_minus": 0.0},
             "dims": [6]},
        )
        assert code == 0
        assert read_json(out / "exact_report.json")["stationary_marginal"][0] > 0.999

    def test_eleven_sites_hold_no_transition_matrix(self, tmp_path):
        # the 2^11 x 2^11 transition matrix alone is 32 MiB; the orbit route
        # holds a 188 x 188 matrix and 188 x 2^11 work arrays
        tracemalloc.start()
        try:
            code, out = run(
                tmp_path, "exact",
                {"rule": "stavskaya", "noise": {"kind": "symmetric", "eps": 0.1}, "dims": [11]},
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0 and read_json(out / "exact_report.json")["stationary_solver"] == "krylov"
        assert peak < 8 << 20

    def test_oversize_sweep_fails_as_json(self, tmp_path, capsys):
        code, out = run(
            tmp_path, "exact",
            {"rule": "nec", "noise": {"kind": "symmetric", "eps": 0.1}, "dims": [4, 6]},
        )
        assert code == 1
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "ResourceLimitError"
        assert not (out / "exact_report.json").exists()


class TestCorrelateScanDivergence:
    def test_correlate_csv_headers(self, tmp_path):
        code, out = run(
            tmp_path, "correlate",
            {"rule": "stavskaya", "noise": {"kind": "symmetric", "eps": 0.1},
             "dims": [8], "distances": [1, 2], "lags": [0, 1], "samples": 500,
             "burn_in": 20, "seed": 5},
        )
        assert code == 0
        for name in ("correlate_spatial.csv", "correlate_temporal.csv"):
            lines = (out / name).read_text().splitlines()
            assert lines[1] == "distance_or_lag,estimate,stderr,n"

    def test_correlate_needs_targets(self, tmp_path, capsys):
        code, _ = run(
            tmp_path, "correlate",
            {"rule": "stavskaya", "noise": {"kind": "symmetric", "eps": 0.1},
             "dims": [8], "samples": 10},
        )
        assert code == 1

    def test_scan_csv(self, tmp_path):
        code, out = run(
            tmp_path, "scan",
            {"rule": "stavskaya", "eps_grid": [0.05, 0.1], "dims": [64],
             "steps": 40, "burn_in": 20, "seed": 6},
        )
        assert code == 0
        lines = (out / "scan.csv").read_text().splitlines()
        assert lines[1] == "eps,density,stderr,n"
        assert len(lines) == 4

    def test_one_point_has_no_standard_error(self, tmp_path, capsys):
        # one post-burn-in point read density_se 0.0, claiming exactness
        noise = {"kind": "symmetric", "eps": 0.1}
        code, _ = run(tmp_path, "simulate",
                      {"rule": "nec", "noise": noise, "dims": [8, 8], "steps": 4, "burn_in": 3})
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and payload["density_se"] is None
        assert payload["density_mean"] is not None
        code, out = run(tmp_path, "scan",
                        {"rule": "nec", "eps_grid": [0.1], "dims": [8, 8], "steps": 3,
                         "burn_in": 2})
        assert code == 0 and json.loads(capsys.readouterr().out)["rows"][0]["stderr"] is None
        eps, density, stderr, n = (out / "scan.csv").read_text().splitlines()[2].split(",")
        assert stderr == "" and float(density) >= 0.0

    def test_no_point_after_burn_in_has_no_average(self, tmp_path, capsys):
        # with steps = burn_in the mean was the last burn-in point's density
        noise = {"kind": "symmetric", "eps": 0.1}
        code, out = run(tmp_path, "simulate",
                        {"rule": "nec", "noise": noise, "dims": [8, 8], "steps": 3, "burn_in": 3})
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and payload["density_mean"] is None and payload["density_se"] is None
        assert len((out / "density.csv").read_text().splitlines()) == 2 + 4
        code, out = run(tmp_path, "scan",
                        {"rule": "nec", "eps_grid": [0.1], "dims": [8, 8], "steps": 3,
                         "burn_in": 3})
        row = json.loads(capsys.readouterr().out)["rows"][0]
        assert code == 0 and row["density"] is None and row["n"] == 0
        assert (out / "scan.csv").read_text().splitlines()[2] == "0.1,,,0"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_one_sample_has_no_standard_error(self, tmp_path, capsys):
        # one replica read stderr 0.0, claiming exactness
        code, out = run(tmp_path, "correlate",
                        {"rule": "stavskaya", "noise": {"kind": "symmetric", "eps": 0.1},
                         "dims": [8], "distances": [1], "lags": [0, 1], "samples": 1,
                         "burn_in": 20})
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and not payload["spatial_valid"] and not payload["temporal_valid"]
        for kind, lines in (("spatial", 1), ("temporal", 2)):
            rows = (out / f"correlate_{kind}.csv").read_text().splitlines()[2:]
            assert [row.split(",")[2:] for row in rows] == [["", "1"]] * lines

    def test_divergence_merged(self, tmp_path, capsys):
        code, out = run(
            tmp_path, "divergence",
            {"rule": "nec", "noise": {"kind": "symmetric", "eps": 0.5},
             "dims": [8, 8], "steps": 10, "seed": 7},
        )
        assert code == 0
        report = read_json(out / "divergence_report.json")
        assert report["classification"] == "MERGED"
        lines = (out / "divergence.csv").read_text().splitlines()
        assert lines[1] == "step,mag_plus,mag_minus,gap"

    def test_divergence_inapplicable(self, tmp_path):
        code, out = run(
            tmp_path, "divergence",
            {"rule": "stavskaya", "noise": {"kind": "symmetric", "eps": 0.1},
             "dims": [16], "steps": 5, "seed": 1},
        )
        assert code == 0
        report = read_json(out / "divergence_report.json")
        assert report["classification"] == "INAPPLICABLE"
        assert not (out / "divergence.csv").exists()


class TestHygiene:
    def test_no_temp_files_left(self, tmp_path):
        _, out = run(
            tmp_path, "simulate",
            {"rule": "stavskaya", "noise": {"kind": "symmetric", "eps": 0.1},
             "dims": [16], "steps": 5},
        )
        assert not [p for p in out.iterdir() if p.name.startswith(".tmp_toomlab")]

    def test_timestamps_only_in_sidecar(self, tmp_path):
        _, out = run(
            tmp_path, "simulate",
            {"rule": "stavskaya", "noise": {"kind": "symmetric", "eps": 0.1},
             "dims": [16], "steps": 5},
        )
        assert (out / "toomlab.log").exists()
        body = (out / "density.csv").read_text()
        assert "20" not in body.splitlines()[0].split("config: ")[0]

    def test_missing_config_file(self, capsys):
        code = cli.main(["check", "--config", "/nonexistent/conf.json"])
        assert code == 1
        assert "error" in json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("exc", [ArithmeticError("pivot overflow"), AssertionError("bad basis")])
    def test_internal_errors_stay_json(self, tmp_path, capsys, monkeypatch, exc):
        def fail(family):
            raise exc

        monkeypatch.setattr(cli.certify, "check_eroder", fail)
        code, _ = run(tmp_path, "check", {"rule": "nec"})
        assert code == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == {"type": type(exc).__name__, "message": str(exc)}

    def test_bad_noise_kind(self, tmp_path, capsys):
        code, _ = run(
            tmp_path, "simulate",
            {"rule": "stavskaya", "noise": {"kind": "quantum"},
             "dims": [16], "steps": 5},
        )
        assert code == 1


def error_type(capsys):
    return json.loads(capsys.readouterr().out.splitlines()[-1])["error"]["type"]


class TestStrictInputs:
    SIM = {"rule": "nec", "noise": {"kind": "symmetric", "eps": 0.1}, "steps": 3}

    @pytest.mark.parametrize("dims", [[8.7, 8], [True, 8], ["8", 8], 8])
    def test_non_integer_dims_rejected(self, tmp_path, capsys, dims):
        code, _ = run(tmp_path, "simulate", dict(self.SIM, dims=dims))
        assert code == 1 and error_type(capsys) == "ConfigError"

    @pytest.mark.parametrize("noise", [
        {"kind": "symmetric", "eps": "0.1"},
        {"kind": "biased", "eps_plus": True, "eps_minus": 0.0},
        {"kind": "table", "p_plus": ["0.5"] * 8},
    ])
    def test_string_noise_rejected(self, tmp_path, capsys, noise):
        code, _ = run(tmp_path, "simulate", dict(self.SIM, dims=[8, 8], noise=noise))
        assert code == 1 and error_type(capsys) == "ConfigError"

    def test_zero_samples_rejected(self, tmp_path, capsys):
        code, out = run(
            tmp_path, "correlate",
            {"rule": "stavskaya", "noise": {"kind": "symmetric", "eps": 0.1},
             "dims": [8], "distances": [1], "lags": [0], "samples": 0},
        )
        assert code == 1 and error_type(capsys) == "ConfigError"
        assert not (out / "correlate_spatial.csv").exists()

    def test_negative_distance_rejected(self, tmp_path, capsys):
        # on a ring of 8, -5 would alias distance 3 and enter the fit at x = -5
        code, out = run(
            tmp_path, "correlate",
            {"rule": "stavskaya", "noise": {"kind": "symmetric", "eps": 0.1},
             "dims": [8], "distances": [-5, 1, 2], "samples": 10},
        )
        assert code == 1 and error_type(capsys) == "ConfigError"
        assert not (out / "correlate_spatial.csv").exists()

    def test_negative_burn_in_rejected(self, tmp_path, capsys):
        code, out = run(
            tmp_path, "correlate",
            {"rule": "stavskaya", "noise": {"kind": "symmetric", "eps": 0.1},
             "dims": [8], "lags": [0, 1], "samples": 10, "burn_in": -5},
        )
        assert code == 1 and error_type(capsys) == "ConfigError"
        assert not (out / "correlate_temporal.csv").exists()

    def test_zero_divergence_steps_rejected(self, tmp_path, capsys):
        # with no step taken the verdict would rest on the initial condition
        code, out = run(
            tmp_path, "divergence",
            {"rule": "nec", "noise": {"kind": "symmetric", "eps": 0.5},
             "dims": [8, 8], "steps": 0},
        )
        assert code == 1 and error_type(capsys) == "ConfigError"
        assert not (out / "divergence_report.json").exists()

    EXACT = {"rule": "stavskaya", "noise": {"kind": "symmetric", "eps": 0.1}, "dims": [6],
             "tv_steps": 5}

    @pytest.mark.parametrize("fields, error", [
        ({"window": [[0], [6]]}, "ConfigError"),  # site 6 wraps onto site 0
        ({"window": [[i] for i in range(21)]}, "ResourceLimitError"),  # over MAX_WINDOW
        ({"window": [[i] for i in range(45)]}, "ResourceLimitError"),
        ({"tv_steps": -3}, "ConfigError"),
        ({"max_iter": 0}, "ConfigError"),
    ], ids=["wrapped-duplicate", "window-21", "window-45", "negative-tv-steps", "zero-max-iter"])
    def test_bad_exact_input_rejected(self, tmp_path, capsys, fields, error):
        # refused before anything window-sized (2^21 doubles is 16 MiB) exists
        tracemalloc.start()
        try:
            code, out = run(tmp_path, "exact", dict(self.EXACT, **fields))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1 and error_type(capsys) == error
        assert peak < 1 << 20
        assert not (out / "exact_report.json").exists()

    @pytest.mark.parametrize("command, config, artifact", [
        ("check", {"rule": "nec", "K": float("nan")}, "bounds_report.json"),
        ("check", {"rule": "nec", "alpha": float("inf")}, "bounds_report.json"),
        ("exact", dict(EXACT, tol=float("inf")), "exact_report.json"),
    ], ids=["check-K-nan", "check-alpha-infinity", "exact-tol-infinity"])
    def test_non_finite_floats_rejected(self, tmp_path, capsys, command, config, artifact):
        # json reads NaN and Infinity; they would reach the artifact as C, K,
        # sigma or a uniform "law" with residual 0.48
        code, out = run(tmp_path, command, config)
        assert code == 1 and error_type(capsys) == "ConfigError"
        assert not (out / artifact).exists()

    @pytest.mark.parametrize("command, config", [
        ("erode", {"rule": "stavskaya", "island": [0, 1], "dims": [64], "cutoff": 16}),
        ("simulate", {"rule": "majority3d", "noise": {"kind": "symmetric", "eps": 0.1},
                      "dims": [3, 3, 3], "steps": 2}),
    ])
    def test_snapshots_of_unsupported_dimension_rejected(self, tmp_path, capsys, command,
                                                          config):
        # erode draws frames of 2-d rules only, simulate of 1-d and 2-d ones;
        # a requested frame that cannot be drawn is an error, not a silent skip
        if config["rule"] == "majority3d":
            rule_file = tmp_path / "majority3d.json"
            rule_file.write_text(
                '{"dimension": 3, "neighborhood": [[0, 0, 0], [1, 0, 0], [0, 1, 0]],'
                ' "table": "e8"}'
            )
            config = dict(config, rule=str(rule_file))
        code, out = run(tmp_path, command, dict(config, snapshot_every=1))
        error = json.loads(capsys.readouterr().out)["error"]
        assert code == 1 and error["type"] == "ConfigError" and "snapshots" in error["message"]
        assert not list(out.iterdir())

    @pytest.mark.parametrize("command, config", [
        ("erode", {"rule": "nec", "island": [[0, 0]], "dims": [16, 16], "cutoff": 4}),
        ("simulate", dict(SIM, dims=[8, 8])),
    ])
    def test_negative_snapshot_every_rejected(self, tmp_path, capsys, command, config):
        # it ran to exit 0 with no frame written
        code, out = run(tmp_path, command, dict(config, snapshot_every=-2))
        assert code == 1 and error_type(capsys) == "ConfigError"
        assert not list(out.iterdir())

    def test_empty_eps_grid_rejected(self, tmp_path, capsys):
        code, out = run(
            tmp_path, "scan", {"rule": "stavskaya", "eps_grid": [], "dims": [16], "steps": 3},
        )
        assert code == 1 and error_type(capsys) == "ConfigError"
        assert not (out / "scan.csv").exists()


class TestOneTrajectoryPerCommand:
    def count_calls(self, monkeypatch, name):
        calls = []
        original = getattr(cli.engine, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli.engine, name, counted)
        return calls

    def test_simulate_snapshots_come_from_the_reported_run(self, tmp_path, monkeypatch):
        steps = []
        step = cli.engine._PackedCore.step

        def counted(self, words, t):
            steps.append(t)
            return step(self, words, t)

        monkeypatch.setattr(cli.engine._PackedCore, "step", counted)
        code, out = run(
            tmp_path, "simulate",
            {"rule": "nec", "noise": {"kind": "symmetric", "eps": 0.1},
             "dims": [16, 16], "steps": 6, "snapshot_every": 3},
        )
        assert code == 0 and steps == list(range(6))
        assert sorted(p.name for p in out.glob("*.ppm")) == [
            "frame_000000.ppm", "frame_000003.ppm", "frame_000006.ppm"]

    def test_erode_snapshots_come_from_the_reported_run(self, tmp_path, monkeypatch):
        calls = self.count_calls(monkeypatch, "evolve")
        code, out = run(
            tmp_path, "erode",
            {"rule": "nec", "island": [[0, 0], [0, 1]], "dims": [16, 16], "cutoff": 6,
             "snapshot_every": 1},
        )
        steps = read_json(out / "erosion_report.json")["steps"]
        assert code == 0 and calls == []
        assert len(list(out.glob("erode_*.ppm"))) == steps + 1

    def test_simulate_sizes_its_run_once(self, tmp_path, monkeypatch):
        calls = self.count_calls(monkeypatch, "working_bytes")
        code, _ = run(
            tmp_path, "simulate",
            {"rule": "nec", "noise": {"kind": "symmetric", "eps": 0.1},
             "dims": [16, 16], "steps": 6},
        )
        assert code == 0 and len(calls) == 1

    def test_exact_builds_one_kernel(self, tmp_path, monkeypatch):
        # the stationary solve, the TV curve and the duality check share one
        # kernel, so the orbit matrix is built once
        built = []

        class Counted(cli.oracle.ExactKernel):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(cli.oracle, "ExactKernel", Counted)
        code, _ = run(
            tmp_path, "exact",
            {"rule": "stavskaya", "noise": {"kind": "symmetric", "eps": 0.1}, "dims": [8],
             "tv_steps": 10},
        )
        assert code == 0 and len(built) == 1

    def test_exact_duality_check_builds_no_sweep_plan(self, tmp_path, monkeypatch):
        # up to 11 sites pi T is one apply of the orbit matrix
        def refused(*args):
            raise AssertionError("sweep plan built")

        monkeypatch.setattr(cli.oracle, "_sweep_plan", refused)
        code, out = run(
            tmp_path, "exact",
            {"rule": "stavskaya", "noise": {"kind": "symmetric", "eps": 0.1}, "dims": [11]},
        )
        assert code == 0 and read_json(out / "exact_report.json")["duality_residual"] < 1e-12

    def test_correlate_burns_in_once(self, tmp_path, monkeypatch, capsys):
        cores = {}  # id -> (core, steps), the core held so no id is reused
        step = cli.engine._PackedCore.step

        def counted(self, words, t):
            cores.setdefault(id(self), (self, []))[1].append(t)
            return step(self, words, t)

        monkeypatch.setattr(cli.engine._PackedCore, "step", counted)
        samples, burn_in = 2000, 60
        code, _ = run(
            tmp_path, "correlate",
            {"rule": "stavskaya", "noise": {"kind": "symmetric", "eps": 0.2}, "dims": [8],
             "distances": [1], "lags": [0, 2], "samples": samples, "burn_in": burn_in,
             "seed": 0},
        )
        report = json.loads(capsys.readouterr().out)
        window, stragglers = report["burn_in_window"], report["burn_in_stragglers"]
        # the probe on ceil(M / 64) replicas runs from step 0 until its rows
        # meet, at or after the first window; the full batch steps that
        # window once, then the lag-2 continuation; each straggler core
        # steps the last min(2w, burn_in) steps, w the window before it
        (probe, probe_steps), (batch, batch_steps), *others = cores.values()
        assert code == 0 and probe.dims[0] == -(-samples // 64) and batch.dims[0] == samples
        assert probe_steps == list(range(len(probe_steps))) and window <= len(probe_steps)
        assert batch_steps == list(range(burn_in - window, burn_in + 2))
        assert others and others[0][0].dims[0] == stragglers
        w = window
        for core, steps in others:
            w = min(2 * w, burn_in)
            assert core.dims[0] <= stragglers and steps == list(range(burn_in - w, burn_in))

    @pytest.mark.parametrize("eps, route", [(0.1, "window"), (0.7, "plain")])
    def test_correlate_reports_its_burn_in_window(self, tmp_path, capsys, eps, route):
        # eps 0.7 turns the kernel anti-monotone, so no sandwich holds
        config = {"rule": "stavskaya", "noise": {"kind": "symmetric", "eps": eps},
                  "dims": [8], "distances": [1], "lags": [1], "samples": 500, "burn_in": 60}
        windows = []
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            assert run(tmp_path / name, "correlate", config)[0] == 0
            report = json.loads(capsys.readouterr().out)
            windows.append((report["burn_in_window"], report["burn_in_stragglers"]))
        assert windows[0] == windows[1]
        if route == "window":
            assert 0 < windows[0][0] <= 10
        else:
            assert windows[0] == (60, 0)

    def test_divergence_reports_coalescence(self, tmp_path, capsys):
        config = {"rule": "nec", "noise": {"kind": "symmetric", "eps": 0.5},
                  "dims": [8, 8], "steps": 10, "seed": 7}
        code, out = run(tmp_path, "divergence", config)
        report = read_json(out / "divergence_report.json")
        assert code == 0 and report["classification"] == "MERGED"
        assert report["coalescence_step"] == 1
        code, out = run(tmp_path, "divergence", dict(config, noise={"kind": "symmetric", "eps": 0.0}))
        assert read_json(out / "divergence_report.json")["coalescence_step"] is None


    def test_every_step_goes_through_the_one_loop(self, tmp_path, monkeypatch):
        callers = []
        step = cli.engine._PackedCore.step

        def recorded(self, words, t):
            callers.append(sys._getframe(1).f_code.co_name)
            return step(self, words, t)

        monkeypatch.setattr(cli.engine._PackedCore, "step", recorded)
        noise = {"kind": "symmetric", "eps": 0.1}
        configs = {
            "simulate": {"rule": "nec", "noise": noise, "dims": [8, 8], "steps": 4,
                         "snapshot_every": 2},
            "erode": {"rule": "nec", "island": [[0, 0], [0, 1]], "dims": [16, 16],
                      "cutoff": 4, "snapshot_every": 1},
            "divergence": {"rule": "nec", "noise": noise, "dims": [8, 8], "steps": 6},
            "scan": {"rule": "nec", "noise_kind": "symmetric", "eps_grid": [0.1, 0.2],
                     "dims": [8, 8], "steps": 4, "burn_in": 2},
            "correlate": {"rule": "stavskaya", "noise": noise, "dims": [8],
                          "distances": [1], "lags": [0, 2], "samples": 200, "burn_in": 30},
        }
        for command, config in configs.items():
            (tmp_path / command).mkdir()
            before = len(callers)
            assert run(tmp_path / command, command, config)[0] == 0
            assert len(callers) > before, command
        before = len(callers)
        state = cli.engine.LatticeState.all_plus((8,))
        cli.engine.evolve(state, builtin("stavskaya"), None, cli.engine.RngKey(0), 0, 3)
        assert len(callers) == before + 3
        assert set(callers) == {"run"}


class TestSnapshotsStream:
    NOISE = {"kind": "symmetric", "eps": 0.1}

    @pytest.mark.parametrize("command, config", [
        ("simulate", {"rule": "nec", "noise": NOISE, "dims": [64, 64], "steps": 100}),
        ("simulate", {"rule": "stavskaya", "noise": NOISE, "dims": [4096], "steps": 100}),
        ("erode", {"rule": "nec", "island": [[i, j] for i in range(10) for j in range(10)],
                   "dims": [64, 64], "cutoff": 23}),
    ])
    def test_frames_are_written_as_taken(self, tmp_path, command, config):
        # a frame kept until the run ends costs a byte per site, so these
        # runs would hold 20-100 frames; written as taken, the snapshots add
        # at most one frame's encoding (a 3-byte pixel, copied) to the peak
        def peak(cfg, name):
            (tmp_path / name).mkdir()
            tracemalloc.start()
            try:
                assert run(tmp_path / name, command, cfg)[0] == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(config, "warm")
        extra = peak(dict(config, snapshot_every=1), "frames") - peak(config, "plain")
        assert extra < 12 * 4096


class TestMonteCarloCap:
    NOISE = {"kind": "symmetric", "eps": 0.1}

    @pytest.mark.parametrize("command, config", [
        ("simulate", {"rule": "nec", "noise": NOISE, "dims": [4096, 4096], "steps": 1,
                      "snapshot_every": 1}),
        ("divergence", {"rule": "nec", "noise": NOISE, "dims": [4096, 4096], "steps": 1}),
        ("correlate", {"rule": "nec", "noise": NOISE, "dims": [64, 64], "samples": 10000,
                       "burn_in": 1, "distances": [1], "lags": [1]}),
        ("erode", {"rule": "nec", "island": [[0, 0]], "dims": [4096, 4096], "cutoff": 2,
                   "snapshot_every": 1}),
        # the per-step float64 series alone are 8 TB and 16 TB
        ("simulate", {"rule": "stavskaya", "noise": NOISE, "dims": [16], "steps": 10**12}),
        ("divergence", {"rule": "nec", "noise": NOISE, "dims": [8, 8], "steps": 10**12}),
        # a 20 kB batch the step admits, but 1.4 MB of float64 estimates
        ("correlate", {"rule": "stavskaya", "noise": NOISE, "dims": [8], "samples": 20000,
                       "burn_in": 12, "distances": [1], "lags": [1]}),
    ])
    def test_refused_before_anything_lattice_sized(self, tmp_path, capsys, monkeypatch,
                                                   command, config):
        # each packed lattice or estimate here is over 1 MiB, so a traced
        # peak under the cap means none was allocated before the refusal
        cap = 1 << 20
        monkeypatch.setattr(cli.engine, "MAX_MC_BYTES", cap)
        tracemalloc.start()
        try:
            code, out = run(tmp_path, command, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1 and error_type(capsys) == "ResourceLimitError"
        assert peak < cap
        assert not any(p.suffix in (".csv", ".ppm") for p in out.iterdir())
