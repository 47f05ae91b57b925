"""Command-line interface: config parsing, output formats, exit codes."""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import satcrb.cli as cli_mod
from satcrb import closed_form, coverage, geometry, signal_ml, verify
from satcrb.cli import (
    DEFAULT_SEED,
    GRID_MAX,
    _grid_values,
    load_run_config,
    main,
)
from satcrb.closed_form import DegenerateGeometry, lcrb_tdoa
from satcrb.coverage import Unachievable
from satcrb.fim import SingularInformation
from satcrb.geometry import InvalidConfig, SystemParams, cup_edges
from satcrb.signal_ml import default_signal_config
from satcrb.verify import CHECKS, Check, CheckResult, run_verification

C_KM_S = 299792.458
# the directory the satcrb under test is imported from, for the subprocesses
PACKAGE_ROOT = str(Path(cli_mod.__file__).resolve().parent.parent)


def invoke(args, **kwargs):
    runner = CliRunner()
    return runner.invoke(main, args, catch_exceptions=False, **kwargs)


class TestConfigLoading:
    def test_defaults(self):
        run = load_run_config(None)
        assert run.params.r == 6371.0
        assert run.params.h == 20000.0
        assert run.params.phi_l_max == pytest.approx(math.radians(60.0))
        assert run.params.eta_rho == 6.4e13
        assert run.params.n_sats == 250
        assert run.signal == default_signal_config(run.params.c)
        assert run.seed == DEFAULT_SEED
        assert run.format == "csv"
        assert run.output_path is None

    def test_key_value_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment line\n"
            "h = 5000\n"
            "phi_l_max = 45\n"
            "n_sats = 100\n"
            "seed = 7\n"
            "format = json\n"
        )
        run = load_run_config(str(cfg))
        assert run.params.h == 5000.0
        assert run.params.phi_l_max == pytest.approx(math.radians(45.0))
        assert run.params.n_sats == 100
        assert run.seed == 7
        assert run.format == "json"

    def test_json_file_equivalent(self, tmp_path):
        kv = tmp_path / "run.cfg"
        kv.write_text("h = 5000\nphi_l_max = 45\nn_sats = 100\nseed = 7\n")
        js = tmp_path / "run.json"
        js.write_text(
            json.dumps({"h": 5000, "phi_l_max": 45, "n_sats": 100, "seed": 7})
        )
        a = load_run_config(str(kv))
        b = load_run_config(str(js))
        assert a == b

    def test_angle_is_degrees_in_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("phi_l_max = 90\n")
        run = load_run_config(str(cfg))
        assert run.params.phi_l_max == pytest.approx(math.pi / 2.0)

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("not_a_field = 3\n")
        with pytest.raises(InvalidConfig, match="not_a_field"):
            load_run_config(str(cfg))

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some words\n")
        with pytest.raises(InvalidConfig, match="key = value"):
            load_run_config(str(cfg))

    def test_cli_overrides_beat_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 7\nformat = json\n")
        run = load_run_config(str(cfg), seed=11, fmt="csv")
        assert run.seed == 11
        assert run.format == "csv"

    @pytest.mark.parametrize("value", ["-1", "18446744073709551616", "1.5"])
    def test_bad_file_seed_exits_2(self, tmp_path, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed = {value}\n")
        with pytest.raises(InvalidConfig, match="seed must be an integer"):
            load_run_config(str(cfg))
        result = CliRunner().invoke(
            main, ["--config", str(cfg), "montecarlo", "--trials", "2", "--n-list", "10"]
        )
        assert result.exit_code == 2
        assert (
            f"Error: seed must be an integer in [0, 2**64 - 1], got {value}"
            in result.stderr
        )

    @pytest.mark.parametrize(
        "line",
        [
            "h = abc",
            "sample_rate = abc",
            "h = [1,2]",
            'h = "500"',
            "h = true",
            "n0 = null",
            "n_sats = 2.7",
            "n_sats = true",
            "n_sats = 250.0",
            "h = 1" + "0" * 400,
            "sample_rate = Infinity",
        ],
        ids=lambda line: line[:20],
    )
    def test_non_number_value_exits_2(self, tmp_path, line):
        key, raw = (part.strip() for part in line.split("="))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        noun = "an integer" if key == "n_sats" else "a number"
        with pytest.raises(InvalidConfig, match=f"config key {key} must be {noun}"):
            load_run_config(str(cfg))
        result = CliRunner().invoke(main, ["--config", str(cfg), "coverage"])
        assert result.exit_code == 2
        assert f"Error: config key {key} must be {noun}, got " in result.stderr

    def test_largest_file_seed_is_accepted(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 18446744073709551615\n")
        assert load_run_config(str(cfg)).seed == 2**64 - 1

    def test_signal_keys_build_signal_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("pulse = raised_cosine\npulse_width = 2e-4\nsample_rate = 2e5\n")
        run = load_run_config(str(cfg))
        assert run.signal is not None
        assert run.signal.pulse == "raised_cosine"
        assert run.signal.pulse_width == 2e-4
        assert run.signal.sample_rate == 2e5
        assert run.signal.c == run.params.c

    def test_shared_propagation_speed(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("c = 3e5\npulse = gaussian\n")
        run = load_run_config(str(cfg))
        assert run.params.c == 3e5
        assert run.signal.c == 3e5

    def test_default_signal_config_valid(self):
        sig = default_signal_config(c=C_KM_S)
        assert sig.pulse == "gaussian"
        assert sig.sample_rate * sig.pulse_width >= 16
        assert sig.obs_window > sig.support


class TestBoundsCommand:
    def test_default_grid_is_80_rows(self):
        result = invoke(["bounds"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert len(lines) == 81  # header + 80 rows
        header = lines[0].strip()
        assert header == (
            "axis_value,lcrb_xy,lcrb_z,acrb_xy,acrb_z,aacrb_xy,aacrb_z,"
            "alpha_xy,alpha_z,beta_xy,beta_z,coverage_prob,covered"
        )

    def test_csv_values_have_12_significant_digits(self):
        result = invoke(["bounds", "--grid", "20000:20000:1"])
        row = result.output.strip().splitlines()[1].split(",")
        # mantissa with 12 decimal places => 13 significant digits
        assert row[1].count("e") == 1
        mantissa = row[1].split("e")[0]
        assert len(mantissa.split(".")[1]) == 12

    def test_json_format(self):
        result = invoke(["--format", "json", "bounds", "--grid", "20000:20000:1"])
        data = json.loads(result.output)
        assert isinstance(data, list) and len(data) == 1
        assert set(data[0]) == {
            "axis_value", "lcrb_xy", "lcrb_z", "acrb_xy", "acrb_z",
            "aacrb_xy", "aacrb_z", "alpha_xy", "alpha_z", "beta_xy",
            "beta_z", "coverage_prob", "covered",
        }
        assert isinstance(data[0]["covered"], bool)

    def test_aacrb_acrb_ratio_bounded(self):
        result = invoke(["bounds"])
        worst = 0.0
        for line in result.output.strip().splitlines()[1:]:
            cells = line.split(",")
            acrb_xy, acrb_z = float(cells[3]), float(cells[4])
            aacrb_xy, aacrb_z = float(cells[5]), float(cells[6])
            worst = max(
                worst,
                aacrb_xy / acrb_xy, acrb_xy / aacrb_xy,
                aacrb_z / acrb_z, acrb_z / aacrb_z,
            )
        assert worst < 2.5

    def test_low_coverage_rows_flagged(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_sats = 40\n")
        result = invoke(
            ["--config", str(cfg), "bounds", "--grid", "500,20000"]
        )
        rows = [l.split(",") for l in result.output.strip().splitlines()[1:]]
        flags = {float(r[0]): r[-1] for r in rows}
        probs = {float(r[0]): float(r[-2]) for r in rows}
        assert flags[500.0] == "false" and probs[500.0] < 0.9
        assert flags[20000.0] == "true" and probs[20000.0] >= 0.9

    def test_phi_axis_in_degrees(self):
        result = invoke(["bounds", "--axis", "phi_l_max", "--grid", "30:60:2"])
        rows = [l.split(",") for l in result.output.strip().splitlines()[1:]]
        assert float(rows[0][0]) == pytest.approx(30.0)
        assert float(rows[1][0]) == pytest.approx(60.0)
        # wider cup => more information => smaller bound
        assert float(rows[1][1]) < float(rows[0][1])

    def test_bad_grid_exits_2(self):
        result = invoke(["bounds", "--grid", "1:2:3:4"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("grid", ["1:2:abc", "1:2:1e9", "abc:2:3"])
    def test_unparsable_grid_range_exits_2(self, grid):
        result = CliRunner().invoke(main, ["bounds", "--grid", grid])
        assert result.exit_code == 2
        assert result.stdout_bytes == b""
        assert f"Error: bad grid range {grid!r}" in result.stderr

    @pytest.mark.parametrize("axis", ["h", "phi_l_max"])
    def test_oversized_grid_exits_2(self, axis, monkeypatch):
        def no_grid(*args, **kwargs):
            raise AssertionError("grid allocated")

        monkeypatch.setattr(np, "geomspace", no_grid)
        monkeypatch.setattr(np, "linspace", no_grid)
        grid = f"1:2:{GRID_MAX + 1}"
        result = CliRunner().invoke(main, ["bounds", "--axis", axis, "--grid", grid])
        assert result.exit_code == 2
        assert result.stdout_bytes == b""
        assert f"Error: bad grid range {grid!r}" in result.stderr

    def test_largest_grid_is_accepted(self):
        for axis in ("h", "phi_l_max"):
            assert _grid_values(f"1:2:{GRID_MAX}", axis).shape == (GRID_MAX,)

    def test_writes_to_file(self, tmp_path):
        out = tmp_path / "rows.csv"
        result = invoke(["--out", str(out), "bounds", "--grid", "20000:20000:1"])
        assert result.exit_code == 0
        assert result.output == ""
        raw = out.read_bytes()
        assert raw.startswith(b"axis_value,")
        assert b"\r\n" in raw  # RFC-4180 line endings survive file output


class TestMontecarloCommand:
    def test_rows_and_header(self):
        result = invoke(
            ["montecarlo", "--trials", "20", "--n-list", "250,500"]
        )
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0].strip() == (
            "N,median_xy,p10_xy,p90_xy,median_z,p10_z,p90_z,"
            "lcrb_xy,lcrb_z,singular_count"
        )
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "250"
        assert first[-1] == "0"

    def test_json_is_strict_json(self):
        """A run with no covered trial has NaN summaries, which JSON (RFC
        8259) writes as null, not as a bare NaN token."""

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        result = invoke(["--format", "json", "montecarlo", "--trials", "5", "--n-list", "3"])
        assert result.exit_code == 0
        (row,) = json.loads(result.output, parse_constant=reject)
        assert row["N"] == 3 and row["singular_count"] == 5
        assert row["median_xy"] is None and row["p90_z"] is None
        assert math.isfinite(row["lcrb_xy"])

    def test_seed_changes_output(self):
        a = invoke(["--seed", "1", "montecarlo", "--trials", "20", "--n-list", "250"])
        b = invoke(["--seed", "2", "montecarlo", "--trials", "20", "--n-list", "250"])
        assert a.output != b.output

    def test_rss_model_needs_eta_split(self):
        # the combined model needs the (eta, rho) split; without an eta key
        # in the config this is a config error
        result = invoke(["montecarlo", "--model", "tdoa_rss", "--trials", "10", "--n-list", "250"])
        assert result.exit_code == 2

    def test_model_flag(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        # low eta: amplitude information is non-negligible at these distances
        cfg.write_text("eta = 1e-9\n")
        a = invoke(["--config", str(cfg), "montecarlo", "--model", "tdoa", "--trials", "10", "--n-list", "250"])
        b = invoke(["--config", str(cfg), "montecarlo", "--model", "tdoa_rss", "--trials", "10", "--n-list", "250"])
        assert a.exit_code == 0 and b.exit_code == 0
        # RSS side information can only help: medians strictly below TDOA-only
        med_a = float(a.output.strip().splitlines()[1].split(",")[1])
        med_b = float(b.output.strip().splitlines()[1].split(",")[1])
        assert med_b < med_a


ETA_CONFIG = Path(__file__).resolve().parent / "eta.cfg"

# stdout of `satcrb --seed 7 montecarlo --trials 50 --n-list 4,250,2000`,
# pinned byte for byte (csv rows end in CRLF); the tdoa_rss run adds
# `--config tests/eta.cfg` and `--model tdoa_rss`
GOLDEN_MONTECARLO = {
    "tdoa": (
        b"N,median_xy,p10_xy,p90_xy,median_z,p10_z,p90_z,lcrb_xy,lcrb_z,singular_count\r\n"
        b"4,nan,nan,nan,nan,nan,nan,2.053686875718e-04,1.030822028326e-03,50\r\n"
        b"250,2.291181904368e-04,1.829212112984e-04,3.025572801522e-04,"
        b"1.103604757004e-03,8.877259615826e-04,1.654581073717e-03,"
        b"2.053686875718e-04,1.030822028326e-03,0\r\n"
        b"2000,2.078809393868e-04,1.938997293448e-04,2.297371681826e-04,"
        b"1.068052043029e-03,9.386452687034e-04,1.160517540079e-03,"
        b"2.053686875718e-04,1.030822028326e-03,0\r\n"
    ),
    "tdoa_rss": (
        b"N,median_xy,p10_xy,p90_xy,median_z,p10_z,p90_z,lcrb_xy,lcrb_z,singular_count\r\n"
        b"4,nan,nan,nan,nan,nan,nan,2.053685120583e-04,1.030795802336e-03,50\r\n"
        b"250,2.291179504863e-04,1.829206720989e-04,3.025566387909e-04,"
        b"1.103578084595e-03,8.877021561298e-04,1.654528064276e-03,"
        b"2.053685120583e-04,1.030795802336e-03,0\r\n"
        b"2000,2.078807485554e-04,1.938995627805e-04,2.297369640027e-04,"
        b"1.068026075684e-03,9.386217964879e-04,1.160486575611e-03,"
        b"2.053685120583e-04,1.030795802336e-03,0\r\n"
    ),
}


@pytest.mark.parametrize("model", ["tdoa", "tdoa_rss"])
def test_montecarlo_golden_output(model):
    args = ["--seed", "7", "montecarlo", "--trials", "50", "--n-list", "4,250,2000"]
    if model == "tdoa_rss":
        args = ["--config", str(ETA_CONFIG), *args, "--model", "tdoa_rss"]
    result = invoke(args)
    assert result.exit_code == 0
    assert result.stdout_bytes == GOLDEN_MONTECARLO[model]


RC_CONFIG = Path(__file__).resolve().parent / "rc.cfg"

# stdout of one command per output path -- ML with each pulse family, both
# bounds axes, the three coverage queries, verify -- pinned byte for byte
# (csv rows end in CRLF); name -> (arguments, stdout)
GOLDEN_COMMANDS = {
    "ml_gaussian": (
        ["--seed", "7", "ml", "--snr-grid", "6,18", "--trials", "50"],
        (
            b"snr_db,mse_xy,mse_xyz,crb_xy,crb_xyz\r\n"
            b"6.000000000000e+00,1.850165299994e+01,3.932565569274e+02,"
            b"9.763850684576e+00,2.030587678204e+02\r\n"
            b"1.800000000000e+01,5.656985153207e-01,1.304967637099e+01,"
            b"6.160573299841e-01,1.281214209174e+01\r\n"
        ),
    ),
    "ml_raised_cosine": (
        ["--config", str(RC_CONFIG), "--seed", "7", "ml", "--snr-grid", "6,18",
         "--trials", "50"],
        (
            b"snr_db,mse_xy,mse_xyz,crb_xy,crb_xyz\r\n"
            b"6.000000000000e+00,5.791726464328e+01,1.512447492012e+03,"
            b"2.929155205373e+01,6.091763034613e+02\r\n"
            b"1.800000000000e+01,2.277570097888e+00,4.382271595607e+01,"
            b"1.848171989952e+00,3.843642627521e+01\r\n"
        ),
    ),
    "bounds_h": (
        ["bounds", "--grid", "500:40000:7"],
        (
            b"axis_value,lcrb_xy,lcrb_z,acrb_xy,acrb_z,aacrb_xy,aacrb_z,alpha_xy,"
            b"alpha_z,beta_xy,beta_z,coverage_prob,covered\r\n"
            b"5.000000000000e+02,1.019202738528e-05,5.528812019206e-05,"
            b"4.076810954114e-08,2.211524807682e-07,3.219533294666e-08,"
            b"1.785773491058e-07,3.189533294666e-08,1.770773491058e-07,"
            b"1.200000000000e-15,6.000000000000e-15,9.879624266367e-03,false\r\n"
            b"1.037890815556e+03,1.265254676959e-05,6.753049344528e-05,"
            b"5.061018707834e-08,2.701219737811e-07,3.318799376068e-08,"
            b"1.835406531759e-07,3.189533294666e-08,1.770773491058e-07,"
            b"1.200000000000e-15,6.000000000000e-15,2.791677918681e-01,false\r\n"
            b"2.154434690032e+03,1.817912468409e-05,9.507796352269e-05,"
            b"7.271649873636e-08,3.803118540908e-07,3.746523954699e-08,"
            b"2.049268821075e-07,3.189533294666e-08,1.770773491058e-07,"
            b"1.200000000000e-15,6.000000000000e-15,9.351275042054e-01,true\r\n"
            b"4.472135955000e+03,3.182329672960e-05,1.632065253681e-04,"
            b"1.272931869184e-07,6.528261014723e-07,5.589533294666e-08,"
            b"2.970773491058e-07,3.189533294666e-08,1.770773491058e-07,"
            b"1.200000000000e-15,6.000000000000e-15,9.999411344449e-01,true\r\n"
            b"9.283177667226e+03,7.019049650905e-05,3.549711837725e-04,"
            b"2.807619860362e-07,1.419884735090e-06,1.353081980682e-07,"
            b"6.941416747135e-07,3.189533294666e-08,1.770773491058e-07,"
            b"1.200000000000e-15,6.000000000000e-15,9.999999994964e-01,true\r\n"
            b"1.926984967998e+04,1.939737769984e-04,9.738487094928e-04,"
            b"7.758951079934e-07,3.895394837971e-06,4.774878609735e-07,"
            b"2.405039989240e-06,3.189533294666e-08,1.770773491058e-07,"
            b"1.200000000000e-15,6.000000000000e-15,1.000000000000e+00,true\r\n"
            b"4.000000000000e+04,6.418433942774e-04,3.213181231683e-03,"
            b"2.567373577110e-06,1.285272492673e-05,1.951895332947e-06,"
            b"9.777077349106e-06,3.189533294666e-08,1.770773491058e-07,"
            b"1.200000000000e-15,6.000000000000e-15,1.000000000000e+00,true\r\n"
        ),
    ),
    "bounds_phi": (
        ["bounds", "--axis", "phi_l_max", "--grid", "5:90:7"],
        (
            b"axis_value,lcrb_xy,lcrb_z,acrb_xy,acrb_z,aacrb_xy,aacrb_z,alpha_xy,"
            b"alpha_z,beta_xy,beta_z,coverage_prob,covered\r\n"
            b"5.000000000000e+00,3.004982771108e+00,2.366131891894e+03,"
            b"1.201993108443e-02,9.464527567574e+00,7.614576409901e-03,"
            b"5.995867385126e+00,6.998820919647e-04,5.514188357519e-01,"
            b"1.728673579484e-11,1.361112137344e-08,1.846221763707e-04,false\r\n"
            b"1.916666666667e+01,1.438093664955e-02,7.643165599529e-01,"
            b"5.752374659818e-05,3.057266239812e-03,3.639661540862e-05,"
            b"1.935014550457e-03,3.239908716110e-06,1.737332117441e-04,"
            b"8.289176673129e-14,4.403203346783e-12,5.770858142148e-01,false\r\n"
            b"3.333333333333e+01,1.688969357528e-03,2.915403968989e-02,"
            b"6.755877430111e-06,1.166161587596e-04,4.262122080490e-06,"
            b"7.364076640581e-05,3.528372896843e-07,6.261385760062e-06,"
            b"9.773211977015e-15,1.684484516144e-13,9.985728822665e-01,true\r\n"
            b"4.750000000000e+01,4.579699367685e-04,3.787465755083e-03,"
            b"1.831879747074e-06,1.514986302033e-05,1.149697648302e-06,"
            b"9.526454803698e-06,8.429506160209e-08,7.394798261832e-07,"
            b"2.663506466749e-15,2.196743744379e-14,9.999999911201e-01,true\r\n"
            b"6.166666666667e+01,1.877888177877e-04,8.880302289424e-04,"
            b"7.511552711507e-07,3.552120915770e-06,4.675262869398e-07,"
            b"2.217818346007e-06,2.835225202852e-08,1.493352969170e-07,"
            b"1.097935087278e-15,5.171207622725e-15,1.000000000000e+00,true\r\n"
            b"7.583333333333e+01,9.973163166770e-05,2.979445822436e-04,"
            b"3.989265266708e-07,1.191778328974e-06,2.451202687391e-07,"
            b"7.355168832643e-07,1.082396377907e-08,3.915086402827e-08,"
            b"5.857407624000e-16,1.740915048090e-15,1.000000000000e+00,true\r\n"
            b"9.000000000000e+01,6.365218542700e-05,1.280722819518e-04,"
            b"2.546087417080e-07,5.122891278071e-07,1.502755063496e-07,"
            b"3.053609079879e-07,2.755063496326e-10,5.360907987892e-09,"
            b"3.750000000000e-16,7.500000000000e-16,1.000000000000e+00,true\r\n"
        ),
    ),
    "coverage_prob": (
        ["coverage", "--query", "prob"],
        (
            b"{\n"
            b'  "query": "prob",\n'
            b'  "inputs": {\n'
            b'    "r": 6371.0,\n'
            b'    "h": 20000.0,\n'
            b'    "phi_l_max_deg": 59.99999999999999,\n'
            b'    "n_sats": 250\n'
            b"  },\n"
            b'  "answer": {\n'
            b'    "p_single": 0.16493639025333165,\n'
            b'    "p_cov": 0.9999999999999994\n'
            b"  }\n"
            b"}\n"
        ),
    ),
    "coverage_min_angle": (
        ["coverage", "--query", "min_angle"],
        (
            b"{\n"
            b'  "query": "min_angle",\n'
            b'  "inputs": {\n'
            b'    "r": 6371.0,\n'
            b'    "h": 20000.0,\n'
            b'    "phi_l_max_deg": 59.99999999999999,\n'
            b'    "n_sats": 250,\n'
            b'    "target": 0.9\n'
            b"  },\n"
            b'  "answer": {\n'
            b'    "phi_l_max_deg": 24.49951171875\n'
            b"  }\n"
            b"}\n"
        ),
    ),
    "coverage_min_height": (
        ["coverage", "--query", "min_height"],
        (
            b"{\n"
            b'  "query": "min_height",\n'
            b'  "inputs": {\n'
            b'    "r": 6371.0,\n'
            b'    "h": 20000.0,\n'
            b'    "phi_l_max_deg": 59.99999999999999,\n'
            b'    "n_sats": 250,\n'
            b'    "target": 0.9\n'
            b"  },\n"
            b'  "answer": {\n'
            b'    "h_km": 1996.612548828125\n'
            b"  }\n"
            b"}\n"
        ),
    ),
    "verify": (
        ["--seed", "7", "verify"],
        (
            b"PASS moments-quadrature: max_rel=9.204e-13 gate=1e-08\n"
            b"PASS limit-routes: max_rel=1.682e-11 gate=1e-09\n"
            b"PASS montecarlo-limit: max_median_dev=1.745e-02 gate=5e-02\n"
            b"PASS planar-oracle: max_rel=2.608e-15 gate=1e-10\n"
            b"PASS decoupling: max_coupling=2.329e-12 gate=1e-03\n"
        ),
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN_COMMANDS))
def test_golden_output(name):
    args, want = GOLDEN_COMMANDS[name]
    result = invoke(args)
    assert result.exit_code == 0
    assert result.stdout_bytes == want


# sha256 of the stdout of the two 10 000-point sweeps the benchmark runs and
# of a 300-point JSON sweep, captured from the per-point implementation the
# array evaluation replaced
BOUNDS_SHA256 = {
    "h_10000": (
        ["bounds", "--grid", "500:40000:10000"],
        "e217819e6c4ea9a172f7b0741a3c8cb70c10b199c9ffe26a729f63223b2dc6f3",
    ),
    "phi_10000": (
        ["bounds", "--axis", "phi_l_max", "--grid", "5:90:10000"],
        "31d84a8cd4b15a9e8fece8af36084372dd53080b25f4acf9a54909d2f16b3590",
    ),
    "h_300_json_eta": (
        ["--config", str(ETA_CONFIG), "--format", "json", "bounds", "--grid",
         "500:40000:300"],
        "2e761563d4cfa0fa71085428e8d127dfd193f0b703124c9a4a54fe3e7fa86b03",
    ),
}


@pytest.mark.parametrize("name", list(BOUNDS_SHA256))
def test_bounds_sweep_sha256(name):
    args, want = BOUNDS_SHA256[name]
    result = invoke(args)
    assert result.exit_code == 0
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == want


# The first bad grid point decides the error: an illegal value (exit 2) or a
# degenerate cone (exit 3, the xy denominator checked before z), each with
# the message the per-point evaluation printed.
BOUNDS_ERRORS = [
    (["--axis", "phi_l_max", "--grid", "60,1e-9,95"], 3,
     "error: xy denominator degenerated to -2.558921159341066e-17; "
     "viewing cone too small"),
    (["--axis", "phi_l_max", "--grid", "95,1e-9"], 2,
     "Error: phi_l_max must lie in (0, pi/2], got 1.6580627893946132"),
    (["--axis", "phi_l_max", "--grid", "1e-6"], 3,
     "error: z denominator degenerated to -1.1364009944609503e-14; "
     "viewing cone too small"),
    (["--axis", "phi_l_max", "--grid", "60,1e-6,1e-9"], 3,
     "error: z denominator degenerated to -1.1364009944609503e-14; "
     "viewing cone too small"),
    (["--axis", "phi_l_max", "--grid", "1e-300"], 3,
     "error: xy denominator degenerated to -0.0; viewing cone too small"),
    (["--axis", "phi_l_max", "--grid", "60,0"], 2,
     "Error: phi_l_max must lie in (0, pi/2], got 0.0"),
    (["--grid", "500,nan,1e300"], 2, "Error: altitude must be finite and positive, got h=nan"),
    (["--grid", "500,1e300,nan"], 3,
     "error: xy denominator degenerated to 0.0; viewing cone too small"),
    (["--grid", "500,-5"], 2, "Error: altitude must be finite and positive, got h=-5.0"),
    (["--grid", "500,1e400"], 2, "Error: altitude must be finite and positive, got h=inf"),
    (["--axis", "phi_l_max", "--grid", "60,0.1"], 3,
     "error: limit coefficient alpha_z is -438584935.49815017, not finite and positive; "
     "viewing cone too small"),
]


@pytest.mark.parametrize("args,code,message", BOUNDS_ERRORS)
def test_bounds_first_bad_point_wins(args, code, message):
    result = CliRunner().invoke(main, ["bounds", *args])
    assert result.exit_code == code
    assert result.stdout_bytes == b""
    assert result.stderr.strip().splitlines()[-1] == message


# a trial draws up to 2N uniforms, and numpy cannot allocate 2**60 doubles
@pytest.mark.parametrize("count", [10**23, 9 * 10**18, 2**59 + 1])
def test_montecarlo_rejects_counts_it_cannot_draw(count):
    result = CliRunner().invoke(main, ["montecarlo", "--trials", "2", "--n-list", str(count)])
    assert result.exit_code == 2
    assert result.stdout_bytes == b""
    assert result.stderr.strip().splitlines()[-1] == (
        f"Error: n_sats must be at most 2**59 to be drawn, got {count}"
    )


def test_commands_that_draw_nothing_take_any_count(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"n_sats = {10**23}\n")
    for args in (["bounds", "--grid", "500"], ["coverage"]):
        result = invoke(["--config", str(cfg), *args])
        assert result.exit_code == 0, result.output


@pytest.mark.parametrize("target", ["", "missing/x.csv"], ids=["directory", "no-parent"])
def test_unwritable_out_is_a_usage_error(tmp_path, target):
    path = tmp_path / target
    result = CliRunner().invoke(main, ["--out", str(path), "bounds", "--grid", "500"])
    assert result.exit_code == 2
    assert result.stdout_bytes == b""
    message = result.stderr.strip().splitlines()[-1]
    assert message.startswith(f"Error: cannot write output file {path}: ")


# (config file text or None, arguments, the start of the error line); a
# config file opening with "{" parses to a JSON object or is not valid JSON
INPUT_ERRORS = {
    "missing-config": (None, ["coverage"], "Error: cannot read config file {cfg}: "),
    "bad-json": ('{"h": 5000,\n', ["coverage"], "Error: config file {cfg} is not valid JSON: "),
    "json-list": ("[1, 2]\n", ["coverage"],
                  "Error: {cfg}:1: expected 'key = value', got '[1, 2]'"),
    "format-xml": ('format = "xml"\n', ["coverage"],
                   "Error: format must be one of ('csv', 'json'), got 'xml'"),
    "n-list-bad": ("", ["montecarlo", "--n-list", "1,x"], "Error: bad n list '1,x'"),
    "n-list-empty": ("", ["montecarlo", "--n-list", ","], "Error: n list is empty"),
    "snr-grid-empty": ("", ["ml", "--snr-grid", ","], "Error: snr list is empty"),
    "target-above-1": ("", ["coverage", "--query", "min_angle", "--target", "1.5"],
                       "Error: target must be in (0,1), got 1.5"),
}


@pytest.mark.parametrize("text, args, message", INPUT_ERRORS.values(), ids=list(INPUT_ERRORS))
def test_input_check_exits_2(text, args, message, tmp_path):
    cfg = tmp_path / "run.cfg"
    if text is not None:
        cfg.write_text(text)
    result = CliRunner().invoke(main, ["--config", str(cfg), *args])
    assert result.exit_code == 2
    assert result.stdout_bytes == b""
    assert result.stderr.strip().splitlines()[-1].startswith(message.format(cfg=cfg))


# cos(phi_l_max) rounds to 1 below about 6e-7 degrees, where the limit
# coefficients divide by zero; at h = 500 km the LCRB still evaluates there,
# so the sweep stops at that point with a DegenerateGeometry.
ZERO_DIVISION_ANGLE = "1.3351540665427098e-08"


def test_bounds_zero_division_keeps_its_place(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("h = 500\n")
    base = ["--config", str(cfg), "bounds", "--axis", "phi_l_max", "--grid"]
    result = CliRunner().invoke(main, [*base, f"1e-7,{ZERO_DIVISION_ANGLE}"])
    assert result.exit_code == 3
    assert result.stderr.strip().splitlines()[-1] == (
        "error: xy denominator degenerated to -9.897812857476313e-16; "
        "viewing cone too small"
    )
    for grid in (f"60,{ZERO_DIVISION_ANGLE}", f"{ZERO_DIVISION_ANGLE},95", "60,3e-7"):
        result = CliRunner().invoke(main, [*base, grid])
        assert result.exit_code == 3
        assert result.stdout_bytes == b""
        assert result.stderr.strip().splitlines()[-1] == (
            "error: limit coefficients divide by zero at cos(phi_l_max) = 1.0; "
            "viewing cone too small"
        )


class TestCoverageCommand:
    def test_prob_query(self):
        result = invoke(["coverage", "--query", "prob"])
        data = json.loads(result.output)
        assert data["query"] == "prob"
        assert data["inputs"]["n_sats"] == 250
        assert 0.0 <= data["answer"]["p_cov"] <= 1.0

    def test_min_angle_design_point(self, tmp_path):
        # 250 satellites at 20000 km reach 90% coverage near 24.5 degrees
        result = invoke(["coverage", "--query", "min_angle", "--target", "0.9"])
        data = json.loads(result.output)
        assert data["answer"]["phi_l_max_deg"] == pytest.approx(24.5, abs=0.5)

    def test_min_height_design_point(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_sats = 200\nphi_l_max = 60\n")
        result = invoke(
            ["--config", str(cfg), "coverage", "--query", "min_height", "--target", "0.9"]
        )
        data = json.loads(result.output)
        assert data["answer"]["h_km"] == pytest.approx(2400.0, rel=0.10)

    def test_unachievable_exits_3(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_sats = 3\n")  # cannot ever see 4 satellites
        result = invoke(
            ["--config", str(cfg), "coverage", "--query", "min_angle", "--target", "0.9"]
        )
        assert result.exit_code == 3


class TestMlCommand:
    def test_rows_and_bound_columns(self):
        result = invoke(["ml", "--snr-grid", "20", "--trials", "50"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0].strip() == "snr_db,mse_xy,mse_xyz,crb_xy,crb_xyz"
        cells = [float(v) for v in lines[1].split(",")]
        snr, mse_xy, mse_xyz, crb_xy, crb_xyz = cells
        assert snr == 20.0
        assert mse_xyz > mse_xy  # estimating z as well can only cost accuracy
        assert crb_xyz > crb_xy
        assert 0.5 < mse_xy / crb_xy < 2.0

    @pytest.mark.parametrize("snr", ["-inf", "inf", "nan"])
    def test_non_finite_snr_exits_2(self, snr):
        result = CliRunner().invoke(main, ["ml", f"--snr-grid=18,{snr}", "--trials", "50"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert f"Error: SNR {snr} dB gives no finite positive noise density N0" in (
            result.stderr
        )


# sha256 of `--seed S ml --snr-grid 6,18,30 --trials 50` stdout, captured from
# the SNR-major loop that drew every trial's noise again at each SNR point.
ML_SHA256 = {
    0: "f8cdd3c12dccdf72f5f74f62c2404d05877cee42f644344006f95e8bdbb1209d",
    7: "cdb72e389c79fddee0d6f3337675a6d2d9f277bd03e0e9ffa73228ddc53bb9a5",
    2**64 - 1: "0e87bed3164396ed158fc4b1483868533a0dccb869c390d49451ce2f7e43a0b3",
}


@pytest.mark.parametrize("seed", list(ML_SHA256))
def test_ml_sha256(seed):
    result = invoke(["--seed", str(seed), "ml", "--snr-grid", "6,18,30", "--trials", "50"])
    assert result.exit_code == 0
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == ML_SHA256[seed]


def test_ml_default_grid_sha256():
    """`--seed 7 ml`: the default 7-point grid at 200 trials, whose 8 trial
    slots stack 56 blocks, hashes as it did before trials were stacked
    across SNR points and at 3 slots."""
    result = invoke(["--seed", "7", "ml"])
    assert result.exit_code == 0
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == (
        "d454c47187ab20218336e6a73b6800d61cc5a1d43cc5e05c427d7c0a130070a6"
    )


# numpy's AVX-512 dispatch targets; NPY_DISABLE_CPU_FEATURES switches their
# loops off in the process whose environment holds it
AVX512_TARGETS = "X86_V4 AVX512_ICL AVX512_SPR"
# the start of a child that fails unless those loops are off; a case's code
# follows it and writes the case's bytes to stdout
NO_AVX512_CHILD = (
    "import sys\n"
    "from numpy._core._multiarray_umath import __cpu_features__\n"
    "assert __cpu_features__['X86_V4'] is False, 'AVX-512 loops still on'\n"
)
# each visible satellite's own Fisher matrices, TDOA then TDOA+RSS, for a
# drawn fleet of 10^5: a stack of one-satellite constellations, so the bytes
# show the last bit of every weight. At eta = 1e-12 the amplitude weight
# 2 rho / D^4 outweighs the timing weight by three orders of magnitude, so
# its bits are not rounded away in the sum of the two channels
FISHER_STACK = (
    "import sys\n"
    "from satcrb.fim import tdoa_gram, tdoa_rss_gram\n"
    "from satcrb.geometry import SystemParams, visible_sky\n"
    "p = SystemParams(n_sats=100_000, eta=1e-12)\n"
    "u, d = visible_sky(p, 7)\n"
    "for build in (tdoa_gram, tdoa_rss_gram):\n"
    "    sys.stdout.buffer.write(build(u[:, None], d[:, None], p).tobytes())\n"
)


def avx512_dispatched() -> bool:
    """Whether numpy here dispatches to AVX-512 loops that can be switched
    off: built with the X86_V4 target, on a CPU that has it."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        return False
    return "X86_V4" in __cpu_dispatch__ and bool(__cpu_features__.get("X86_V4"))


def command(args):
    """A case that runs `satcrb ARGS`: main in the child, invoke here."""
    return f"from satcrb.cli import main\nmain({args!r})\n", lambda: invoke(args).stdout_bytes


def in_process(code):
    """The stdout bytes of running code in this process."""
    out = io.TextIOWrapper(io.BytesIO(), write_through=True)
    with contextlib.redirect_stdout(out):
        exec(code, {})
    return out.buffer.getvalue()


@pytest.mark.skipif(not avx512_dispatched(), reason="no AVX-512 loops to switch off")
@pytest.mark.parametrize(
    "case",
    [
        command(["--seed", "7", "montecarlo", "--trials", "200"]),
        command(["--config", str(ETA_CONFIG), "--seed", "7", "montecarlo", "--trials", "200",
                 "--model", "tdoa_rss"]),
        command(["--seed", "7", "montecarlo", "--trials", "3", "--n-list", "100000"]),
        command(["coverage", "--query", "min_height"]),
        command(["coverage", "--query", "min_angle"]),
        (FISHER_STACK, lambda: in_process(FISHER_STACK)),
    ],
    ids=["montecarlo-tdoa", "montecarlo-tdoa_rss", "montecarlo-large-fleet", "min_height",
         "min_angle", "fisher-stack"],
)
def test_output_is_the_same_without_avx512_loops(case):
    """Commands whose output does not depend on numpy's SIMD dispatch, and
    the Fisher builders, give the same bytes in a process with the AVX-512
    loops switched off."""
    code, here = case
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT, NPY_DISABLE_CPU_FEATURES=AVX512_TARGETS)
    child = subprocess.run(
        [sys.executable, "-c", NO_AVX512_CHILD + code], env=env, capture_output=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr.decode()
    assert hashlib.sha256(child.stdout).hexdigest() == hashlib.sha256(here()).hexdigest()


class TestVerifyCommand:
    def test_all_pass(self):
        result = invoke(["verify"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert len(lines) == 5
        assert all(line.startswith("PASS ") for line in lines)
        names = {line.split()[1].rstrip(":") for line in lines}
        assert names == {
            "moments-quadrature",
            "limit-routes",
            "montecarlo-limit",
            "planar-oracle",
            "decoupling",
        }

    def test_seed_change_still_passes(self):
        result = invoke(["--seed", "12345", "verify"])
        assert result.exit_code == 0
        assert "FAIL" not in result.output

    def test_single_path_perturbation_detected(self, monkeypatch):
        # skew the literal TDOA route alone, as a 1e-6 error in eta_rho would
        def skewed(params):
            return lcrb_tdoa(dataclasses.replace(params, eta_rho=params.eta_rho * (1.0 + 1e-6)))

        monkeypatch.setattr(verify, "lcrb_tdoa", skewed)
        p = SystemParams()
        checks = run_verification(p, default_signal_config(p.c), DEFAULT_SEED)
        by_name = {c.name: c for c in checks}
        assert not by_name["limit-routes"].passed
        assert by_name["moments-quadrature"].passed  # other paths untouched

    @pytest.mark.parametrize(
        "field, failing",
        [
            ("dm", {"moments-quadrature", "limit-routes"}),
            ("hmzd", {"moments-quadrature", "limit-routes"}),
            ("lam", {"moments-quadrature"}),
            ("surd", {"limit-routes"}),
        ],
    )
    def test_cup_edge_perturbation_detected(self, field, failing, monkeypatch):
        # one field of the one cup-edge evaluator off by 1e-9 relative, at
        # every binding its callers read (q moves check 1 by 1e-9 exactly,
        # below its 1e-8 gate, so it is not listed)
        def skewed(*args):
            edges = cup_edges(*args)
            value = getattr(edges, field) * (1.0 + 1e-9)
            return dataclasses.replace(edges, **{field: value})

        for module in (geometry, closed_form, coverage, signal_ml):
            monkeypatch.setattr(module, "cup_edges", skewed)
        p = SystemParams()
        checks = run_verification(p, default_signal_config(p.c), DEFAULT_SEED)
        failed = {c.name for c in checks if not c.passed}
        assert failing <= failed

    def test_nan_route_fails(self, monkeypatch):
        # the literal TDOA route returns xy = NaN at one grid point
        def nan_at_one_point(params):
            bound = lcrb_tdoa(params)
            if (params.h, params.phi_l_max) == (2000.0, math.radians(35.0)):
                return dataclasses.replace(bound, xy=math.nan)
            return bound

        monkeypatch.setattr(verify, "lcrb_tdoa", nan_at_one_point)
        p = SystemParams()
        checks = run_verification(p, default_signal_config(p.c), DEFAULT_SEED)
        by_name = {c.name: c for c in checks}
        assert not by_name["limit-routes"].passed
        assert by_name["limit-routes"].detail == "max_rel=nan gate=1e-09"
        assert by_name["moments-quadrature"].passed

    def test_non_finite_decoupling_matrix_fails(self, tmp_path):
        # es_max = 1e308 overflows the finite-difference information matrix
        cfg = tmp_path / "run.cfg"
        cfg.write_text("es_max = 1e308\n")
        result = invoke(["--config", str(cfg), "verify"])
        assert result.exit_code == 4
        assert "FAIL decoupling: max_coupling=nan gate=1e-03\n" in result.output

    def test_non_finite_decoupling_matrix_writes_no_warning(self, tmp_path):
        # a fresh process shows every RuntimeWarning on stderr
        cfg = tmp_path / "run.cfg"
        cfg.write_text("es_max = 1e308\n")
        result = subprocess.run(
            [sys.executable, "-W", "always::RuntimeWarning", "-m", "satcrb.cli",
             "--config", str(cfg), "verify"],
            env=dict(os.environ, PYTHONPATH=PACKAGE_ROOT), capture_output=True,
            text=True, timeout=120,
        )
        assert result.returncode == 4
        assert result.stderr == ""
        assert "FAIL decoupling: max_coupling=nan gate=1e-03\n" in result.stdout

    def test_failure_exits_4(self, monkeypatch):
        def fake(params, signal, seed):
            return [CheckResult("stub", False, "forced")]

        monkeypatch.setattr(cli_mod, "run_verification", fake)
        result = invoke(["verify"])
        assert result.exit_code == 4
        assert "FAIL stub" in result.output

    @pytest.mark.parametrize("row", range(len(CHECKS)), ids=[c.name for c in CHECKS])
    def test_nan_value_fails_its_row_alone(self, row, monkeypatch):
        # a NaN among the row's values propagates through the gate's max
        def with_nan(run, values=CHECKS[row].values):
            out = list(values(run))
            return [*out[: len(out) // 2], math.nan, *out[len(out) // 2 :]]

        checks = list(CHECKS)
        checks[row] = checks[row]._replace(values=with_nan)
        monkeypatch.setattr(verify, "CHECKS", tuple(checks))
        result = invoke(["verify"])
        assert result.exit_code == 4
        lines = result.output.splitlines()
        assert len(lines) == len(CHECKS)
        for i, (line, check) in enumerate(zip(lines, CHECKS)):
            if i == row:
                assert line == f"FAIL {check.name}: {check.label}=nan gate={check.gate:.0e}"
            else:
                assert line.startswith(f"PASS {check.name}: ")

    def test_a_row_is_a_check(self, monkeypatch):
        extra = Check("stub", "max_rel", 1.0, lambda run: [0.5, 0.25])
        monkeypatch.setattr(verify, "CHECKS", (*CHECKS, extra))
        result = invoke(["verify"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert len(lines) == 6
        assert lines[-1] == "PASS stub: max_rel=5.000e-01 gate=1e+00"

    def test_moments_formed_once_per_grid_point(self, monkeypatch):
        # checks 1 and 2 share one list of the 16-point grid's moments
        calls = []

        def counted(params):
            calls.append(params)
            return original(params)

        original = closed_form.moment_integrals
        for module in (closed_form, verify):
            monkeypatch.setattr(module, "moment_integrals", counted)
        p = SystemParams()
        for _ in range(2):
            calls.clear()
            run_verification(p, default_signal_config(p.c), DEFAULT_SEED)
            assert len(calls) == 16
            assert len(set(calls)) == 16

    def test_cup_edge_read_once_per_quadrature(self, monkeypatch):
        # check 1 integrates each of the 16 grid points on one node set
        calls = []

        def counted(params):
            calls.append(params)
            return original(params)

        original = geometry.chi_max
        for module in (geometry, closed_form):
            monkeypatch.setattr(module, "chi_max", counted)
        result = invoke(["verify"])
        assert result.exit_code == 0
        assert len(calls) == 16
        assert len(set(calls)) == 16


@pytest.mark.parametrize(
    "args, target, error",
    [
        (["bounds"], "lcrb_tdoa_arrays", DegenerateGeometry),
        (["montecarlo", "--trials", "2"], "convergence_sweep", SingularInformation),
        (["coverage"], "coverage_prob", Unachievable),
        (["ml", "--trials", "50"], "mse_experiment", SingularInformation),
        (["verify"], None, None),
    ],
    ids=["bounds", "montecarlo", "coverage", "ml", "verify"],
)
def test_runner_exit_codes(args, target, error, tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("h = -1\n")
    bad = CliRunner().invoke(main, ["--config", str(cfg), *args])
    assert bad.exit_code == 2
    assert bad.stdout == ""
    assert "Error: altitude must be finite and positive, got h=-1.0\n" in bad.stderr
    if target is None:
        return

    def fail(*_args, **_kwargs):
        raise error("stub failure")

    monkeypatch.setattr(cli_mod, target, fail)
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr == "error: stub failure\n"


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["bounds", "--grid", "500:40000:5"],
            ["montecarlo", "--trials", "10", "--n-list", "250"],
            ["coverage", "--query", "prob"],
            ["ml", "--snr-grid", "18", "--trials", "50"],
            ["verify"],
        ],
        ids=["bounds", "montecarlo", "coverage", "ml", "verify"],
    )
    def test_byte_identical_reruns(self, args):
        a = invoke(args)
        b = invoke(args)
        assert a.exit_code == 0 and b.exit_code == 0
        assert a.output == b.output
