"""Tests for the CLI: calibration fitting and the subcommands."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml

import oracles
from pathqrng import certify, cli, events, formats
from pathqrng.bell import CorrelationGrid
from pathqrng.certify import CorrectionEstimate


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def write_stream(stream, path):
    """A whole stream written as an event file: its header, then its one block."""
    formats.write_event_file(stream.header, path, stream.blocks())


def watch_blocks(monkeypatch, read_bytes):
    """Reads of ``read_bytes`` at a time, each checked as it is parsed: no
    block older than the one before may still be live, and no whole stream
    is read.  Returns the path of each block parsed, in order."""
    monkeypatch.setattr(formats, "_READ_BYTES", read_bytes)
    parse, earlier, paths = formats._record_blocks, [], []

    def read_whole(path):
        raise AssertionError(f"{path} read as a whole stream")

    def parse_alone(path, *args):
        for ts, ch in parse(path, *args):
            live = [r for r in earlier[:-1] if r() is not None]
            assert not live, f"{len(live)} older block(s) live while parsing {path}"
            earlier.append(weakref.ref(ts))
            paths.append(path)
            yield ts, ch

    monkeypatch.setattr(formats, "_record_blocks", parse_alone)
    monkeypatch.setattr(cli, "read_event_file", read_whole)
    return paths


def write_config(raw, path):
    """A chip config mapping written as a YAML file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(yaml.safe_dump(raw))


def fringe_samples(a=1.3, b=2.1, c=0.2, d=0.7, port=1, n=40, span=2.0,
                   noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    w = np.linspace(0.0, span, n)
    osc = np.cos(b * w + d) if port == 1 else np.sin(b * w + d)
    return list(zip(w, a * osc ** 2 + c + noise * rng.standard_normal(n)))


def sign_flipped_samples():
    """cos is even, so (b, d) -> (-b, -d) generates the same fringe."""
    return [(w, 1.0 * math.cos(-2.0 * w - 0.4) ** 2 + 0.1) for w in np.linspace(0.0, 2.0, 40)]


class TestCalibrationFit:
    def test_noiseless_port1_recovers_parameters(self):
        fit = cli.fit_mzi_calibration(fringe_samples(port=1), port=1)
        assert fit.a == pytest.approx(1.3, abs=1e-6)
        assert fit.b == pytest.approx(2.1, abs=1e-6)
        assert fit.c == pytest.approx(0.2, abs=1e-6)
        assert fit.d == pytest.approx(0.7, abs=1e-6)
        assert fit.residual_rms < 1e-9

    def test_noiseless_port2_recovers_parameters(self):
        fit = cli.fit_mzi_calibration(fringe_samples(port=2), port=2)
        assert (fit.a, fit.b, fit.c, fit.d) == pytest.approx((1.3, 2.1, 0.2, 0.7), abs=1e-6)
        assert fit.port == 2

    def test_phase_is_linear_in_power(self):
        fit = cli.fit_mzi_calibration(fringe_samples(), port=1)
        # phase(W) = b W + d
        assert fit.d == pytest.approx(0.7, abs=1e-6)
        assert fit.b * 1.0 + fit.d == pytest.approx(2.8, abs=1e-6)

    def test_sign_conventions_are_canonical(self):
        fit = cli.fit_mzi_calibration(sign_flipped_samples(), port=1)
        assert fit.a > 0.0 and fit.b > 0.0
        assert 0.0 <= fit.d < math.pi
        assert (fit.a, fit.b, fit.c, fit.d) == pytest.approx((1.0, 2.0, 0.1, 0.4), abs=1e-6)

    def test_noisy_fit_errors_are_calibrated(self):
        hits = 0
        for seed in range(100):
            fit = cli.fit_mzi_calibration(fringe_samples(noise=0.01, seed=seed), port=1)
            assert fit.stderr is not None
            ok = [abs(got - true) <= 3.0 * se for got, true, se
                  in zip((fit.a, fit.b, fit.c, fit.d), (1.3, 2.1, 0.2, 0.7), fit.stderr)]
            hits += all(ok)
        assert hits >= 90

    @pytest.mark.parametrize("port", [1, 2])
    def test_matches_curve_fit_oracle(self, port):
        # 100 noisy seeds plus the noiseless and file cases of this module;
        # a noiseless fit's stderrs are rounding noise on both sides
        cases = [(fringe_samples(port=port, noise=0.01, seed=s), False) for s in range(100)]
        cases.append((fringe_samples(port=port), True))
        if port == 1:
            cases += [(sign_flipped_samples(), True), (fringe_samples(noise=0.005, seed=4), False)]
        for samples, noiseless in cases:
            got = cli.fit_mzi_calibration(samples, port)
            want = oracles.fit_mzi_calibration_curve_fit(samples, port)
            assert (got.a, got.b, got.c, got.d) == pytest.approx(
                (want.a, want.b, want.c, want.d), abs=1e-6)
            if noiseless:
                assert max(got.stderr) < 1e-12 and max(want.stderr) < 1e-12
            else:
                assert got.stderr == pytest.approx(want.stderr, rel=1e-3)

    def test_constant_intensity_rejected(self):
        w = np.linspace(0.0, 2.0, 20)
        with pytest.raises(cli.CalibrationError, match="constant"):
            cli.fit_mzi_calibration([(x, 0.5) for x in w])

    def test_constant_power_rejected(self):
        with pytest.raises(cli.CalibrationError, match="same power"):
            cli.fit_mzi_calibration([(0.3, float(v)) for v in np.linspace(0, 1, 20)])

    def test_under_half_a_fringe_rejected(self):
        with pytest.raises(cli.CalibrationError, match="half a fringe"):
            cli.fit_mzi_calibration(fringe_samples(b=0.3, d=0.2))

    def test_sample_validation(self):
        with pytest.raises(formats.ValidationError, match=">= 8"):
            cli.fit_mzi_calibration(fringe_samples(n=5))
        with pytest.raises(formats.ValidationError, match="finite"):
            cli.fit_mzi_calibration(fringe_samples()[:-1] + [(2.0, float("nan"))])
        with pytest.raises(formats.ValidationError, match="port"):
            cli.fit_mzi_calibration(fringe_samples(), port=3)


class TestParsingHelpers:
    def test_angle_pairs(self):
        pairs = cli._parse_angle_pairs("-0.576:-1.11,0.863:-0.35")
        assert pairs == [(-0.576, -1.11), (0.863, -0.35)]
        with pytest.raises(formats.ValidationError, match="phi:theta"):
            cli._parse_angle_pairs("0.5,0.3")
        with pytest.raises(formats.ValidationError, match="bad angle"):
            cli._parse_angle_pairs("a:b")
        bound = cli._MAX_ANGLE  # inclusive
        assert cli._parse_angle_pairs(f"{bound!r}:{-bound!r}") == [(bound, -bound)]

    def test_scan_schedule(self):
        sched = cli._scan_schedule(0.1)
        assert len(sched) == 41 * 21
        assert sched[0] == (-2.0, -2.0)
        assert sched[-1] == (2.0, 0.0)
        with pytest.raises(formats.ValidationError, match="positive"):
            cli._scan_schedule(0.0)

    @pytest.mark.parametrize("text", ["nan:0", "0:inf", "0:0,-inf:1"])
    def test_non_finite_angles_rejected(self, text):
        bad = text.split(",")[-1]
        with pytest.raises(formats.ValidationError, match=f"bad angle pair '{bad}'.*finite"):
            cli._parse_angle_pairs(text)


class TestSimulateCommand:
    def test_angles_run_is_deterministic(self, tmp_path):
        args = ("simulate", "--angles=-0.576:-1.11,0.863:-0.35",
                "--rate-hz", "20000", "--duration-s", "0.02", "--seed", "7")
        code, out, err = run_cli(*args, "--out", str(tmp_path / "run1"))
        assert code == 0 and err == ""
        assert "2 angle pairs" in out
        run_cli(*args, "--out", str(tmp_path / "run2"))
        for name in ("events_0000.tsv", "events_0001.tsv"):
            assert (tmp_path / "run1" / name).read_bytes() == \
                (tmp_path / "run2" / name).read_bytes()
        s = formats.read_event_file(tmp_path / "run1" / "events_0000.tsv")
        assert (s.header.phi, s.header.theta) == (-0.576, -1.11)

    def test_scan_produces_schedule_files(self, tmp_path):
        code, out, _ = run_cli("simulate", "--scan", "--scan-step", "1.0",
                               "--rate-hz", "5000", "--duration-s", "0.01",
                               "--out", str(tmp_path))
        assert code == 0
        assert len(list(tmp_path.glob("events_*.tsv"))) == 5 * 3

    def test_event_files_this_run_would_not_overwrite_exit_2(self, tmp_path, monkeypatch):
        # bell-scan reads every *.tsv under --events, so 4 new streams beside
        # 45 old scan files once made a 45-file grid from the old scan
        scan = ("simulate", "--scan", "--scan-step", "0.5", "--duration-s", "0.01",
                "--out", str(tmp_path))
        assert run_cli(*scan)[0] == 0
        (tmp_path / "notes.txt").write_text("kept\n")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        monkeypatch.setattr(cli, "simulate_blocks", mock.Mock(side_effect=AssertionError))
        code, _, err = run_cli("simulate", "--angles=0.3:0.4,0.3:0.9,1.1:0.4,1.1:0.9",
                               "--duration-s", "0.01", "--out", str(tmp_path))
        lines = err.splitlines()
        assert code == 2 and len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "ValidationError"
        assert "41 event file(s)" in record["message"] and "events_0004.tsv" in record["message"]
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        monkeypatch.undo()
        # a rerun of the same size overwrites every file, and other names are no events
        assert run_cli(*scan, "--seed", "5")[0] == 0
        assert {p.name for p in tmp_path.iterdir()} == set(before)
        assert (tmp_path / "events_0000.tsv").read_bytes() != before["events_0000.tsv"]

    def test_angles_and_scan_are_exclusive(self, tmp_path):
        code, _, err = run_cli("simulate", "--angles=0:0", "--scan",
                               "--out", str(tmp_path))
        assert code == 2
        record = json.loads(err)
        assert record["subcommand"] == "simulate"
        assert "exactly one" in record["message"]
        code, _, _ = run_cli("simulate", "--out", str(tmp_path))
        assert code == 2

    @pytest.mark.parametrize("angles", ["0:0,0:0", "0.5:-1,0:0,0.50:-1.0", "0:0,-0:0"])
    def test_repeated_angle_pair_exits_2(self, tmp_path, angles):
        # bell-scan refuses two streams of one pair, and simulate once wrote
        # both and exited 0
        out = tmp_path / "out"
        code, _, err = run_cli("simulate", "--angles", angles, "--duration-s", "0.001",
                               "--out", str(out))
        lines = err.splitlines()
        assert code == 2 and len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "ValidationError"
        assert record["message"].startswith("duplicate angle pair (")
        assert not out.exists()

    @pytest.mark.parametrize("angles", ["nan:0", "0:0,0.5:-inf"])
    def test_non_finite_angle_exits_2(self, tmp_path, angles):
        code, _, err = run_cli("simulate", "--angles", angles, "--out", str(tmp_path))
        lines = err.splitlines()
        assert code == 2 and len(lines) == 1
        assert repr(angles.split(",")[-1]) in json.loads(lines[0])["message"]
        assert not list(tmp_path.glob("*.tsv"))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("angles", ["1e308:0", "1e17:0", "0:0,0.5:-1000001"])
    def test_huge_angle_exits_2(self, tmp_path, angles):
        # beyond cli._MAX_ANGLE an angle names no setting, or its phase overflows
        code, _, err = run_cli("simulate", "--angles", angles, "--duration-s", "0.001",
                               "--out", str(tmp_path))
        lines = err.splitlines()
        assert code == 2 and len(lines) == 1
        message = json.loads(lines[0])["message"]
        assert repr(angles.split(",")[-1]) in message and "exceeds 1e+06 rad" in message
        assert not list(tmp_path.glob("*.tsv"))

    @pytest.mark.parametrize("step", ["inf", "nan"])
    def test_non_finite_scan_step_exits_2(self, tmp_path, step):
        code, _, err = run_cli("simulate", "--scan", "--scan-step", step,
                               "--rate-hz", "5000", "--duration-s", "0.01", "--out", str(tmp_path))
        lines = err.splitlines()
        assert code == 2 and len(lines) == 1
        assert "finite and positive" in json.loads(lines[0])["message"]
        assert not list(tmp_path.glob("*.tsv"))

    @pytest.mark.parametrize("step, message", [("5e-324", "4 / step is not finite"),
                                               ("1e-4", "more than 1000000")],
                             ids=["subnormal", "too_many_pairs"])
    def test_scan_step_too_small_exits_2(self, tmp_path, monkeypatch, step, message):
        # 1e-4 asks for 40001 x 20001 pairs: the count is refused before any array exists
        def no_schedule(*args, **kwargs):
            raise AssertionError("the schedule was built before its size was checked")
        monkeypatch.setattr(cli.np, "linspace", no_schedule)
        code, _, err = run_cli("simulate", "--scan", "--scan-step", step,
                               "--rate-hz", "5000", "--duration-s", "0.01", "--out", str(tmp_path))
        lines = err.splitlines()
        assert code == 2 and len(lines) == 1
        assert message in json.loads(lines[0])["message"]
        assert not list(tmp_path.glob("*.tsv"))

    def test_scan_pair_bound_is_inclusive(self, monkeypatch):
        # step 1.0 schedules 5 x 3 pairs: allowed at a bound of 15, refused at 14
        monkeypatch.setattr(cli, "MAX_GRID_CELLS", 15)
        assert len(cli._scan_schedule(1.0)) == 15
        monkeypatch.setattr(cli, "MAX_GRID_CELLS", 14)
        with pytest.raises(formats.ValidationError, match="15 angle pairs, more than 14"):
            cli._scan_schedule(1.0)

    @pytest.mark.parametrize("duration, message", [("1e7", "more than 1e+11 bins"),
                                                   ("1e300", "int64 nanosecond range")])
    def test_oversized_duration_exits_2(self, tmp_path, duration, message):
        # 1e13 bins, and a duration whose nanosecond count overflows: both are
        # refused before any draw, as a validation error
        code, _, err = run_cli("simulate", "--angles=0:0", "--duration-s", duration,
                               "--out", str(tmp_path))
        lines = err.splitlines()
        assert code == 2 and len(lines) == 1
        assert message in json.loads(lines[0])["message"]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("rate", ["nan", "inf"])
    def test_non_finite_rate_exits_2(self, tmp_path, rate):
        code, _, err = run_cli("simulate", "--angles=0:0", "--rate-hz", rate,
                               "--out", str(tmp_path))
        lines = err.splitlines()
        assert code == 2 and len(lines) == 1
        assert "must be finite and non-negative" in json.loads(lines[0])["message"]
        assert not list(tmp_path.glob("*.tsv"))

    def test_saturated_rate_is_validation_error(self, tmp_path):
        code, _, err = run_cli("simulate", "--angles=0:0", "--rate-hz", "2000000",
                               "--out", str(tmp_path))
        assert code == 2 and "< 1" in json.loads(err)["message"]

    @pytest.mark.parametrize("flags", [("--duration-s", "inf"), ("--duration-s", "nan"),
                                       ("--bin-us", "inf", "--rate-hz", "0")])
    def test_non_finite_duration_exits_2(self, tmp_path, flags):
        code, _, err = run_cli("simulate", "--angles=0:0", *flags, "--out", str(tmp_path))
        lines = err.splitlines()
        assert code == 2 and len(lines) == 1
        assert "positive and finite" in json.loads(lines[0])["message"]
        assert not list(tmp_path.glob("*.tsv"))

    @pytest.mark.parametrize("config", [
        "chip: 5",
        "chip: {spectrum: [1, 2]}",
        "errors: {dphi: 5}",
        "chip: {spectrum: {kind: gaussian, span_nm: [720]}}",
        "chip: {generation_mmi: {table: [[1, 2]]}}",
        "chip: {generation: {xi: [1]}}",
        "chip: {1: 2, foo: 3}",
        "chip: {spectrum: {kind: [1]}}",
        "chip: {spectrum: {kind: table}}",
        "chip: {phase_dispersion: 'false'}",
    ], ids=["chip-scalar", "spectrum-list", "errors-scalar", "span-one-entry",
            "table-short-row", "xi-list", "mixed-key-types", "kind-list", "table-no-nodes",
            "dispersion-string"])
    def test_malformed_config_shapes_exit_2(self, tmp_path, config):
        path = tmp_path / "chip.yaml"
        path.write_text(f"version: 1\n{config}\n")
        code, _, err = run_cli("simulate", "--config", str(path), "--angles", "0:0",
                               "--out", str(tmp_path / "out"))
        lines = err.splitlines()
        assert code == 2 and len(lines) == 1
        assert json.loads(lines[0])["error"] == "ValidationError"

    def test_negative_seed_names_its_flag(self, tmp_path):
        code, _, err = run_cli("simulate", "--angles=0:0", "--seed", "-1",
                               "--out", str(tmp_path))
        lines = err.splitlines()
        assert code == 2 and len(lines) == 1
        assert json.loads(lines[0]) == {"error": "ValidationError", "subcommand": "simulate",
                                        "message": "--seed must be a non-negative integer, "
                                                   "got -1"}
        assert not list(tmp_path.iterdir())

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("nodes, message", [
        ("[[-5, 1.0]]", "wavelengths must be finite and positive"),
        ("[[.nan, 1.0]]", "wavelengths must be finite and positive"),
        ("[[0, 1.0]]", "wavelengths must be finite and positive"),
        ("[[.inf, 1.0]]", "wavelengths must be finite and positive"),
        ("[[730, .nan]]", "weights must be finite and non-negative"),
    ], ids=["negative", "nan", "zero", "inf", "nan-weight"])
    def test_unphysical_spectrum_exits_2(self, tmp_path, nodes, message):
        # with dispersion on, a negative wavelength would flip the phase scale
        path = tmp_path / "chip.yaml"
        path.write_text("version: 1\nchip: {phase_dispersion: true, "
                        f"spectrum: {{kind: table, nodes: {nodes}}}}}\n")
        code, _, err = run_cli("simulate", "--config", str(path), "--angles=0:0",
                               "--duration-s", "0.001", "--out", str(tmp_path / "out"))
        lines = err.splitlines()
        assert code == 2 and len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "ValidationError" and message in record["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, message", [
        ("version: 1\nchip: {generation: {xi: false}}",
         "generation.xi must be a number, not False"),
        ("version: 1\nchip: {generation: {xi: no}}", "generation.xi must be a number, not False"),
        ("version: 1\nchip: {generation: {xi: off}}", "generation.xi must be a number, not False"),
        ("version: 1\nchip: {loss: {gamma: true}}", "loss.gamma must be a number, not True"),
        ("version: 1\nchip: {generation_mmi: {t_power: true, r_power: false}}",
         "generation_mmi.t_power must be a number, not True"),
        ("version: 1\nerrors: {dphi: [yes, 0, 0, 0]}", "errors.dphi must be a number, not True"),
        ("version: 1\nchip: {spectrum: {kind: gaussian, points: true}}",
         "spectrum.points must be a number, not True"),
        ("version: 1\nchip: {spectrum: {kind: gaussian, points: 21.9}}",
         "spectrum.points must be an integer of at most 4096, not 21.9"),
        ("version: true", "unsupported config version True"),
        ("version: 1.0", "unsupported config version 1.0"),
        ("version: 1\nchip: {generation: {xi: '0.5'}}",
         "generation.xi must be a number, not '0.5'"),
        ("version: 1\nchip: {loss: {gamma: '0.9'}}", "loss.gamma must be a number, not '0.9'"),
        ("version: 1\nerrors: {dphi: ['0.01', 0, 0, 0]}",
         "errors.dphi must be a number, not '0.01'"),
        ("version: 1\nchip: {spectrum: {kind: gaussian, points: '21'}}",
         "spectrum.points must be a number, not '21'"),
    ], ids=["xi-false", "xi-no", "xi-off", "gamma-true", "splitter-true-false", "dphi-yes",
            "points-true", "points-fraction", "version-true", "version-float", "xi-quoted",
            "gamma-quoted", "dphi-quoted", "points-quoted"])
    def test_booleans_and_fractions_are_not_numbers(self, tmp_path, text, message):
        # each was once read as a number: false as 0.0, true as 1.0, 21.9 as
        # 21, '0.5' as 0.5
        path = tmp_path / "chip.yaml"
        path.write_text(text + "\n")
        code, _, err = run_cli("simulate", "--config", str(path), "--angles=0:0",
                               "--duration-s", "0.001", "--out", str(tmp_path / "out"))
        lines = err.splitlines()
        assert code == 2 and len(lines) == 1
        assert json.loads(lines[0]) == {"error": "ValidationError", "subcommand": "simulate",
                                        "message": message}
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("chip_text, message", [
        ("{generation: {comp_far: 0.1}}", "unknown keys ['comp_far'] in generation"),
        ("{generation: {xi: .inf}}", "xi must be finite"),
        ("{loss: {gamma: 0}}", "gamma must lie in (0, 1], got 0.0"),
        ("{loss: {gamma: 1.2}}", "gamma must lie in (0, 1], got 1.2"),
        ("{loss: {crossing_transmission: .nan}}",
         "crossing_transmission must lie in (0, 1], got nan"),
        ("{loss: {attenuation: 0.5}}", "unknown keys ['attenuation'] in loss"),
        ("{mzi_mmis: {phi_u: {table: [[720, -0.1, 0.5], [740, 0.4, 0.6]]}}}",
         "mzi_mmis.phi_u.table power coefficients must be non-negative, "
         "got row [720.0, -0.1, 0.5]"),
    ], ids=["comp-far", "xi-inf", "gamma-zero", "gamma-above-one",
            "crossing-nan", "loss-unknown", "table-negative-power"])
    def test_bad_generation_loss_or_table_exits_2(self, tmp_path, chip_text, message):
        # a negative table power once reached math.sqrt and exited with
        # "math domain error", naming no field
        path = tmp_path / "chip.yaml"
        path.write_text(f"version: 1\nchip: {chip_text}\n")
        code, _, err = run_cli("simulate", "--config", str(path), "--angles=0:0",
                               "--duration-s", "0.001", "--out", str(tmp_path / "out"))
        lines = err.splitlines()
        assert code == 2 and len(lines) == 1
        assert json.loads(lines[0]) == {"error": "ValidationError", "subcommand": "simulate",
                                        "message": message}
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("spectrum, message", [
        ("center_nm: .inf", "center_nm must be finite"),
        ("center_nm: .nan", "center_nm must be finite"),
        ("fwhm_nm: .inf", "fwhm_nm finite and positive"),
        ("span_nm: [730, 730], points: 5", "span_nm must be finite and strictly increasing"),
        ("span_nm: [740, 720]", "span_nm must be finite and strictly increasing"),
        ("span_nm: [720, .inf]", "span_nm must be finite and strictly increasing"),
        ("center_nm: 100000", "every spectrum weight underflows to 0"),
        ("span_nm: [1.0e+200, 2.0e+200]", "every spectrum weight underflows to 0"),
    ], ids=["center-inf", "center-nan", "fwhm-inf", "span-empty", "span-falling", "span-inf",
            "center-far", "span-far"])
    def test_degenerate_gaussian_spectrum_exits_2(self, tmp_path, spectrum, message):
        # each once exited 0: a far centre printed a divide warning before
        # the JSON line, an infinite FWHM gave a flat spectrum, and an empty
        # or falling span gave repeated or falling nodes
        path = tmp_path / "chip.yaml"
        path.write_text(f"version: 1\nchip: {{spectrum: {{kind: gaussian, {spectrum}}}}}\n")
        code, _, err = run_cli("simulate", "--config", str(path), "--angles=0:0",
                               "--duration-s", "0.001", "--out", str(tmp_path / "out"))
        lines = err.splitlines()
        assert code == 2 and len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "ValidationError" and message in record["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("spectrum, message", [
        ({"kind": "gaussian", "points": 4097},
         "spectrum.points must be an integer of at most 4096, not 4097"),
        ({"kind": "table", "nodes": [[700.0 + k / 100.0, 1.0 / 4097] for k in range(4097)]},
         "spectrum.nodes holds 4097 nodes, more than 4096"),
    ], ids=["gaussian", "table"])
    def test_spectrum_node_bound_is_checked_before_any_node(self, tmp_path, monkeypatch,
                                                           spectrum, message):
        # 10^8 gaussian points once ran past a minute; the bound is tested one
        # past it only, where nothing is sized by the count
        spectrum_type = mock.Mock()
        monkeypatch.setattr(formats, "WavelengthSpectrum", spectrum_type)
        path = tmp_path / "chip.yaml"
        path.write_text(json.dumps({"version": 1, "chip": {"spectrum": spectrum}}))
        code, _, err = run_cli("simulate", "--config", str(path), "--angles=0:0",
                               "--duration-s", "0.001", "--out", str(tmp_path / "out"))
        lines = err.splitlines()
        assert code == 2 and len(lines) == 1
        assert json.loads(lines[0])["message"] == message
        assert not spectrum_type.mock_calls and not (tmp_path / "out").exists()

    def test_config_from_env_dir(self, tmp_path, monkeypatch):
        write_config(
            {"version": 1, "chip": {"generation_mmi": {"t_power": 0.4, "r_power": 0.6}}},
            tmp_path / "cfg" / "chip.yaml")
        monkeypatch.setenv(cli.CONFIG_DIR_ENV, str(tmp_path / "cfg"))
        monkeypatch.chdir(tmp_path)
        code, _, _ = run_cli("simulate", "--config", "chip.yaml", "--angles=0:0",
                             "--rate-hz", "5000", "--duration-s", "0.01",
                             "--out", str(tmp_path / "out"))
        assert code == 0


class TestBellScanCommand:
    def test_grid_and_best_combination(self, tmp_path):
        ev = tmp_path / "ev"
        # E = cos 2(phi - theta); these four settings realize the CHSH maximum
        pairs = "0.0:0.39269908169872414,0.0:-0.39269908169872414," \
                "0.7853981633974483:0.39269908169872414," \
                "0.7853981633974483:-0.39269908169872414"
        code, _, _ = run_cli("simulate", f"--angles={pairs}", "--rate-hz", "120000",
                             "--duration-s", "0.1", "--seed", "3", "--out", str(ev))
        assert code == 0
        out_dir = tmp_path / "scan"
        code, out, _ = run_cli("bell-scan", "--events", str(ev), "--out", str(out_dir))
        assert code == 0
        assert "2 phi x 2 theta" in out
        grid = formats.read_grid_file(out_dir / "grid.tsv")
        assert grid.e.shape == (2, 2)
        doc = formats.read_json_doc(out_dir / "chi_max.json")
        assert doc["kind"] == "chi-result" and doc["sign"] == "max"
        assert doc["chi"] == pytest.approx(2.0 * math.sqrt(2.0), abs=0.05)
        assert abs(formats.read_json_doc(out_dir / "chi_min.json")["chi"]) < 0.2

    def test_empty_directory_rejected(self, tmp_path):
        code, _, err = run_cli("bell-scan", "--events", str(tmp_path),
                               "--out", str(tmp_path / "o"))
        assert code == 2 and "no event files" in json.loads(err)["message"]

    def test_file_without_records_named(self, tmp_path):
        ev = tmp_path / "ev"
        files = TestAnalyzeCommand.chsh_files(ev, (0.25,) * 4, 1e5, 0.01)
        empty = Path(files[2])
        empty.write_text(empty.read_text().partition("channel\n")[0] + "channel\n")
        code, _, err = run_cli("bell-scan", "--events", str(ev), "--out", str(tmp_path / "o"))
        assert code == 2
        assert json.loads(err)["message"] == f"{empty}: event stream holds no records"
        assert not (tmp_path / "o").exists()

    def test_one_stream_live_at_a_time(self, tmp_path, monkeypatch):
        # the files are read block by block: no stream is held at all, and
        # no block older than the one before is live while the next is parsed
        ev = tmp_path / "ev"
        TestAnalyzeCommand.chsh_files(ev, (0.4, 0.1, 0.2, 0.3), 1e5, 0.05)
        paths = watch_blocks(monkeypatch, 1 << 13)
        code, _, err = run_cli("bell-scan", "--events", str(ev), "--out", str(tmp_path / "o"))
        assert code == 0, err
        assert len(set(paths)) == 4 and len(paths) > 4 * 5

    def test_duplicate_angle_pair_exits_2(self, tmp_path):
        ev = tmp_path / "ev"
        files = TestAnalyzeCommand.chsh_files(ev, (0.25,) * 4, 1e5, 0.05)
        (ev / "s9.tsv").write_bytes(Path(files[1]).read_bytes())
        code, _, err = run_cli("bell-scan", "--events", str(ev), "--out", str(tmp_path / "o"))
        lines = err.splitlines()
        assert code == 2 and len(lines) == 1
        assert "duplicate angle pair (0.0, 1.0)" in json.loads(lines[0])["message"]
        assert not (tmp_path / "o").exists()

    def test_chi_past_the_quantum_bound_is_named_as_a_plain_number(self, tmp_path):
        # all-UF streams have E = +1 and the all-UN one E = -1, so chi = 4 with no stderr
        ev = tmp_path / "ev"
        for i, (phi, theta) in enumerate(((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0))):
            dist = (0.0, 1.0, 0.0, 0.0) if i == 1 else (1.0, 0.0, 0.0, 0.0)
            write_stream(events.simulate_events(dist, 1e5, 0.01, seed=i, phi=phi, theta=theta),
                         ev / f"s{i}.tsv")
        code, _, err = run_cli("bell-scan", "--events", str(ev), "--out", str(tmp_path / "o"))
        lines = err.splitlines()
        assert code == 2 and len(lines) == 1
        assert json.loads(lines[0])["message"] == \
            "chi = 4.0 violates the quantum bound beyond statistical slack"
        assert not (tmp_path / "o").exists()


class TestCertifyCommand:
    def test_explicit_corrections(self, tmp_path):
        out = tmp_path / "cert.json"
        code, text, _ = run_cli("certify", "--chi", "2.697", "--e-chi", "0.092",
                                "--e-p", "0.02", "--rate-hz", "120000",
                                "--out", str(out))
        assert code == 0
        doc = formats.read_json_doc(out)
        assert doc["kind"] == "certification"
        assert doc["p_guess"] == pytest.approx(0.7954517, abs=1e-6)
        assert round(doc["h_min_percent"], 1) == pytest.approx(33.0)
        assert doc["certified_rate_hz"] == pytest.approx(120000 * doc["h_min_bits"])
        assert "bits/s" in text

    def test_chi_file_input(self, tmp_path):
        formats.write_json_doc({"kind": "chi-result", "chi": 2.697, "stderr": 0.01,
                            "sign": "max", "angles": {"phi": 0.0, "phi_prime": 0.0,
                                                      "theta": 0.0, "theta_prime": 0.0}},
                           tmp_path / "chi.json")
        code, _, _ = run_cli("certify", "--chi-file", str(tmp_path / "chi.json"),
                             "--e-chi", "0.092", "--e-p", "0.02",
                             "--out", str(tmp_path / "c.json"))
        assert code == 0
        assert formats.read_json_doc(tmp_path / "c.json")["chi_real"] == 2.697

    def test_no_certified_entropy_message(self, tmp_path):
        code, text, _ = run_cli("certify", "--chi", "2.05", "--e-chi", "0.1",
                                "--e-p", "0.02", "--out", str(tmp_path / "c.json"))
        assert code == 0
        assert "no certified entropy" in text
        assert formats.read_json_doc(tmp_path / "c.json")["h_min_bits"] == 0.0

    def test_searched_corrections_from_config(self, tmp_path):
        write_config({"version": 1}, tmp_path / "chip.yaml")
        out = tmp_path / "cert.json"
        code, _, _ = run_cli("certify", "--chi", "2.697",
                             "--config", str(tmp_path / "chip.yaml"),
                             "--starts", "2", "--probes", "100",
                             "--out", str(out))
        assert code == 0
        doc = formats.read_json_doc(out)
        # zero phase errors leave no deviation to bound
        assert doc["e_chi_estimate"]["value"] == pytest.approx(0.0, abs=1e-9)
        assert doc["e_p_estimate"]["converged"] is True

    def test_negative_probe_budget_exits_2(self, tmp_path):
        write_config({"version": 1}, tmp_path / "chip.yaml")
        out = tmp_path / "c.json"
        code, _, err = run_cli("certify", "--chi", "2.697",
                               "--config", str(tmp_path / "chip.yaml"),
                               "--starts", "2", "--probes", "-1", "--out", str(out))
        assert code == 2 and not out.exists()
        (line,) = err.splitlines()
        assert "probes" in json.loads(line)["message"]

    @pytest.mark.parametrize("flag, value", [("--starts", 10 ** 9), ("--probes", 10 ** 12)])
    def test_oversized_search_budget_exits_2_before_any_draw(self, tmp_path, monkeypatch,
                                                             flag, value):
        # the flags no longer steer the bounds, but a budget the old search
        # refused is still refused, before any work
        def no_draw(*args, **kwargs):
            raise AssertionError("a generator was made before the budget was checked")
        monkeypatch.setattr(certify.np.random, "default_rng", no_draw)
        write_config({"version": 1}, tmp_path / "chip.yaml")
        out = tmp_path / "c.json"
        code, _, err = run_cli("certify", "--chi", "2.697", "--config", str(tmp_path / "chip.yaml"),
                               flag, str(value), "--out", str(out))
        assert code == 2 and not out.exists()
        (line,) = err.splitlines()
        assert flag[2:] in json.loads(line)["message"]

    def test_unconverged_search_exits_3_but_writes_doc(self, tmp_path, monkeypatch):
        def stub(errors, mmis):
            return CorrectionEstimate(value=0.05, lower=0.04, upper=0.05, gap=0.01,
                                      cells=100_000, angles=(0.0, 0.0, 0.0, 0.0),
                                      converged=False)
        monkeypatch.setattr(cli, "e_chi", stub)
        monkeypatch.setattr(cli, "e_p", stub)
        write_config({"version": 1}, tmp_path / "chip.yaml")
        out = tmp_path / "cert.json"
        code, _, err = run_cli("certify", "--chi", "2.697",
                               "--config", str(tmp_path / "chip.yaml"),
                               "--out", str(out))
        assert code == 3
        assert "did not close" in json.loads(err)["message"]
        doc = formats.read_json_doc(out)
        assert doc["e_chi_estimate"]["converged"] is False

    @pytest.mark.parametrize("flag", [("--e-chi", "0.5"), ("--e-p", "0.02")])
    def test_one_correction_flag_exits_2(self, tmp_path, flag):
        # a lone correction would otherwise be dropped for a search on the zero-error chip
        out = tmp_path / "c.json"
        code, _, err = run_cli("certify", "--chi", "2.6", *flag, "--starts", "2",
                               "--probes", "100", "--out", str(out))
        lines = err.splitlines()
        assert code == 2 and len(lines) == 1
        assert "--e-chi and --e-p" in json.loads(lines[0])["message"]
        assert not out.exists()

    def test_config_with_both_corrections_exits_2(self, tmp_path):
        # the explicit corrections would silently override the chip's searched ones
        write_config({"version": 1}, tmp_path / "chip.yaml")
        out = tmp_path / "c.json"
        for config in ("nope.yaml", str(tmp_path / "chip.yaml")):
            code, _, err = run_cli("certify", "--chi", "2.6", "--e-chi", "0.1", "--e-p", "0.02",
                                   "--config", config, "--out", str(out))
            lines = err.splitlines()
            assert code == 2 and len(lines) == 1
            assert "--config" in json.loads(lines[0])["message"]
            assert not out.exists()

    def test_chi_sources_are_exclusive(self, tmp_path):
        code, _, _ = run_cli("certify", "--out", str(tmp_path / "c.json"))
        assert code == 2
        code, _, _ = run_cli("certify", "--chi", "2.7", "--chi-file", "x.json",
                             "--out", str(tmp_path / "c.json"))
        assert code == 2

    @pytest.mark.parametrize("doc", [
        {"kind": "chi-result"},
        {"kind": "chi-result", "chi": 2.7, "stderr": 0.01, "sign": "max"},
        {"kind": "chi-result", "chi": 2.7, "stderr": 0.01, "sign": "max",
         "angles": {"phi": 0.0, "phi_prime": 0.0, "theta": 0.0}},
        {"kind": "chi-result", "chi": 2.7, "stderr": 0.01, "sign": "max", "angles": [0.0]},
    ])
    def test_incomplete_chi_file_is_validation_error(self, tmp_path, doc):
        (tmp_path / "chi.json").write_text(json.dumps(doc))
        for argv in (["certify", "--chi-file", str(tmp_path / "chi.json"), "--e-chi", "0.09",
                      "--e-p", "0.02", "--out", str(tmp_path / "c.json")],
                     ["report", "--result", str(tmp_path / "chi.json")]):
            code, _, err = run_cli(*argv)
            assert code == 2 and "lacks" in json.loads(err)["message"]


    @pytest.mark.parametrize("flags", [
        ["--chi", "5"], ["--chi", "inf"], ["--chi=-3.5"], ["--chi", "nan"],
        ["--chi", "2.7", "--e-chi", "nan"], ["--chi", "2.7", "--e-p", "inf"],
    ])
    def test_impossible_chi_and_corrections_rejected(self, tmp_path, flags):
        argv = ["certify", "--e-chi", "0", "--e-p", "0", "--rate-hz", "120000",
                *flags, "--out", str(tmp_path / "c.json")]
        code, _, err = run_cli(*argv)
        assert code == 2 and len(err.splitlines()) == 1 and json.loads(err)["message"]
        assert not (tmp_path / "c.json").exists()

    @pytest.mark.parametrize("chi, stderr, code", [(2.9, 0.001, 2), (2.84, 0.01, 0)])
    def test_chi_file_bound_uses_its_stderr(self, tmp_path, chi, stderr, code):
        formats.write_json_doc({"kind": "chi-result", "chi": chi, "stderr": stderr,
                            "sign": "max", "angles": {"phi": 0.0, "phi_prime": 0.0,
                                                      "theta": 0.0, "theta_prime": 0.0}},
                           tmp_path / "chi.json")
        got, _, err = run_cli("certify", "--chi-file", str(tmp_path / "chi.json"),
                              "--e-chi", "0.05", "--e-p", "0.01",
                              "--out", str(tmp_path / "c.json"))
        assert got == code
        if code:
            assert "quantum bound" in json.loads(err)["message"]
        else:
            assert formats.read_json_doc(tmp_path / "c.json")["chi_real"] == chi


def test_infinite_chi_in_file_is_validation_error(tmp_path):
    # JSON reads 1e999 as inf, which is a real number to the document check
    (tmp_path / "chi.json").write_text(
        '{"kind": "chi-result", "chi": 1e999, "stderr": 0.01, "sign": "max", "angles": '
        '{"phi": 0.0, "phi_prime": 0.5, "theta": 0.2, "theta_prime": 0.7}}')
    code, _, err = run_cli("certify", "--chi-file", str(tmp_path / "chi.json"), "--e-chi",
                           "0.09", "--e-p", "0.02", "--out", str(tmp_path / "c.json"))
    lines = err.splitlines()
    assert code == 2 and len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "ValidationError" and "must be finite" in record["message"]
    assert not (tmp_path / "c.json").exists()


_ANGLES = {"phi": 0.0, "phi_prime": 0.5, "theta": 0.2, "theta_prime": 0.7}


@pytest.mark.parametrize("digits", [401, 5001])
def test_integer_past_the_float_range_is_validation_error(tmp_path, digits):
    # 401 digits once overflowed float() in the summary and in certify; 5,001
    # passed the digit limit of int(); neither error named the file
    path = tmp_path / "chi.json"
    path.write_text('{"kind": "chi-result", "chi": 1' + "0" * (digits - 1) + ', "stderr": 0.01, '
                    '"sign": "max", "angles": ' + json.dumps(_ANGLES) + "}")
    for argv in (["report", "--result", str(path)],
                 ["certify", "--chi-file", str(path), "--e-chi", "0.09", "--e-p", "0.02",
                  "--out", str(tmp_path / "c.json")]):
        code, _, err = run_cli(*argv)
        lines = err.splitlines()
        assert code == 2 and len(lines) == 1
        assert json.loads(lines[0])["message"] == \
            f"{path}: every number must lie in the float range, not an integer of {digits} digits"
    assert not (tmp_path / "c.json").exists()


@pytest.mark.parametrize("field, value", [
    ("chi", None), ("chi", "2.7"), ("chi", True), ("chi", [2.7]),
    ("angles", [0.0, 0.5, 0.2, 0.7]), ("sign", 1), ("kind", ["chi-result"]),
])
def test_mistyped_chi_result_is_validation_error(tmp_path, field, value):
    doc = {"kind": "chi-result", "chi": 2.7, "stderr": 0.01, "sign": "max",
           "angles": dict(_ANGLES), field: value}
    (tmp_path / "chi.json").write_text(json.dumps(doc))
    for argv in (["report", "--result", str(tmp_path / "chi.json")],
                 ["certify", "--chi-file", str(tmp_path / "chi.json"), "--e-chi", "0.09",
                  "--e-p", "0.02", "--out", str(tmp_path / "c.json")]):
        code, _, err = run_cli(*argv)
        assert code == 2 and len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "ValidationError"


@pytest.mark.parametrize("doc", [
    {"kind": "certification", "chi_real": 2.7, "e_chi": 0.09, "e_p": 0.02, "p_guess": 0.8,
     "h_min_bits": 0.3, "h_min_percent": 30.0, "certified_rate_hz": "fast"},
    {"kind": "correction-estimate", "term": "e_chi", "value": 0.09, "lower": 0.0895,
     "upper": 0.09, "gap": 5e-4, "cells": 2320, "converged": "yes"},
    {"kind": "correction-estimate", "term": "e_chi", "value": 0.09, "lower": 0.0895,
     "upper": 0.09, "gap": 5e-4, "cells": 2320.0, "converged": True},
    {"kind": "mzi-calibration", "a": 1.0, "b": 2.0, "c": 0.1, "d": 0.4,
     "residual_rms": 0.0, "port": True},
])
def test_mistyped_result_documents_rejected_by_report(tmp_path, doc):
    (tmp_path / "doc.json").write_text(json.dumps(doc))
    code, _, err = run_cli("report", "--result", str(tmp_path / "doc.json"))
    assert code == 2 and len(err.splitlines()) == 1
    assert "must be" in json.loads(err)["message"]


# JSON literals and grid-file text of each odd number a field or cell may hold
_ODD_NUMBERS = {"nan": ("NaN", "nan"), "inf": ("Infinity", "inf"), "-inf": ("-Infinity", "-inf"),
                "-0": ("-0", "-0"), "5e-324": ("5e-324", "5e-324"), "1e308": ("1e308", "1e308"),
                "2^63": (str(2 ** 63),) * 2, "10^30": (str(10 ** 30),) * 2,
                "10^400": (str(10 ** 400),) * 2}
# the numeric fields of each document kind, by the reader's own field table
_NUMERIC_FIELDS = [(kind, field) for kind, d in formats._DOCS.items()
                   for field, json_type in d.fields.items()
                   if json_type in ("a real number", "an integer", "a real number or null")]


def _seeded_document(kind, swap_field, literal):
    """A ``kind`` document of seeded values, as JSON text, with ``swap_field``
    holding the JSON ``literal``."""
    rng = np.random.default_rng(11)
    doc = {"kind": kind}
    for field, json_type in formats._DOCS[kind].fields.items():
        *outer, key = field.split(".")
        node = doc
        for name in outer:
            node = node.setdefault(name, {})
        node[key] = {"a string": "max", "a boolean": True,
                     "an integer": int(rng.integers(1, 3))}.get(json_type, rng.uniform(-3, 3))
        if field == swap_field:
            node[key] = "@swap@"
    return json.dumps(doc).replace('"@swap@"', literal)


def _report_exits_0_or_names_the_file(path, tmp_path):
    code, _, err = run_cli("report", "--result", str(path), "--plots-dir", str(tmp_path / "p"))
    assert code in (0, 2) and "Traceback" not in err
    if code == 0:
        assert err == ""
    else:
        (line,) = err.splitlines()
        record = json.loads(line)
        assert record["error"] == "ValidationError" and str(path) in record["message"]


@pytest.mark.parametrize("number", _ODD_NUMBERS)
@pytest.mark.parametrize("kind, field", _NUMERIC_FIELDS)
def test_report_of_an_odd_number_in_a_document(tmp_path, kind, field, number):
    path = tmp_path / "doc.json"
    path.write_text(_seeded_document(kind, field, _ODD_NUMBERS[number][0]))
    _report_exits_0_or_names_the_file(path, tmp_path)


@pytest.mark.parametrize("number", _ODD_NUMBERS)
@pytest.mark.parametrize("cell", range(16))
def test_report_of_an_odd_number_in_a_grid_file(tmp_path, cell, number):
    # a seeded 2 x 2 grid, one of its 4 rows x 4 columns swapped
    rng = np.random.default_rng(12)
    rows = [[phi, theta, rng.uniform(-1, 1), rng.uniform(0, 0.05)]
            for phi in (-0.5, 0.5) for theta in (-1.0, 0.0)]
    text = [[repr(v) for v in row] for row in rows]
    text[cell // 4][cell % 4] = _ODD_NUMBERS[number][1]
    path = tmp_path / "grid.tsv"
    path.write_text("# pathqrng-grid v1\nphi\ttheta\te\tstderr\n"
                    + "".join("\t".join(row) + "\n" for row in text))
    _report_exits_0_or_names_the_file(path, tmp_path)


class TestAnalyzeCommand:
    @staticmethod
    def chsh_files(tmp_path, dist, rate_hz, duration_s, seed0=0):
        """Four event files at distinct (phi, theta), in CHSH setting order."""
        files = []
        for i, (phi, theta) in enumerate(((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0))):
            s = events.simulate_events(dist, rate_hz, duration_s, seed=seed0 + i,
                                       phi=phi, theta=theta)
            path = tmp_path / f"s{i}.tsv"
            write_stream(s, path)
            files.append(str(path))
        return files

    def test_windowed_trace_csv(self, tmp_path):
        files = self.chsh_files(tmp_path, (0.4, 0.1, 0.2, 0.3), 1e5, 0.2, seed0=60)
        out = tmp_path / "trace.csv"
        code, text, _ = run_cli("analyze", "--events", *files, "--out", str(out))
        assert code == 0
        assert "4 windows of 50 ms" in text
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 4
        assert lines[0].split(",")[:2] == ["window", "t_mid_s"]
        assert len(lines[1].split(",")) == 2 + 16 + 4 + 1

    def test_too_short_run_rejected(self, tmp_path):
        files = self.chsh_files(tmp_path, (0.25,) * 4, 1e5, 0.05)
        code, _, err = run_cli("analyze", "--events", *files,
                               "--out", str(tmp_path / "t.csv"))
        assert code == 2 and "two windows" in json.loads(err)["message"]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("window_ms, message", [
        ("1e-7", "below 1 ns"),  # rounds to 0 ns
        ("1e-6", "empty"),       # 1 ns: 2e8 windows, more than the records
        ("inf", "positive and finite"),
        ("nan", "positive and finite"),
        ("1e300", "int64 nanosecond range"),  # finite, but no int64 width
    ])
    def test_sub_ns_and_ns_windows_rejected_before_sizing(self, tmp_path, window_ms, message):
        files = self.chsh_files(tmp_path, (0.25,) * 4, 1e5, 0.2)
        code, _, err = run_cli("analyze", "--events", *files, "--window-ms", window_ms,
                               "--out", str(tmp_path / "t.csv"))
        lines = err.splitlines()
        assert code == 2 and len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "ValidationError" and message in record["message"]
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("order", [(0, 0, 0, 0), (0, 1, 2, 1)], ids=["same-file", "repeat"])
    def test_duplicate_angle_pair_exits_2(self, tmp_path, order):
        files = self.chsh_files(tmp_path, (0.25,) * 4, 1e5, 0.2)
        out = tmp_path / "t.csv"
        code, _, err = run_cli("analyze", "--events", *(files[i] for i in order),
                               "--out", str(out))
        lines = err.splitlines()
        assert code == 2 and len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "ValidationError"
        assert "duplicate angle pair" in record["message"]
        assert not out.exists()

    @pytest.mark.parametrize("order", [(0, 2, 1, 3), (0, 1, 3, 2), (1, 0, 2, 3)])
    def test_streams_out_of_chsh_order_exit_2(self, tmp_path, order):
        # at (0,0), (0,1), (1,0), (1,1) these orders break the setting order;
        # (3, 2, 1, 0) keeps it, with phi and phi', theta and theta' relabeled
        files = self.chsh_files(tmp_path, (0.4, 0.1, 0.2, 0.3), 1e5, 0.2)
        out = tmp_path / "t.csv"
        code, _, err = run_cli("analyze", "--events", *(files[i] for i in order),
                               "--out", str(out))
        lines = err.splitlines()
        assert code == 2 and len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "ValidationError"
        assert "CHSH setting order" in record["message"]
        assert not out.exists()
        code, _, err = run_cli("analyze", "--events", *(files[i] for i in (3, 2, 1, 0)),
                               "--out", str(out))
        assert code == 0, err

    def test_one_stream_live_at_a_time(self, tmp_path, monkeypatch):
        # four 1.7 s streams of about 204k records, 1.8 MB of records each:
        # holding all four as a list peaked about 5.7 MB above one file's
        # read, reading them one at a time about 0.2 MB above it
        files = self.chsh_files(tmp_path, (0.4, 0.1, 0.2, 0.3), 1.2e5, 1.7)
        read = formats.read_event_file
        tracemalloc.start()
        try:
            first = read(files[0])
            one_read = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stream_bytes = first.timestamps_ns.nbytes + first.channels.nbytes
        assert len(first) > 200_000
        del first

        paths = watch_blocks(monkeypatch, formats._READ_BYTES)
        tracemalloc.start()
        try:
            code, _, err = run_cli("analyze", "--events", *files,
                                   "--out", str(tmp_path / "t.csv"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, err
        assert len(set(paths)) == 4 and len(paths) > 4 * 5
        assert peak < one_read + stream_bytes / 2, (
            f"traced peak {peak / 1e6:.1f} MB against {one_read / 1e6:.1f} MB for one read")


class TestExtractCommand:
    def test_matches_library_pipeline(self, tmp_path):
        s = events.simulate_events((0.25,) * 4, 1.2e5, 0.1, seed=77)
        write_stream(s, tmp_path / "ev.tsv")
        out = tmp_path / "bits.txt"
        code, text, _ = run_cli("extract", "--events", str(tmp_path / "ev.tsv"),
                                "--h-min", "0.33", "--out", str(out))
        assert code == 0
        expected = events.toeplitz_extract(
            events.raw_bits(events.bin_and_resolve(s)), 0.33, seed=0)
        assert out.read_bytes() == (expected + ord("0")).tobytes() + b"\n"
        assert f"{len(expected)} extracted bits" in text

    @pytest.mark.filterwarnings("error")
    def test_sub_ns_bin_width_in_file_rejected(self, tmp_path):
        s = events.simulate_events((0.25,) * 4, 1.2e5, 0.1, seed=78)
        path = tmp_path / "ev.tsv"
        write_stream(s, path)
        data = path.read_bytes()
        assert b"# bin_width_us=1.0\n" in data
        path.write_bytes(data.replace(b"# bin_width_us=1.0\n", b"# bin_width_us=0.0001\n"))
        code, _, err = run_cli("extract", "--events", str(path), "--h-min", "0.33",
                               "--out", str(tmp_path / "bits.txt"))
        lines = err.splitlines()
        assert code == 2 and len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "ValidationError" and "below 1 ns" in record["message"]

    @pytest.mark.parametrize("header", [b"# duration_s=inf\n", b"# bin_width_us=inf\n"])
    def test_infinite_header_field_exits_2(self, tmp_path, header):
        s = events.simulate_events((0.25,) * 4, 1.2e5, 0.1, seed=78)
        path = tmp_path / "ev.tsv"
        write_stream(s, path)
        key = header.split(b"=")[0]
        data = path.read_bytes()
        old = next(line for line in data.split(b"\n") if line.startswith(key)) + b"\n"
        path.write_bytes(data.replace(old, header))
        code, _, err = run_cli("extract", "--events", str(path), "--h-min", "0.33",
                               "--out", str(tmp_path / "bits.txt"))
        lines = err.splitlines()
        assert code == 2 and len(lines) == 1
        assert "positive and finite" in json.loads(lines[0])["message"]

    @pytest.mark.parametrize("key, value, message", [
        ("phi", "inf", "must be finite"),
        ("phi", "nan", "must be finite"),
        ("theta", "inf", "must be finite"),
        ("theta", "-inf", "must be finite"),
        ("duration_s", "nan", "positive and finite"),
        ("bin_width_us", "-1.0", "positive and finite"),
        ("seed", "1.5", "invalid literal for int()"),
        ("rate_hz", "-inf", "finite and non-negative"),
        ("rate_hz", "inf", "finite and non-negative"),
        ("rate_hz", "nan", "finite and non-negative"),
        ("rate_hz", "-1.0", "finite and non-negative"),
    ])
    @pytest.mark.parametrize("bad_record", [False, True])
    def test_bad_header_value_exits_2_naming_the_file(self, tmp_path, key, value, message,
                                                      bad_record):
        # the checks a simulated stream passes hold for a file's header too;
        # a bad record in the body is still named first
        s = events.simulate_events((0.25,) * 4, 1.2e5, 0.1, seed=78)
        path = tmp_path / "ev.tsv"
        write_stream(s, path)
        data = path.read_bytes()
        old = next(line for line in data.split(b"\n") if line.startswith(f"# {key}=".encode()))
        data = data.replace(old + b"\n", f"# {key}={value}\n".encode())
        path.write_bytes(data + (b"12x\tUF\n" if bad_record else b""))
        out = tmp_path / "bits.txt"
        code, _, err = run_cli("extract", "--events", str(path), "--h-min", "0.33",
                               "--out", str(out))
        lines = err.splitlines()
        assert code == 2 and len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "ValidationError"
        want = "malformed record '12x\\tUF'" if bad_record else message
        assert record["message"].startswith(f"{path}: ") and want in record["message"]
        assert not out.exists()

    def test_huge_finite_duration_header_exits_2(self, tmp_path):
        # 1e300 s is finite, but its nanosecond count overflows an int64
        path = tmp_path / "ev.tsv"
        path.write_text("# pathqrng-events v1\n# phi=0.0\n# theta=0.0\n# duration_s=1e300\n"
                        "# bin_width_us=1.0\n# seed=0\ntimestamp_ns\tchannel\n0\tUF\n")
        code, _, err = run_cli("extract", "--events", str(path), "--h-min", "0.33",
                               "--out", str(tmp_path / "bits.txt"))
        lines = err.splitlines()
        assert code == 2 and len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "ValidationError"
        assert "int64 nanosecond range" in record["message"]

    @pytest.mark.parametrize("flag", ["--seed"])
    def test_negative_seed_names_its_flag(self, tmp_path, flag):
        s = events.simulate_events((0.25,) * 4, 1.2e5, 0.1, seed=77)
        write_stream(s, tmp_path / "ev.tsv")
        code, _, err = run_cli("extract", "--events", str(tmp_path / "ev.tsv"), "--h-min",
                               "0.33", flag, "-3", "--out", str(tmp_path / "b.txt"))
        lines = err.splitlines()
        assert code == 2 and len(lines) == 1
        assert json.loads(lines[0]) == {"error": "ValidationError", "subcommand": "extract",
                                        "message": f"{flag} must be a non-negative integer, "
                                                   "got -3"}
        assert not (tmp_path / "b.txt").exists()

    @pytest.mark.parametrize("flags", [("--tie-mode", "fired"), ("--tie-seed", "0")],
                             ids=["tie-mode", "tie-seed"])
    def test_retired_tie_flags_are_usage_errors(self, tmp_path, flags):
        # an old script that picked a tie rule fails loudly, not with other bits
        s = events.simulate_events((0.25,) * 4, 1.2e5, 0.1, seed=77)
        write_stream(s, tmp_path / "ev.tsv")
        code, _, err = run_cli("extract", "--events", str(tmp_path / "ev.tsv"), "--h-min",
                               "0.33", *flags, "--out", str(tmp_path / "b.txt"))
        lines = err.splitlines()
        assert code == 2 and len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "usage" and flags[0] in record["message"]
        assert not (tmp_path / "b.txt").exists()

    def test_insufficient_entropy_is_validation_error(self, tmp_path):
        s = events.simulate_events((0.25,) * 4, 1e4, 0.001, seed=1)
        write_stream(s, tmp_path / "ev.tsv")
        code, _, err = run_cli("extract", "--events", str(tmp_path / "ev.tsv"),
                               "--h-min", "0.33", "--out", str(tmp_path / "b.txt"))
        assert code == 2 and "insufficient" in json.loads(err)["message"]

    @pytest.mark.parametrize("duration_s, code", [(0.01, 2), (0.1, 0)])
    def test_subnormal_eps_sizes_the_output(self, tmp_path, duration_s, code):
        # 1 / 1e-320 overflows; -2 log2(1e-320) = 2126.03 costs 2127 bits
        s = events.simulate_events((0.25,) * 4, 1.2e5, duration_s, seed=77)
        write_stream(s, tmp_path / "ev.tsv")
        out = tmp_path / "bits.txt"
        got, _, err = run_cli("extract", "--events", str(tmp_path / "ev.tsv"), "--h-min", "0.33",
                              "--eps", "1e-320", "--out", str(out))
        assert got == code
        if code == 2:
            lines = err.splitlines()
            assert len(lines) == 1 and "insufficient" in json.loads(lines[0])["message"]
            assert not out.exists()
        else:
            assert err == ""
            n_raw = events.raw_bits(events.bin_and_resolve(s)).size
            assert len(out.read_text().strip()) == math.floor(n_raw // 2 * 0.33) - 2127

    def test_lost_fft_precision_exits_3(self, tmp_path, monkeypatch):
        s = events.simulate_events((0.25,) * 4, 1.2e5, 0.01, seed=5)
        write_stream(s, tmp_path / "ev.tsv")
        exact = events._toeplitz_sums
        monkeypatch.setattr(events, "_toeplitz_sums", lambda t, x, m: exact(t, x, m) + 0.5)
        code, _, err = run_cli("extract", "--events", str(tmp_path / "ev.tsv"),
                               "--h-min", "0.33", "--out", str(tmp_path / "b.txt"))
        assert code == 3
        record = json.loads(err)
        assert record["error"] == "RuntimeError" and "integer precision" in record["message"]
        assert not (tmp_path / "b.txt").exists()


class TestCalibrateCommand:
    def test_fit_from_sample_file(self, tmp_path):
        samples = tmp_path / "samples.tsv"
        lines = ["# power_w intensity"]
        lines += [f"{w}\t{i}" for w, i in fringe_samples(noise=0.005, seed=4)]
        samples.write_text("\n".join(lines) + "\n")
        out = tmp_path / "fit.json"
        code, text, _ = run_cli("calibrate", "--samples", str(samples),
                                "--out", str(out))
        assert code == 0 and "cos^2" in text
        doc = formats.read_json_doc(out)
        assert doc["kind"] == "mzi-calibration"
        assert doc["b"] == pytest.approx(2.1, abs=0.05)

    def test_constant_data_exits_3(self, tmp_path):
        samples = tmp_path / "flat.tsv"
        samples.write_text("\n".join(f"{w}\t1.0" for w in np.linspace(0, 2, 20)) + "\n")
        code, _, err = run_cli("calibrate", "--samples", str(samples),
                               "--out", str(tmp_path / "f.json"))
        assert code == 3 and "no fringe" in json.loads(err)["message"]

    @pytest.mark.parametrize("text", ["", "# power_w intensity\n\n"], ids=["empty", "comments"])
    def test_no_samples_exits_2_as_too_few(self, tmp_path, text):
        # no samples make a 1-d empty array, once refused as not being pairs
        samples = tmp_path / "none.tsv"
        samples.write_text(text)
        code, _, err = run_cli("calibrate", "--samples", str(samples))
        assert code == 2 and json.loads(err)["message"] == "need >= 8 samples, got 0"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sample", [lambda w: (w * 1e-310, math.cos(w) ** 2),
                                        lambda w: (w, 1e300 * math.cos(w) ** 2)],
                             ids=["subnormal-power-steps", "1e300-intensities"])
    def test_samples_beyond_the_fit_range_exit_2(self, tmp_path, sample):
        # both once ended in numpy warnings, then an eigensolver failure or a
        # "less than half a fringe" verdict on a clean fringe
        samples = tmp_path / "s.tsv"
        samples.write_text("".join("%r\t%r\n" % sample(0.5 * k) for k in range(12)))
        code, _, err = run_cli("calibrate", "--samples", str(samples))
        lines = err.splitlines()
        assert code == 2 and len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "ValidationError"
        assert "samples must lie within +-1e+100" in record["message"]

    def test_malformed_sample_line_rejected(self, tmp_path):
        samples = tmp_path / "bad.tsv"
        samples.write_text("0.1\t0.5\t0.9\n")
        code, _, err = run_cli("calibrate", "--samples", str(samples))
        assert code == 2 and "malformed sample" in json.loads(err)["message"]

    def test_malformed_sample_value_names_file_and_line(self, tmp_path):
        samples = tmp_path / "bad.tsv"
        samples.write_text("0.1\t0.5\nx 3\n")
        code, _, err = run_cli("calibrate", "--samples", str(samples))
        lines = err.splitlines()
        assert code == 2 and len(lines) == 1
        assert json.loads(lines[0]) == {"error": "ValidationError", "subcommand": "calibrate",
                                        "message": f"{samples}: malformed sample line 'x 3'"}


class TestReportCommand:
    def test_certification_report_and_plots(self, tmp_path):
        cert = tmp_path / "cert.json"
        run_cli("certify", "--chi", "2.697", "--e-chi", "0.092", "--e-p", "0.02",
                "--out", str(cert))
        plots = tmp_path / "plots"
        code, text, _ = run_cli("report", "--result", str(cert),
                                "--plots-dir", str(plots))
        assert code == 0
        assert "min-entropy" in text
        curve = (plots / "chi_alpha_curve.csv").read_text().splitlines()
        assert len(curve) == 1 + 181
        assert curve[0] == "alpha,chi"
        bound = (plots / "guessing_bound.csv").read_text().splitlines()
        assert len(bound) == 1 + 200
        first = bound[1].split(",")
        assert float(first[0]) == 2.0 and float(first[1]) == pytest.approx(1.0)
        # pinned bytes of the 200-point curve and the 181-point chi(alpha) curve
        assert hashlib.sha256((plots / "guessing_bound.csv").read_bytes()).hexdigest() == \
            "7a0173aa9c7ae4188ce9fff5c14bf67afd5fcf00bf8de25d89abea2a159dcab8"
        assert hashlib.sha256((plots / "chi_alpha_curve.csv").read_bytes()).hexdigest() == \
            "fb94a2287d97e08e02a6dbb455e1e0003bea11a6c1d87e2cb31aef6f887420d7"

    def test_chi_result_report(self, tmp_path):
        doc = {"kind": "chi-result", "chi": 2.697, "stderr": 0.01, "sign": "max",
               "angles": {"phi": -0.576, "phi_prime": -1.445,
                          "theta": -1.11, "theta_prime": -1.87}}
        formats.write_json_doc(doc, tmp_path / "chi.json")
        code, text, _ = run_cli("report", "--result", str(tmp_path / "chi.json"))
        assert code == 0 and "chi_max = +2.697" in text

    def test_chi_result_report_prints_the_bell_scan_line(self, tmp_path):
        ev = tmp_path / "ev"
        TestAnalyzeCommand.chsh_files(ev, (0.4, 0.1, 0.2, 0.3), 1e5, 0.01)
        code, scan, _ = run_cli("bell-scan", "--events", str(ev), "--out", str(tmp_path / "o"))
        assert code == 0 and scan.splitlines()[1].startswith("chi_max = ")
        code, text, _ = run_cli("report", "--result", str(tmp_path / "o" / "chi_max.json"))
        assert code == 0 and text.splitlines() == [scan.splitlines()[1]]

    def test_certification_report_prints_the_certify_summary(self, tmp_path):
        write_config(PAPER_CHIP, tmp_path / "chip.yaml")
        cert = tmp_path / "cert.json"
        code, certified, _ = run_cli("certify", "--chi", "2.697", "--config",
                                     str(tmp_path / "chip.yaml"), "--rate-hz", "120000",
                                     "--out", str(cert))
        assert code == 0 and certified.splitlines()[-1] == f"wrote {cert}"
        code, text, _ = run_cli("report", "--result", str(cert))
        assert code == 0 and text.splitlines() == certified.splitlines()[:-1]

    def test_calibration_report_prints_the_calibrate_formula(self, tmp_path):
        samples = tmp_path / "samples.tsv"
        samples.write_text("".join(f"{w}\t{i}\n"
                                   for w, i in fringe_samples(port=2, noise=0.005, seed=4)))
        fit = tmp_path / "fit.json"
        code, fitted, _ = run_cli("calibrate", "--samples", str(samples), "--port", "2",
                                  "--out", str(fit))
        assert code == 0 and fitted.splitlines()[0] == f"wrote {fit}"
        code, text, _ = run_cli("report", "--result", str(fit))
        assert code == 0 and text.splitlines() == fitted.splitlines()[1:]
        assert "sin^2(" in text

    def test_grid_report_writes_surface(self, tmp_path):
        grid = CorrelationGrid((0.0, 0.5), (-1.0, 0.0),
                               np.array([[0.1, -0.2], [0.3, 0.4]]))
        formats.write_grid_file(grid, tmp_path / "grid.tsv")
        plots = tmp_path / "plots"
        code, text, _ = run_cli("report", "--result", str(tmp_path / "grid.tsv"),
                                "--plots-dir", str(plots))
        assert code == 0 and "2 phi x 2 theta" in text
        surface = (plots / "e_surface.csv").read_text().splitlines()
        assert len(surface) == 1 + 4

    def test_grid_report_surface_is_the_grid_file_with_commas(self, tmp_path):
        grid = CorrelationGrid((-0.0, 0.1, 1.0 / 3.0), (-1.0, 2.0 ** -0.5),
                               np.array([[0.1, np.nan], [-1.0, 1.0 / 7.0], [0.3, -0.0]]),
                               stderr=np.array([[1e-3, np.nan], [0.0, 0.02], [5e-17, 0.004]]))
        formats.write_grid_file(grid, tmp_path / "grid.tsv")
        plots = tmp_path / "plots"
        code, _, _ = run_cli("report", "--result", str(tmp_path / "grid.tsv"),
                             "--plots-dir", str(plots))
        assert code == 0
        magic, header, body = (tmp_path / "grid.tsv").read_text().split("\n", 2)
        assert magic == "# pathqrng-grid v1" and header == "phi\ttheta\te\tstderr"
        assert (plots / "e_surface.csv").read_text() == \
            "phi,theta,e,stderr\n" + body.replace("\t", ",")
        assert hashlib.sha256((plots / "e_surface.csv").read_bytes()).hexdigest() == \
            "4ad745512f9fbb52ce12608e3c29c5d67b0a1e4fca7c60a6c91004ca9e0aee35"

    @pytest.mark.parametrize("bad", ["nan", "-0.01", "inf"])
    def test_grid_with_bad_cell_stderr_rejected(self, tmp_path, bad):
        p = tmp_path / "grid.tsv"
        p.write_text("# pathqrng-grid v1\nphi\ttheta\te\tstderr\n"
                     "0.0\t0.0\t0.6\t0.01\n0.0\t1.0\t-0.5\t" + bad + "\n"
                     "1.0\t0.0\t0.4\t0.01\n1.0\t1.0\t0.55\t0.01\n")
        code, _, err = run_cli("report", "--result", str(p))
        assert code == 2 and len(err.splitlines()) == 1
        assert "must be finite and non-negative" in json.loads(err)["message"]

    @pytest.mark.parametrize("bad", ["inf", "-inf"])
    def test_grid_with_infinite_e_rejected(self, tmp_path, bad):
        # NaN is the only missing mark; an infinite E was once counted as missing
        p = tmp_path / "grid.tsv"
        p.write_text("# pathqrng-grid v1\nphi\ttheta\te\tstderr\n"
                     "0.0\t0.0\t0.6\t0.01\n0.0\t1.0\t" + bad + "\t0.01\n")
        code, _, err = run_cli("report", "--result", str(p))
        lines = err.splitlines()
        assert code == 2 and len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "ValidationError"
        assert f"coefficient {bad} at phi=0.0 theta=1.0 outside [-1, 1]" in record["message"]

    def test_malformed_grid_value_names_file_and_row(self, tmp_path):
        p = tmp_path / "grid.tsv"
        p.write_text("# pathqrng-grid v1\nphi\ttheta\te\tstderr\n"
                     "0.0\t1.0\t0.5\t0.1\n0.0\t0.0\tabc\t0.1\n")
        code, _, err = run_cli("report", "--result", str(p))
        lines = err.splitlines()
        assert code == 2 and len(lines) == 1
        assert json.loads(lines[0]) == {"error": "ValidationError", "subcommand": "report",
                                        "message": f"{p}: malformed row '0.0\\t0.0\\tabc\\t0.1'"}

    def test_grid_past_the_cell_bound_is_refused_before_any_array(self, tmp_path, monkeypatch):
        # 1,001 diagonal rows span 1,001 x 1,001 cells, past the 10^6 bound
        p = tmp_path / "grid.tsv"
        p.write_text("# pathqrng-grid v1\nphi\ttheta\te\tstderr\n"
                     + "".join(f"{k}.0\t{k}.0\t0.5\t0.01\n" for k in range(1001)))

        def no_array(*args, **kwargs):
            raise AssertionError("a grid array was built before its size was checked")
        monkeypatch.setattr(cli.np, "full", no_array)
        code, _, err = run_cli("report", "--result", str(p))
        lines = err.splitlines()
        assert code == 2 and len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "ValidationError"
        assert "1001 phi x 1001 theta values give more than 1000000 grid cells" in record["message"]

    def test_grid_without_finite_e_reports_no_range(self, tmp_path):
        p = tmp_path / "grid.tsv"
        p.write_text("# pathqrng-grid v1\nphi\ttheta\te\tstderr\n"
                     "0.0\t0.0\tnan\tnan\n0.0\t1.0\tnan\tnan\n")
        code, text, err = run_cli("report", "--result", str(p))
        assert code == 0 and err == ""
        assert "1 phi x 2 theta, 0 cells" in text and "nan" not in text

    def test_unknown_kind_rejected(self, tmp_path):
        formats.write_json_doc({"kind": "mystery"}, tmp_path / "m.json")
        code, _, err = run_cli("report", "--result", str(tmp_path / "m.json"))
        assert code == 2 and "mystery" in json.loads(err)["message"]


class TestTopLevelParser:
    def test_unknown_subcommand_exits_2_with_record(self):
        code, _, err = run_cli("frobnicate")
        assert code == 2
        record = json.loads(err)
        assert record["error"] == "usage"

    def test_missing_required_argument_exits_2(self):
        code, _, err = run_cli("extract", "--h-min", "0.33")
        assert code == 2 and json.loads(err)["error"] == "usage"

    @pytest.mark.parametrize("exc, name", [
        (ValueError("bad"), "ValidationError"),
        (UnicodeDecodeError("utf-8", b"\xff", 0, 1, "bad"), "ValidationError"),
        (ZeroDivisionError("bad"), "ZeroDivisionError"),
        (FileNotFoundError("bad"), "FileNotFoundError"),
    ], ids=["value", "unicode", "arithmetic", "os"])
    def test_every_value_error_is_named_validation_error(self, monkeypatch, exc, name):
        def failing(args):
            raise exc
        monkeypatch.setitem(cli._HANDLERS, "report", failing)
        code, out, err = run_cli("report", "--result", "cert.json")
        lines = err.splitlines()
        assert code == 2 and out == "" and len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == name and record["message"] == str(exc)

    def test_memory_error_exits_2_with_record(self, monkeypatch):
        # an input too large for the machine is refused like any other bad input
        def exhausted(args):
            raise MemoryError("cannot allocate the event arrays")
        monkeypatch.setitem(cli._HANDLERS, "report", exhausted)
        code, out, err = run_cli("report", "--result", "cert.json")
        lines = err.splitlines()
        assert code == 2 and out == "" and len(lines) == 1
        assert json.loads(lines[0]) == {"error": "MemoryError", "subcommand": "report",
                                        "message": "cannot allocate the event arrays"}


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # scipy cannot be imported at all in the probe, and calibrate still fits
    samples = tmp_path / "fringe.tsv"
    samples.write_text("".join(f"{w}\t{i}\n" for w, i in fringe_samples(noise=0.005, seed=4)))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import sys; sys.modules['scipy'] = None; "
             "import pathqrng, pathqrng.cli; "
             f"code = pathqrng.cli.main(['calibrate', '--samples', {str(samples)!r}]); "
             "print(code, sorted(m for m, v in sys.modules.items() "
             "if m.split('.')[0] == 'scipy' and v is not None))")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert "cos^2" in done.stdout
    assert done.stdout.splitlines()[-1] == "0 []"


# SHA-256 of every file the fixed-seed chain below writes; a refactor of the
# data path must leave all of them unchanged
GOLDEN_DIGESTS = {
    "bits_0.txt": "459f10619729a47a77227a5aedf0c94155e94ff267e2bccf3c1ed81f125a216e",
    "bits_1.txt": "c0a352ec95404f5b6266cf7baf30050a8e9a671695404965a768de977286b197",
    "bits_2.txt": "14ddc50d7e090e674a53f45a0c0b2d4d623ea791339acba76f292920ebc0e810",
    "bits_3.txt": "2a2a0b5373da895fd8863c6685e0d70c7aaed35d6adb2fb5ad26a8a976e6a6df",
    "cert.json": "a13a86bf9862a8306327d465edfd97641af5b55f2490316d883486f548464752",
    "events/events_0000.tsv": "cacd6f3af46ad3c245aebe99a612d9f57ac9b6550c960980e4443a082e3ce431",
    "events/events_0001.tsv": "2ca73e8d71b401e6ed3a1e9df900740446b2416632cbe7c8fe7f58aeba4ed4d2",
    "events/events_0002.tsv": "971a6ff554d08449ae321e674cb66e6e830ebb7e4c9b1316a775f2c8b9f1a2f0",
    "events/events_0003.tsv": "313cdf539cb2157624085dfe38f7e75ff4a9d886e490e9a1131226f32ba3074a",
    "scan/chi_max.json": "4e2b7289e2e999bfb8c4b207fb6a18088b90cc4b4a9a7db5e7fa584ec24156cd",
    "scan/chi_min.json": "7076cac575372cd0ef8d42b3d8c2c6dbd66f008190f7f8ec6d5032779d0b1055",
    "scan/grid.tsv": "c46d963ee4fdb2fe2e8db6cc9b91fd5dd5728e81339646f48e8c5318f6318981",
    "trace.csv": "05a1d3435ee94b29f68020ce83490c8cd95d4e14030d91e12718a49dd74f822f",
}


def test_cli_chain_outputs_are_pinned(tmp_path):
    """simulate -> bell-scan -> certify -> extract -> analyze, byte for byte."""
    angles = "-0.576:-1.11,-0.576:-1.87,-1.445:-1.11,-1.445:-1.87"
    events_dir, scan_dir = tmp_path / "events", tmp_path / "scan"
    files = [str(events_dir / f"events_{i:04d}.tsv") for i in range(4)]
    steps = [
        ("simulate", f"--angles={angles}", "--duration-s", "0.2", "--rate-hz", "120000",
         "--seed", "11", "--out", str(events_dir)),
        ("bell-scan", "--events", str(events_dir), "--out", str(scan_dir)),
        ("certify", "--chi-file", str(scan_dir / "chi_max.json"), "--e-chi", "0.0213",
         "--e-p", "0.0187", "--rate-hz", "120000", "--out", str(tmp_path / "cert.json")),
    ]
    for argv in steps:
        assert run_cli(*argv)[0] == 0, argv
    h_min = json.loads((tmp_path / "cert.json").read_text())["h_min_bits"]
    for i, f in enumerate(files):
        code, _, _ = run_cli("extract", "--events", f, "--h-min", repr(h_min), "--seed", "5",
                             "--out", str(tmp_path / f"bits_{i}.txt"))
        assert code == 0
    assert run_cli("analyze", "--events", *files, "--out", str(tmp_path / "trace.csv"))[0] == 0
    digests = {p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(tmp_path.rglob("*")) if p.is_file()}
    assert digests == GOLDEN_DIGESTS


# the 40:60 paper chip of the README, with the chi+ alignment's error set
PAPER_CHIP = {
    "version": 1,
    "chip": {"generation_mmi": {"t_power": 0.4, "r_power": 0.6},
             "mzi_mmis": {k: {"t_power": 0.4, "r_power": 0.6}
                          for k in ("phi_u", "phi_d", "theta_f", "theta_n")}},
    "errors": {"dphi": [0.000, 0.011, -0.004, -0.006], "dtheta": [0.068, 0.216, 0.036, 0.215]},
}
# SHA-256 of the certificate `certify --config` writes for it: both bounds
# are search-free, and e_p's angles put phi at 0 by construction
CERTIFY_CONFIG_DIGEST = "c806a7f5f30b794dca4b152ec0f0c71f603c427b9517a90513947ade349327f4"


def test_certify_config_output_is_pinned_and_repeatable(tmp_path):
    write_config(PAPER_CHIP, tmp_path / "chip.yaml")
    certs = []
    for name in ("a.json", "b.json"):
        code, _, _ = run_cli("certify", "--chi", "2.697", "--config", str(tmp_path / "chip.yaml"),
                             "--rate-hz", "120000", "--out", str(tmp_path / name))
        assert code == 0
        certs.append((tmp_path / name).read_bytes())
    assert certs[0] == certs[1]
    doc = json.loads(certs[0])
    assert doc["e_chi"] == doc["e_chi_estimate"]["upper"] == pytest.approx(0.095096, abs=1e-6)
    assert doc["e_p_estimate"]["angles"][0] == 0.0
    assert hashlib.sha256(certs[0]).hexdigest() == CERTIFY_CONFIG_DIGEST


# the scan path on a 0.25 rad grid: every event file, as one digest of
# their "name digest" lines, and the bell-scan outputs
SCAN_DIGESTS = {
    "events": "bf5ac1defcf05cd82ed74a392dd6893041745de74c6f8dbe9f9059372f4191b2",
    "scan/chi_max.json": "ebc755264d44d3103653a83b1bfcfe6d0f4d294435f90d697f6fc86619807117",
    "scan/chi_min.json": "4469fbae05fbbaa61492a9a85187bbf642aafc1cf7d9f31cde438b2f7d1f6a20",
    "scan/grid.tsv": "68cbfba516e1d5014d3ca22a3f260ee3a9b5aa2018e680dea10fbd2171d1bc13",
}


def test_scan_outputs_are_pinned_and_chip_calls_blocked(tmp_path, monkeypatch):
    """simulate --scan (153 pairs, three chip calls) -> bell-scan, byte for byte."""
    calls = []
    chip_call = cli.broadband_probabilities

    def counted(cfg, phi, theta):
        calls.append(np.size(phi))
        return chip_call(cfg, phi, theta)

    monkeypatch.setattr(cli, "broadband_probabilities", counted)
    events_dir, scan_dir = tmp_path / "events", tmp_path / "scan"
    assert run_cli("simulate", "--scan", "--scan-step", "0.25", "--duration-s", "0.001",
                   "--seed", "3", "--out", str(events_dir))[0] == 0
    assert run_cli("bell-scan", "--events", str(events_dir), "--out", str(scan_dir))[0] == 0
    assert sum(calls) == 17 * 9 and len(calls) == 3
    assert max(calls) <= cli._SCAN_BLOCK
    files = sorted(events_dir.iterdir())
    assert len(files) == 153
    manifest = "".join(f"events/{p.name} {sha256_file(p)}\n" for p in files)
    digests = {"events": hashlib.sha256(manifest.encode()).hexdigest()}
    digests.update({f"scan/{p.name}": sha256_file(p) for p in sorted(scan_dir.iterdir())})
    assert digests == SCAN_DIGESTS


# four settings at the scan workload's own size, 0.01 s each at 120 kHz:
# about 1.2k records over four digit counts per file, as the calibration
# scan writes them, and the bell-scan outputs of their 2 x 2 grid
SCAN_SETTING_DIGESTS = {
    "events/events_0000.tsv": "95870d372b648cdac4d06ade40e34b78aa56788ded3ac0be740b7be33618f83d",
    "events/events_0001.tsv": "6f2be58b10e05a0e6d9a55a004dc9760b2e10a9343e5203832e06997503bffc7",
    "events/events_0002.tsv": "5b39fdaaacbd5f29b1d83c17a7034632524236d4eb2836d8da81822936af9632",
    "events/events_0003.tsv": "56d80dfee66081db17e348f3b172f11aa667a599f3e7eba4deda5a40d35cc1ee",
    "scan/chi_max.json": "e0278c5b98532f25c0262f944356c9d474dd77019547f4a9ae84093aee25c4b9",
    "scan/chi_min.json": "d2a3c14c0aec42a2e5bf59879551ff8114d3b6c10cc1ce56f9049614d8f69b06",
    "scan/grid.tsv": "794772f60f62d4e9271bbef836e3b74e1187f4306b1287271a812f8715e3513b",
}


def test_scan_settings_at_the_benchmark_size_are_pinned(tmp_path):
    angles = "-1.0:1.4,-1.0:-2.0,-1.2:1.4,-1.2:-2.0"
    assert run_cli("simulate", f"--angles={angles}", "--duration-s", "0.01", "--rate-hz",
                   "120000", "--seed", "3", "--out", str(tmp_path / "events"))[0] == 0
    assert run_cli("bell-scan", "--events", str(tmp_path / "events"),
                   "--out", str(tmp_path / "scan"))[0] == 0
    digests = {p.relative_to(tmp_path).as_posix(): sha256_file(p)
               for p in sorted(tmp_path.rglob("*")) if p.is_file()}
    assert digests == SCAN_SETTING_DIGESTS


def sha256_file(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()
