"""Tests for the file formats: chip configs, event files, grid files and
JSON result documents, read and written on their own and through the CLI."""

import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
import yaml

import oracles
from pathqrng import cli, events, formats
from pathqrng.bell import CorrelationGrid

HEADER = ("# pathqrng-events v1\n# phi=0.0\n# theta=0.0\n# duration_s=1.0\n"
          "# bin_width_us=1.0\n# seed=0\ntimestamp_ns\tchannel\n")
DIST = (0.4, 0.1, 0.2, 0.3)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def write_stream(stream, path):
    """A whole stream written as an event file: its header, then its one block."""
    formats.write_event_file(stream.header, path, stream.blocks())


def write_config(raw, path):
    """A chip config mapping written as a YAML file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(yaml.safe_dump(raw))


class TestChipConfigFiles:
    def test_minimal_document_gets_defaults(self):
        config = formats.parse_chip_config({"version": 1})
        assert config.generation_mmi.t == pytest.approx(math.sqrt(0.5))
        assert all(m.t == pytest.approx(math.sqrt(0.5)) for m in config.mzi_mmis)
        assert config.errors.dphi == (0.0, 0.0, 0.0, 0.0)
        assert config.xi == pytest.approx(-math.pi / 2.0)

    def test_yaml_file_parses_like_its_mapping(self, tmp_path):
        raw = {
            "version": 1,
            "chip": {
                "generation_mmi": {"t_power": 0.4, "r_power": 0.6},
                "mzi_mmis": {"phi_u": {"t_power": 0.4, "r_power": 0.6}},
                "generation": {"xi": -1.2},
                "loss": {"gamma": 0.9},
                "spectrum": {"kind": "gaussian", "center_nm": 730.0, "fwhm_nm": 10.0},
                "phase_dispersion": True,
            },
            "errors": {"dphi": [0.0, 0.011, -0.004, -0.006],
                       "dtheta": [0.068, 0.216, 0.036, 0.215]},
        }
        path = tmp_path / "chip.yaml"
        write_config(raw, path)
        loaded = formats.load_chip_config(path)
        assert loaded.generation_mmi.t == pytest.approx(math.sqrt(0.4))
        assert loaded.xi == -1.2
        assert loaded.mzi_mmis[0].r == pytest.approx(math.sqrt(0.6))
        assert loaded.mzi_mmis[1].t == pytest.approx(math.sqrt(0.5))
        assert loaded.phase_dispersion is True
        assert loaded.errors.dtheta == (0.068, 0.216, 0.036, 0.215)
        assert len(loaded.spectrum.nodes) == 21
        assert loaded == formats.parse_chip_config(raw)

    def test_wavelength_table_mmi(self, tmp_path):
        raw = {"version": 1,
               "chip": {"generation_mmi": {
                   "table": [[720.0, 0.45, 0.55], [740.0, 0.55, 0.45]]}}}
        path = tmp_path / "chip.yaml"
        write_config(raw, path)
        loaded = formats.load_chip_config(path)
        t, r = loaded.generation_mmi.resolve(730.0)
        assert t == pytest.approx(math.sqrt(0.5), abs=1e-2)

    def test_unknown_keys_rejected(self):
        with pytest.raises(formats.ValidationError, match="unknown keys"):
            formats.parse_chip_config({"version": 1, "chips": {}})
        with pytest.raises(formats.ValidationError, match="unknown keys"):
            formats.parse_chip_config({"version": 1, "chip": {"mzis": {}}})

    def test_loss_section_is_checked_and_dropped(self):
        # a loss common to every path cancels in every output, so a valid
        # loss section parses to the same chip as none
        lossy = {"version": 1, "chip": {"loss": {"gamma": 0.9, "crossing_transmission": 0.98}}}
        assert formats.parse_chip_config(lossy) == formats.parse_chip_config({"version": 1})

    def test_version_and_shape_validated(self):
        with pytest.raises(formats.ValidationError, match="version"):
            formats.parse_chip_config({"version": 2})
        with pytest.raises(formats.ValidationError, match="4 entries"):
            formats.parse_chip_config({"version": 1, "errors": {"dphi": [0.1, 0.2]}})
        with pytest.raises(formats.ValidationError, match="spectrum kind"):
            formats.parse_chip_config(
                {"version": 1, "chip": {"spectrum": {"kind": "flat"}}})

    def test_malformed_yaml_rejected(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("version: 1\nchip: [unclosed\n")
        with pytest.raises(formats.ValidationError, match="malformed"):
            formats.load_chip_config(bad)
        bad.write_text("- just\n- a list\n")
        with pytest.raises(formats.ValidationError, match="mapping"):
            formats.load_chip_config(bad)

    def test_deep_nesting_is_a_malformed_config(self, tmp_path):
        # the parser's RecursionError once went through as exit 3
        path = tmp_path / "chip.yaml"
        path.write_text("[" * 2000)
        code, _, err = run_cli("simulate", "--config", str(path), "--angles=0:0",
                               "--out", str(tmp_path / "out"))
        lines = err.splitlines()
        assert code == 2 and len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "ValidationError"
        assert record["message"].startswith("malformed config: ")

    def test_exponent_floats_are_numbers_and_quoted_ones_are_not(self, tmp_path):
        # YAML 1.1 reads these plain scalars as strings, once refused as
        # "must be a number, not '2e1'"
        path = tmp_path / "chip.yaml"
        path.write_text("version: 1\nchip:\n  generation: {xi: -.15e1}\n"
                        "  spectrum: {kind: gaussian, center_nm: 7.3e2, fwhm_nm: 2e1}\n"
                        "errors: {dphi: [1e-3, 0, 0, 0], dtheta: [0, 2.5E-2, 0, 0]}\n")
        assert formats.load_chip_config(path) == formats.parse_chip_config(
            {"version": 1, "chip": {"generation": {"xi": -1.5},
                                    "spectrum": {"kind": "gaussian", "center_nm": 730.0,
                                                 "fwhm_nm": 20.0}},
             "errors": {"dphi": [0.001, 0, 0, 0], "dtheta": [0, 0.025, 0, 0]}})
        path.write_text("version: 1\nchip: {spectrum: {kind: gaussian, fwhm_nm: '2e1'}}\n")
        with pytest.raises(formats.ValidationError, match="fwhm_nm must be a number, not '2e1'"):
            formats.load_chip_config(path)

    def test_physical_validation_is_surfaced(self, tmp_path):
        path = tmp_path / "chip.yaml"
        path.write_text("version: 1\nchip:\n  generation_mmi: {t_power: 0.9, r_power: 0.9}\n")
        with pytest.raises(formats.ValidationError):
            formats.load_chip_config(path)

    def test_config_dir_env_fallback(self, tmp_path, monkeypatch):
        write_config({"version": 1}, tmp_path / "configs" / "chip.yaml")
        monkeypatch.chdir(tmp_path)
        with pytest.raises(formats.ValidationError, match="not found"):
            cli._resolve_config_path("chip.yaml")
        monkeypatch.setenv(cli.CONFIG_DIR_ENV, str(tmp_path / "configs"))
        assert cli._resolve_config_path("chip.yaml") == tmp_path / "configs" / "chip.yaml"


class TestEventFiles:
    def test_roundtrip_preserves_stream(self, tmp_path):
        s = events.simulate_events((0.4, 0.1, 0.2, 0.3), 2e4, 0.02, seed=9,
                                   phi=-0.576, theta=-1.11)
        path = tmp_path / "ev.tsv"
        write_stream(s, path)
        back = formats.read_event_file(path)
        assert np.array_equal(back.timestamps_ns, s.timestamps_ns)
        assert np.array_equal(back.channels, s.channels)
        assert back.header == s.header
        assert back.header.rate_hz == 2e4 and back.header.seed == 9

    def test_rewrite_is_byte_identical(self, tmp_path):
        s = events.simulate_events((0.25, 0.25, 0.25, 0.25), 1e4, 0.01, seed=2)
        write_stream(s, tmp_path / "a.tsv")
        write_stream(formats.read_event_file(tmp_path / "a.tsv"), tmp_path / "b.tsv")
        assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()

    def test_failed_streamed_write_leaves_no_file(self, tmp_path, monkeypatch):
        s = events.simulate_events((0.25,) * 4, 1e5, 0.01, seed=6)
        blocks = formats._format_records

        def failing_blocks(timestamps, channels):
            yield next(blocks(timestamps, channels))
            raise OSError("disk full")

        monkeypatch.setattr(formats, "_format_records", failing_blocks)
        with pytest.raises(OSError, match="disk full"):
            write_stream(s, tmp_path / "ev.tsv")
        assert not list(tmp_path.iterdir())

    def test_missing_rate_roundtrips_as_none(self, tmp_path):
        header = events.StreamHeader(phi=0.0, theta=0.0, duration_s=1.0, bin_width_us=1.0,
                                     seed=0)
        formats.write_event_file(header, tmp_path / "e.tsv",
                             [(np.array([0], dtype=np.int64), np.array([0], dtype=np.uint8))])
        assert formats.read_event_file(tmp_path / "e.tsv").header.rate_hz is None

    def test_malformed_files_rejected(self, tmp_path):
        p = tmp_path / "x.tsv"
        p.write_text("hello\n")
        with pytest.raises(formats.ValidationError, match="not a pathqrng event file"):
            formats.read_event_file(p)
        p.write_text("# pathqrng-events v1\n# phi=0.0\ntimestamp_ns\tchannel\n")
        with pytest.raises(formats.ValidationError, match="missing meta"):
            formats.read_event_file(p)
        p.write_text("# pathqrng-events v1\n# phi=0.0\n# theta=0.0\n# duration_s=1.0\n"
                     "# bin_width_us=1.0\n# seed=0\ntimestamp_ns\tchannel\n0\tXX\n")
        with pytest.raises(formats.ValidationError, match="malformed record"):
            formats.read_event_file(p)

    HEADER = ("# pathqrng-events v1\n# phi=0.0\n# theta=0.0\n# duration_s=1.0\n"
              "# bin_width_us=1.0\n# seed=0\ntimestamp_ns\tchannel\n")

    @staticmethod
    def wide_stream():
        # every digit count from 1 to 17, each at its boundaries
        edges = [0, 1, 9] + [v for k in range(1, 17) for v in (10 ** k - 1, 10 ** k, 10 ** k + 1)]
        ts = np.unique(np.array(edges, dtype=np.int64))
        ch = np.random.default_rng(3).integers(0, 4, size=ts.size).astype(np.uint8)
        return events.EventStream(events.StreamHeader(phi=0.1, theta=-0.2, duration_s=2e7,
                                                      bin_width_us=1.0, seed=4), ts, ch)

    @pytest.mark.parametrize("case", ["paper-rate", "multi-click", "empty", "wide"])
    def test_writer_and_reader_match_line_oracles(self, tmp_path, case):
        if case == "wide":
            s = self.wide_stream()
        else:
            rate = {"paper-rate": 1.2e5, "multi-click": 9e5, "empty": 0.0}[case]
            s = events.simulate_events((0.4, 0.1, 0.2, 0.3), rate, 0.05, seed=17,
                                       phi=-0.576, theta=-1.11)
        path = tmp_path / "ev.tsv"
        write_stream(s, path)
        text = oracles.event_file_text_by_lines(s)
        assert path.read_bytes() == text.encode("ascii")
        meta, ts, ch = oracles.event_records_by_lines(text)
        back = formats.read_event_file(path)
        assert back.timestamps_ns.dtype == np.int64 and back.channels.dtype == np.uint8
        assert np.array_equal(back.timestamps_ns, ts) and np.array_equal(back.channels, ch)
        assert (back.header.phi, back.header.theta, back.header.seed) == (
            float(meta["phi"]), float(meta["theta"]), int(meta["seed"]))

    def test_18_and_19_digit_records_match_line_oracle(self, tmp_path):
        # the widest stream an EventStream holds ends just below 2^63 ns
        edges = [10 ** 17 - 1, 10 ** 17, 10 ** 18 - 1, 10 ** 18, 10 ** 18 + 1,
                 9_199_999_999_999_999_999]
        ts = np.array([0, 9, 10] + edges, dtype=np.int64)
        s = events.EventStream(events.StreamHeader(phi=0.0, theta=0.0, duration_s=9.2e9,
                                                   bin_width_us=1.0, seed=1),
                               ts, np.arange(ts.size, dtype=np.uint8) % 4)
        write_stream(s, tmp_path / "ev.tsv")
        assert (tmp_path / "ev.tsv").read_bytes() == oracles.event_file_text_by_lines(s).encode()
        assert np.array_equal(formats.read_event_file(tmp_path / "ev.tsv").timestamps_ns, ts)
        # 2^63 - 1 ns lies past any stream's duration, which the writer
        # refuses, so it goes to the formatter alone, and a plain namespace
        # carries it to the oracle
        top = types.SimpleNamespace(
            timestamps_ns=np.array([5, 10 ** 18, 2 ** 63 - 2, 2 ** 63 - 1], dtype=np.int64),
            channels=np.array([3, 2, 1, 0], dtype=np.uint8),
            header=events.StreamHeader(phi=0.0, theta=0.0, duration_s=1.0, bin_width_us=1.0,
                                       seed=0))
        lines = b"".join(block.tobytes() for block in
                         formats._format_records(top.timestamps_ns, top.channels))
        text = oracles.event_file_text_by_lines(top)
        assert text.endswith("\n9223372036854775807\tUF\n")
        assert lines == text.partition("channel\n")[2].encode()

    @pytest.mark.parametrize("blocks, message", [
        ([[100, 5, 2000]], "non-decreasing"),
        ([[-5, 7]], "non-decreasing"),
        ([[5, 10], [7]], "non-decreasing"),
        ([[5], [], [2_000_000_000]], "beyond the stream duration"),
    ], ids=["unsorted", "negative", "unsorted-across-blocks", "beyond-duration"])
    def test_writer_refuses_records_out_of_order_and_leaves_no_file(self, tmp_path, blocks,
                                                                    message):
        # formatted unchecked, 100 then 5 wrote the bytes \x94\tUF for 100
        header = events.StreamHeader(phi=0.0, theta=0.0, duration_s=1.0, bin_width_us=1.0,
                                     seed=0)
        blocks = [(np.array(ts, dtype=np.int64), np.arange(len(ts), dtype=np.uint8) % 4)
                  for ts in blocks]
        with pytest.raises(ValueError, match=message):
            formats.write_event_file(header, tmp_path / "ev.tsv", blocks)
        assert list(tmp_path.iterdir()) == []

    def test_simulate_exits_2_on_a_block_out_of_order_and_leaves_no_file(self, tmp_path,
                                                                         monkeypatch):
        def unsorted(header, distribution):
            return iter([(np.array([100, 5, 2000], dtype=np.int64), np.zeros(3, dtype=np.uint8))])
        monkeypatch.setattr(cli, "simulate_blocks", unsorted)
        code, _, err = run_cli("simulate", "--angles=0:0", "--out", str(tmp_path / "ev"))
        assert code == 2
        assert json.loads(err) == {"error": "ValidationError", "subcommand": "simulate",
                                   "message": "timestamps must be non-negative and non-decreasing"}
        assert list((tmp_path / "ev").iterdir()) == []

    @pytest.mark.parametrize("rows", [1, 3, 4, 5, 64])
    def test_writer_blocks_match_line_oracle(self, tmp_path, monkeypatch, rows):
        # runs of 7, 5, 2, 1 and 1 lines of 1, 2, 3, 4 and 13 digits: a block
        # is cut inside a run, a run ends one line past a block edge (14 at 4
        # rows, 7 at 3) and exactly at one (14 at 5 rows)
        monkeypatch.setattr(formats, "_PARSE_ROWS", rows)
        ts = np.array([1, 2, 3, 4, 5, 6, 7, 10, 11, 12, 13, 14, 100, 999, 1000, 10 ** 12],
                      dtype=np.int64)
        s = events.EventStream(events.StreamHeader(phi=0.0, theta=0.0, duration_s=2e3,
                                                   bin_width_us=1.0, seed=2),
                               ts, np.arange(ts.size, dtype=np.uint8) % 4)
        blocks = list(formats._format_records(s.timestamps_ns, s.channels))
        assert max(len(b) for b in blocks) == min(rows, 7)  # 7 lines of one digit
        write_stream(s, tmp_path / "ev.tsv")
        text = oracles.event_file_text_by_lines(s)
        assert (tmp_path / "ev.tsv").read_bytes() == text.encode()
        back = formats.read_event_file(tmp_path / "ev.tsv")
        assert np.array_equal(back.timestamps_ns, ts) and np.array_equal(back.channels, s.channels)

    def test_write_memory_is_blocked(self, tmp_path):
        # about 600k records, 8.3 MB of lines: formatted as one block per digit
        # count the write peaked at 22.1 MB traced, in _PARSE_ROWS-line blocks
        # at about 1.5 MB
        s = events.simulate_events((0.4, 0.1, 0.2, 0.3), 1.2e5, 5.0, seed=1)
        assert len(s) > 590_000
        tracemalloc.start()
        try:
            write_stream(s, tmp_path / "ev.tsv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6, f"traced peak {peak / 1e6:.1f} MB"
        back = formats.read_event_file(tmp_path / "ev.tsv")
        assert np.array_equal(back.timestamps_ns, s.timestamps_ns)
        assert np.array_equal(back.channels, s.channels)

    def test_leading_zeros_and_mixed_widths_parse(self, tmp_path):
        body = "0\tUF\n007\tDN\n7\tUN\n0000000000000000000012\tDF\n012\tUF\n"
        p = tmp_path / "z.tsv"
        p.write_text(self.HEADER + body)
        _, ts, ch = oracles.event_records_by_lines(self.HEADER + body)
        back = formats.read_event_file(p)
        assert back.timestamps_ns.tolist() == ts.tolist() == [0, 7, 7, 12, 12]
        assert back.channels.tolist() == ch.tolist() == [0, 3, 1, 2, 0]

    @staticmethod
    def alternating_widths_text(n):
        # sorted records whose lines alternate between plain and 12-digit
        # zero-padded timestamps: each width is spread over n / 2 runs
        labels = ("UF", "UN", "DF", "DN")
        return TestEventFiles.HEADER + "".join(
            f"{7 * i:012d}\t{labels[i % 4]}\n" if i % 2 else f"{7 * i}\t{labels[i % 4]}\n"
            for i in range(n))

    def test_alternating_widths_parse_in_bounded_memory(self, tmp_path):
        # gathered as one (lines x width) int64 index array, this 2.6 MB file
        # peaked at about 27 MB traced, 10 bytes per file byte; in blocks of
        # _PARSE_ROWS lines it peaks at about 10 MB, 3.8 bytes per file byte
        text = self.alternating_widths_text(200_000)
        p = tmp_path / "alt.tsv"
        p.write_text(text)
        tracemalloc.start()
        try:
            back = formats.read_event_file(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        _, ts, ch = oracles.event_records_by_lines(text)
        assert np.array_equal(back.timestamps_ns, ts) and np.array_equal(back.channels, ch)
        size = p.stat().st_size
        assert peak < 5 * size, f"traced peak {peak / 1e6:.1f} MB for a {size / 1e6:.1f} MB file"

    @pytest.mark.parametrize("rows", [1, 3, 5, 64])
    def test_parse_blocks_split_runs_and_gathers(self, tmp_path, monkeypatch, rows):
        # block edges cut runs of one width and gathers of spread widths alike
        monkeypatch.setattr(formats, "_PARSE_ROWS", rows)
        s = self.wide_stream()
        texts = [oracles.event_file_text_by_lines(s), self.alternating_widths_text(50),
                 self.HEADER + "0\tUF\n007\tDN\n7\tUN\n0000000000000000000012\tDF\n012\tUF\n"]
        for i, text in enumerate(texts):
            p = tmp_path / f"ev{i}.tsv"
            p.write_text(text)
            _, ts, ch = oracles.event_records_by_lines(text)
            back = formats.read_event_file(p)
            assert np.array_equal(back.timestamps_ns, ts) and np.array_equal(back.channels, ch)
        # a bad line in a late block is reported as itself
        p.write_text(self.alternating_widths_text(50).replace("\n336\tUF\n", "\n3x6\tUF\n"))
        with pytest.raises(formats.ValidationError, match="malformed record '3x6"):
            formats.read_event_file(p)

    @pytest.mark.parametrize("body", [
        "+5\tUF\n",            # sign
        " 7\tUF\n",            # leading space
        "1_0\tUF\n",           # digit separator
        "1:0\tUF\n",           # the byte after '9'
        "1/0\tUF\n",           # the byte before '0'
        "5 UF\n",              # missing tab
        "5UF\n",               # missing tab
        "5\tXX\n",             # unknown label
        "5\tUF",               # missing final newline
        "5\tUF\r\n",           # CRLF
        "5\tUF\n\n6\tDN\n",    # blank line
        "5\tUF\n\n",           # trailing blank line
        "5\tU\u00c9\n",         # non-ASCII label
        "\u0665\tUF\n",         # non-ASCII digit
        "5\t\tUF\n",           # two tabs
        "\tUF\n",              # no digits
        "5\tUFN\n",            # label too long
        "5\tuf\n",             # lower case
    ])
    def test_malformed_record_corpus(self, tmp_path, body):
        p = tmp_path / "bad.tsv"
        p.write_bytes((self.HEADER + "1\tDN\n" + body).encode("utf-8"))
        with pytest.raises(formats.ValidationError, match="malformed record"):
            formats.read_event_file(p)

    def test_timestamp_beyond_int64_rejected(self, tmp_path):
        p = tmp_path / "big.tsv"
        p.write_text(self.HEADER + "9223372036854775808\tUF\n")
        with pytest.raises(formats.ValidationError, match="out of range"):
            formats.read_event_file(p)
        p.write_text(self.HEADER + "19223372036854775807\tUF\n")
        with pytest.raises(formats.ValidationError, match="out of range"):
            formats.read_event_file(p)

    @staticmethod
    def assert_parses_like_oracle(body):
        """The parser and the line oracle give equal arrays or equal messages."""
        arr = np.frombuffer(body, dtype=np.uint8)
        got, want = [], []
        for parse, out in ((formats._parse_records, got), (oracles.parse_records_by_lines, want)):
            try:
                out.extend(parse(arr, "ev.tsv"))
            except formats.ValidationError as exc:
                out.append(str(exc))
        assert len(got) == len(want) and all(np.array_equal(g, w) for g, w in zip(got, want))
        if len(got) == 2:
            assert got[0].dtype == np.int64 and got[1].dtype == np.uint8

    @staticmethod
    def random_lines(rng, n):
        """``n`` lines of 1-25 digits: at most 18 significant ones, the rest leading zeros."""
        labels = ("UF", "UN", "DF", "DN")
        lines = []
        for _ in range(n):
            k = int(rng.integers(1, 26))
            sig = int(rng.integers(1, min(k, 18) + 1))
            lines.append("0" * (k - sig) + str(int(rng.integers(10 ** (sig - 1), 10 ** sig)))
                         + f"\t{labels[rng.integers(4)]}\n")
        return lines

    @pytest.mark.parametrize("rows", [3, 64, 1 << 15])
    def test_parser_matches_per_width_oracle(self, monkeypatch, rows):
        monkeypatch.setattr(formats, "_PARSE_ROWS", rows)
        rng = np.random.default_rng(rows)
        for _ in range(30):
            self.assert_parses_like_oracle(
                "".join(self.random_lines(rng, int(rng.integers(1, 300)))).encode("ascii"))
        alternating = self.alternating_widths_text(301)[len(self.HEADER):]
        self.assert_parses_like_oracle(alternating.encode("ascii"))
        sorted_text = oracles.event_file_text_by_lines(self.wide_stream())
        self.assert_parses_like_oracle(sorted_text.partition("channel\n")[2].encode("ascii"))

    def test_parser_matches_per_width_oracle_over_several_blocks(self):
        # more than two _PARSE_ROWS blocks, mixed widths in every one, then a
        # sorted stream whose widths each form one run
        n = 70_000
        assert n > 2 * formats._PARSE_ROWS
        rng = np.random.default_rng(8)
        self.assert_parses_like_oracle("".join(self.random_lines(rng, n)).encode("ascii"))
        s = events.simulate_events((0.4, 0.1, 0.2, 0.3), 5e5, 0.16, seed=8)
        assert len(s) > n
        text = oracles.event_file_text_by_lines(s)
        self.assert_parses_like_oracle(text.partition("channel\n")[2].encode("ascii"))

    @pytest.mark.parametrize("bad", [
        "12x4\tUF\n",                          # a bad digit
        "1234 UF\n",                            # a missing tab
        "1234\tXY\n",                           # an unknown label
        "\tUF\n",                               # an empty timestamp
        "9223372036854775808\tUF\n",            # int64 overflow
        "00000019223372036854775807\tUF\n",     # overflow behind leading zeros
        "0000001000000000000000000000\tUF\n",   # a nonzero digit before the last 19
        "0x000000000000000000001\tUF\n",        # a bad digit before the last 19
        "9223372036854775808\tUF\n922337203685477580x\tUF\n",  # out of range, then malformed
        "123x5\tUF\n1x\tDN\n",                   # the wider width first
        "0000x000000000000000000001\tUF\n9223372036854775808\tDN\n",  # also out of range
        "5\tUF",                                # an unterminated last line
    ])
    @pytest.mark.parametrize("context", ["one width", "mixed", "late block"])
    def test_malformed_records_match_per_width_oracle(self, monkeypatch, bad, context):
        if context == "late block":
            monkeypatch.setattr(formats, "_PARSE_ROWS", 4)
        good = self.random_lines(np.random.default_rng(1), 9)
        if context == "one width":
            good = ["1234\tDN\n"] * 9
        body = "".join(good) + bad + ("" if bad.endswith("UF") else "".join(good))
        self.assert_parses_like_oracle(body.encode("ascii"))
        with pytest.raises(formats.ValidationError):
            formats._parse_records(np.frombuffer(body.encode("ascii"), dtype=np.uint8), "ev.tsv")

    @pytest.mark.parametrize("body, named", [
        ("x\tUF\n5\tUF", "malformed record 'x\\tUF'"),
        ("123x5\tUF\n1x\tDN\n", "malformed record '123x5\\tUF'"),
        ("9223372036854775808\tUF\n922337203685477580x\tUF\n",
         "timestamp out of range in record '9223372036854775808\\tUF'"),
        ("1\tUF\n\tUF\n5\tDN\n12\tU\n", "malformed record '\\tUF'"),
        ("1\tUF\n\n\n", "malformed record ''"),
    ])
    @pytest.mark.parametrize("rows", [1, 3, 1 << 15])
    def test_first_bad_record_in_file_order_is_named(self, monkeypatch, body, named, rows):
        monkeypatch.setattr(formats, "_PARSE_ROWS", rows)
        with pytest.raises(formats.ValidationError) as got:
            formats._parse_records(np.frombuffer(body.encode("ascii"), dtype=np.uint8), "ev.tsv")
        assert str(got.value) == f"ev.tsv: {named}"
        self.assert_parses_like_oracle(body.encode("ascii"))

    def test_alternating_widths_parse_bounds_the_gather_by_block(self):
        # the outputs and the line index take 25 bytes per line, and one block's
        # temporaries about 2.3 MB; gathered unblocked, these 200k lines peaked
        # at 16.7 MB traced
        n = 200_000
        body = self.alternating_widths_text(n)[len(self.HEADER):].encode("ascii")
        arr = np.frombuffer(body, dtype=np.uint8)
        tracemalloc.start()
        try:
            formats._parse_records(arr, "alt.tsv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 25 * n + (4 << 20), f"traced peak {peak / 1e6:.1f} MB for {n} lines"


    @pytest.mark.parametrize("timestamps, channels, message", [
        (np.array([1000.0, 2000.0]), [0, 1], "integer nanoseconds, not float64"),
        ([1000, 2000], [-1, 0], "channel codes must be integers 0..3"),
        ([1000, 2000], [7, 0], "channel codes must be integers 0..3"),
        ([1000, 2000], [1.7, 0], "channel codes must be integers 0..3"),
        ([1000, 2000], [0], "matching 1-d arrays"),
        (np.array([2 ** 63 + 5], dtype=np.uint64), [0], "int64 nanosecond range"),
    ], ids=["float-timestamps", "negative-code", "code-7", "float-code", "lengths",
            "uint64-past-int64"])
    def test_writer_refuses_values_it_cannot_write_and_leaves_no_file(
            self, tmp_path, timestamps, channels, message):
        # unchecked, float64 [1000., 2000.] was written as b"\x15376\tUF" and
        # channel -1 as DN, and a channel of 7 or 1.7 raised IndexError
        header = events.StreamHeader(phi=0.0, theta=0.0, duration_s=1.0, bin_width_us=1.0,
                                     seed=0)
        with pytest.raises(ValueError, match=message):
            formats.write_event_file(header, tmp_path / "ev.tsv", [(timestamps, channels)])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("timestamps", [
        np.array([1000, 2000], dtype=np.int32), np.array([7, 1000], dtype=np.uint16),
        np.array([5, 10 ** 12], dtype=np.uint64), [1000, 2000],
    ], ids=["int32", "uint16", "uint64", "list"])
    def test_writer_formats_integer_timestamps_by_value(self, tmp_path, timestamps):
        # an int32 [1000, 2000] was read through a uint64 view, as two records
        # of 1000, and a list raised AttributeError
        header = events.StreamHeader(phi=0.0, theta=0.0, duration_s=2e3, bin_width_us=1.0,
                                     seed=0)
        formats.write_event_file(header, tmp_path / "ev.tsv", [(timestamps, [3, 0])])
        want = events.EventStream(header, np.array([int(t) for t in timestamps], dtype=np.int64),
                                  np.array([3, 0], dtype=np.uint8))
        assert (tmp_path / "ev.tsv").read_bytes() == oracles.event_file_text_by_lines(want).encode()

    @staticmethod
    def straddling_stream(rng, n):
        """``n`` sorted timestamps below 9.2e18 ns: half log-uniform, half within
        3 of a power of ten, so that the digit counts change inside the stream."""
        k = rng.integers(0, 19, size=n // 2)
        near = 10 ** k.astype(object) + rng.integers(-3, 4, size=k.size).astype(object)
        spread = np.exp(rng.uniform(0.0, math.log(9.2e18), size=n - k.size)).astype(np.int64)
        ts = np.sort(np.concatenate([np.array([max(int(v), 0) for v in near], dtype=np.int64),
                                     spread]))
        ts = np.minimum(ts, 9_199_999_999_999_999_999)
        return events.EventStream(
            events.StreamHeader(phi=0.5, theta=-0.5, duration_s=9.2e9, bin_width_us=1.0, seed=n),
            ts, rng.integers(0, 4, size=n).astype(np.uint8))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_sorted_streams_across_every_digit_count_match_line_oracles(
            self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        sizes = [0, 1, 2, 2000, *rng.integers(0, 2001, size=4).tolist()]
        for i, n in enumerate(sizes):
            s = self.straddling_stream(rng, n)
            path = tmp_path / f"ev{i}.tsv"
            write_stream(s, path)
            text = oracles.event_file_text_by_lines(s)
            assert path.read_bytes() == text.encode("ascii")
            body = text.partition("channel\n")[2].encode("ascii")
            self.assert_parses_like_oracle(body)
            back = formats.read_event_file(path)
            assert np.array_equal(back.timestamps_ns, s.timestamps_ns)
            assert np.array_equal(back.channels, s.channels)

    def test_every_power_of_ten_edge_and_the_int64_ends_round_trip(self):
        # 0, each 10^k - 1, 10^k, 10^k + 1, and 2^63 - 1, which no stream's
        # duration admits, so the formatter and the parser are held to the
        # oracles directly
        edges = {0, 2 ** 63 - 1} | {10 ** k + j for k in range(19) for j in (-1, 0, 1)}
        ts = np.array(sorted(edges), dtype=np.int64)
        top = types.SimpleNamespace(
            timestamps_ns=ts, channels=np.arange(ts.size, dtype=np.uint8) % 4,
            header=events.StreamHeader(phi=0.0, theta=0.0, duration_s=1.0, bin_width_us=1.0,
                                       seed=0))
        body = b"".join(b.tobytes()
                        for b in formats._format_records(top.timestamps_ns, top.channels))
        assert body == oracles.event_file_text_by_lines(top).partition("channel\n")[2].encode()
        got_ts, got_ch = formats._parse_records(np.frombuffer(body, dtype=np.uint8), "ev.tsv")
        assert np.array_equal(got_ts, ts) and np.array_equal(got_ch, top.channels)
        self.assert_parses_like_oracle(body)

    @pytest.mark.parametrize("seed", range(40))
    def test_first_bad_record_of_small_mixed_width_bodies_matches_line_oracle(self, seed):
        # a few lines of mixed widths, with one to three bad ones anywhere
        rng = np.random.default_rng(seed)
        lines = self.random_lines(rng, int(rng.integers(1, 12)))
        bad = ["12x4\tUF\n", "1234 UF\n", "12\tXY\n", "\tUF\n", "\n",
               "9223372036854775808\tUF\n", "0" * 21 + "1\tDN\n", "1" + "0" * 20 + "1\tDN\n"]
        for _ in range(int(rng.integers(1, 4))):
            lines.insert(int(rng.integers(0, len(lines) + 1)), bad[int(rng.integers(len(bad)))])
        self.assert_parses_like_oracle("".join(lines).encode("ascii"))

    @pytest.mark.parametrize("n_lines", [7, 8])
    @pytest.mark.parametrize("bad_at", [None, 0, 3, 6])
    def test_parser_matches_line_oracle_on_both_sides_of_the_run_cut(self, n_lines, bad_at):
        # alternating 1- and 4-digit lines give n - 1 runs in a 4-digit block:
        # 6 are placed run by run and 7 width by width, which must agree
        labels = formats.CHANNELS
        lines = [f"{i + 1}\t{labels[i % 4]}\n" if i % 2 else f"{1000 + i}\t{labels[i % 4]}\n"
                 for i in range(n_lines)]
        if bad_at is not None:  # a bad first digit, which keeps the line's width
            lines[bad_at] = "x" + lines[bad_at][1:]
        self.assert_parses_like_oracle("".join(lines).encode("ascii"))

    @staticmethod
    def count_opens(monkeypatch):
        """Opens of each path by the event-file reader, in a dict it returns."""
        opened = {}

        def counted(opener):
            def open_counted(path, *args, **kwargs):
                opened[str(path)] = opened.get(str(path), 0) + 1
                return opener(path, *args, **kwargs)
            return open_counted

        monkeypatch.setattr(formats, "io", types.SimpleNamespace(
            FileIO=counted(io.FileIO), BufferedReader=io.BufferedReader))
        monkeypatch.setattr(formats, "open", counted(open), raising=False)
        return opened

    def test_bell_scan_opens_each_small_event_file_once(self, tmp_path, monkeypatch):
        events_dir = tmp_path / "events"
        assert run_cli("simulate", "--scan", "--scan-step", "1.0", "--duration-s", "0.01",
                       "--rate-hz", "120000", "--seed", "4", "--out", str(events_dir))[0] == 0
        files = sorted(events_dir.iterdir())
        assert len(files) == 15 and all(f.stat().st_size < formats._READ_BYTES for f in files)
        opened = self.count_opens(monkeypatch)
        assert run_cli("bell-scan", "--events", str(events_dir), "--out",
                       str(tmp_path / "scan"))[0] == 0
        assert opened == {str(f): 1 for f in files}

    @pytest.mark.parametrize("extra", [0, 1])
    def test_a_body_at_the_read_size_is_read_once_and_one_past_it_in_reads(
            self, tmp_path, monkeypatch, extra):
        # a body of _READ_BYTES bytes is kept from the read that brought the
        # header; one byte more and each pass reads the file again
        body = "".join(f"{i}\t{formats.CHANNELS[i % 4]}\n" for i in range(1000, 1020))
        body = "0" * extra + body  # a leading zero widens the first line by a byte
        monkeypatch.setattr(formats, "_READ_BYTES", len(body) - extra)
        p = tmp_path / "ev.tsv"
        p.write_text(self.HEADER + body)
        opened = self.count_opens(monkeypatch)
        stream = formats.EventFile(p)
        blocks = list(stream.blocks())
        assert opened == {str(p): 1 + extra}
        assert len(blocks) == 1 + extra and stream.records == 20
        _, ts, ch = oracles.event_records_by_lines(self.HEADER + body)
        assert np.array_equal(np.concatenate([b[0] for b in blocks]), ts)
        assert np.array_equal(np.concatenate([b[1] for b in blocks]), ch)

    def test_a_scan_stream_is_formatted_in_one_digit_pass(self, tmp_path, monkeypatch):
        # a 0.01 s stream at 120 kHz, as each scan setting writes, holds four
        # or five digit counts; one pass formats them all
        passes = []
        rows = formats._record_rows

        def counted(timestamps, channels, digits):
            passes.append(timestamps.size)
            return rows(timestamps, channels, digits)

        monkeypatch.setattr(formats, "_record_rows", counted)
        header = events.StreamHeader(phi=-1.0, theta=1.4, duration_s=0.01, bin_width_us=1.0,
                                     seed=7, rate_hz=120000.0)
        write_stream(events.simulate_events((0.4, 0.1, 0.2, 0.3), 120000.0, 0.01, seed=7,
                                            phi=-1.0, theta=1.4), tmp_path / "ev.tsv")
        back = formats.read_event_file(tmp_path / "ev.tsv")
        assert back.header == header
        widths = {len(str(t)) for t in back.timestamps_ns.tolist()}
        assert len(widths) >= 4
        assert passes == [len(back)]
        assert (tmp_path / "ev.tsv").read_bytes() == oracles.event_file_text_by_lines(back).encode()


class TestGridFiles:
    def test_roundtrip_with_stderr(self, tmp_path):
        grid = CorrelationGrid((0.0, 0.5), (-1.0, -0.5, 0.0),
                               np.linspace(-0.9, 0.9, 6).reshape(2, 3),
                               np.full((2, 3), 0.01))
        formats.write_grid_file(grid, tmp_path / "g.tsv")
        back = formats.read_grid_file(tmp_path / "g.tsv")
        assert back.phi_values == grid.phi_values
        assert back.theta_values == grid.theta_values
        assert np.allclose(back.e, grid.e) and np.allclose(back.stderr, grid.stderr)
        formats.write_grid_file(back, tmp_path / "h.tsv")
        assert (tmp_path / "g.tsv").read_bytes() == (tmp_path / "h.tsv").read_bytes()

    def test_absent_stderr_roundtrips_as_none(self, tmp_path):
        grid = CorrelationGrid((0.0, 1.0), (0.0, 1.0), np.zeros((2, 2)))
        formats.write_grid_file(grid, tmp_path / "g.tsv")
        assert formats.read_grid_file(tmp_path / "g.tsv").stderr is None

    def test_malformed_grids_rejected(self, tmp_path):
        p = tmp_path / "g.tsv"
        p.write_text("nope\n")
        with pytest.raises(formats.ValidationError, match="not a pathqrng grid"):
            formats.read_grid_file(p)
        p.write_text("# pathqrng-grid v1\nphi\ttheta\te\tstderr\n0.0\t0.0\t0.5\n")
        with pytest.raises(formats.ValidationError, match="malformed row"):
            formats.read_grid_file(p)
        p.write_text("# pathqrng-grid v1\nphi\ttheta\te\tstderr\n"
                     "0.0\t0.0\t0.5\tnan\n0.0\t0.0\t0.6\tnan\n")
        with pytest.raises(formats.ValidationError, match="duplicate"):
            formats.read_grid_file(p)


class TestJsonDocs:
    def test_kind_is_required(self, tmp_path):
        with pytest.raises(formats.ValidationError, match="kind"):
            formats.write_json_doc({"value": 1.0}, tmp_path / "x.json")
        (tmp_path / "y.json").write_text('{"value": 1}')
        with pytest.raises(formats.ValidationError, match="kind"):
            formats.read_json_doc(tmp_path / "y.json")
        (tmp_path / "z.json").write_text("{broken")
        with pytest.raises(formats.ValidationError, match="malformed"):
            formats.read_json_doc(tmp_path / "z.json")

    def test_deep_nesting_is_malformed_json(self, tmp_path):
        # the decoder's RecursionError once went through as exit 3
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        code, _, err = run_cli("report", "--result", str(path))
        lines = err.splitlines()
        assert code == 2 and len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "ValidationError"
        assert record["message"].startswith(f"{path}: malformed JSON: ")

    def test_json_roundtrip_is_byte_identical(self, tmp_path):
        doc = {"kind": "correction-estimate", "term": "e_chi", "value": 0.0887,
               "lower": 0.0882, "upper": 0.0887, "gap": 5e-4, "cells": 20064,
               "converged": True, "angles": [0.0, 0.1, 0.2, 0.3]}
        formats.write_json_doc(doc, tmp_path / "a.json")
        formats.write_json_doc(formats.read_json_doc(tmp_path / "a.json"), tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        code, text, _ = run_cli("report", "--result", str(tmp_path / "a.json"))
        assert code == 0 and "e_chi = 0.088700 in [0.088200, 0.088700]" in text


# one document of each kind, with a number to fill in a checked or an unchecked field
NUMBER_IN_DOC = {
    "chi-result": '{"kind": "chi-result", "chi": 2.7, "stderr": 0.01, "sign": "max", "angles": '
                  '{"phi": 0.0, "phi_prime": 0.5, "theta": 0.2, "theta_prime": %s}}',
    "certification": '{"kind": "certification", "chi_real": 2.7, "e_chi": 0.09, "e_p": %s, '
                     '"p_guess": 0.8, "h_min_bits": 0.3, "h_min_percent": 30.0, '
                     '"certified_rate_hz": null}',
    "mzi-calibration": '{"kind": "mzi-calibration", "a": 1.0, "b": 2.0, "c": 0.1, "d": 0.4, '
                       '"residual_rms": 0.0, "port": 1, "stderr": [0.1, %s, 0.1, 0.1]}',
    "correction-estimate": '{"kind": "correction-estimate", "term": "e_chi", "value": 0.09, '
                           '"lower": 0.0895, "upper": 0.09, "gap": 5e-4, "cells": 2320, '
                           '"converged": true, "angles": [0.0, %s, 0.2, 0.3]}',
}


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
@pytest.mark.parametrize("kind", sorted(NUMBER_IN_DOC))
def test_non_finite_number_anywhere_in_a_document_exits_2(tmp_path, kind, token):
    # report once printed these: theta'=+inf, e_p = inf
    path = tmp_path / "doc.json"
    path.write_text(NUMBER_IN_DOC[kind] % "1.5")
    assert run_cli("report", "--result", str(path))[0] == 0
    path.write_text(NUMBER_IN_DOC[kind] % token)
    code, out, err = run_cli("report", "--result", str(path))
    lines = err.splitlines()
    assert code == 2 and out == "" and len(lines) == 1
    assert json.loads(lines[0]) == {"error": "ValidationError", "subcommand": "report",
                                    "message": f"{path}: every number must be finite, not {token}"}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_writer_refuses_non_finite_numbers_and_leaves_no_file(tmp_path, value):
    with pytest.raises(ValueError, match="not JSON compliant"):
        formats.write_json_doc({"kind": "certification", "e_p": value}, tmp_path / "c.json")
    assert not list(tmp_path.iterdir())


def test_formats_import_leaves_argparse_and_cli_unloaded():
    src = str(Path(formats.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = ("import sys, pathqrng.formats; "
             "print(sorted(m for m in ('argparse', 'pathqrng.cli') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.splitlines()[-1] == "[]"


def test_reader_fields_are_the_result_fields():
    # every field the reader checks is a field of its kind's result dataclass,
    # or one the writer adds: a correction's term and a chi-result's named angles
    extras = {"chi-result": {"angles.phi", "angles.phi_prime", "angles.theta",
                             "angles.theta_prime"},
              "correction-estimate": {"term"}}
    assert len({doc.result for doc in formats._DOCS.values()}) == len(formats._DOCS)
    for kind, doc in formats._DOCS.items():
        fields = {f.name for f in dataclasses.fields(doc.result)} | extras.get(kind, set())
        assert set(doc.fields) <= fields, kind


# ---------------------------------------------------------------------------
# the block reader against the line oracle
# ---------------------------------------------------------------------------

def wide_text():
    """Every digit count from 1 to 17, each at its boundaries."""
    edges = [0, 1, 9] + [v for k in range(1, 17) for v in (10 ** k - 1, 10 ** k, 10 ** k + 1)]
    ts = np.unique(np.array(edges, dtype=np.int64))
    ch = np.random.default_rng(3).integers(0, 4, size=ts.size).astype(np.uint8)
    return oracles.event_file_text_by_lines(events.EventStream(
        events.StreamHeader(phi=0.1, theta=-0.2, duration_s=2e7, bin_width_us=1.0, seed=4),
        ts, ch))


BODIES = {
    "multi-click": oracles.event_file_text_by_lines(
        events.simulate_events(DIST, 9e5, 0.002, seed=3)).partition("channel\n")[2],
    "wide": wide_text().partition("channel\n")[2],
    "leading zeros": "0\tUF\n007\tDN\n7\tUN\n" + "0" * 40 + "12\tDF\n012\tUF\n",
    # 34 digits on every line: one width past the 19 that fit in int64
    "one wide width": "".join(f"{'0' * 30}{t:04d}\t{formats.CHANNELS[t % 4]}\n"
                              for t in range(1000, 1100, 7)),
    "empty": "",
}


@pytest.mark.parametrize("read_bytes", [1, 5, 7, 13, 64, 1 << 12])
@pytest.mark.parametrize("body", sorted(BODIES))
def test_block_reads_parse_like_line_oracle(tmp_path, monkeypatch, read_bytes, body):
    # reads of 1 to 13 bytes cut every line, the 42-byte one many times over
    monkeypatch.setattr(formats, "_READ_BYTES", read_bytes)
    text = HEADER.replace("duration_s=1.0", "duration_s=2e7") + BODIES[body]
    path = tmp_path / "ev.tsv"
    path.write_text(text)
    _, ts, ch = oracles.event_records_by_lines(text)
    blocks = list(formats.EventFile(path).blocks())
    assert len(blocks) > 1 or read_bytes > 13 or ts.size < 2
    got_ts = np.concatenate([b[0] for b in blocks]) if blocks else np.empty(0, np.int64)
    got_ch = np.concatenate([b[1] for b in blocks]) if blocks else np.empty(0, np.uint8)
    assert np.array_equal(got_ts, ts) and np.array_equal(got_ch, ch)
    back = formats.read_event_file(path)
    assert back.timestamps_ns.dtype == np.int64 and back.channels.dtype == np.uint8
    assert np.array_equal(back.timestamps_ns, ts) and np.array_equal(back.channels, ch)


@pytest.mark.parametrize("bad", [
    "12x4\tUF\n",                        # a bad digit
    "1234 UF\n",                          # a missing tab
    "9223372036854775808\tUF\n",          # int64 overflow
    "0" * 30 + "1x\tUF\n",                # a bad line longer than several reads
    "0" * 29 + "x1234\tUF\n",             # a bad digit in front of the last 19
    "1" + "0" * 29 + "1234\tUF\n",        # a non-zero digit in front of the last 19
    "0" * 30 + "9223372036854775808\tUF\n",  # int64 overflow in the last 19 digits
    "5\tUF\n\n",                          # a blank line
    "5\tUF",                              # an unterminated last line
    "5\tU",                               # an unterminated last line, cut in its label
])
@pytest.mark.parametrize("read_bytes", [1, 6, 11, 1 << 12])
def test_block_reads_name_the_first_bad_record_like_line_oracle(tmp_path, monkeypatch,
                                                               bad, read_bytes):
    monkeypatch.setattr(formats, "_READ_BYTES", read_bytes)
    body = "".join(f"{i}\t{formats.CHANNELS[i % 4]}\n" for i in range(1, 30)) + bad
    if not bad.endswith(("UF", "U")):
        body += "40\tDN\n41\tDx\n"  # a second bad line, which must not be named
    path = tmp_path / "ev.tsv"
    path.write_text(HEADER + body)
    with pytest.raises(formats.ValidationError) as want:
        oracles.parse_records_by_lines(body.encode("ascii"), path)
    with pytest.raises(formats.ValidationError) as got:
        formats.read_event_file(path)
    assert str(got.value) == str(want.value)


def test_a_long_record_parses_in_linear_time(tmp_path):
    # each digit in front of the last 19 once cost one pass of its own:
    # this record took about 4 s, and 10^5 zeros 0.4 s
    path = tmp_path / "ev.tsv"
    path.write_text(HEADER + "0" * 10 ** 6 + "5\tUF\n")
    start = time.perf_counter()
    (ts, ch), = formats.EventFile(path).blocks()
    elapsed = time.perf_counter() - start
    assert ts.tolist() == [5] and ch.tolist() == [0]
    assert elapsed < 1.0, f"{elapsed:.2f} s"
