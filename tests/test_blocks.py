"""Event streams as blocks: each block consumer against its whole-stream
oracle at block sizes that cut lines, bins and windows; the order of errors
in a file read block by block; the event-file header keys; and the memory
the block reads and draws take."""

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

import oracles
from pathqrng import cli, events
from pathqrng.chip import ChipConfig, broadband_probabilities

ROOT = Path(__file__).resolve().parents[1]
HEADER = ("# pathqrng-events v1\n# phi=0.0\n# theta=0.0\n# duration_s=1.0\n"
          "# bin_width_us=1.0\n# seed=0\ntimestamp_ns\tchannel\n")
DIST = (0.4, 0.1, 0.2, 0.3)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def write_stream(stream, path):
    path.parent.mkdir(parents=True, exist_ok=True)
    cli.write_event_file(stream.header, path, stream.blocks())
    return path


def split_stream(stream, cuts):
    """``stream`` as a stream of blocks cut at record indices ``cuts``."""
    edges = [0, *cuts, len(stream)]
    return types.SimpleNamespace(
        header=stream.header,
        blocks=lambda: ((stream.timestamps_ns[a:b], stream.channels[a:b])
                        for a, b in zip(edges[:-1], edges[1:])))


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
    "one wide width": "".join(f"{'0' * 30}{t:04d}\t{cli.CHANNELS[t % 4]}\n"
                              for t in range(1000, 1100, 7)),
    "empty": "",
}


@pytest.mark.parametrize("read_bytes", [1, 5, 7, 13, 64, 1 << 12])
@pytest.mark.parametrize("body", sorted(BODIES))
def test_block_reads_parse_like_line_oracle(tmp_path, monkeypatch, read_bytes, body):
    # reads of 1 to 13 bytes cut every line, the 42-byte one many times over
    monkeypatch.setattr(cli, "_READ_BYTES", read_bytes)
    text = HEADER.replace("duration_s=1.0", "duration_s=2e7") + BODIES[body]
    path = tmp_path / "ev.tsv"
    path.write_text(text)
    _, ts, ch = oracles.event_records_by_lines(text)
    blocks = list(cli.EventFile(path).blocks())
    assert len(blocks) > 1 or read_bytes > 13 or ts.size < 2
    got_ts = np.concatenate([b[0] for b in blocks]) if blocks else np.empty(0, np.int64)
    got_ch = np.concatenate([b[1] for b in blocks]) if blocks else np.empty(0, np.uint8)
    assert np.array_equal(got_ts, ts) and np.array_equal(got_ch, ch)
    back = cli.read_event_file(path)
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
    monkeypatch.setattr(cli, "_READ_BYTES", read_bytes)
    body = "".join(f"{i}\t{cli.CHANNELS[i % 4]}\n" for i in range(1, 30)) + bad
    if not bad.endswith(("UF", "U")):
        body += "40\tDN\n41\tDx\n"  # a second bad line, which must not be named
    path = tmp_path / "ev.tsv"
    path.write_text(HEADER + body)
    with pytest.raises(cli.ValidationError) as want:
        oracles.parse_records_by_lines(body.encode("ascii"), path)
    with pytest.raises(cli.ValidationError) as got:
        cli.read_event_file(path)
    assert str(got.value) == str(want.value)


def test_a_long_record_parses_in_linear_time(tmp_path):
    # each digit in front of the last 19 once cost one pass of its own:
    # this record took about 4 s, and 10^5 zeros 0.4 s
    path = tmp_path / "ev.tsv"
    path.write_text(HEADER + "0" * 10 ** 6 + "5\tUF\n")
    start = time.perf_counter()
    (ts, ch), = cli.EventFile(path).blocks()
    elapsed = time.perf_counter() - start
    assert ts.tolist() == [5] and ch.tolist() == [0]
    assert elapsed < 1.0, f"{elapsed:.2f} s"


# ---------------------------------------------------------------------------
# tie resolution, simulation, windows and cells over blocks
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def multi_click_stream():
    # at 0.9 records per bin about a third of the occupied bins hold several
    return events.simulate_events(DIST, 9e5, 0.004, seed=5)


def hand_built_stream():
    """Bins [DN, UF], [UN], [DF, DF, UF], the first two records at one time."""
    header = events.StreamHeader(0.0, 0.0, 1.0, 1.0, 0)
    return events.EventStream(header, np.array([0, 0, 1000, 2000, 2500, 2999], dtype=np.int64),
                              np.array([3, 0, 1, 2, 2, 0], dtype=np.uint8))


@pytest.mark.parametrize("labels", ["fired", "uniform4"])
@pytest.mark.parametrize("read_bytes", [5, 13, 40, 1 << 10])
def test_tie_resolution_over_file_blocks_matches_loop(tmp_path, monkeypatch, multi_click_stream,
                                                      labels, read_bytes):
    monkeypatch.setattr(cli, "_READ_BYTES", read_bytes)
    hand = cli.EventFile(write_stream(hand_built_stream(), tmp_path / "hand.tsv"))
    assert events.bin_and_resolve(hand).tolist() == [3, 1, 2]
    s = oracles.with_labels(multi_click_stream, labels, seed=7)
    stream = cli.EventFile(write_stream(s, tmp_path / "ev.tsv"))
    blocks = [ts // s.header.bin_width_ns for ts, _ in stream.blocks()]
    # a block edge falls inside a bin of several records
    assert any(a[-1] == b[0] for a, b in zip(blocks, blocks[1:]))
    got = events.bin_and_resolve(stream)
    assert got.dtype == np.uint8 and stream.records == len(s)
    assert np.array_equal(got, oracles.bin_and_resolve_loop(s))


@pytest.mark.parametrize("labels", ["fired", "uniform4"])
@pytest.mark.parametrize("step", [1, 2, 3, 7, 500])
def test_tie_resolution_over_any_cuts_matches_loop(multi_click_stream, labels, step):
    # cuts at every step-th record, with empty blocks at the ends and a
    # repeated cut, so every kind of block edge meets a bin of several records
    for s in (hand_built_stream(), oracles.with_labels(multi_click_stream, labels, seed=11)):
        cuts = [0, *range(step, len(s), step), len(s) - 1, len(s) - 1, len(s)]
        got = events.bin_and_resolve(split_stream(s, cuts))
        assert np.array_equal(got, oracles.bin_and_resolve_loop(s))
    assert oracles.bin_and_resolve_loop(hand_built_stream()).tolist() == [3, 1, 2]


@pytest.mark.parametrize("chunk", [1, 7, 1000, 1 << 17])
def test_simulated_blocks_match_one_shot_oracle(monkeypatch, chunk):
    # the blocks and the per-bin oracle both pass the per-bin law, a seed
    # gives the same blocks twice, and simulate_events joins them under the header
    monkeypatch.setattr(events, "_SIM_CHUNK", chunk)
    header = events.StreamHeader(0.5, -1.0, 0.02, 1.0, 4, 9e5)
    joined = events.simulate_events(DIST, 9e5, 0.02, seed=4, phi=0.5, theta=-1.0)
    assert joined.header == header
    blocks = list(events.simulate_blocks(header, DIST))
    assert len(blocks) == -(-20_000 // chunk)  # one block per chunk of bins, empty ones too
    assert all(b[0].dtype == np.int64 and b[1].dtype == np.uint8 for b in blocks)
    # each block holds the records of its own chunk of bins
    assert all(np.all(ts // 1000 // chunk == i) for i, (ts, _) in enumerate(blocks))
    ts, ch = (np.concatenate(arrays) for arrays in zip(*blocks))
    assert oracles.simulated_law_failures(ts, ch, DIST, 9e5, 0.02) == []
    assert oracles.simulated_law_failures(*oracles.simulate_events_one_shot(DIST, 9e5, 0.02,
                                                                            seed=4),
                                          DIST, 9e5, 0.02) == []
    assert np.array_equal(joined.timestamps_ns, ts) and np.array_equal(joined.channels, ch)
    # the angles do not enter the draws
    again = list(events.simulate_blocks(dataclasses.replace(header, phi=0.0, theta=0.0), DIST))
    assert all(np.array_equal(x[0], y[0]) and np.array_equal(x[1], y[1])
               for x, y in zip(blocks, again, strict=True))


@pytest.mark.parametrize("rate_line", ["# rate_hz=900000.0\n", ""])
def test_simulated_header_roundtrips_through_a_file(tmp_path, rate_line):
    header = events.StreamHeader(0.5, -1.0, 0.002, 1.0, 4, 9e5)
    blocks = events.simulate_blocks(header, DIST)
    if not rate_line:
        header = dataclasses.replace(header, rate_hz=None)
    path = tmp_path / "ev.tsv"
    cli.write_event_file(header, path, blocks)
    assert cli.EventFile(path).header == header
    text = path.read_text()
    assert text.startswith("# pathqrng-events v1\n# phi=0.5\n# theta=-1.0\n# duration_s=0.002\n"
                           "# bin_width_us=1.0\n# seed=4\n" + rate_line
                           + "timestamp_ns\tchannel\n3000\tUN\n")


def test_simulate_writes_the_one_shot_stream(tmp_path, monkeypatch):
    # the file holds, byte for byte, the stream simulate_blocks draws for the
    # pair's seed, and that stream has the per-bin law of the one-shot oracle
    monkeypatch.setattr(events, "_SIM_CHUNK", 97)
    monkeypatch.setattr(cli, "_PARSE_ROWS", 5)
    code, _, err = run_cli("simulate", "--angles=0.3:-0.2", "--rate-hz", "9e5",
                           "--duration-s", "0.003", "--seed", "9", "--out", str(tmp_path))
    assert code == 0, err
    seed = int(np.random.SeedSequence(9).generate_state(1)[0])
    dist = broadband_probabilities(ChipConfig(), np.array([0.3]), np.array([-0.2]))[0]
    header = events.StreamHeader(0.3, -0.2, 0.003, 1.0, seed, 9e5)
    ts, ch = (np.concatenate(arrays) for arrays in zip(*events.simulate_blocks(header, dist)))
    text = oracles.event_file_text_by_lines(events.EventStream(header, ts, ch))
    assert (tmp_path / "events_0000.tsv").read_bytes() == text.encode("ascii")
    assert oracles.simulated_law_failures(ts, ch, dist, 9e5, 0.003) == []
    assert oracles.simulated_law_failures(*oracles.simulate_events_one_shot(dist, 9e5, 0.003,
                                                                            seed=seed),
                                          dist, 9e5, 0.003) == []


def chsh_streams(rate_hz, duration_s):
    return [events.simulate_events(DIST, rate_hz, duration_s, seed=20 + i, phi=phi, theta=theta)
            for i, (phi, theta) in enumerate(((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)))]


@pytest.mark.parametrize("read_bytes", [7, 50, 1 << 10])
def test_windowed_traces_over_file_blocks_match_whole_streams(tmp_path, monkeypatch, read_bytes):
    streams = chsh_streams(2e5, 0.02)
    files = [write_stream(s, tmp_path / f"s{i}.tsv") for i, s in enumerate(streams)]
    want = events.windowed_traces(streams, window_s=0.002)
    monkeypatch.setattr(cli, "_READ_BYTES", read_bytes)
    got = events.windowed_traces((cli.EventFile(f) for f in files), window_s=0.002)
    assert got.n_windows == want.n_windows == 10
    for name in ("probabilities", "correlations", "chi_values"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert (got.chi_mean, got.ci_low, got.ci_high) == (want.chi_mean, want.ci_low, want.ci_high)


@pytest.mark.parametrize("gap_s", [(0.0, 0.005), (0.004, 0.006), (0.015, 0.02)])
def test_windows_over_blocks_refuse_an_empty_window_like_whole_streams(tmp_path, monkeypatch,
                                                                      gap_s):
    # a stream with no records in a stretch: at its start too, where every
    # record lies in a window past its place in the stream
    streams = chsh_streams(2e5, 0.02)
    s = streams[2]
    keep = (s.timestamps_ns < gap_s[0] * 1e9) | (s.timestamps_ns >= gap_s[1] * 1e9)
    streams[2] = events.EventStream(events.StreamHeader(phi=1.0, theta=0.0, duration_s=0.02,
                                                        bin_width_us=1.0, seed=0),
                                    s.timestamps_ns[keep], s.channels[keep])
    files = [write_stream(s, tmp_path / f"s{i}.tsv") for i, s in enumerate(streams)]
    with pytest.raises(ValueError) as want:
        events.windowed_traces(streams, window_s=0.002)
    monkeypatch.setattr(cli, "_READ_BYTES", 64)
    with pytest.raises(ValueError) as got:
        events.windowed_traces([cli.EventFile(f) for f in files], window_s=0.002)
    assert str(got.value) == str(want.value) == "stream 2 has an empty 0.002 s window"


def test_window_counts_stay_within_the_records():
    # two records at the far end of a 1e6 s stream: 1e9 windows of 1 ms
    # would take 32 GB of counts; the records bound them to two windows
    s = events.EventStream(events.StreamHeader(phi=0.0, theta=0.0, duration_s=1e6,
                                               bin_width_us=1.0, seed=0),
                           np.array([10 ** 15 - 2, 10 ** 15 - 1]), np.array([0, 3]))
    counts, n = events._window_counts(split_stream(s, [1]), int(1e9), 10 ** 6)
    assert n == 2 and counts.tolist() == [0] * 8


@pytest.mark.parametrize("read_bytes", [9, 1 << 18])
def test_bell_scan_cells_over_blocks_match_line_oracle(tmp_path, monkeypatch, read_bytes):
    streams = chsh_streams(1e5, 0.01)
    for i, s in enumerate(streams):
        write_stream(s, tmp_path / "ev" / f"s{i}.tsv")
    monkeypatch.setattr(cli, "_READ_BYTES", read_bytes)
    code, _, err = run_cli("bell-scan", "--events", str(tmp_path / "ev"),
                           "--out", str(tmp_path / "o"))
    assert code == 0, err
    grid = cli.read_grid_file(tmp_path / "o" / "grid.tsv")
    for s in streams:
        _, _, ch = oracles.event_records_by_lines(oracles.event_file_text_by_lines(s))
        n = ch.size
        e = events.correlation_coefficient(np.bincount(ch, minlength=4) / n)
        i, j = grid.phi_values.index(s.header.phi), grid.theta_values.index(s.header.theta)
        assert grid.e[i, j] == e and grid.stderr[i, j] == math.sqrt(max(1.0 - e * e, 0.0) / n)


# ---------------------------------------------------------------------------
# the order of errors in a file read block by block
# ---------------------------------------------------------------------------

GOOD = "".join(f"{10 + i}\tUN\n" for i in range(20))
PRECEDENCE = {
    # a first block that goes back in time, then a bad line: the bad line
    "back, malformed": ("9\tUF\n3\tDN\n" + GOOD + "12x4\tUF\n" + GOOD, {},
                        "malformed record '12x4\\tUF'"),
    "back, unterminated": ("9\tUF\n3\tDN\n" + GOOD + "5\tUF", {},
                           "malformed record '5\\tUF'"),
    "back": ("9\tUF\n3\tDN\n" + GOOD, {}, "timestamps must be non-negative and non-decreasing"),
    "back, beyond": ("9\tUF\n3\tDN\n" + GOOD, {"duration_s=1.0": "duration_s=1e-8"},
                     "timestamps must be non-negative and non-decreasing"),
    "beyond, malformed": (GOOD + "12x4\tUF\n", {"duration_s=1.0": "duration_s=1e-8"},
                          "malformed record '12x4\\tUF'"),
    "beyond": (GOOD, {"duration_s=1.0": "duration_s=1e-8"}, "timestamp beyond the stream duration"),
    "bad header value, malformed": (GOOD + "1x\tUF\n", {"duration_s=1.0": "duration_s=abc"},
                                    "malformed record '1x\\tUF'"),
    "bad header value, back": ("9\tUF\n3\tDN\n", {"duration_s=1.0": "duration_s=inf"},
                               "duration inf s must be positive and finite"),
    "two bad header values": (GOOD, {"seed=0": "seed=1.5", "duration_s=1.0": "duration_s=abc"},
                              "could not convert string to float: 'abc'"),
}


def bad_file(path, case):
    body, header_changes, message = PRECEDENCE[case]
    header = HEADER
    for old, new in header_changes.items():
        header = header.replace(old, new)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(header + body)
    return f"{path}: {message}"


@pytest.mark.parametrize("case", sorted(PRECEDENCE))
@pytest.mark.parametrize("command", ["bell-scan", "extract", "analyze"])
def test_stream_rules_wait_for_the_last_block(tmp_path, monkeypatch, command, case):
    # reads of 16 bytes put the backward step in the first block
    monkeypatch.setattr(cli, "_READ_BYTES", 16)
    good = [write_stream(s, tmp_path / "good" / f"s{i}.tsv")
            for i, s in enumerate(chsh_streams(1e5, 0.05)[1:])]
    bad = tmp_path / "ev" / "s0.tsv"
    message = bad_file(bad, case)
    out = tmp_path / "out"
    if command == "bell-scan":
        out.mkdir()
        (out / "kept.txt").write_text("before")
        argv = ["bell-scan", "--events", str(bad.parent), "--out", str(out)]
    else:
        out.write_text("before")
        argv = (["extract", "--events", str(bad), "--h-min", "0.3", "--out", str(out)]
                if command == "extract" else
                ["analyze", "--events", str(bad), *map(str, good), "--out", str(out)])
    code, _, err = run_cli(*argv)
    lines = err.splitlines()
    assert code == 2 and len(lines) == 1
    assert json.loads(lines[0]) == {"error": "ValidationError", "subcommand": command,
                                    "message": message}
    if command == "bell-scan":
        assert [p.name for p in out.iterdir()] == ["kept.txt"]
    else:
        assert out.read_text() == "before"


def test_a_repeated_pair_waits_for_its_records(tmp_path):
    # the second file repeats the first one's pair and holds a bad line: the
    # bad line is named, as when each file was parsed whole first
    streams = chsh_streams(1e5, 0.05)
    first = write_stream(streams[0], tmp_path / "a.tsv")
    text = first.read_text()
    (tmp_path / "b.tsv").write_text(text + "1x\tUF\n")
    (tmp_path / "c.tsv").write_text(text)
    out = tmp_path / "t.csv"
    for second, message in (("b.tsv", f"{tmp_path / 'b.tsv'}: malformed record '1x\\tUF'"),
                            ("c.tsv", f"duplicate angle pair (0.0, 0.0) in {tmp_path / 'c.tsv'}")):
        code, _, err = run_cli("analyze", "--events", str(first), str(tmp_path / second),
                               str(first), str(first), "--out", str(out))
        assert code == 2 and json.loads(err)["message"] == message
        assert not out.exists()


# ---------------------------------------------------------------------------
# header keys
# ---------------------------------------------------------------------------

def test_header_keys_are_the_fields_and_the_ns_times_are_derived():
    assert cli._EVENT_FIELDS == ("phi", "theta", "duration_s", "bin_width_us", "seed", "rate_hz")
    header = events.StreamHeader(0.5, -1.0, 0.0123, 2.4, 4, 9e5)
    assert header.duration_ns == events._ns("duration", header.duration_s, "s")
    assert header.bin_width_ns == events._whole_ns("bin width", header.bin_width_us, "us")


@pytest.mark.parametrize("lines, named", [
    ("# phi=0.7\n", "repeated header key 'phi'"),
    ("# colour=blue\n", "unknown header key 'colour'"),
    ("# phi=0.7\n# colour=blue\n", "repeated header key 'phi'"),
    ("# seed=0\n", "repeated header key 'seed'"),
    ("# rate_hz=1.0\n# rate_hz=2.0\n", "repeated header key 'rate_hz'"),
    ("# note\n", "unknown header key 'note'"),
    ("# =1\n", "unknown header key ''"),
])
def test_repeated_or_unknown_header_key_exits_2(tmp_path, lines, named):
    path = tmp_path / "ev.tsv"
    path.write_text(HEADER.replace("timestamp_ns", lines + "timestamp_ns") + "5\tUF\n")
    with pytest.raises(cli.ValidationError, match="header key"):
        cli.read_event_file(path)
    out = tmp_path / "bits.txt"
    code, _, err = run_cli("extract", "--events", str(path), "--h-min", "0.3", "--out", str(out))
    lines = err.splitlines()
    assert code == 2 and len(lines) == 1
    assert json.loads(lines[0]) == {"error": "ValidationError", "subcommand": "extract",
                                    "message": f"{path}: {named}"}
    assert not out.exists()


# ---------------------------------------------------------------------------
# memory: a 5 s stream at 120 kHz
# ---------------------------------------------------------------------------

ANGLES = "-0.576:-1.11,-0.576:-1.87,-1.445:-1.11,-1.445:-1.87"


@pytest.fixture(scope="module")
def paper_rate_runs(tmp_path_factory):
    """Four 5 s and four 1 s CHSH streams at 120 kHz written by ``simulate``,
    and the traced peak of the 5 s ``simulate``."""
    root = tmp_path_factory.mktemp("paper_rate")
    # a first run imports what the CLI loads lazily, about 0.9 MB traced
    assert run_cli("simulate", "--angles=0:0", "--duration-s", "0.001",
                   "--out", str(root / "warm-up"))[0] == 0
    peaks = {}
    for seconds in ("5", "1"):
        tracemalloc.start()
        try:
            code, _, err = run_cli("simulate", f"--angles={ANGLES}", "--duration-s", seconds,
                                   "--seed", "1", "--out", str(root / seconds))
            peaks[seconds] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, err
    return root, peaks


def test_read_memory_is_the_records_plus_one_block(paper_rate_runs):
    # the whole-file line index and body copy peaked at 24.1 MB traced for
    # these 5.4 MB of records
    path = paper_rate_runs[0] / "5" / "events_0000.tsv"
    tracemalloc.start()
    try:
        s = cli.read_event_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = s.timestamps_ns.nbytes + s.channels.nbytes
    assert len(s) > 590_000
    assert peak < outputs + 2e6, f"traced peak {peak / 1e6:.1f} MB for {outputs / 1e6:.1f} MB"


def test_simulate_memory_is_one_block(paper_rate_runs):
    # drawing every bin's count before any channel held a stream's timestamps
    # until they were written, 5.9 MB traced for these 600k records; drawn
    # per occupied bin, one block at a time, the peak is 0.8 MB
    root, peaks = paper_rate_runs
    records = max(len(cli.read_event_file(p)) for p in (root / "5").glob("*.tsv"))
    assert records > 590_000
    # a block of _SIM_CHUNK bins holds about 7,900 records at 0.12 per bin;
    # its draws, records and formatted lines take some 80 bytes per record
    block = 80 * events._SIM_CHUNK * 0.12
    assert peaks["5"] < block + 0.5e6, f"traced peak {peaks['5'] / 1e6:.2f} MB"
    assert peaks["5"] - peaks["1"] < 0.2e6, peaks


def test_bell_scan_memory_does_not_grow_with_the_files(paper_rate_runs, tmp_path):
    root, _ = paper_rate_runs
    peaks = {}
    for seconds in ("1", "5"):
        tracemalloc.start()
        try:
            code, _, err = run_cli("bell-scan", "--events", str(root / seconds),
                                   "--out", str(tmp_path / seconds))
            peaks[seconds] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, err
    assert abs(peaks["5"] - peaks["1"]) < 1e6, peaks


#: the bits chain's resident memory over the import baseline must stay
#: below this: it measured 24.0 MB on a 2-vCPU x86-64 Linux machine with
#: Python 3.11 and numpy 2.4, and 38.4 MB when each stage held whole streams
CHAIN_RSS_BOUND_MB = 27.5

# The peak is read as VmHWM, the high-water mark of this interpreter's own
# memory map.  ru_maxrss would start at the launching process's resident
# size, which a fork before the exec carries over, and pytest is larger
# than the whole chain.
CHAIN = r"""
import contextlib, io, json, sys, tempfile
from pathlib import Path
from pathqrng import cli

def rss_mb():
    with open("/proc/self/status") as status:
        line = next(line for line in status if line.startswith("VmHWM:"))
    return int(line.split()[1]) / 1024.0

base = rss_mb()
with tempfile.TemporaryDirectory() as tmp:
    d = Path(tmp)
    def run(*argv):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(list(argv)) == 0, argv
    run("simulate", "--config", sys.argv[1], "--angles=" + sys.argv[2], "--duration-s", "5",
        "--seed", "1", "--out", str(d / "ev"))
    files = sorted(str(p) for p in (d / "ev").glob("*.tsv"))
    run("bell-scan", "--events", str(d / "ev"), "--out", str(d / "scan"))
    run("certify", "--chi-file", str(d / "scan" / "chi_max.json"), "--e-chi", "0.095096",
        "--e-p", "0.0205528206", "--rate-hz", "120000", "--out", str(d / "cert.json"))
    h_min = json.loads((d / "cert.json").read_text())["h_min_bits"]
    for i, f in enumerate(files):
        run("extract", "--events", f, "--h-min", repr(h_min), "--seed", "1",
            "--out", str(d / f"bits_{i}.txt"))
    run("analyze", "--events", *files, "--out", str(d / "trace.csv"))
print(rss_mb() - base)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_bits_chain_resident_memory_over_imports():
    # one fresh interpreter runs simulate, bell-scan, certify, four extracts
    # and analyze on four 5 s streams at 120 kHz, as the bits benchmark does
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", CHAIN,
                           str(ROOT / "perfbench" / "inputs" / "paper_chip.yaml"), ANGLES],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    grown = float(proc.stdout.split()[-1])
    assert grown < CHAIN_RSS_BOUND_MB, f"resident memory grew {grown:.1f} MB over the imports"
