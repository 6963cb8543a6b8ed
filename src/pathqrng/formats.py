"""Four on-disk formats, each read and written here alone:

* chip configuration, read only: versioned YAML with power coefficients
  (converted to amplitudes at load), phase errors and spectrum, parsed
  straight into a ``chip.ChipConfig``.  A ``loss`` section is checked and
  dropped: a loss common to every path cancels in every output;
* event files: TSV with a ``# key=value`` header block, a
  ``timestamp_ns<TAB>channel`` column line, then one record per line.
  The header holds each field of an ``events.StreamHeader`` once, and the
  values are checked as that header's; a repeated or unknown key is
  refused.  Every record matches ``[0-9]+\t(UF|UN|DF|DN)\n`` exactly:
  ASCII decimal digits with no sign, space or underscore, one tab, the
  channel label, and a newline, which the last record needs too.  Anything
  else in the body, a blank line or a CRLF ending included, is a malformed
  record, and the reader's error names the first bad record in the file.
  Files are streams of blocks both ways: ``simulate`` writes each block as
  it is drawn, and :class:`EventFile` reads the body ``_READ_BYTES`` at a
  time, parsing each read's whole lines, for ``bell-scan``, ``extract``,
  ``analyze`` and :func:`read_event_file` alike.  The stream rules (order
  and duration) are checked block by block, but a break is reported only
  once the last block has parsed, so a bad record still comes first;
* correlation grids: TSV long format (phi, theta, E, stderr), one row per
  cell; the reader refuses a repeated cell and builds the grid with
  ``bell.CorrelationGrid.from_cells``, over the sorted distinct angles;
* result documents: JSON, each its ``kind`` plus its result's fields; each
  kind has one summary, which its writer and ``report`` both print, and the
  reader checks that each known kind carries its fields with their JSON
  types, and that every number in a document is finite, an integer
  included: one past the float range is refused before it is parsed.

Every writer is canonical (sorted keys, repr floats) so write -> read ->
write round-trips byte-identically, and all writes go through a
temp-then-rename so readers never see partial files.

Channel labels and 0/1 text exist only at these file boundaries: here, and
in the ``analyze`` CSV header and the bit file ``extract`` writes, both in
``cli``.  The rest of the package carries channels as basis-order arrays
and ``uint8`` codes, and bits as ``uint8`` 0/1 arrays.
"""

from __future__ import annotations

import dataclasses
import io
import itertools
import json
import math
import os
import re
import tempfile
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np
import yaml

from .bell import ChiResult, CorrelationGrid
from .certify import CertificationResult, CorrectionEstimate
from .chip import ChipConfig, PhaseErrorSet
from .events import Block, EventStream, StreamHeader, checked_blocks, record_block
from .optics import MmiParams, WavelengthSpectrum

#: output channel labels, in basis order (channel code = index)
CHANNELS = ("UF", "UN", "DF", "DN")


class ValidationError(ValueError):
    """Bad input data, files, or flags; maps to exit code 2."""


@dataclasses.dataclass(frozen=True)
class CalibrationFit:
    """Fringe fit of one MZI output port against heater electrical power.

    The model is I = a cos^2(b W + d) + c for port 1 and the sin^2
    counterpart for port 2; the phase-power relation is then the linear map
    phase(W) = b W + d.  ``stderr`` holds the per-parameter standard errors
    from the fit covariance when it is finite.
    """

    a: float
    b: float
    c: float
    d: float
    residual_rms: float
    port: int
    stderr: tuple[float, float, float, float] | None = None


# ---------------------------------------------------------------------------
# atomic writes and the chip configuration format
# ---------------------------------------------------------------------------

def _atomic_write(path: Path | str, data: str | bytes | Iterable[bytes | np.ndarray]) -> None:
    """Write text, bytes, or byte blocks one after another to a temp file,
    then rename it to ``path``; on any failure neither file is left."""
    path = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    except FileNotFoundError:  # the directory is made by the first write into it
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w" if isinstance(data, str) else "wb") as fh:
            fh.writelines((data,) if isinstance(data, (str, bytes)) else data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _section(value: Any, allowed: set[str], where: str) -> Mapping[str, Any]:
    """A config mapping with only ``allowed`` keys; an absent one is empty."""
    if value is None:
        return {}
    if not isinstance(value, Mapping):
        raise ValidationError(f"{where} must be a mapping, not {value!r}")
    unknown = set(value) - allowed
    if unknown:
        raise ValidationError(f"unknown keys {sorted(unknown, key=str)} in {where}")
    return value


def _number(value: Any, where: str) -> float:
    # YAML reads yes/no/on/off/true/false as booleans, which float() takes as
    # 1 and 0, and float() would read a quoted "0.5" too
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{where} must be a number, not {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ValidationError(f"{where} must be a number, not {value!r}") from exc


def _numbers(value: Any, where: str, count: int) -> list[float]:
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{where} must be a list of {count} numbers, not {value!r}")
    if len(value) != count:
        raise ValidationError(f"{where} needs exactly {count} entries")
    return [_number(v, where) for v in value]


def _rows(value: Any, where: str, width: int) -> list[list[float]]:
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{where} must be a list of rows, not {value!r}")
    return [_numbers(row, f"{where} row", width) for row in value]


def _mmi(section: Any, where: str) -> MmiParams:
    section = _section(section, {"t_power", "r_power", "table"}, where)
    t_power = _number(section.get("t_power", 0.5), f"{where}.t_power")
    r_power = _number(section.get("r_power", 0.5), f"{where}.r_power")
    table = None
    if "table" in section:
        rows = _rows(section["table"], f"{where}.table", 3)
        for row in rows:
            if row[1] < 0.0 or row[2] < 0.0:
                raise ValidationError(f"{where}.table power coefficients must be "
                                      f"non-negative, got row {row}")
        table = tuple((wl, math.sqrt(tp), math.sqrt(rp)) for wl, tp, rp in rows)
    return MmiParams.from_power(t_power, r_power, table)


#: the most spectrum nodes a config may give.  Every angle pair carries every
#: node through the chip, so the nodes scale ``simulate``'s memory: one
#: ``cli._SCAN_BLOCK``-pair ``broadband_probabilities`` call on the paper chip
#: peaks at 75.6 MB traced at this bound, against 0.4 MB at the default 21
_MAX_SPECTRUM_NODES = 4096

_SPECTRUM_KEYS = {
    "single": {"kind", "center_nm"},
    "gaussian": {"kind", "center_nm", "fwhm_nm", "points", "span_nm"},
    "table": {"kind", "nodes"},
}


def _spectrum(spect: Mapping[str, Any], kind: str) -> WavelengthSpectrum:
    if kind == "table":
        nodes = _rows(spect.get("nodes"), "spectrum.nodes", 2)
        if len(nodes) > _MAX_SPECTRUM_NODES:
            raise ValidationError(f"spectrum.nodes holds {len(nodes)} nodes, "
                                  f"more than {_MAX_SPECTRUM_NODES}")
        return WavelengthSpectrum(tuple(map(tuple, nodes)))
    center = _number(spect.get("center_nm", 730.0), "spectrum.center_nm")
    if kind == "single":
        return WavelengthSpectrum.single(center)
    points = _number(spect.get("points", 21), "spectrum.points")
    if not (points.is_integer() and points <= _MAX_SPECTRUM_NODES):
        raise ValidationError(f"spectrum.points must be an integer of at most "
                              f"{_MAX_SPECTRUM_NODES}, not {spect['points']!r}")
    return WavelengthSpectrum.gaussian(
        center, _number(spect.get("fwhm_nm", 20.0), "spectrum.fwhm_nm"), int(points),
        tuple(_numbers(spect.get("span_nm", (720.0, 740.0)), "spectrum.span_nm", 2)))


def parse_chip_config(raw: Any) -> ChipConfig:
    """The chip of a parsed config mapping; wrong keys, shapes, types or values are rejected.

    Absent sections and keys take their defaults: ideal 50:50 splitters,
    xi = -pi/2, a single 730 nm node, no dispersion, no phase errors.
    Every fault is a :class:`ValidationError`.  The ``loss`` section's
    values must each lie in (0, 1], and are then dropped: the chip model
    has no loss parameter, since a loss common to every path cancels in
    every normalized click probability.
    """
    if not isinstance(raw, Mapping):
        raise ValidationError("config root must be a mapping")
    _section(raw, {"version", "chip", "errors"}, "config root")
    version = raw.get("version")
    if type(version) is not int or version != 1:  # not True or 1.0, which equal 1
        raise ValidationError(f"unsupported config version {version!r}")
    chip = _section(raw.get("chip"), {"generation_mmi", "mzi_mmis", "generation", "loss",
                                      "spectrum", "phase_dispersion"}, "chip section")
    mz = _section(chip.get("mzi_mmis"), {"phi_u", "phi_d", "theta_f", "theta_n"}, "mzi_mmis")
    gen = _section(chip.get("generation"), {"xi"}, "generation")
    loss = _section(chip.get("loss"), {"gamma", "crossing_transmission"}, "loss")
    for key in ("gamma", "crossing_transmission"):
        value = _number(loss.get(key, 1.0), f"loss.{key}")
        if not 0.0 < value <= 1.0:
            raise ValidationError(f"{key} must lie in (0, 1], got {value!r}")
    spect = _section(chip.get("spectrum"), set().union(*_SPECTRUM_KEYS.values()), "spectrum")
    kind = spect.get("kind", "single")
    if not isinstance(kind, str) or kind not in _SPECTRUM_KEYS:
        raise ValidationError(f"unknown spectrum kind {kind!r}")
    _section(spect, _SPECTRUM_KEYS[kind], "spectrum")
    err = _section(raw.get("errors"), {"dphi", "dtheta"}, "errors")
    dispersion = chip.get("phase_dispersion", False)
    if not isinstance(dispersion, bool):
        raise ValidationError(f"phase_dispersion must be true or false, not {dispersion!r}")

    def errs(key: str) -> list[float]:
        return _numbers(err.get(key, (0.0, 0.0, 0.0, 0.0)), f"errors.{key}", 4)

    try:
        return ChipConfig(
            generation_mmi=_mmi(chip.get("generation_mmi"), "generation_mmi"),
            mzi_mmis=tuple(_mmi(mz.get(k), f"mzi_mmis.{k}")
                           for k in ("phi_u", "phi_d", "theta_f", "theta_n")),
            xi=_number(gen.get("xi", -math.pi / 2.0), "generation.xi"),
            spectrum=_spectrum(spect, kind),
            phase_dispersion=dispersion,
            errors=PhaseErrorSet(errs("dphi"), errs("dtheta")),
        )
    except ValidationError:
        raise
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


class _ConfigLoader(yaml.SafeLoader):
    """YAML 1.1's safe loader, but plain ``1e-3`` and ``2e1`` are floats, as in YAML 1.2."""


_ConfigLoader.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(
    r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"), list("-+.0123456789"))


def load_chip_config(path: Path | str) -> ChipConfig:
    """Parse and validate a chip configuration file."""
    try:
        raw = yaml.load(Path(path).read_text(), Loader=_ConfigLoader)
    except (yaml.YAMLError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ValidationError(f"malformed config: {exc}") from exc
    return parse_chip_config(raw)


# ---------------------------------------------------------------------------
# event and grid files
# ---------------------------------------------------------------------------

_EVENT_MAGIC = "# pathqrng-events v1"
#: the event-file header keys in file order: a :class:`StreamHeader`'s fields,
#: each required unless it has a default
_EVENT_FIELDS = tuple(f.name for f in dataclasses.fields(StreamHeader))
_GRID_MAGIC = "# pathqrng-grid v1"
_GRID_COLUMNS = ("phi", "theta", "e", "stderr")

_EVENT_COLUMNS = "timestamp_ns\tchannel"
_COLUMN_LINE = f"{_EVENT_COLUMNS}\n".encode("ascii")
_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)
#: the ASCII digits of 0000..9999, each as one 4-byte word in memory order
_DIGIT_QUADS = (np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10
                + ord("0")).astype(np.uint8).view(np.uint32).ravel()
#: each channel's line end, a tab, its label and a newline, as one 4-byte word
_RECORD_TAILS = np.frombuffer("".join(f"\t{c}\n" for c in CHANNELS).encode("ascii"),
                              dtype=np.uint32)
# channel code of each two-byte label read as a big-endian 16-bit number;
# 255 marks a label that is not a channel
_LABEL_BYTES = np.frombuffer("".join(CHANNELS).encode("ascii"), dtype=np.uint8).reshape(4, 2)
_LABEL_CODES = np.full(1 << 16, 255, dtype=np.uint8)
_LABEL_CODES[_LABEL_BYTES[:, 0].astype(np.uint16) << 8 | _LABEL_BYTES[:, 1]] = np.arange(4)
#: record lines per block, written or parsed; it bounds the per-block
#: temporaries of both, however the line widths mix
_PARSE_ROWS = 1 << 15
#: bytes per read of an event-file body: a read's whole lines are parsed as
#: one block, about 18k records of a paper-rate stream
_READ_BYTES = 1 << 18


def _record_rows(timestamps: np.ndarray, channels: np.ndarray, digits: int) -> np.ndarray:
    """The record lines of one block, right-aligned in ``uint8`` rows of
    ``4 * ceil(digits / 4) + 4`` bytes: each timestamp's last ``digits``
    digits and the zeros in front of them, then its tab, label and newline.

    One pass fills every row, four digits at a time: a ``//`` and a
    subtract by 10^4 per group of four, then a lookup of the group's four
    ASCII bytes as one word, and the line end from a 4-entry table.
    """
    groups = (digits + 3) // 4
    rows = np.empty((timestamps.size, groups + 1), dtype=np.uint32)
    rows[:, groups] = _RECORD_TAILS.take(channels)
    rest = timestamps
    for g in range(groups - 1, 0, -1):
        quotient = rest // 10_000
        rows[:, g] = _DIGIT_QUADS.take(rest - quotient * 10_000)
        rest = quotient
    # clipped, so that a value too wide for ``digits``, which only a stream
    # out of order can hold, costs wrong bytes in a file that is refused
    rows[:, 0] = _DIGIT_QUADS.take(rest, mode="clip")
    return rows.view(np.uint8)


def _format_records(timestamps: np.ndarray, channels: np.ndarray) -> Iterator[np.ndarray]:
    """Record lines of non-negative, non-decreasing int64 timestamps and
    channel codes 0..3, as ``uint8`` blocks of at most ``_PARSE_ROWS`` lines.

    Each ``_PARSE_ROWS`` lines are formatted in one pass by
    :func:`_record_rows`, at the width of their widest timestamp.  Sorted
    timestamps fall into one run per digit count, and a run's lines are one
    slice of those rows, so each run is copied out once as a block of one
    line width.  A write's temporaries are one block's, however long the
    stream.
    """
    for lo in range(0, timestamps.size, _PARSE_ROWS):
        ts, ch = timestamps[lo : lo + _PARSE_ROWS], channels[lo : lo + _PARSE_ROWS]
        # lines below 10, 100, ...: the end of each digit count's run
        stops = np.searchsorted(ts, _POW10).tolist()
        top = sum(stop < ts.size for stop in stops) + 1  # digits of the widest line
        rows = _record_rows(ts, ch, top)
        start = 0
        for k, stop in enumerate(stops[: top - 1] + [ts.size], start=1):
            if stop > start:
                yield np.ascontiguousarray(rows[start:stop, rows.shape[1] - 4 - k :])
                start = stop


def write_event_file(header: StreamHeader, path: Path | str, blocks: Iterable[Block]) -> None:
    """The header, then each block of record lines as it is formatted, written
    atomically; each block is formatted as it is taken, so that ``simulate``
    writes a stream as it draws it.  Each block is converted by
    :func:`~pathqrng.events.record_block`, which refuses timestamps that are
    not integers and channel codes outside 0..3 at once, and the blocks are
    held to the record rules of :func:`~pathqrng.events.checked_blocks`, so
    a stream that breaks them is refused and leaves no file.  The traced
    peak of a write is one block's, about 1.5 MB for a 5 s stream at 120 kHz."""
    values = ((key, getattr(header, key)) for key in _EVENT_FIELDS)
    lines = [_EVENT_MAGIC, *(f"# {key}={v!r}" for key, v in values if v is not None),
             _EVENT_COLUMNS]
    head = ("\n".join(lines) + "\n").encode("ascii")
    records = itertools.starmap(_format_records,
                                checked_blocks(itertools.starmap(record_block, blocks), header))
    _atomic_write(path, itertools.chain((head,), itertools.chain.from_iterable(records)))


def _read_event_header(fh: BinaryIO, path: Path | str) -> dict[str, str]:
    """Meta fields of the header lines read from ``fh``, which is left at
    the first record line.

    The magic line, then every line up to the column line, are read before
    any is checked, so a file without a column line is named as such; each
    header line is ``# key=value`` with a known key, given once.
    """
    magic = _EVENT_MAGIC.encode("ascii")
    if fh.readline(len(magic) + 1) not in (magic, magic + b"\n"):
        raise ValidationError(f"{path}: not a pathqrng event file")
    lines = []
    for line in fh:
        if line == _COLUMN_LINE:
            break
        lines.append(line)
    else:
        raise ValidationError(f"{path}: missing column header")
    meta: dict[str, str] = {}
    for raw in lines:
        line = raw[:-1].decode("utf-8", errors="replace")
        if not line.startswith("# "):
            raise ValidationError(f"{path}: unexpected header line {line!r}")
        key, _, value = line[2:].partition("=")
        if key not in _EVENT_FIELDS:
            raise ValidationError(f"{path}: unknown header key {key!r}")
        if key in meta:
            raise ValidationError(f"{path}: repeated header key {key!r}")
        meta[key] = value
    return meta


def _parse_records(body: np.ndarray, path: Path | str) -> tuple[np.ndarray, np.ndarray]:
    """Timestamps and channel codes of the record lines in ``body``.

    The lines are taken ``_PARSE_ROWS`` at a time.  Each line's last ``d``
    digits, tab and label are copied right-aligned into one matrix padded
    on the left with '0', one row per byte, where ``d`` is the block's
    longest digit count, at most 19, rounded up to a multiple of four.  A
    block of few runs of one width, as a sorted stream's are (one per digit
    count), is copied one run at a time, each run one slice; otherwise one
    width at a time, each width's lines by a gather.  The digits of a
    longer line in front of its last ``d`` are checked per run or width,
    and must be '0' for the value to fit in int64.  Then a fixed number of
    whole-matrix steps checks and builds every value of the block: one max
    over the digits checks them, pairs of digits and then pairs of pairs
    are summed in ``uint8`` and ``uint16``, and each group of four digits
    takes one ``uint64`` multiply-add.

    The error names the first bad record in file order: a line that breaks
    the grammar, one whose timestamp exceeds int64, or an unterminated last
    line, which comes after every other.
    """
    def reject(start: int, stop: int, what: str = "malformed record") -> ValidationError:
        text = body[start:stop].tobytes().decode("utf-8", errors="replace")
        return ValidationError(f"{path}: {what} {text!r}")

    ends = (body == ord("\n")).nonzero()[0]
    widths = np.empty_like(ends)  # each line's length with its newline
    widths[:1] = ends[:1] + 1
    np.subtract(ends[1:], ends[:-1], out=widths[1:])
    stamps = np.empty(ends.size, dtype=np.uint64)
    codes = np.empty(ends.size, dtype=np.uint8)
    for lo in range(0, ends.size, _PARSE_ROWS):
        hi = min(lo + _PARSE_ROWS, ends.size)
        w = widths[lo:hi]
        ok = w >= 5  # a line holds at least a digit, a tab and a label
        fits = np.ones(hi - lo, dtype=bool)  # the value fits in int64
        d = 4 * ((min(max(int(w.max()) - 4, 1), 19) + 3) // 4)
        # the lines right-aligned, byte j of every line in row j, so that
        # each step below reads contiguous rows
        cols = np.full((d + 3, hi - lo), ord("0"), dtype=np.uint8)

        def place(rows: slice | np.ndarray, lines: np.ndarray, width: int) -> None:
            m = min(width - 1, d + 3)
            cols[d + 3 - m :, rows] = lines[:, width - 1 - m : width - 1].T
            if width - 4 > d:  # digits in front of the last d must be '0'
                lead = lines[:, : width - 4 - d] - ord("0")
                ok[rows] &= np.all(lead <= 9, axis=1)
                fits[rows] &= np.all(lead == 0, axis=1)

        changes = np.flatnonzero(w[1:] != w[:-1]) + 1  # where a run of one width starts
        if changes.size < d + 3:  # no more runs than the matrix has rows
            starts = [0, *changes.tolist()]
            stops = [*starts[1:], hi - lo]
            for r0, r1, width, end in zip(starts, stops, w[starts].tolist(),
                                          ends[lo + np.array(stops) - 1].tolist()):
                place(slice(r0, r1), body[end + 1 - (r1 - r0) * width : end + 1]
                      .reshape(-1, width), width)
        else:
            windows = None
            for width in np.unique(w).tolist():
                if windows is None or windows.shape[1] != width:
                    windows = np.lib.stride_tricks.sliding_window_view(body, width)  # a view
                rows = np.flatnonzero(w == width)
                place(rows, windows[ends[lo + rows] + 1 - width], width)
        value, code = stamps[lo:hi], codes[lo:hi]
        label = np.left_shift(cols[d + 1], 8, dtype=np.uint16)
        label |= cols[d + 2]
        _LABEL_CODES.take(label, out=code)
        ok &= cols[d] == ord("\t")
        digits = cols[:d]  # the digit rows, turned into values in place
        digits -= ord("0")  # a byte below '0' wraps above 9
        # a digit above 9 or a label that is no channel's (code 255) is malformed
        top = digits.max(axis=0)
        np.maximum(top, code, out=top)
        ok &= top <= 9
        if d > 19:  # the digit in front of the last 19, where uint64 may wrap
            fits &= digits[0] == 0
        pairs = digits[0::2]
        pairs *= 10
        pairs += digits[1::2]
        quads = pairs[0::2].astype(np.uint16)
        quads *= 100
        quads += pairs[1::2]
        value[:] = quads[0]
        for group in quads[1:]:
            value *= 10_000
            value += group
        if d > 16:  # below 10^16 every value fits
            fits &= value <= 2 ** 63 - 1
        if not (ok & fits).all():
            i = int(np.argmin(ok & fits))
            raise reject(ends[lo + i] + 1 - w[i], ends[lo + i],
                         "malformed record" if not ok[i] else "timestamp out of range in record")
    if body.size and body[-1] != ord("\n"):
        raise reject(ends[-1] + 1 if ends.size else 0, body.size)
    return stamps.view(np.int64), codes


def _record_blocks(path: Path | str, start: int, body: bytes | None = None) -> Iterator[Block]:
    """Timestamps and channel codes of the record lines from byte ``start``
    of the file on, one block per read of ``_READ_BYTES``.

    Each read's whole lines are parsed as one block, and its unfinished last
    line is carried into the next read.  A read that ends no line is
    followed by one as long as the carried bytes, so a long line costs
    linear time.  A last line without its newline is reported after every
    other line has parsed.  ``body``, when given, is the whole body, read
    with the header: it is parsed as one block and the file is not opened.
    """
    if body is not None:
        if body:
            yield _parse_records(np.frombuffer(body, dtype=np.uint8), path)
        return
    with open(path, "rb") as fh:
        fh.seek(start)
        rest = b""
        while chunk := fh.read(max(_READ_BYTES, len(rest))):
            data = rest + chunk if rest else chunk
            end = data.rfind(b"\n") + 1
            rest = data[end:]
            if end:
                yield _parse_records(np.frombuffer(data, dtype=np.uint8, count=end), path)
        if rest:
            _parse_records(np.frombuffer(rest, dtype=np.uint8), path)  # names the last line


class EventFile:
    """An event file opened for block reads.

    The header is read and checked when the file is opened, with one read
    of ``_READ_BYTES``; a body that fits in that read is kept, so a small
    file is opened and read once, and each pass parses it as one block.
    A longer body is parsed on each pass of :meth:`blocks`, one read at a
    time, so a pass holds one block however long the file.  ``header`` is
    the file's :class:`StreamHeader`, and ``records`` the record count of
    the last complete pass.  The errors and their order are those of
    parsing the whole file first: a bad record, then a header value, then
    the stream rules.  So a header value that is refused waits for the body
    to parse.
    """

    def __init__(self, path: Path | str) -> None:
        self.path, self.records = path, None
        with io.BufferedReader(io.FileIO(path), _READ_BYTES) as fh:
            meta = _read_event_header(fh, path)
            self.body_start = fh.tell()
            size = os.fstat(fh.fileno()).st_size - self.body_start
            self._body = fh.read(size) if size <= _READ_BYTES else None
        missing = sorted(f.name for f in dataclasses.fields(StreamHeader)
                         if f.default is dataclasses.MISSING and f.name not in meta)
        if missing:
            raise ValidationError(f"{path}: missing meta fields {missing}")
        try:
            self.header = StreamHeader(**meta)
        except ValueError as exc:
            # a bad record is named first
            for _ in _record_blocks(path, self.body_start, self._body):
                pass
            raise ValidationError(f"{path}: {exc}") from exc

    def blocks(self) -> Iterator[Block]:
        """Timestamps and channel codes of each block of records, in file order."""
        n = 0
        try:
            for ts, ch in checked_blocks(_record_blocks(self.path, self.body_start, self._body),
                                         self.header):
                n += ts.size
                yield ts, ch
        except ValidationError:
            raise
        except ValueError as exc:
            raise ValidationError(f"{self.path}: {exc}") from exc
        self.records = n


def read_event_file(path: Path | str) -> EventStream:
    """The stream of an event file, read block by block into arrays sized
    by a count of the body's lines, so the traced peak is the records plus
    one block: about 7.1 MB for a 5 s stream at 120 kHz, 5.4 MB of it the
    records."""
    events = EventFile(path)
    with open(path, "rb") as fh:
        fh.seek(events.body_start)
        n = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(_READ_BYTES), b""))
    ts, ch = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.uint8)
    at = 0
    for block_ts, block_ch in events.blocks():
        ts[at : at + block_ts.size], ch[at : at + block_ts.size] = block_ts, block_ch
        at += block_ts.size
    return EventStream(events.header, ts, ch)


def _write_table(path: Path | str, header_lines: Sequence[str],
                 rows: Iterable[Iterable[float]], sep: str) -> None:
    """The header lines, then each row's values joined by ``sep``, written
    atomically: an ``int`` as its digits, any other number as its float repr."""
    lines = [*header_lines, *(sep.join(str(v) if isinstance(v, int) else repr(float(v))
                                       for v in row) for row in rows)]
    _atomic_write(path, "\n".join(lines) + "\n")


def _grid_rows(grid: CorrelationGrid) -> Iterator[tuple[float, float, float, float]]:
    """(phi, theta, E, stderr) of each cell, phi-major, for ``grid.tsv`` and
    ``e_surface.csv``; the stderr is NaN for a grid without stderrs."""
    for i, phi in enumerate(grid.phi_values):
        for j, theta in enumerate(grid.theta_values):
            yield phi, theta, grid.e[i, j], math.nan if grid.stderr is None else grid.stderr[i, j]


def write_grid_file(grid: CorrelationGrid, path: Path | str) -> None:
    _write_table(path, [_GRID_MAGIC, "\t".join(_GRID_COLUMNS)], _grid_rows(grid), "\t")


def read_grid_file(path: Path | str) -> CorrelationGrid:
    text = Path(path).read_text().splitlines()
    if not text or text[0] != _GRID_MAGIC:
        raise ValidationError(f"{path}: not a pathqrng grid file")
    if len(text) < 2 or text[1] != "\t".join(_GRID_COLUMNS):
        raise ValidationError(f"{path}: missing column header")
    cells: dict[tuple[float, float], tuple[float, float]] = {}
    for line in text[2:]:
        if not line:
            continue
        try:
            phi, theta, e, se = map(float, line.split("\t"))
        except ValueError as exc:
            raise ValidationError(f"{path}: malformed row {line!r}") from exc
        if (phi, theta) in cells:
            raise ValidationError(f"{path}: duplicate cell phi={phi} theta={theta}")
        cells[phi, theta] = (e, se)
    try:
        return CorrelationGrid.from_cells(cells)
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# JSON result documents
# ---------------------------------------------------------------------------

def write_json_doc(doc: Mapping[str, Any], path: Path | str) -> None:
    if "kind" not in doc:
        raise ValidationError("result documents need a 'kind' field")
    _atomic_write(path, json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n")


def _is_real(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# the JSON type of each field, by name
_FIELD_TYPES: dict[str, Callable[[Any], bool]] = {
    "a real number": _is_real,
    "an integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "a string": lambda v: isinstance(v, str),
    "a boolean": lambda v: isinstance(v, bool),
    "a real number or null": lambda v: v is None or _is_real(v),
}
_REAL = "a real number"


def _print_certification(doc: Mapping[str, Any]) -> None:
    print(f"chi_real = {doc['chi_real']:.6f}, e_chi = {doc['e_chi']:.6f}, "
          f"e_p = {doc['e_p']:.6f}")
    if doc["h_min_bits"] == 0.0:
        print("no certified entropy: the corrected violation does not beat "
              "the classical bound 2")
        return
    print(f"guessing probability <= {doc['p_guess']:.6f}")
    print(f"min-entropy {doc['h_min_bits']:.6f} bits/event ({doc['h_min_percent']:.2f} %)")
    if doc["certified_rate_hz"] is not None:
        print(f"certified rate {doc['certified_rate_hz']:.1f} bits/s")


class _DocKind(NamedTuple):
    result: type  # the result dataclass a document of the kind is made from
    fields: Mapping[str, str]  # each field the reader checks, and its JSON type
    summary: Callable[[Mapping[str, Any]], None]  # printed by the writer and by ``report``


# each document kind; dots in a field's name step into nested objects
_DOCS = {
    "chi-result": _DocKind(ChiResult, {
        "chi": _REAL, "stderr": _REAL, "sign": "a string", "angles.phi": _REAL,
        "angles.phi_prime": _REAL, "angles.theta": _REAL, "angles.theta_prime": _REAL},
        lambda doc: print("chi_{sign} = {chi:+.6f} +- {stderr:.6f} at phi={angles[phi]:+.4f} "
                          "phi'={angles[phi_prime]:+.4f} theta={angles[theta]:+.4f} "
                          "theta'={angles[theta_prime]:+.4f}".format_map(doc))),
    "certification": _DocKind(CertificationResult, {
        "chi_real": _REAL, "e_chi": _REAL, "e_p": _REAL, "p_guess": _REAL, "h_min_bits": _REAL,
        "h_min_percent": _REAL, "certified_rate_hz": "a real number or null"},
        _print_certification),
    "mzi-calibration": _DocKind(CalibrationFit, {
        "a": _REAL, "b": _REAL, "c": _REAL, "d": _REAL, "residual_rms": _REAL,
        "port": "an integer"},
        lambda doc: print(
            f"port {doc['port']}: I = {doc['a']:.6g} * {'cos' if doc['port'] == 1 else 'sin'}^2("
            f"{doc['b']:.6g} W + {doc['d']:.6g}) + {doc['c']:.6g}  "
            f"(residual rms {doc['residual_rms']:.3g})")),
    "correction-estimate": _DocKind(CorrectionEstimate, {
        "term": "a string", "value": _REAL, "lower": _REAL, "upper": _REAL, "gap": _REAL,
        "cells": "an integer", "converged": "a boolean"},
        lambda doc: print("{term} = {value:.6f} in [{lower:.6f}, {upper:.6f}] (gap {gap:.1e}, "
                          "cells={cells}, converged={converged})".format_map(doc))),
}


def read_json_doc(path: Path | str) -> dict[str, Any]:
    def finite(text: str) -> float:  # NaN, Infinity, -Infinity, or any float literal
        if math.isfinite(value := float(text)):
            return value
        raise ValidationError(f"{path}: every number must be finite, not {text}")

    def integer(text: str) -> int:  # one past the float range is refused before int() parses it
        if math.isfinite(float(text)):
            return int(text)
        raise ValidationError(f"{path}: every number must lie in the float range, not an "
                              f"integer of {len(text.lstrip('-'))} digits")

    try:
        doc = json.loads(Path(path).read_text(), parse_float=finite, parse_constant=finite,
                         parse_int=integer)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ValidationError(f"{path}: malformed JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("kind"), str):
        raise ValidationError(f"{path}: not a result document (no 'kind')")
    for field, kind in (_DOCS[doc["kind"]].fields if doc["kind"] in _DOCS else {}).items():
        node = doc
        for key in field.split("."):
            if not isinstance(node, dict) or key not in node:
                raise ValidationError(f"{path}: {doc['kind']} document lacks {field!r}")
            node = node[key]
        if not _FIELD_TYPES[kind](node):
            raise ValidationError(f"{path}: {doc['kind']} field {field!r} must be {kind}, "
                                  f"not {json.dumps(node)}")
    return doc


def result_doc(result: Any, **extra: Any) -> dict[str, Any]:
    """The result document of a result dataclass: its kind, its fields, and
    the ``extra`` fields, which replace a field of the same name."""
    kind = {d.result: k for k, d in _DOCS.items()}[type(result)]
    return {"kind": kind, **dataclasses.asdict(result), **extra}
