"""Command-line workflows, on-disk formats, and MZI calibration fitting.

Formats owned here:

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
* correlation grids: TSV long format (phi, theta, E, stderr);
* result documents: JSON, each its ``kind`` plus its result's fields; each
  kind has one summary, which its writer and ``report`` both print, and the
  reader checks that each known kind carries its fields with their JSON types.

Every writer is canonical (sorted keys, repr floats) so write -> read ->
write round-trips byte-identically, and all writes go through a
temp-then-rename so readers never see partial files.

This module is the only place channel labels and 0/1 text exist.  The
rest of the package carries channels as basis-order arrays and ``uint8``
codes, and bits as ``uint8`` 0/1 arrays; labels are written and parsed
here (event files, the ``analyze`` CSV header), and ``extract`` turns its
bit array into text only as it writes the output file.

Exit codes: 0 success, 2 validation error (an input that runs out of
memory included), 3 numerical failure (a correction proof that did not close, a
degenerate calibration fit, or an extractor FFT that lost integer
precision).
Errors are mirrored to stderr as one-line JSON records.  :func:`main` alone
names them: any ``ValueError`` a subcommand raises is a ``ValidationError``
record, and OS errors, arithmetic errors and ``MemoryError`` keep their
class names.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import itertools
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np
import yaml

from .bell import (CHI_QUANTUM_MAX, ChiResult, CorrelationGrid, best_combination_search,
                   check_chi, chi_alpha_ideal, correlation_coefficient)
from .certify import (CertificationResult, CorrectionEstimate, certification_result, e_chi, e_p,
                      guessing_curve)
from .chip import ChipConfig, PhaseErrorSet, broadband_probabilities
from .events import (Block, EventStream, StreamHeader, bin_and_resolve, checked_blocks,
                     raw_bits, record_block, simulate_blocks, toeplitz_extract,
                     windowed_traces)
# not called here since simulate writes blocks as they are drawn, but kept
# under this name, which perfbench's tracer wraps
from .events import simulate_events  # noqa: F401
from .optics import MmiParams, WavelengthSpectrum

CONFIG_DIR_ENV = "PATHQRNG_CONFIG_DIR"

#: output channel labels, in basis order (channel code = index)
CHANNELS = ("UF", "UN", "DF", "DN")

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NONCONVERGENCE = 3


class ValidationError(ValueError):
    """Bad input data, files, or flags; maps to exit code 2."""


class CalibrationError(RuntimeError):
    """Degenerate calibration data or fit; maps to exit code 3."""


class ConvergenceError(RuntimeError):
    """A correction-term proof did not close within its cell cap; maps to exit code 3."""


# ---------------------------------------------------------------------------
# calibration fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
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


_FRINGE_SCAN_POINTS = 2048
_FRINGE_SCAN_BLOCK = 1 << 18  # trial frequencies x samples per batched solve
_FRINGE_REFINE_STEPS = 80  # golden-section steps; the bracket shrinks by 0.618 each
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
#: the largest |power| and |intensity| a fit takes, and the reciprocal of the
#: smallest step between distinct powers: the scan's top frequency is pi over
#: that step, and the fit squares the intensities, so both stay finite
_SAMPLE_SCALE = 1e100
# certify's --starts/--probes steer nothing, as the corrections are proven
# bounds, but a value outside these ranges is refused, so a mistyped budget is heard
_MAX_STARTS = 100_000
_MAX_PROBES = 100_000_000


def _fringe_fits(omegas: np.ndarray, w: np.ndarray,
                 inten: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """RSS (k,) and (off, P, Q) (k, 3) of the best off + P cos(omega W) + Q sin(omega W).

    One batched normal-equations solve over the trial frequencies.  A
    direction whose singular value is below sqrt(n eps) of the largest is
    dropped, as a least-squares rank cutoff would drop it: where
    sin(omega W) vanishes on every sample the equations are singular.
    """
    x = np.outer(omegas, w)
    basis = np.stack([np.ones_like(x), np.cos(x), np.sin(x)], axis=1)  # (k, 3, n)
    lam, vec = np.linalg.eigh(basis @ basis.transpose(0, 2, 1))
    keep = lam > w.size * np.finfo(float).eps * lam[:, -1:]
    proj = np.einsum("kij,ki->kj", vec, basis @ inten)
    coef = np.einsum("kij,kj->ki", vec, np.where(keep, proj / np.where(keep, lam, 1.0), 0.0))
    resid = np.einsum("ki,kin->kn", coef, basis) - inten
    return np.sum(resid * resid, axis=1), coef


def _golden_section(f: Callable[[float], float], lo: float, hi: float) -> float:
    """A local minimizer of ``f`` on [lo, hi] after a fixed number of golden-section steps."""
    x1, x2 = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(_FRINGE_REFINE_STEPS):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = f(x2)
    return 0.5 * (lo + hi)


def fit_mzi_calibration(samples: Sequence[tuple[float, float]], port: int = 1) -> CalibrationFit:
    """Least-squares fringe fit of (heater power, intensity) samples.

    Needs at least 8 samples spanning at least half a fringe, every value
    within +-``_SAMPLE_SCALE`` and distinct powers at least its reciprocal
    apart, so that no step of the fit overflows.  The fringe
    a cos^2(b W + d) + c is off + P cos(omega W) + Q sin(omega W) with
    omega = 2b, linear in (off, P, Q) for fixed omega, so the fit is by
    variable projection (Golub and Pereyra, SIAM J. Numer. Anal. 10, 413,
    1973): a coarse omega scan, one batched linear solve, then a
    golden-section refinement of omega alone; a, b, c, d follow in closed
    form.  The standard errors come from s^2 (J^T J)^-1 with
    s^2 = RSS / (n - 4).  Raises :class:`CalibrationError` on constant data
    or a fit under half a fringe.
    """
    if port not in (1, 2):
        raise ValidationError("port must be 1 or 2")
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValidationError("samples must be (power, intensity) pairs")
    if arr.shape[0] < 8:
        raise ValidationError(f"need >= 8 samples, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("samples must be finite")
    w, inten = arr[:, 0], arr[:, 1]
    span = float(np.ptp(w))
    if span <= 0.0:
        raise CalibrationError("all samples at the same power; no fringe to fit")
    gaps = np.diff(np.sort(w))
    min_gap = float(gaps[gaps > 0].min())
    if float(np.max(np.abs(arr))) > _SAMPLE_SCALE or min_gap < 1.0 / _SAMPLE_SCALE:
        raise ValidationError(f"samples must lie within +-{_SAMPLE_SCALE:g}, with distinct "
                              f"powers at least {1.0 / _SAMPLE_SCALE:g} apart")
    if np.ptp(inten) <= 1e-12 * max(1.0, float(np.abs(inten).max())):
        raise CalibrationError("constant intensity data; no fringe to fit")

    omegas = np.linspace(math.pi / span, math.pi / min_gap, _FRINGE_SCAN_POINTS)
    rows = max(1, _FRINGE_SCAN_BLOCK // w.size)
    rss = np.concatenate([_fringe_fits(omegas[i:i + rows], w, inten)[0]
                          for i in range(0, omegas.size, rows)])
    k = int(np.argmin(rss))
    # refine omega between the grid neighbours of the best trial; below the
    # lowest one down to 0, so that a fit under half a fringe is found and rejected
    omega = _golden_section(lambda om: float(_fringe_fits(np.array([om]), w, inten)[0][0]),
                            omegas[k - 1] if k else 0.0, omegas[min(k + 1, omegas.size - 1)])
    off, p, q = _fringe_fits(np.array([omega]), w, inten)[1][0]
    # port 1: a cos^2 = a/2 cos(2bW + 2d) + a/2;  port 2 flips the cosine sign
    amp = math.hypot(p, q)
    psi = math.atan2(-q, p)
    a, b, c = 2.0 * amp, omega / 2.0, off - amp
    d = (psi / 2.0 if port == 1 else (psi - math.pi) / 2.0) % math.pi
    if b * span < math.pi / 2.0:
        raise CalibrationError("samples span less than half a fringe; fit underdetermined")
    x = b * w + d
    osc = np.cos(x) ** 2 if port == 1 else np.sin(x) ** 2
    resid = a * osc + c - inten
    slope = (-a if port == 1 else a) * np.sin(2.0 * x)  # derivative in d
    # diag of (J^T J)^-1 from J's SVD; a zero singular value leaves no finite stderr
    _, sv, vt = np.linalg.svd(np.column_stack([osc, slope * w, np.ones_like(w), slope]),
                              full_matrices=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        perr = np.sqrt(float(resid @ resid) / (w.size - 4) * np.sum((vt / sv[:, None]) ** 2, 0))
    stderr = tuple(float(v) for v in perr) if np.all(np.isfinite(perr)) else None
    return CalibrationFit(a, b, c, d, float(np.sqrt(np.mean(resid ** 2))), port, stderr)


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
#: ``_SCAN_BLOCK``-pair ``broadband_probabilities`` call on the paper chip
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


def load_chip_config(path: Path | str) -> ChipConfig:
    """Parse and validate a chip configuration file."""
    try:
        raw = yaml.safe_load(Path(path).read_text())
    except (yaml.YAMLError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ValidationError(f"malformed config: {exc}") from exc
    return parse_chip_config(raw)


def _resolve_config_path(value: str) -> Path:
    p = Path(value)
    if p.exists():
        return p
    env_dir = os.environ.get(CONFIG_DIR_ENV)
    if env_dir and (Path(env_dir) / value).exists():
        return Path(env_dir) / value
    raise ValidationError(f"config file {value!r} not found"
                          + (f" (also tried ${CONFIG_DIR_ENV})" if env_dir else ""))


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
        return _grid_from_cells(cells)
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _grid_from_cells(cells: Mapping[tuple[float, float], tuple[float, float]]) -> CorrelationGrid:
    """The grid over the sorted distinct angles of (phi, theta) -> (E, stderr) cells.

    Cells missing from the product of the angle lists are NaN, and a stderr
    that is NaN in every cell becomes None.  A product of more than
    ``_MAX_SCAN_PAIRS`` cells is refused before any array is built.
    """
    phis = {p: i for i, p in enumerate(sorted({k[0] for k in cells}))}
    thetas = {t: j for j, t in enumerate(sorted({k[1] for k in cells}))}
    if len(phis) * len(thetas) > _MAX_SCAN_PAIRS:
        raise ValueError(f"{len(phis)} phi x {len(thetas)} theta values give more than "
                         f"{_MAX_SCAN_PAIRS} grid cells")
    e = np.full((len(phis), len(thetas)), np.nan)
    se = np.full((len(phis), len(thetas)), np.nan)
    for (p, t), (ev, sv) in cells.items():
        e[phis[p], thetas[t]] = ev
        se[phis[p], thetas[t]] = sv
    return CorrelationGrid(tuple(phis), tuple(thetas), e,
                           None if np.all(np.isnan(se)) else se)


# ---------------------------------------------------------------------------
# JSON result documents
# ---------------------------------------------------------------------------

def write_json_doc(doc: Mapping[str, Any], path: Path | str) -> None:
    if "kind" not in doc:
        raise ValidationError("result documents need a 'kind' field")
    _atomic_write(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


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

# the fields each document kind must carry and their types; dots step into
# nested objects
_DOC_FIELDS = {
    "chi-result": {"chi": _REAL, "stderr": _REAL, "sign": "a string", "angles.phi": _REAL,
                   "angles.phi_prime": _REAL, "angles.theta": _REAL,
                   "angles.theta_prime": _REAL},
    "certification": {"chi_real": _REAL, "e_chi": _REAL, "e_p": _REAL, "p_guess": _REAL,
                      "h_min_bits": _REAL, "h_min_percent": _REAL,
                      "certified_rate_hz": "a real number or null"},
    "mzi-calibration": {"a": _REAL, "b": _REAL, "c": _REAL, "d": _REAL, "residual_rms": _REAL,
                        "port": "an integer"},
    "correction-estimate": {"term": "a string", "value": _REAL, "lower": _REAL, "upper": _REAL,
                            "gap": _REAL, "cells": "an integer", "converged": "a boolean"},
}


def read_json_doc(path: Path | str) -> dict[str, Any]:
    try:
        doc = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ValidationError(f"{path}: malformed JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("kind"), str):
        raise ValidationError(f"{path}: not a result document (no 'kind')")
    for field, kind in _DOC_FIELDS.get(doc["kind"], {}).items():
        node = doc
        for key in field.split("."):
            if not isinstance(node, dict) or key not in node:
                raise ValidationError(f"{path}: {doc['kind']} document lacks {field!r}")
            node = node[key]
        if not _FIELD_TYPES[kind](node):
            raise ValidationError(f"{path}: {doc['kind']} field {field!r} must be {kind}, "
                                  f"not {json.dumps(node)}")
    return doc


#: the document kind of each result dataclass
_DOC_KINDS = {ChiResult: "chi-result", CertificationResult: "certification",
              CalibrationFit: "mzi-calibration", CorrectionEstimate: "correction-estimate"}


def result_doc(result: Any, **extra: Any) -> dict[str, Any]:
    """The result document of a result dataclass: its kind, its fields, and
    the ``extra`` fields, which replace a field of the same name."""
    return {"kind": _DOC_KINDS[type(result)], **dataclasses.asdict(result), **extra}


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


#: the printed summary of each document kind, from the fields the reader checks
_SUMMARIES: dict[str, Callable[[Mapping[str, Any]], None]] = {
    "chi-result": lambda doc: print(
        "chi_{sign} = {chi:+.6f} +- {stderr:.6f} at phi={angles[phi]:+.4f} "
        "phi'={angles[phi_prime]:+.4f} theta={angles[theta]:+.4f} "
        "theta'={angles[theta_prime]:+.4f}".format_map(doc)),
    "certification": _print_certification,
    "mzi-calibration": lambda doc: print(
        f"port {doc['port']}: I = {doc['a']:.6g} * {'cos' if doc['port'] == 1 else 'sin'}^2("
        f"{doc['b']:.6g} W + {doc['d']:.6g}) + {doc['c']:.6g}  "
        f"(residual rms {doc['residual_rms']:.3g})"),
    "correction-estimate": lambda doc: print(
        "{term} = {value:.6f} in [{lower:.6f}, {upper:.6f}] (gap {gap:.1e}, cells={cells}, "
        "converged={converged})".format_map(doc)),
}


# ---------------------------------------------------------------------------
# subcommand helpers
# ---------------------------------------------------------------------------

#: the largest |angle| a simulated pair may set, radians.  The rotations
#: repeat after pi, so every setting has a representative in [0, pi).  At
#: 1e6 rad a float64 still resolves an angle to about 1e-10 rad; near 1e16
#: rad its spacing reaches the period, so the angle no longer names a
#: setting, and near 1e308 the doubled heater phase overflows to inf
_MAX_ANGLE = 1e6


def _parse_angle_pairs(text: str) -> list[tuple[float, float]]:
    pairs: dict[tuple[float, float], None] = {}  # a dict keeps the order
    for chunk in text.split(","):
        phi_str, sep, theta_str = chunk.partition(":")
        if not sep:
            raise ValidationError(f"bad angle pair {chunk!r}; expected phi:theta")
        try:
            pair = (float(phi_str), float(theta_str))
        except ValueError as exc:
            raise ValidationError(f"bad angle pair {chunk!r}: {exc}") from exc
        if not all(map(math.isfinite, pair)):
            raise ValidationError(f"bad angle pair {chunk!r}: angles must be finite")
        if max(map(abs, pair)) > _MAX_ANGLE:
            raise ValidationError(f"bad angle pair {chunk!r}: |angle| exceeds {_MAX_ANGLE:g} rad")
        # bell-scan refuses two streams of one pair, so simulate writes none
        if pair in pairs:
            raise ValidationError(f"duplicate angle pair {pair} in --angles")
        pairs[pair] = None
    return list(pairs)


#: the most angle pairs one scan may simulate, checked before the schedule is
#: built, and the most cells a grid may span, checked before its arrays are built
_MAX_SCAN_PAIRS = 1_000_000


def _scan_schedule(step: float) -> list[tuple[float, float]]:
    """The measurement scan: phi in [-2, 2], theta in [-2, 0]."""
    if not (math.isfinite(step) and step > 0.0):
        raise ValidationError(f"scan step {step!r} must be finite and positive")
    if not math.isfinite(4.0 / step):
        raise ValidationError(f"scan step {step!r} is too small: 4 / step is not finite")
    n_phi = int(round(4.0 / step)) + 1
    n_theta = int(round(2.0 / step)) + 1
    if n_phi * n_theta > _MAX_SCAN_PAIRS:
        raise ValidationError(f"scan step {step!r} gives {n_phi * n_theta} angle pairs, "
                              f"more than {_MAX_SCAN_PAIRS}")
    phis = np.linspace(-2.0, 2.0, n_phi)
    thetas = np.linspace(-2.0, 0.0, n_theta)
    return [(float(p), float(t)) for p in phis for t in thetas]


def _load_optional_config(path_value: str | None) -> ChipConfig:
    if path_value is None:
        return ChipConfig()
    return load_chip_config(_resolve_config_path(path_value))


def _check_seeds(args: argparse.Namespace, *flags: str) -> None:
    """Refuse a negative seed by its flag; numpy's own refusal names none."""
    for flag in flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value < 0:
            raise ValidationError(f"{flag} must be a non-negative integer, got {value}")


def _read_streams(paths: Iterable[Path | str]) -> Iterator[EventFile]:
    """Each file opened in turn for one block read, the next only once it is
    asked for.  A (phi, theta) pair read before is refused once its file has
    been read, so every error of the file itself comes first."""
    seen: set[tuple[float, float]] = set()
    for path in paths:
        stream = EventFile(path)
        yield stream
        pair = (stream.header.phi, stream.header.theta)
        if pair in seen:
            raise ValidationError(f"duplicate angle pair {pair} in {path}")
        seen.add(pair)


def _stream_cell(stream: EventFile) -> tuple[tuple[float, float], tuple[float, float]]:
    """(phi, theta) and (E, binomial stderr) from a stream's raw record counts."""
    counts = np.zeros(4, dtype=np.int64)
    for _, ch in stream.blocks():
        counts += np.bincount(ch, minlength=4)
    n = int(counts.sum())
    if n == 0:
        raise ValidationError(f"{stream.path}: event stream holds no records")
    e = correlation_coefficient(counts / n)
    return (stream.header.phi, stream.header.theta), (e, math.sqrt(max(1.0 - e * e, 0.0) / n))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

#: angle pairs per chip evaluation in ``simulate``, which bounds the
#: (pairs, nodes, 2, 2) matrices of the four MZIs in one broadband call
_SCAN_BLOCK = 64


def _cmd_simulate(args: argparse.Namespace) -> int:
    _check_seeds(args, "--seed")
    cfg = _load_optional_config(args.config)
    if (args.angles is None) == (not args.scan):
        raise ValidationError("exactly one of --angles or --scan is required")
    pairs = _parse_angle_pairs(args.angles) if args.angles else _scan_schedule(args.scan_step)
    out = Path(args.out)
    # bell-scan reads every *.tsv in the directory, so none may outlive this run
    names = {f"events_{i:04d}.tsv" for i in range(len(pairs))}
    stale = sorted(p.name for p in out.glob("*.tsv") if p.name not in names)
    if stale:
        raise ValidationError(f"{out} holds {len(stale)} event file(s) this run would not "
                              f"overwrite, first {stale[0]}; use an empty directory")
    seeds = np.random.SeedSequence(args.seed).generate_state(len(pairs))
    for lo in range(0, len(pairs), _SCAN_BLOCK):
        block = pairs[lo : lo + _SCAN_BLOCK]
        phis, thetas = np.array(block).T
        dists = broadband_probabilities(cfg, phis, thetas)
        for i, ((phi, theta), dist) in enumerate(zip(block, dists), start=lo):
            header = StreamHeader(phi, theta, args.duration_s, args.bin_us, int(seeds[i]),
                                  args.rate_hz)
            write_event_file(header, out / f"events_{i:04d}.tsv", simulate_blocks(header, dist))
    print(f"simulated {len(pairs)} angle pairs -> {out} "
          f"({args.rate_hz:g} Hz x {args.duration_s:g} s each, master seed {args.seed})")
    return EXIT_OK


def _cmd_bell_scan(args: argparse.Namespace) -> int:
    files = sorted(Path(args.events).glob("*.tsv"))
    if not files:
        raise ValidationError(f"no event files under {args.events}")
    grid = _grid_from_cells(dict(map(_stream_cell, _read_streams(files))))
    best_max, best_min = best_combination_search(grid)
    out = Path(args.out)
    write_grid_file(grid, out / "grid.tsv")
    docs = [result_doc(r, angles=dict(zip(("phi", "phi_prime", "theta", "theta_prime"),
                                          map(float, r.angles)))) for r in (best_max, best_min)]
    for doc in docs:
        write_json_doc(doc, out / f"chi_{doc['sign']}.json")
    print(f"grid {len(grid.phi_values)} phi x {len(grid.theta_values)} theta "
          f"from {len(files)} files -> {out}")
    for doc in docs:
        _SUMMARIES[doc["kind"]](doc)
    return EXIT_OK


def _cmd_certify(args: argparse.Namespace) -> int:
    if (args.chi is None) == (args.chi_file is None):
        raise ValidationError("exactly one of --chi or --chi-file is required")
    if (args.e_chi is None) != (args.e_p is None):
        raise ValidationError("give both --e-chi and --e-p, or neither to bound both")
    if args.e_chi is not None and args.config is not None:
        raise ValidationError("--config is only read by the bounds; it has no effect "
                              "when --e-chi and --e-p are given")
    if args.chi is not None:
        chi_value, chi_stderr = args.chi, 0.0
    else:
        doc = read_json_doc(args.chi_file)
        if doc["kind"] != "chi-result":
            raise ValidationError(f"{args.chi_file}: expected a chi-result document")
        chi_value, chi_stderr = float(doc["chi"]), float(doc["stderr"])
    check_chi(chi_value, chi_stderr)

    estimates: dict[str, dict[str, Any]] = {}
    if args.e_chi is not None:
        ec_val, ep_val = args.e_chi, args.e_p
    else:
        if not 2 <= args.starts <= _MAX_STARTS:
            raise ValidationError(f"--starts must lie in [2, {_MAX_STARTS}], got {args.starts}")
        if not 0 <= args.probes <= _MAX_PROBES:
            raise ValidationError(f"--probes must lie in [0, {_MAX_PROBES}], got {args.probes}")
        cfg = _load_optional_config(args.config)
        ec_est = e_chi(cfg.errors, cfg.mzi_mmis)
        ep_est = e_p(cfg.errors, cfg.mzi_mmis)
        ec_val, ep_val = ec_est.value, ep_est.value
        estimates = {"e_chi_estimate": result_doc(ec_est, term="e_chi"),
                     "e_p_estimate": result_doc(ep_est, term="e_p")}

    doc = result_doc(certification_result(chi_value, ec_val, ep_val, args.rate_hz), **estimates)
    write_json_doc(doc, args.out)
    _SUMMARIES[doc["kind"]](doc)
    print(f"wrote {args.out}")
    if not all(est["converged"] for est in estimates.values()):
        raise ConvergenceError("correction-term proof did not close within its cell cap; "
                               "the written upper bounds hold but are loose")
    return EXIT_OK


def _chsh_streams(paths: Sequence[Path | str]) -> Iterator[EventFile]:
    """The streams of :func:`_read_streams`, refused once the last is read
    unless their (phi, theta) pairs are (phi, theta), (phi, theta'),
    (phi', theta), (phi', theta') with phi != phi' and theta != theta'."""
    pairs = []
    for stream in _read_streams(paths):
        yield stream
        pairs.append((stream.header.phi, stream.header.theta))
    (p0, t0), (p1, t1), (p2, t2), (p3, t3) = pairs
    if not (p0 == p1 != p2 == p3 and t0 == t2 != t1 == t3):
        raise ValidationError(f"streams at {pairs} are not in CHSH setting order (phi,theta), "
                              "(phi,theta'), (phi',theta), (phi',theta') with phi != phi' "
                              "and theta != theta'")


def _cmd_analyze(args: argparse.Namespace) -> int:
    trace = windowed_traces(_chsh_streams(args.events), args.window_ms / 1000.0,
                            args.confidence)
    header = ["window", "t_mid_s"]
    for s in range(1, 5):
        header += [f"p{s}_{c.lower()}" for c in CHANNELS]
    header += [f"e{s}" for s in range(1, 5)] + ["chi"]
    rows = ((w, (w + 0.5) * trace.window_s, *trace.probabilities[:, w].ravel(),
             *trace.correlations[:, w], trace.chi_values[w]) for w in range(trace.n_windows))
    _write_table(args.out, [",".join(header)], rows, ",")
    print(f"{trace.n_windows} windows of {trace.window_s * 1000:g} ms -> {args.out}")
    print(f"chi mean {trace.chi_mean:+.6f}, {trace.confidence * 100:g}% CI "
          f"[{trace.ci_low:+.6f}, {trace.ci_high:+.6f}]")
    return EXIT_OK


def _cmd_extract(args: argparse.Namespace) -> int:
    _check_seeds(args, "--seed")
    stream = EventFile(args.events)
    outcomes = bin_and_resolve(stream)
    bits = raw_bits(outcomes)
    extracted = toeplitz_extract(bits, args.h_min, security_eps=args.eps, seed=args.seed)
    _atomic_write(args.out, (extracted + ord("0")).tobytes() + b"\n")
    print(f"{stream.records} records -> {outcomes.size} outcomes -> {len(bits)} raw bits "
          f"-> {len(extracted)} extracted bits ({args.out})")
    return EXIT_OK


def _cmd_calibrate(args: argparse.Namespace) -> int:
    rows = []
    for line in Path(args.samples).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            power, intensity = map(float, line.replace(",", "\t").split())
        except ValueError as exc:
            raise ValidationError(f"{args.samples}: malformed sample line {line!r}") from exc
        rows.append((power, intensity))
    doc = result_doc(fit_mzi_calibration(rows, args.port))
    if args.out:
        write_json_doc(doc, args.out)
        print(f"wrote {args.out}")
    _SUMMARIES[doc["kind"]](doc)
    return EXIT_OK


_ALPHA_CURVE_POINTS = 181


def _cmd_report(args: argparse.Namespace) -> int:
    path = Path(args.result)
    plots = Path(args.plots_dir) if args.plots_dir else None
    if path.suffix == ".tsv":
        grid = read_grid_file(path)
        finite = np.isfinite(grid.e)
        print(f"correlation grid: {len(grid.phi_values)} phi x "
              f"{len(grid.theta_values)} theta, {int(finite.sum())} cells")
        if finite.any():
            print(f"E range [{grid.e[finite].min():+.6f}, {grid.e[finite].max():+.6f}]")
        if plots:
            _write_table(plots / "e_surface.csv", [",".join(_GRID_COLUMNS)], _grid_rows(grid), ",")
            print(f"wrote {plots / 'e_surface.csv'}")
        return EXIT_OK

    doc = read_json_doc(path)
    kind = doc["kind"]
    if kind not in _SUMMARIES:
        raise ValidationError(f"{path}: no report for document kind {kind!r}")
    _SUMMARIES[kind](doc)
    if plots and kind in ("chi-result", "certification"):
        written = [plots / "chi_alpha_curve.csv"]
        alphas = np.linspace(0.0, math.pi / 2.0, _ALPHA_CURVE_POINTS)
        _write_table(written[0], ["alpha,chi"], ((a, chi_alpha_ideal(float(a))) for a in alphas),
                     ",")
        if kind == "certification":
            written.append(plots / "guessing_bound.csv")
            xs = np.linspace(2.0, CHI_QUANTUM_MAX, 200)
            _write_table(written[1], ["x,p_guess_bound"], zip(xs, guessing_curve(xs)), ",")
        print("wrote " + " and ".join(map(str, written)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        _emit_error_record("usage", self.prog, message)
        raise SystemExit(EXIT_VALIDATION)


def _emit_error_record(error: str, subcommand: str, message: str) -> None:
    print(json.dumps({"error": error, "subcommand": subcommand, "message": message},
                     sort_keys=True), file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pathqrng", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate event files for angle pairs")
    p.add_argument("--config", help=f"chip config (also looked up in ${CONFIG_DIR_ENV})")
    p.add_argument("--angles", help="comma-separated phi:theta pairs, radians")
    p.add_argument("--scan", action="store_true", help="full measurement scan instead")
    p.add_argument("--scan-step", type=float, default=0.1)
    p.add_argument("--rate-hz", type=float, default=120_000.0)
    p.add_argument("--duration-s", type=float, default=1.0)
    p.add_argument("--bin-us", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0, help="master seed for all pairs")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("bell-scan", help="correlation grid and best Bell combination")
    p.add_argument("--events", required=True, help="directory of event files")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("certify", help="min-entropy certification from a violation")
    p.add_argument("--chi", type=float, help="measured Bell value")
    p.add_argument("--chi-file", help="chi-result JSON instead of --chi")
    p.add_argument("--config", help="chip config carrying the phase error set")
    p.add_argument("--e-chi", type=float, help="precomputed CHSH correction")
    p.add_argument("--e-p", type=float, help="precomputed probability correction")
    for flag, default in (("--starts", 64), ("--probes", 100_000), ("--opt-seed", 20240)):
        p.add_argument(flag, type=int, default=default,
                       help="accepted and range-checked, but it does not affect the "
                            "result, since the corrections are proven bounds, not searches")
    p.add_argument("--rate-hz", type=float, help="event rate for the certified bit rate")
    p.add_argument("--out", required=True, help="certification JSON path")

    p = sub.add_parser("analyze", help="windowed probability and Bell traces")
    p.add_argument("--events", nargs=4, required=True, metavar="FILE",
                   help="four event files in CHSH setting order")
    p.add_argument("--window-ms", type=float, default=50.0)
    p.add_argument("--confidence", type=float, default=0.99)
    p.add_argument("--out", required=True, help="trace CSV path")

    p = sub.add_parser("extract", help="keep each bin's first record, collect raw bits, "
                                      "Toeplitz-extract")
    p.add_argument("--events", required=True, help="event file")
    p.add_argument("--h-min", type=float, required=True, help="certified bits per event")
    p.add_argument("--eps", type=float, default=2.0 ** -32, help="security parameter")
    p.add_argument("--seed", type=int, default=0, help="Toeplitz seed")
    p.add_argument("--out", required=True, help="extracted bit file")

    p = sub.add_parser("calibrate", help="fit the MZI phase-power relation")
    p.add_argument("--samples", required=True, help="TSV/CSV of power, intensity")
    p.add_argument("--port", type=int, choices=(1, 2), default=1)
    p.add_argument("--out", help="calibration JSON path (default: print only)")

    p = sub.add_parser("report", help="human summary and plot CSVs from a result file")
    p.add_argument("--result", required=True, help="JSON document or grid TSV")
    p.add_argument("--plots-dir", help="directory for plot-ready CSVs")
    return parser


_HANDLERS = {
    "simulate": _cmd_simulate,
    "bell-scan": _cmd_bell_scan,
    "certify": _cmd_certify,
    "analyze": _cmd_analyze,
    "extract": _cmd_extract,
    "calibrate": _cmd_calibrate,
    "report": _cmd_report,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handler = _HANDLERS[args.command]
    try:
        return handler(args)
    # every ValueError is a bad input, named once here; MemoryError is an
    # input too large for this machine
    except (ValueError, OSError, ArithmeticError, MemoryError) as exc:
        name = "ValidationError" if isinstance(exc, ValueError) else type(exc).__name__
        _emit_error_record(name, args.command, str(exc))
        return EXIT_VALIDATION
    except RuntimeError as exc:  # CalibrationError, ConvergenceError, lost FFT precision
        _emit_error_record(type(exc).__name__, args.command, str(exc))
        return EXIT_NONCONVERGENCE


if __name__ == "__main__":
    raise SystemExit(main())
