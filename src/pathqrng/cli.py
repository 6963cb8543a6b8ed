"""Command-line workflows and MZI calibration fitting.

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
import json
import math
import os
import sys
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from .bell import (CHI_QUANTUM_MAX, best_combination_search, check_chi, chi_alpha_ideal,
                   correlation_coefficient)
from .certify import certification_result, e_chi, e_p, guessing_curve
from .chip import ChipConfig, broadband_probabilities
from .events import (StreamHeader, bin_and_resolve, raw_bits, simulate_blocks, toeplitz_extract,
                     windowed_traces)
from .formats import (_DOCS, _GRID_COLUMNS, _MAX_SCAN_PAIRS, CHANNELS, CalibrationFit, EventFile,
                      ValidationError, _atomic_write, _grid_from_cells, _grid_rows, _write_table,
                      load_chip_config, read_grid_file, read_json_doc, result_doc,
                      write_event_file, write_grid_file, write_json_doc)
# not called here, as simulate writes blocks as they are drawn and the subcommands
# read through EventFile, but kept under these names, which perfbench's tracer wraps
from .events import simulate_events  # noqa: F401
from .formats import read_event_file  # noqa: F401

CONFIG_DIR_ENV = "PATHQRNG_CONFIG_DIR"

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NONCONVERGENCE = 3


class CalibrationError(RuntimeError):
    """Degenerate calibration data or fit; maps to exit code 3."""


class ConvergenceError(RuntimeError):
    """A correction-term proof did not close within its cell cap; maps to exit code 3."""


# ---------------------------------------------------------------------------
# calibration fitting
# ---------------------------------------------------------------------------

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
    if arr.shape != (0,) and (arr.ndim != 2 or arr.shape[1] != 2):  # no samples is too few
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


def _resolve_config_path(value: str) -> Path:
    p = Path(value)
    if p.exists():
        return p
    env_dir = os.environ.get(CONFIG_DIR_ENV)
    if env_dir and (Path(env_dir) / value).exists():
        return Path(env_dir) / value
    raise ValidationError(f"config file {value!r} not found"
                          + (f" (also tried ${CONFIG_DIR_ENV})" if env_dir else ""))


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
        _DOCS[doc["kind"]].summary(doc)
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
    _DOCS[doc["kind"]].summary(doc)
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
    _DOCS[doc["kind"]].summary(doc)
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
    if kind not in _DOCS:
        raise ValidationError(f"{path}: no report for document kind {kind!r}")
    _DOCS[kind].summary(doc)
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
