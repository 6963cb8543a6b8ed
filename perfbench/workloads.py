"""The three workloads: CLI argument lists per stage, and their output checks.

Every workload runs the paper chip of ``inputs/paper_chip.yaml`` (40:60
splitters, 10 nm Gaussian spectrum on 21 nodes with phase dispersion, loss,
and the paper's phase-error set).  The workload seed reaches the program
only as ``--seed``.

* ``scan``: ``simulate --scan`` over the 41 x 21 grid at 0.01 s per setting
  (about 1.2k records each), then ``bell-scan``.  The calibration scan a
  user runs to find the CHSH angles; ``chip`` and the CHSH grid search do
  most of the work, and event I/O is many small files.
* ``certify``: ``certify --chi 2.697 --config`` at the default search budget
  (64 starts, 100k probes, opt-seed 20240).  Time to a certificate; only the
  correction search works.  It takes no input from the seed.
* ``bits``: ``simulate`` the four CHSH settings for 5 s each at 120 kHz
  (about 600k records per stream), ``bell-scan`` on the 2 x 2 grid,
  closed-form ``certify`` with the recorded e_chi / e_p, ``extract`` on each
  stream and ``analyze`` on all four.  The production path from events to
  certified bits; ``events`` and event-file I/O on few large files dominate.

Checks hold for any seed: statistical ones are set at five or six standard
errors.  Each check and each CLI call counts as one operation.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
CHIP_YAML = HERE / "inputs" / "paper_chip.yaml"
REFERENCE_JSON = HERE / "inputs" / "reference.json"

RATE_HZ = 120_000.0
BIN_US = 1.0
SCAN_DURATION_S = 0.01
# the README's CHSH angle pairs, in CHSH setting order
BITS_ANGLES = ((-0.576, -1.11), (-0.576, -1.87), (-1.445, -1.11), (-1.445, -1.87))
CERTIFY_CHI = 2.697
# (starts, probes, opt-seed) of the correction search per size
CERTIFY_BUDGETS = {"full": (64, 100_000, 20240), "tiny": (8, 2_000, 20240)}
SCAN_STEP = {"full": 0.1, "tiny": 0.5}
BITS_DURATION_S = {"full": 5.0, "tiny": 0.5}
# leftover-hash penalty 2 log2(1/eps) at the CLI's default eps = 2^-32
HASH_PENALTY_BITS = 64
E_TOLERANCE = 1e-3  # on e_chi and e_p, the gap a proven upper bound may add
Z_CELL, Z_STAT = 6.0, 5.0

RunCli = Callable[[str, list], bool]
Check = tuple[str, bool, str]


def load_reference() -> dict:
    return json.loads(REFERENCE_JSON.read_text())


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def run_scan(cli: RunCli, work: Path, seed: int, size: str, ref: dict) -> None:
    cli("simulate", ["simulate", "--config", str(CHIP_YAML), "--scan",
                     "--scan-step", repr(SCAN_STEP[size]), "--duration-s", repr(SCAN_DURATION_S),
                     "--rate-hz", repr(RATE_HZ), "--bin-us", repr(BIN_US),
                     "--seed", str(seed), "--out", str(work / "events")]) \
        and cli("bell-scan", ["bell-scan", "--events", str(work / "events"),
                              "--out", str(work / "scan")])


def run_certify(cli: RunCli, work: Path, seed: int, size: str, ref: dict) -> None:
    starts, probes, opt_seed = CERTIFY_BUDGETS[size]
    cli("certify", ["certify", "--chi", repr(CERTIFY_CHI), "--config", str(CHIP_YAML),
                    "--starts", str(starts), "--probes", str(probes),
                    "--opt-seed", str(opt_seed), "--rate-hz", repr(RATE_HZ),
                    "--out", str(work / "cert.json")])


def _event_files(work: Path) -> list[Path]:
    return [work / "events" / f"events_{i:04d}.tsv" for i in range(len(BITS_ANGLES))]


def run_bits(cli: RunCli, work: Path, seed: int, size: str, ref: dict) -> None:
    full = ref["certify"]["full"]
    angles = ",".join(f"{p!r}:{t!r}" for p, t in BITS_ANGLES)
    files = [str(f) for f in _event_files(work)]
    ok = cli("simulate", ["simulate", "--config", str(CHIP_YAML), f"--angles={angles}",
                          "--duration-s", repr(BITS_DURATION_S[size]), "--rate-hz", repr(RATE_HZ),
                          "--bin-us", repr(BIN_US), "--seed", str(seed),
                          "--out", str(work / "events")]) \
        and cli("bell-scan", ["bell-scan", "--events", str(work / "events"),
                              "--out", str(work / "scan")]) \
        and cli("certify", ["certify", "--chi-file", str(work / "scan" / "chi_max.json"),
                            "--e-chi", repr(full["e_chi"]), "--e-p", repr(full["e_p"]),
                            "--rate-hz", repr(RATE_HZ), "--out", str(work / "cert.json")])
    if not ok:
        return
    h_min = json.loads((work / "cert.json").read_text())["h_min_bits"]
    for i, f in enumerate(files):
        ok = ok and cli("extract", ["extract", "--events", f, "--h-min", repr(h_min),
                                    "--seed", str(seed), "--out", str(work / f"bits_{i}.txt")])
    ok and cli("analyze", ["analyze", "--events", *files, "--out", str(work / "trace.csv")])


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def check_scan(work: Path, seed: int, size: str, ref: dict) -> tuple[list[Check], dict]:
    surf = ref["scan_surface"]
    expected = {(round(p, 6), round(t, 6)): surf["e"][i][j]
                for i, p in enumerate(surf["phi"]) for j, t in enumerate(surf["theta"])}
    grid_path = work / "scan" / "grid.tsv"
    rows = [line.split("\t") for line in grid_path.read_text().splitlines()[2:] if line]
    n = RATE_HZ * SCAN_DURATION_S
    step = SCAN_STEP[size]
    n_cells = (int(round(4.0 / step)) + 1) * (int(round(2.0 / step)) + 1)
    checks: list[Check] = [("scan.cell_count", len(rows) == n_cells,
                            f"{len(rows)} cells, expected {n_cells}")]
    z2 = []
    for phi, theta, e, _ in rows:
        key = (round(float(phi), 6), round(float(theta), 6))
        if key not in expected:
            checks.append((f"scan.cell {key}", False, "not on the reference grid"))
            continue
        e_ref = expected[key]
        # binomial stderr of E at the reference value, floored so that
        # cells with |E| near 1 tolerate a few discrete flips
        sigma = math.sqrt((1.0 - e_ref * e_ref + 4.0 / n) / n)
        z = (float(e) - e_ref) / sigma
        z2.append(z * z)
        checks.append((f"scan.cell {key}", abs(z) <= Z_CELL,
                       f"E={float(e):.4f} ref={e_ref:.4f} z={z:+.2f}"))
    mean_z2 = float(np.mean(z2)) if z2 else math.inf
    checks.append(("scan.surface_mean_z2", mean_z2 <= 1.5, f"mean z^2 = {mean_z2:.3f}"))
    digests = {name: _sha256(work / "scan" / name) for name in ("grid.tsv", "chi_max.json")}
    return checks, digests


def check_certify(work: Path, seed: int, size: str, ref: dict) -> tuple[list[Check], dict]:
    want = ref["certify"][size]
    doc = json.loads((work / "cert.json").read_text())
    checks: list[Check] = []
    for term in ("e_chi", "e_p"):
        got = doc[term]
        checks.append((f"certify.{term}", abs(got - want[term]) <= E_TOLERANCE,
                       f"{got:.6f} vs reference {want[term]:.6f} (tolerance {E_TOLERANCE})"))
    converged = all(doc.get(f"{t}_estimate", {}).get("converged") is True for t in ("e_chi", "e_p"))
    checks.append(("certify.converged", converged, f"converged={converged}"))
    return checks, {"cert.json": _sha256(work / "cert.json")}


def _timestamps(path: Path) -> np.ndarray:
    data = path.read_bytes()
    body = data[data.index(b"timestamp_ns\tchannel\n") + len(b"timestamp_ns\tchannel\n"):]
    return np.array(body.split()[0::2]).astype(np.int64)


def check_bits(work: Path, seed: int, size: str, ref: dict) -> tuple[list[Check], dict]:
    checks: list[Check] = []
    es = [s["e"] for s in ref["bits_settings"]]
    chi_ref = sum(es) - 2.0 * min(es)  # best minus placement on the 2 x 2 grid
    chi_doc = json.loads((work / "scan" / "chi_max.json").read_text())
    z = (chi_doc["chi"] - chi_ref) / chi_doc["stderr"]
    checks.append(("bits.chi", abs(z) <= Z_STAT,
                   f"chi={chi_doc['chi']:.5f} ref={chi_ref:.5f} z={z:+.2f}"))

    h_min = json.loads((work / "cert.json").read_text())["h_min_bits"]
    lam = RATE_HZ * BIN_US * 1e-6
    # share of occupied bins holding more than one record under Poisson
    # arrivals: the single/multi split of events.resolved_distribution
    multi_expected = 1.0 - lam * math.exp(-lam) / -math.expm1(-lam)
    digests = {"chi_max.json": _sha256(work / "scan" / "chi_max.json"),
               "cert.json": _sha256(work / "cert.json"),
               "trace.csv": _sha256(work / "trace.csv")}
    for i, f in enumerate(_event_files(work)):
        ts = _timestamps(f)
        occupied_bins, sizes = np.unique(ts, return_counts=True)
        k = occupied_bins.size
        multi = float(np.count_nonzero(sizes > 1)) / k
        sigma = math.sqrt(multi_expected * (1.0 - multi_expected) / k)
        checks.append((f"bits.multi_click[{i}]", abs(multi - multi_expected) <= Z_STAT * sigma,
                       f"{multi:.5f} vs {multi_expected:.5f} +- {sigma:.5f}"))

        bits_path = work / f"bits_{i}.txt"
        out = bits_path.read_text().strip()
        m = math.floor(k * h_min) - HASH_PENALTY_BITS
        checks.append((f"bits.length[{i}]", len(out) == m and set(out) <= {"0", "1"},
                       f"{len(out)} bits, leftover-hash length {m}"))
        z = (2.0 * out.count("1") - len(out)) / math.sqrt(max(len(out), 1))
        checks.append((f"bits.frequency[{i}]", abs(z) <= Z_STAT, f"z={z:+.2f}"))
        digests[bits_path.name] = _sha256(bits_path)
    return checks, digests


# Each workload's reason as shares of the traced run: (label, per-layer
# self times, the stages they belong to, the share the reason needs).
REASONS = {
    "scan": (("chip / simulate", ("chip.broadband_probabilities.self_s", "optics.mzi_matrix.self_s"),
              ("simulate",), 0.5),
             ("grid search / bell-scan", ("bell.best_combination_search.self_s",),
              ("bell-scan",), 0.5)),
    "certify": (("e_chi + e_p / certify", ("certify.e_chi.self_s", "certify.e_p.self_s"),
                 ("certify",), 0.9),),
    "bits": (("event-file I/O / wall", ("cli.write_event_file.self_s", "cli.read_event_file.self_s"),
              ("simulate", "bell-scan", "certify", "extract", "analyze"), 0.5),),
}

WORKLOADS = {
    "scan": (run_scan, check_scan),
    "certify": (run_certify, check_certify),
    "bits": (run_bits, check_bits),
}
