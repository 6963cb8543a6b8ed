"""Record the reference values the benchmark's output checks compare against.

Run from the repository root, on the commit whose outputs define the
reference:

    PYTHONPATH=src python3 perfbench/record_reference.py

It writes ``perfbench/inputs/reference.json``: the noiseless correlation
surface E(phi, theta) of the paper chip on the ``--scan-step 0.1`` grid,
E at the four CHSH settings of the ``bits`` workload, and e_chi / e_p of
the correction search at the budgets the ``certify`` workload uses.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import BITS_ANGLES, CERTIFY_BUDGETS, CHIP_YAML  # noqa: E402

from pathqrng import certify, chip, cli  # noqa: E402


def correlation(doc: cli.ChipDocument, phi: float, theta: float) -> float:
    setting = chip.RotationSetting.from_angles(phi, theta, doc.errors.dphi, doc.errors.dtheta)
    p = chip.broadband_probabilities(doc.config, setting)
    return p["UF"] + p["DN"] - p["UN"] - p["DF"]


def main() -> None:
    doc = cli.load_chip_config(CHIP_YAML)
    phis = np.linspace(-2.0, 2.0, 41)
    thetas = np.linspace(-2.0, 0.0, 21)
    surface = [[correlation(doc, float(p), float(t)) for t in thetas] for p in phis]
    bits = [{"phi": p, "theta": t, "e": correlation(doc, p, t)} for p, t in BITS_ANGLES]
    budgets = {}
    for size, (starts, probes, seed) in CERTIFY_BUDGETS.items():
        ec = certify.e_chi(doc.errors, doc.config.mzi_mmis, starts=starts, probes=probes, seed=seed)
        ep = certify.e_p(doc.errors, doc.config.mzi_mmis, starts=starts, probes=probes, seed=seed)
        budgets[size] = {"starts": starts, "probes": probes, "opt_seed": seed,
                         "e_chi": ec.value, "e_p": ep.value,
                         "converged": bool(ec.converged and ep.converged)}
    ref = {"scan_surface": {"phi": phis.tolist(), "theta": thetas.tolist(), "e": surface},
           "bits_settings": bits, "certify": budgets}
    (HERE / "inputs" / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
