"""Benchmark of the ``pathqrng`` command-line chain, measured from outside the package.

Run from the repository root:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0

One run is one interpreter.  ``setup_s`` is the median time of
``import pathqrng.cli`` over fresh interpreters started one after another.
The run then imports the package from ``src/`` and calls
``pathqrng.cli.main(argv)`` in-process for each stage of the workload (see
``workloads.py``), repeating the whole workload while another repetition
still fits in ``--seconds``.  No worker threads or processes run beside it.

With ``--trace 0`` the result line carries the end-to-end metrics.  With
``--trace 1`` the run makes one untraced and one traced repetition and
reports the per-layer metrics: self time and call counts of the hooked
functions (``tracing.py``), counters, untraced stage times, the import-time
breakdown from ``python -X importtime``, and the tracing overhead.  Spans
are written to ``.perfbench-out/``.

Outputs go to a temporary directory under the repository root that is
removed at the end.  Every CLI call and every output check is one
operation; the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}`` as JSON.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracing import Tracer  # noqa: E402
from workloads import REASONS, WORKLOADS, load_reference  # noqa: E402

SETUP_SAMPLES = 3
IMPORT_PACKAGES = ("numpy", "scipy", "yaml", "pathqrng")
# per-layer stage times use the same names as the CLI subcommands
STAGES = ("simulate", "bell-scan", "certify", "extract", "analyze")
RATIOS = ("events.outcomes_per_record", "events.extracted_per_raw_bit")
SUBPROCESS_TIMEOUT_S = 120


def unit_of(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_written") or name.endswith("bytes_read"):
        return "bytes"
    return "ratio" if name in RATIOS else "count"


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=_child_env(), capture_output=True,
                          text=True, timeout=SUBPROCESS_TIMEOUT_S, check=True)


def setup_sample() -> float:
    """Seconds for ``import pathqrng.cli`` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import pathqrng.cli; print(time.perf_counter() - t)"
    return float(_python("-c", code).stdout.split()[-1])


def import_breakdown() -> dict[str, float]:
    """Self import time per top-level package, from ``-X importtime``."""
    totals = dict.fromkeys(IMPORT_PACKAGES, 0.0)
    for line in _python("-X", "importtime", "-c", "import pathqrng.cli").stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        top = name.strip().split(".")[0]
        if top in totals:
            totals[top] += int(self_us) / 1e6
    return {f"setup.import.{pkg}_s": s for pkg, s in totals.items()}


def import_cli():
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("pathqrng.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"pathqrng imported from {cli.__file__}, not from {SRC}")
    return cli


class Iteration:
    """One repetition of a workload: its directory, stage times and failures."""

    def __init__(self, cli, work: Path) -> None:
        self.cli = cli
        self.work = work
        self.stage_s: dict[str, float] = defaultdict(float)
        self.calls = 0
        self.failures: list[str] = []

    def __call__(self, stage: str, argv: list) -> bool:
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        rc = None
        with redirect_stdout(out), redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except Exception:  # a traceback breaks the CLI contract; record it and go on
                err.write(traceback.format_exc())
            elapsed = time.perf_counter() - t0
        self.stage_s[stage] += elapsed
        self.calls += 1
        if rc != 0:
            self.failures.append(f"{stage} exited {rc}: {err.getvalue().strip()}")
            return False
        return True

    @property
    def wall_s(self) -> float:
        return sum(self.stage_s.values())


def run_iteration(cli, run_fn, work: Path, seed: int, size: str, ref: dict) -> Iteration:
    it = Iteration(cli, work)
    run_fn(it, work, seed, size, ref)
    return it


def check_iterations(check_fn, iterations, seed, size, ref):
    """Checks of every iteration's outputs; returns (checks, failures, digests)."""
    n_checks, failures, digests = 0, [], {}
    for it in iterations:
        try:
            checks, found = check_fn(it.work, seed, size, ref)
        except (OSError, KeyError, ValueError, IndexError, ArithmeticError) as exc:
            checks, found = [("outputs readable", False, f"{type(exc).__name__}: {exc}")], {}
        n_checks += len(checks)
        failures += [f"check {name}: {detail}" for name, ok, detail in checks if not ok]
        digests = digests or found
    return n_checks, failures, digests


def timed_run(args, run_fn, ref, work_root):
    setup = [setup_sample() for _ in range(SETUP_SAMPLES)]
    cli = import_cli()
    iterations: list[Iteration] = []
    start = time.perf_counter()
    while True:
        it = run_iteration(cli, run_fn, work_root / f"iter{len(iterations)}", args.seed,
                           args.size, ref)
        iterations.append(it)
        elapsed = time.perf_counter() - start
        if it.failures or elapsed + max(i.wall_s for i in iterations) > args.seconds:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"setup_s": statistics.median(setup),
               "wall_s": statistics.median(i.wall_s for i in iterations),
               "peak_rss_mb": peak_mb}
    info = {"iterations": len(iterations), "setup_samples_s": setup,
            "stage_s": {s: statistics.median(i.stage_s.get(s, 0.0) for i in iterations)
                        for s in STAGES if any(s in i.stage_s for i in iterations)}}
    return metrics, iterations, info


def traced_run(args, run_fn, ref, work_root):
    metrics = import_breakdown()
    cli = import_cli()
    plain = run_iteration(cli, run_fn, work_root / "plain", args.seed, args.size, ref)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_iteration(cli, run_fn, work_root / "traced", args.seed, args.size, ref)
    finally:
        tracer.uninstall()
    metrics.update(tracer.layer_metrics())
    metrics.update({f"stage.{s.replace('-', '_')}_s": plain.stage_s.get(s, 0.0) for s in STAGES})
    metrics["trace.wall_s"] = traced.wall_s
    metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
    spans_path = ROOT / ".perfbench-out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    traced_stages = tracer.stage_s()
    reasons = {}
    for label, parts, stages, need in REASONS[args.workload]:
        total = sum(traced_stages.get(s, 0.0) for s in stages)
        share = sum(metrics[p] for p in parts) / total if total else 0.0
        reasons[label] = {"share": share, "needed": need, "holds": share >= need}
    info = {"missing_hooks": tracer.missing, "spans_file": str(spans_path.relative_to(ROOT)),
            "untraced_wall_s": plain.wall_s, "reason_shares": reasons}
    return metrics, [plain, traced], info


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0, help="measuring time of one run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: smoke-test sizes; the reference values cover both")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pathqrng" / "cli.py").is_file():
        print(f"perfbench: no pathqrng sources under {SRC}", file=sys.stderr)
        return 2
    run_fn, check_fn = WORKLOADS[args.workload]
    ref = load_reference()
    work_root = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT))
    try:
        measure = traced_run if args.trace else timed_run
        metrics, iterations, info = measure(args, run_fn, ref, work_root)
        n_checks, failures, digests = check_iterations(check_fn, iterations, args.seed,
                                                       args.size, ref)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    failures = [f for it in iterations for f in it.failures] + failures
    attempted = sum(it.calls for it in iterations) + n_checks
    for line in failures:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    info.update(workload=args.workload, seed=args.seed, size=args.size,
                error_rate=len(failures) / attempted, sha256=digests)
    print(json.dumps({"info": info}, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name:40s} {value:14.6f} {unit_of(name)}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": {name: {"value": value, "unit": unit_of(name)}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
