"""Span recording around the public functions the ``pathqrng`` CLI calls.

The tracer replaces module attributes with wrappers, so the program itself
is not changed: ``pathqrng.cli`` looks its collaborators up by name at call
time, and ``pathqrng.chip`` does the same for ``mzi_matrix``.  Spans live in
memory as ``[name, start, end, parent_index]`` lists and are written out
once, after the run.  Counters are read from arguments and return values
after the wrapped call has returned; the time that takes is recorded as a
``trace.count`` span so it is subtracted from the caller's self time
instead of inflating it.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

import numpy as np

COUNT_SPAN = "trace.count"


# ---------------------------------------------------------------------------
# counters, read outside the package from arguments and return values
# ---------------------------------------------------------------------------

def _spectrum_nodes(c, args, kwargs, result):
    c["chip.spectrum_nodes"] += len(args[0].spectrum.nodes)


def _quads(c, args, kwargs, result):
    grid = args[0]
    n_phi, n_theta = len(grid.phi_values), len(grid.theta_values)
    c["bell.quads"] += n_phi * (n_phi - 1) // 2 * (n_theta * (n_theta - 1) // 2)


def _correction(c, args, kwargs, result):
    c["certify.starts"] += result.starts
    c["certify.probes"] += result.probes
    c["certify.converged"] += bool(result.converged)


def _records(c, args, kwargs, result):
    c["events.records"] += len(result)


def _resolve(c, args, kwargs, result):
    stream = args[0]
    bins = np.asarray(stream.timestamps_ns) // stream.bin_width_ns
    first = np.flatnonzero(np.r_[True, np.diff(bins) > 0])
    sizes = np.diff(np.r_[first, bins.size])
    c["events.multi_click_bins"] += int(np.count_nonzero(sizes > 1))
    c["_resolve.records"] += bins.size
    c["_resolve.outcomes"] += len(result)


def _extract(c, args, kwargs, result):
    c["_extract.raw_bits"] += len(args[0])
    c["events.extracted_bits"] += len(result)


def _bytes_written(c, args, kwargs, result):
    c["cli.event_bytes_written"] += os.path.getsize(args[1])


def _bytes_read(c, args, kwargs, result):
    c["cli.event_bytes_read"] += os.path.getsize(args[0])


# (module, attribute, span name, counter).  Every entry reports ``.calls``
# and ``.self_s``; ``cli.main`` is named per subcommand instead.
HOOKS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("pathqrng.cli", "broadband_probabilities", "chip.broadband_probabilities", _spectrum_nodes),
    ("pathqrng.chip", "mzi_matrix", "optics.mzi_matrix", None),
    ("pathqrng.cli", "best_combination_search", "bell.best_combination_search", _quads),
    ("pathqrng.cli", "e_chi", "certify.e_chi", _correction),
    ("pathqrng.cli", "e_p", "certify.e_p", _correction),
    ("pathqrng.cli", "simulate_events", "events.simulate_events", _records),
    ("pathqrng.cli", "bin_and_resolve", "events.bin_and_resolve", _resolve),
    ("pathqrng.cli", "raw_bits", "events.raw_bits", None),
    ("pathqrng.cli", "toeplitz_extract", "events.toeplitz_extract", _extract),
    ("pathqrng.cli", "windowed_traces", "events.windowed_traces", None),
    ("pathqrng.cli", "write_event_file", "cli.write_event_file", _bytes_written),
    ("pathqrng.cli", "read_event_file", "cli.read_event_file", _bytes_read),
    ("pathqrng.cli", "write_grid_file", "cli.write_grid_file", None),
)
SUBCOMMANDS = ("simulate", "bell-scan", "certify", "extract", "analyze")
COUNTERS = ("chip.spectrum_nodes", "bell.quads", "certify.starts", "certify.probes",
            "certify.converged", "events.records", "events.multi_click_bins",
            "events.extracted_bits", "cli.event_bytes_written", "cli.event_bytes_read")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    ``spans`` holds ``[name, start, end, parent_index]`` entries with
    ``parent_index`` -1 for a root.  Children are clipped to their parent's
    interval and overlapping children are merged before subtracting.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c0, c1 in sorted(children[i]):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append((end - start) - covered)
    return out


class Tracer:
    """Installs wrappers on :data:`HOOKS` and records spans and counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.count_errors = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: Callable[..., str] | str, fn: Callable,
              counter: Callable | None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            span = [name(args) if callable(name) else name, 0.0, 0.0, parent]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                c0 = time.perf_counter()
                try:
                    counter(self.counts, args, kwargs, result)
                except (AttributeError, TypeError, ValueError, IndexError, OSError):
                    self.count_errors += 1
                spans.append([COUNT_SPAN, c0, time.perf_counter(), parent])
            return result

        return wrapper

    def install(self) -> None:
        def main_name(args) -> str:
            argv = args[0] if args else None
            return f"cli.main.{argv[0]}" if argv else "cli.main"

        for module_name, attr, span_name, counter in HOOKS + (
                ("pathqrng.cli", "main", main_name, None),):
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._installed.append((module, attr, fn))
            setattr(module, attr, self._wrap(span_name, fn, counter))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def layer_metrics(self) -> dict[str, float]:
        """``.calls`` and ``.self_s`` per hook, plus the counters."""
        out: dict[str, float] = {}
        for _, _, span_name, _ in HOOKS:
            out[f"{span_name}.calls"] = 0
            out[f"{span_name}.self_s"] = 0.0
        for sub in SUBCOMMANDS:
            out[f"cli.main.{sub}.self_s"] = 0.0
        for (name, *_), own in zip(self.spans, self_times(self.spans)):
            if name == COUNT_SPAN:
                continue
            if not name.startswith("cli.main."):
                out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + own
        c = self.counts
        for key in COUNTERS:
            out[key] = c[key]
        out["events.outcomes_per_record"] = (c["_resolve.outcomes"] / c["_resolve.records"]
                                             if c["_resolve.records"] else 0.0)
        out["events.extracted_per_raw_bit"] = (c["events.extracted_bits"] / c["_extract.raw_bits"]
                                               if c["_extract.raw_bits"] else 0.0)
        out["trace.spans"] = sum(1 for s in self.spans if s[0] != COUNT_SPAN)
        out["trace.missing_hooks"] = len(self.missing)
        out["trace.count_errors"] = self.count_errors
        return out

    def stage_s(self) -> dict[str, float]:
        """Traced wall time per subcommand, from the ``cli.main`` spans."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            if name.startswith("cli.main."):
                out[name[len("cli.main."):]] += end - start
        return dict(out)

    def write(self, path: Path) -> None:
        """Write the spans as one JSON object per line, times relative to the first."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start_s": start - t0, "end_s": end - t0,
                                     "parent": parent}) + "\n")
