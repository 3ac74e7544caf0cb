"""Spans recorded around calls into rmapath, from outside the package.

The tracer replaces a module or class attribute with a wrapper that opens
a span on entry and closes it on exit. Each wrapper sits under the name
its caller looks the function up by (``rmapath.cli.read_dataset_csv`` is
what ``cli.main`` calls), so the package itself is not modified. A target
that no longer exists marks its layer absent; it is not an error.

Spans are kept in memory as parallel lists and written out at the end.
A span's self time is its duration minus the durations of its direct
children: spans nest strictly, so the children cover disjoint intervals.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import types
from time import perf_counter

# (module, attribute path, layer). Benchmark code calls the library
# through the ``rmapath`` package namespace; the package's own modules call
# each other through the names they import.
TARGETS = (
    ("rmapath", "generate_3gpp_dataset", "simulate.generate_3gpp_dataset"),
    ("rmapath", "fit_ci_arrays", "fitting.fit_ci_arrays"),
    ("rmapath", "validate_applicability", "models.validate_applicability"),
    ("rmapath", "distance_3d", "models.distance_3d"),
    ("rmapath", "rma_los", "models.rma_los"),
    ("rmapath", "rma_nlos", "models.rma_nlos"),
    ("rmapath", "ci_pathloss", "models.ci_pathloss"),
    ("rmapath", "max_range", "campaign.max_range"),
    ("rmapath.cli", "build_parser", "cli.build_parser"),
    ("rmapath.cli", "generate_3gpp_dataset", "simulate.generate_3gpp_dataset"),
    ("rmapath.cli", "read_dataset_csv", "simulate.read_dataset_csv"),
    ("rmapath.cli", "fit_ci", "fitting.fit_ci"),
    ("rmapath.cli", "load_campaign_csv", "campaign.load_campaign_csv"),
    ("rmapath.cli", "records_to_samples", "campaign.records_to_samples"),
    ("rmapath.cli", "breakpoint_distance", "models.breakpoint_distance"),
    ("rmapath.simulate", "SimulatedDataset.write_csv", "simulate.write_csv"),
    ("rmapath.simulate", "distance_3d", "models.distance_3d"),
    ("rmapath.simulate", "breakpoint_distance", "models.breakpoint_distance"),
    ("rmapath.fitting", "fit_ci_arrays", "fitting.fit_ci_arrays"),
    ("rmapath.campaign", "distance_3d", "models.distance_3d"),
    ("rmapath.models", "breakpoint_distance", "models.breakpoint_distance"),
)


def _resolve(module_name: str, path: str):
    """(owner, attribute name, original static value) or None when absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = owner.__dict__.get(name)
    if not isinstance(original, types.FunctionType):
        return None
    return owner, name, original


class Tracer:
    """Records spans for the calls made while it is installed."""

    def __init__(self, targets=TARGETS):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.op_ids: list[int] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._patches = []
        present, layers = set(), set()
        for module_name, path, layer in targets:
            layers.add(layer)
            resolved = _resolve(module_name, path)
            if resolved is not None:
                present.add(layer)
                owner, name, original = resolved
                self._patches.append((owner, name, original,
                                      self._wrap(layer, original)))
        self.absent_layers = sorted(layers - present)
        self.installed = False

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.op_ids.append(self.op_id)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._stack.pop()

    def _wrap(self, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer._open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index)

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by benchmark code; a no-op while not installed."""
        if not self.installed:
            yield
            return
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    @contextlib.contextmanager
    def tracing(self, op_id: int):
        """Install every wrapper for the duration of one operation."""
        self.op_id = op_id
        for owner, name, _original, wrapper in self._patches:
            setattr(owner, name, wrapper)
        self.installed = True
        try:
            with self.span("op"):
                yield
        finally:
            self.installed = False
            for owner, name, original, _wrapper in self._patches:
                setattr(owner, name, original)

    def layers(self) -> dict[str, dict]:
        """Per-layer totals: calls, self and inclusive seconds, time in children.

        ``op_calls`` counts only the calls made inside numbered operations
        (op >= 0), leaving out one-off traced work such as a single curve.
        """
        count = len(self.names)
        child = [0.0] * count
        table: dict[str, dict] = {}
        for i in range(count):
            row = table.setdefault(self.names[i], {"calls": 0, "op_calls": 0, "self_s": 0.0,
                                                   "total_s": 0.0, "children_s": {}})
            parent = self.parents[i]
            if parent >= 0:
                duration = self.ends[i] - self.starts[i]
                child[parent] += duration
                under = table[self.names[parent]]["children_s"]
                under[self.names[i]] = under.get(self.names[i], 0.0) + duration
        for i in range(count):
            duration = self.ends[i] - self.starts[i]
            row = table[self.names[i]]
            row["calls"] += 1
            row["op_calls"] += self.op_ids[i] >= 0
            row["self_s"] += duration - child[i]
            row["total_s"] += duration
        return table

    def write(self, path) -> None:
        """Write every span as gzipped CSV: name, start/end µs, parent, op."""
        origin = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("span,name,start_us,end_us,parent,op\n")
            for i, name in enumerate(self.names):
                f.write(f"{i},{name},{(self.starts[i] - origin) * 1e6:.3f},"
                        f"{(self.ends[i] - origin) * 1e6:.3f},"
                        f"{self.parents[i]},{self.op_ids[i]}\n")
