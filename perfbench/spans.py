"""Spans around the package's functions, recorded from outside the package.

`Tracer.installed()` replaces each function in `WRAPPED` by a wrapper that
records a span (name, start, end, parent span, operation id) and restores
the originals on exit.  A module-level function is replaced in every
``dirac_mfp`` module namespace that binds the same object, because modules
import each other's functions by name (``rescale`` binds ``snapshot``,
``value_on_support`` and ``free_boundaries``).  A name that no longer exists
is skipped and reported in `Tracer.absent`, so renames in the package do not
break the benchmark; the metrics that need it are then reported absent.

Spans are kept in memory; the worker writes them out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import threading
import time
from dataclasses import asdict, dataclass

# (layer, module, attribute path); the layer names the metric group
WRAPPED = (
    ("target.build", "dirac_mfp.target", "load_csv"),
    ("target.build", "dirac_mfp.target", "power_bump"),
    ("target.build", "dirac_mfp.target", "self_similar_terminal"),
    ("target.quantile", "dirac_mfp.target", "TerminalDensity.quantile"),
    ("solver.solve", "dirac_mfp.solver", "solve"),
    ("solver.linear", "dirac_mfp.solver", "solveh_banded"),
    ("solver.linear", "dirac_mfp.solver", "solve_banded"),
    ("solver.linear", "dirac_mfp.solver", "cg"),
    ("solver.energy", "dirac_mfp.solver", "_Workspace.energy"),
    ("fields.value", "dirac_mfp.fields", "value_on_support"),
    ("fields.snapshot", "dirac_mfp.fields", "snapshot"),
    ("fields.boundary", "dirac_mfp.fields", "free_boundaries"),
    ("rescale.series", "dirac_mfp.rescale", "build_series"),
    ("metrics.rates", "dirac_mfp.metrics", "rate_report"),
    ("metrics.wasserstein", "dirac_mfp.metrics", "wasserstein_maps"),
    ("cli.pipeline", "dirac_mfp.cli", "_run_pipeline"),
    ("cli.sweep", "dirac_mfp.cli", "cmd_sweep"),
    ("cli.write", "dirac_mfp.cli", "save_flow_csv"),
    ("cli.write", "dirac_mfp.fields", "save_snapshot_csv"),
    ("cli.write", "dirac_mfp.fields", "save_boundary_csv"),
    ("cli.write", "dirac_mfp.rescale", "save_series_csv"),
    ("cli.write", "dirac_mfp.metrics", "save_rate_report"),
    ("cli.read", "dirac_mfp.cli", "load_flow_csv"),
)

ROOT = "cli.main"  # the span of one operation, opened by the worker


@dataclass
class Span:
    id: int
    name: str          # layer
    func: str          # module:attribute
    start: float
    end: float
    parent: int | None
    op: int
    thread: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: dict[str, str] = {}   # "module:attribute" -> reason
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._op: int | None = None
        self._op_stack: list[int] = []

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, layer: str, func_name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            # a span opened in a pool thread hangs off the span that the
            # operation's own thread has open (it waits for the pool there)
            parent = stack[-1] if stack else tracer._op_stack[-1]
            sid = tracer._new_id()
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(sid, layer, func_name, start, end,
                                         parent, tracer._op,
                                         threading.get_ident()))
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper in `WRAPPED`; restore the originals after."""
        restore = []
        try:
            for layer, modname, attr in WRAPPED:
                func_name = f"{modname}:{attr}"
                try:
                    mod = importlib.import_module(modname)
                    owner_path, _, leaf = attr.rpartition(".")
                    owner = mod
                    for part in filter(None, owner_path.split(".")):
                        owner = getattr(owner, part)
                    orig = getattr(owner, leaf)
                except (ImportError, AttributeError) as exc:
                    self.absent[func_name] = f"{type(exc).__name__}: {exc}"
                    continue
                wrapped = self._wrap(layer, func_name, orig)
                if owner is mod:
                    targets = [m for name, m in list(sys.modules.items())
                               if m is not None and (name == "dirac_mfp"
                                                     or name.startswith("dirac_mfp."))]
                    for m in targets:
                        for name, val in list(vars(m).items()):
                            if val is orig:
                                setattr(m, name, wrapped)
                                restore.append((m, name, orig))
                else:
                    setattr(owner, leaf, wrapped)
                    restore.append((owner, leaf, orig))
            yield self
        finally:
            for owner, name, orig in reversed(restore):
                setattr(owner, name, orig)

    @contextlib.contextmanager
    def operation(self, op: int):
        """Open the root span of operation ``op``; wrappers record only
        inside it."""
        sid = self._new_id()
        self._op_stack = self._stack()
        self._op_stack.append(sid)
        self._op = op
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._op = None
            self._op_stack.pop()
            self.spans.append(Span(sid, ROOT, ROOT, start, end, None, op,
                                   threading.get_ident()))

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        kids = [(max(lo, s.start), min(hi, s.end))
                for lo, hi in children.get(s.id, ()) if hi > s.start and lo < s.end]
        out[s.id] = (s.end - s.start) - _union_length(kids)
    return out


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per layer: self time, inclusive time and call count of one operation."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        row = out.setdefault(s.name, {"self_s": 0.0, "incl_s": 0.0, "calls": 0})
        row["self_s"] += selfs[s.id]
        row["incl_s"] += s.end - s.start
        row["calls"] += 1
    return out
