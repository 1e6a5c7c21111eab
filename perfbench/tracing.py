"""Span tracing at the dctapprox module boundaries, from the benchmark's side.

`Tracer.install` replaces each public function named in `BOUNDARIES` with a
timing wrapper, in every ``dctapprox`` module that holds a reference to it
(so calls between modules and calls inside the defining module are both
seen).  Spans are kept in memory as ``(name, start, end, parent, op)``
tuples and written out by `write_spans` when the run ends; `uninstall` puts
every original function back.  Spans are recorded only while an operation
is open (`begin_op` .. `end_op`), so reference checks made between
operations leave no trace.
"""

from __future__ import annotations

import gzip
import importlib
import os
import sys
import time

# (module, function, span name); the span name is "<layer>.<function>".
BOUNDARIES = (
    ("search", "run_search", "search.run_search"),
    ("search", "all_candidates_doubled", "search.enumerate"),
    ("search", "feasible_mask", "search.feasible_mask"),
    ("search", "pareto_front", "search.pareto"),
    ("metrics", "evaluate", "metrics.evaluate"),
    ("metrics", "evaluate_matrix", "metrics.evaluate_matrix"),
    ("core", "is_feasible", "core.is_feasible"),
    ("core", "orthonormal_approx", "core.orthonormal_approx"),
    ("kernel", "complexity", "kernel.complexity"),
    ("scaling", "build_scaled", "scaling.build_scaled"),
    ("codec", "retention_sweep", "codec.retention_sweep"),
    ("codec", "compress_image", "codec.compress_image"),
    ("codec", "ssim", "codec.ssim"),
    ("codec", "psnr", "codec.psnr"),
    ("pgm", "read_pgm", "pgm.read_pgm"),
    ("pgm", "write_pgm", "pgm.write_pgm"),
    ("cli", "main", "cli.main"),
)


def _file_size(args, kwargs) -> int:
    path = args[0] if args else kwargs["path"]
    return os.path.getsize(path)


# Extra per-span quantity, computed after the span has ended.
_SPAN_VALUE = {"pgm.read_pgm": _file_size}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.values: dict[int, float] = {}
        self._stack: list[int] = []
        self._op: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    # --- operations ---------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op = op_id

    def end_op(self) -> None:
        self._op = None
        self._stack.clear()

    # --- wrappers -----------------------------------------------------------

    def _wrap(self, func, name):
        value_of = _SPAN_VALUE.get(name)

        def traced(*args, **kwargs):
            if self._op is None:
                return func(*args, **kwargs)
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self._op)
                if value_of is not None:
                    self.values[idx] = value_of(args, kwargs)

        traced.__wrapped__ = func
        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for mod_name, _, _ in BOUNDARIES:
            importlib.import_module(f"dctapprox.{mod_name}")
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "dctapprox" or k.startswith("dctapprox."))]
        for mod_name, func_name, span_name in BOUNDARIES:
            original = getattr(sys.modules[f"dctapprox.{mod_name}"], func_name)
            wrapper = self._wrap(original, span_name)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        leftover = [
            (mod.__name__, attr) for mod, attr, original in self._patched
            if getattr(mod, attr) is not original
        ]
        self._patched.clear()
        if leftover:
            raise RuntimeError(f"trace wrappers left installed: {leftover}")

    # --- results ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its direct children cover
        (children of one span run one after another, never overlapping)."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", encoding="ascii") as f:
            f.write("name,start_s,end_s,parent,op\n")
            for name, start, end, parent, op in self.spans:
                f.write(f"{name},{start!r},{end!r},{'' if parent is None else parent},{op}\n")
