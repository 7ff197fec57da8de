"""Spans around the public functions of strength_init, for the traced run.

``Tracer.install`` replaces each traced function in every strength_init
module namespace that binds it. That is where callers look a function up
at call time (``run_manifest`` finds ``train`` in ``manifest``'s globals,
``train`` finds ``evaluate`` in ``training``'s), so every call goes through
a span. ``uninstall`` puts the originals back. No file of the package
changes.

A span has a name, a start, an end and the span that was open when it
started. A span's self time is its duration minus the durations of its
child spans. Counts of work (columns drawn, bytes read, samples seen) are
taken from each call's arguments and recorded next to its span.

tracemalloc slows every allocation, which would inflate the spans of the
per-column rewiring loop. So the traced calls run without it, and
``alloc_peaks`` repeats one call per distinct input shape and pass mode
afterwards with tracemalloc on.
"""

from __future__ import annotations

import os
import sys
import time
import tracemalloc
from collections import defaultdict

MIB = float(1 << 20)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rewire_columns(args, kwargs, result):
    """Columns drawn by pa_rewire: every column but the first, per pass."""
    rows, cols = _arg(args, kwargs, 0, "m").shape
    if rows == 1 or cols == 1:
        return 0
    passes = _arg(args, kwargs, 1, "cfg").passes
    return (cols - 1) + ((rows - 1) if passes == "bidirectional" else 0)


def _rewire_kind(args, kwargs):
    return _arg(args, kwargs, 0, "m").shape, _arg(args, kwargs, 1, "cfg").passes


def _saved_bytes(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 1, "path"))


def _loaded_bytes(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


def _init_weights(args, kwargs, result):
    spec = _arg(args, kwargs, 0, "spec")
    return spec.rows * spec.cols


def _train_samples(args, kwargs, result):
    return _arg(args, kwargs, 0, "cfg").epochs * _arg(args, kwargs, 1, "train_ds").n


def _evaluate_samples(args, kwargs, result):
    return _arg(args, kwargs, 2, "features").shape[0]


def _dataset_bytes(dataset_module):
    def count(args, kwargs, result):
        paths = dataset_module.dataset_paths(_arg(args, kwargs, 0, "data_dir"), _arg(args, kwargs, 1, "name"))
        return sum(os.path.getsize(p) for p in paths.values())

    return count


class Tracer:
    """Records spans and counts for the functions listed in ``_targets``."""

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self.alloc_peak: dict[str, float] = defaultdict(float)
        self.samples: dict[str, dict] = defaultdict(dict)  # name -> kind -> (fn, args, kwargs)
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _targets(self):
        """(module, function) -> (count name, counter, kind of call whose
        allocation peak is measured), with None where there is none."""
        return {
            ("rewiring", "pa_rewire"): ("columns", _rewire_columns, _rewire_kind),
            ("rewiring", "pa_rewire_conv"): (None, None, None),
            ("matrix_io", "save_matrix"): ("bytes", _saved_bytes, None),
            ("matrix_io", "load_matrix"): ("bytes", _loaded_bytes, None),
            ("initializers", "init"): ("weights", _init_weights, None),
            ("rng", "derive_stream"): (None, None, None),
            ("strength", "strength_stats"): (None, None, None),
            ("training", "train"): ("samples", _train_samples, None),
            ("training", "evaluate"): ("samples", _evaluate_samples, None),
            ("training", "build_layer_weights"): (None, None, None),
            ("dataset", "load_named_dataset"): ("bytes", _dataset_bytes(self.package.dataset), None),
            ("dataset", "split"): (None, None, None),
            ("stats", "compare"): (None, None, None),
            ("manifest", "run_manifest"): (None, None, None),
            ("manifest", "plot_export"): (None, None, None),
        }

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def install(self) -> None:
        prefix = self.package.__name__
        modules = [m for name, m in list(sys.modules.items()) if name == prefix or name.startswith(prefix + ".")]
        for (mod_name, fn_name), (count_name, counter, kind) in self._targets().items():
            original = getattr(getattr(self.package, mod_name), fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, count_name, counter, kind)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn, count_name, counter, kind):
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                self.counts[f"{name}.{count_name}"] += counter(args, kwargs, result)
            if kind is not None:
                self.samples[name].setdefault(kind(args, kwargs), (fn, args, kwargs))
            return result

        return traced

    def alloc_peaks(self) -> None:
        """Repeat one kept call of each kind under tracemalloc and record the
        largest peak. The repeat draws from the kept call's random stream,
        which its caller no longer uses, and its result is dropped."""
        for name, calls in self.samples.items():
            for fn, args, kwargs in calls.values():
                tracemalloc.start()
                try:
                    fn(*args, **kwargs)
                    peak = tracemalloc.get_traced_memory()[1] / MIB
                finally:
                    tracemalloc.stop()
                self.alloc_peak[name] = max(self.alloc_peak[name], peak)
        self.samples.clear()

    def totals(self) -> dict[str, float]:
        """Per traced function: calls, s (summed durations) and self_s, plus counts."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - child_s[i]
        out.update(self.counts)
        for name, peak in self.alloc_peak.items():
            out[f"{name}.alloc_peak_mb"] = peak
        return out
