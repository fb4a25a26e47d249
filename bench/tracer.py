"""Layer spans around calls into bellmeter's modules, recorded from outside the package.

Every public function of a layer module, and every public method of a class
the module defines, is replaced by a wrapper for the duration of a traced
call.  A function that another module imported by name (for example
``bellmeter.experiment.tensor``) is replaced under that name as well, because
that is the name its caller resolves at run time.

A span is recorded only where a call crosses into a layer from another layer
(or from the benchmark); calls within one layer pass straight through, so
their time is that layer's self time.  Spans are kept in memory and reduced to
per-layer numbers by :meth:`Tracer.summary`.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import importlib
import inspect
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = (
    "polarization",
    "twophoton",
    "analyzer",
    "experiment",
    "discriminator",
    "multimeter",
    "dataset",
    "cli",
)


def _freeze(value):
    """Hashable, content-based key of an analyzer argument."""
    if isinstance(value, np.ndarray):
        return ("ndarray", value.shape, value.dtype.str, value.tobytes())
    if value is None or isinstance(value, (enum.Enum, str, bytes, bool, int, float, complex)):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (type(value).__name__,) + tuple(
            _freeze(getattr(value, f.name)) for f in dataclasses.fields(value)
        )
    if isinstance(value, (tuple, list)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    return repr(value)


def _file_size(path: Path) -> int:
    try:
        return path.stat().st_size
    except OSError:
        return 0


def _dataset_bytes(path) -> int:
    """Size of a dataset file plus its '<file>.meta.json' sidecar."""
    path = Path(path)
    return _file_size(path) + _file_size(path.with_name(path.name + ".meta.json"))


class Tracer:
    """Installs layer wrappers into the imported bellmeter modules; use as a context manager."""

    def __init__(self):
        # (layer, qualified name, start, end, parent span index or -1)
        self.spans: list[tuple[str, str, float, float, int]] = []
        self._stack: list[tuple[str, int]] = []
        self._patches: list[tuple[object, str, object]] = []
        self.analyzer_inputs: set = set()
        self.plates: list = []
        self.sampled_configs: list = []
        self.read_paths: list = []
        self.written_paths: list = []

    # -- installation ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install(self) -> None:
        layers = {layer: importlib.import_module(f"bellmeter.{layer}") for layer in LAYERS}
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "bellmeter"]
        for layer, module in layers.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrapper = self._wrap(layer, name, obj)
                    for owner in modules:
                        for attr, value in list(vars(owner).items()):
                            if value is obj:
                                self._patch(owner, attr, wrapper)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._wrap_methods(layer, obj)

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _wrap_methods(self, layer: str, cls: type) -> None:
        for name, raw in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            qualname = f"{cls.__name__}.{name}"
            if isinstance(raw, staticmethod):
                self._patch(cls, name, staticmethod(self._wrap(layer, qualname, raw.__func__)))
            elif inspect.isfunction(raw):
                self._patch(cls, name, self._wrap(layer, qualname, raw))

    def _wrap(self, layer: str, name: str, fn):
        count = self._counter(name, fn)
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                if layer == "analyzer":
                    self.analyzer_inputs.add((name, _freeze(args), _freeze(kwargs)))
                index = len(spans)
                spans.append(None)
                parent = stack[-1][1] if stack else -1
                stack.append((layer, index))
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    spans[index] = (layer, name, start, end, parent)
            if count is not None:
                count(args, kwargs)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        """Work counter taken at one function on every call, nested ones included.

        It keeps one argument per call; dataset sizes are read in summary(),
        outside every span.
        """
        sinks = {
            "apply_plate": ("plate", self.plates),
            "simulate_counts": ("config", self.sampled_configs),
            "Dataset.read": ("path", self.read_paths),
            "Dataset.write": ("path", self.written_paths),
        }
        if name not in sinks:
            return None
        argument, sink = sinks[name]
        signature = inspect.signature(fn)
        return lambda args, kwargs: sink.append(signature.bind(*args, **kwargs).arguments[argument])

    # -- reduction ------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-layer calls and shares of self time, plus the work counters, for everything traced.

        A layer's self time is the time of its spans minus that of their child
        spans; it is reported as a share of the time of the root spans, so a
        layer that never runs reads 0 without reading as a measured time.
        """
        child_time = [0.0] * len(self.spans)
        root_time = 0.0
        for layer, name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
            else:
                root_time += end - start
        calls = dict.fromkeys(LAYERS, 0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        self_s.update({"Dataset.read": 0.0, "Dataset.write": 0.0})
        for (layer, name, start, end, parent), children in zip(self.spans, child_time):
            own = (end - start) - children
            calls[layer] += 1
            self_s[layer] += own
            if name in ("Dataset.read", "Dataset.write"):
                self_s[name] += own
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_frac"] = self_s[layer] / root_time
        out["analyzer.unique_input_ratio"] = (
            len(self.analyzer_inputs) / calls["analyzer"] if calls["analyzer"] else 0.0
        )
        out["experiment.periods"] = sum(config.repetitions for config in self.sampled_configs)
        out["polarization.plate_applications"] = len(self.plates)
        out["dataset.read_frac"] = self_s["Dataset.read"] / root_time
        out["dataset.write_frac"] = self_s["Dataset.write"] / root_time
        out["dataset.bytes_read"] = sum(_dataset_bytes(p) for p in self.read_paths)
        out["dataset.bytes_written"] = sum(_dataset_bytes(p) for p in self.written_paths)
        out["trace.call_s"] = root_time
        return out
