"""In-memory span recorder around normkit's public functions.

Tracing lives entirely in the benchmark: each traced function is replaced,
in every normkit module that binds it (``normkit.generator.conv2d_forward``
and ``normkit.loss.conv2d_forward`` are two bindings of one function), by a
wrapper that records a span ``(name, start, end, parent, op)``. Spans stay in
memory until the run ends. Per-layer metrics are per op: ``.ms`` is
inclusive time, ``.self_ms`` is ``.ms`` minus the time covered by traced
children, ``.calls`` is the call count.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import sys
import time

# metric prefix -> (module, attribute path). Functions are patched wherever
# a normkit module binds them; methods are patched on their class.
TRACED = {
    "layers.conv2d_forward": ("normkit.layers", "conv2d_forward"),
    "layers.conv2d_backward": ("normkit.layers", "conv2d_backward"),
    "layers.upsample_nearest_forward": ("normkit.layers", "upsample_nearest_forward"),
    "layers.upsample_nearest_backward": ("normkit.layers", "upsample_nearest_backward"),
    "generator.forward": ("normkit.generator", "Generator.forward"),
    "generator.backward": ("normkit.generator", "Generator.backward"),
    "generator.set_parameters": ("normkit.generator", "Generator.set_parameters"),
    "norms.instance_norm_forward": ("normkit.norms", "instance_norm_forward"),
    "norms.instance_norm_backward": ("normkit.norms", "instance_norm_backward"),
    "norms.batch_norm_forward": ("normkit.norms", "batch_norm_forward"),
    "norms.batch_norm_backward": ("normkit.norms", "batch_norm_backward"),
    "tensor.reduce": ("normkit.tensor", "reduce"),
    "tensor.rng_normal": ("normkit.tensor", "RngStream.normal"),
    "loss.total_loss": ("normkit.loss", "total_loss"),
    "loss.extract_features": ("normkit.loss", "extract_features"),
    "loss.features_backward": ("normkit.loss", "features_backward"),
    "loss.gram": ("normkit.loss", "gram"),
    "loss.gram_backward": ("normkit.loss", "gram_backward"),
    "training.adam_step": ("normkit.training", "adam_step"),
    "weights.load_entries": ("normkit.weights", "load_entries"),
    "weights.save_entries": ("normkit.weights", "save_entries"),
    "imageio.read_ppm": ("normkit.imageio", "read_ppm"),
    "imageio.write_ppm": ("normkit.imageio", "write_ppm"),
    "imageio.image_to_tensor": ("normkit.imageio", "image_to_tensor"),
    "imageio.tensor_to_image": ("normkit.imageio", "tensor_to_image"),
}

# Named generator units reported as metrics, in network order (canonical
# config: 3 residual blocks). ReLU and sigmoid units are traced and shown in
# the table but not reported, to keep the per-layer list under 128.
UNITS = (
    "stem_conv", "down1_norm", "down1_conv", "down2_norm", "down2_conv",
    "res0", "res1", "res2",
    "up1_upsample", "up1_conv", "up1_norm",
    "up2_upsample", "up2_conv", "up2_norm", "head_conv",
)

COUNTERS = {
    "layers.conv.macs": "MAC/op",
    "layers.conv.cols_mb": "MB/op",
    "layers.conv.cache_used_ratio": "ratio",
}

# Calls each workload is predicted never to make (checked by the traced run).
PREDICTED_ZERO = {
    "stylize-in-256": (
        "layers.conv2d_backward", "loss.total_loss", "loss.extract_features",
        "loss.features_backward", "loss.gram", "loss.gram_backward", "training.adam_step",
    ),
    "train-bn-64": ("norms.instance_norm_forward", "norms.instance_norm_backward"),
}


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for name in TRACED:
        out += [(f"{name}.ms", "ms/op", "lower"), (f"{name}.self_ms", "ms/op", "lower"),
                (f"{name}.calls", "calls/op", "lower")]
    for unit in UNITS:
        out += [(f"generator.unit.{unit}.fwd_ms", "ms/op", "lower"),
                (f"generator.unit.{unit}.bwd_ms", "ms/op", "lower")]
    for name, unit in COUNTERS.items():
        out.append((name, unit, "higher" if name.endswith("ratio") else "lower"))
    out.append(("trace.overhead_ms", "ms", "lower"))
    return out


def held_bytes(obj, depth: int = 0) -> int:
    """Bytes of the numpy arrays reachable from a forward cache."""
    if hasattr(obj, "nbytes") and hasattr(obj, "dtype"):
        return int(obj.nbytes)
    if depth > 4 or obj is None:
        return 0
    if isinstance(obj, (list, tuple)):
        return sum(held_bytes(item, depth + 1) for item in obj)
    if dataclasses.is_dataclass(obj):
        return sum(held_bytes(getattr(obj, f.name), depth + 1) for f in dataclasses.fields(obj))
    return 0


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def _normkit_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "normkit" or name.startswith("normkit."))]


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *scope, attr = path.split(".")
    for part in scope:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, op]
        self._stack: list[int] = []
        self.op = None  # id of the op in progress; None outside timed ops
        self.ops = 0
        self.conv_macs = 0
        self.conv_cols_bytes = 0
        self.conv_forward = 0
        self.conv_backward = 0
        self.missing: list[str] = []

    def wrap(self, name, fn, post=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, tracer.op])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if post is not None and tracer.op is not None:
                post(args, result)
            return result

        return traced

    def _conv_forward(self, args, result):
        x, p = args[0], args[1]
        y, cache = result
        c_out, c_in, k, _ = p.weights.shape
        self.conv_macs += x.shape[0] * c_out * y.shape[2] * y.shape[3] * c_in * k * k
        self.conv_cols_bytes += held_bytes(cache)
        self.conv_forward += 1

    def _conv_backward(self, args, result):
        g, p = args[0], args[2]
        c_out, c_in, k, _ = p.weights.shape
        self.conv_macs += 2 * g.shape[0] * c_out * g.shape[2] * g.shape[3] * c_in * k * k
        self.conv_backward += 1

    def install(self, patches: Patches) -> None:
        """Wrap every traced function and every generator unit's forward/backward."""
        post = {"layers.conv2d_forward": self._conv_forward,
                "layers.conv2d_backward": self._conv_backward}
        for name, (module, path) in TRACED.items():
            try:
                owner, attr = _resolve(module, path)
                original = owner.__dict__[attr]
            except (AttributeError, KeyError, ImportError):
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, original, post.get(name))
            if "." in path:
                patches.set(owner, attr, wrapper)
                continue
            for mod in _normkit_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patches.set(mod, key, wrapper)
        generator = importlib.import_module("normkit.generator")
        for cls in vars(generator).values():
            if (isinstance(cls, type) and cls.__module__ == generator.__name__
                    and cls.__name__ != "Generator"
                    and callable(cls.__dict__.get("forward"))
                    and callable(cls.__dict__.get("backward"))):
                for method, suffix in (("forward", "fwd"), ("backward", "bwd")):
                    patches.set(cls, method, self._unit_wrapper(cls.__dict__[method], suffix))

    def _unit_wrapper(self, fn, suffix):
        wrappers = {}

        def unit_method(unit, *args, **kwargs):
            name = f"generator.unit.{getattr(unit, 'name', type(unit).__name__)}.{suffix}"
            wrapper = wrappers.get(name)
            if wrapper is None:
                wrapper = wrappers[name] = self.wrap(name, fn)
            return wrapper(unit, *args, **kwargs)

        return unit_method

    # -- aggregation -------------------------------------------------------

    def totals(self) -> dict[str, list[float]]:
        """name -> [inclusive s, self s, calls] summed over spans inside ops."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list[float]] = {}
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            if op is None:
                continue
            row = out.setdefault(name, [0.0, 0.0, 0])
            row[0] += end - start
            row[1] += end - start - child[i]
            row[2] += 1
        return out

    def metrics(self, overhead_ms: float) -> dict[str, tuple[float, str]]:
        ops = max(self.ops, 1)
        totals = self.totals()
        values = {}
        for name in TRACED:
            inc, own, calls = totals.get(name, (0.0, 0.0, 0))
            values[f"{name}.ms"] = 1e3 * inc / ops
            values[f"{name}.self_ms"] = 1e3 * own / ops
            values[f"{name}.calls"] = calls / ops
        for unit in UNITS:
            for suffix in ("fwd", "bwd"):
                values[f"generator.unit.{unit}.{suffix}_ms"] = (
                    1e3 * totals.get(f"generator.unit.{unit}.{suffix}", (0.0,))[0] / ops
                )
        values["layers.conv.macs"] = self.conv_macs / ops
        values["layers.conv.cols_mb"] = self.conv_cols_bytes / ops / 1e6  # repeats exactly
        values["layers.conv.cache_used_ratio"] = (
            self.conv_backward / self.conv_forward if self.conv_forward else 0.0
        )
        values["trace.overhead_ms"] = overhead_ms
        return {name: (values[name], unit) for name, unit, _ in per_layer_metrics()}

    def table(self, workload: str) -> str:
        """Per-op self-time table: generator units first, then every traced function."""
        ops = max(self.ops, 1)
        totals = self.totals()
        lines = [f"per-op times over {self.ops} traced ops ({workload})",
                 "", "| unit | fwd (ms) | bwd (ms) |", "| --- | --- | --- |"]
        order = [n[len("generator.unit."):-len(".fwd")] for n in totals
                 if n.startswith("generator.unit.") and n.endswith(".fwd") and n.count(".") == 3]
        for unit in order:
            fwd = totals.get(f"generator.unit.{unit}.fwd", (0.0,))[0]
            bwd = totals.get(f"generator.unit.{unit}.bwd", (0.0,))[0]
            lines.append(f"| `{unit}` | {1e3 * fwd / ops:.3f} | {1e3 * bwd / ops:.3f} |")
        lines += ["", "| function | self (ms) | incl (ms) | calls |", "| --- | --- | --- | --- |"]
        rows = sorted(((name, row) for name, row in totals.items() if name in TRACED),
                      key=lambda item: -item[1][1])
        for name, (inc, own, calls) in rows:
            lines.append(f"| `{name}` | {1e3 * own / ops:.3f} | {1e3 * inc / ops:.3f} "
                         f"| {calls / ops:g} |")
        if self.missing:
            lines.append(f"not found in normkit (reported as 0): {', '.join(self.missing)}")
        return "\n".join(lines)

    def predictions(self, workload: str) -> list[str]:
        """One line per predicted-zero call count, marked ok or differs."""
        totals = self.totals()
        lines = []
        for name in PREDICTED_ZERO.get(workload, ()):
            calls = totals.get(name, (0, 0, 0))[2]
            lines.append(f"prediction {name}.calls == 0: {'ok' if calls == 0 else 'differs'}"
                         f" ({calls / max(self.ops, 1):g})")
        if workload == "stylize-in-256":
            ratio = self.conv_backward / self.conv_forward if self.conv_forward else 0.0
            lines.append("prediction layers.conv.cache_used_ratio == 0: "
                         f"{'ok' if ratio == 0 else 'differs'} ({ratio:g})")
        return lines

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, fh)
