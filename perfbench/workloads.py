"""The benchmark's workloads: seeded inputs, closed-loop timed ops, output checks.

Every workload reaches normkit only through public entry points: training
calls ``normkit.training.train(TrainConfig)`` and stylizing calls
``normkit.cli.main(["stylize", ...])`` in-process. One caller runs one op at
a time; the next op starts only when the previous one has returned.

A train op is one training step. Its latency is the interval between two
consecutive entries into ``Generator.forward`` (the last step of a call ends
when ``train`` returns), so it covers forward, loss, backward, the Adam step
and the next batch's noise draw. A stylize op is one ``normkit stylize`` call,
weight load and PPM output included.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import statistics
import time
from dataclasses import dataclass, field, replace

import numpy as np

from tracing import Patches

CONTENT_IMAGES = 4
STYLIZE_POOL = 4
FINAL_WINDOW = 10  # loss.final = mean loss over this many closing steps
SHORT_REPEAT_STEPS = 3


@dataclass(frozen=True)
class Spec:
    kind: str  # "train" or "stylize"
    size: int
    norm_mode: str = "instance"
    padding_mode: str = "reflect"
    steps: int = 0  # steps per train() call; fixed so loss.final is deterministic


SPECS = {
    "train-in-32": Spec("train", 32, "instance", "reflect", steps=60),
    "train-bn-64": Spec("train", 64, "batch", "zero", steps=20),
    "stylize-in-256": Spec("stylize", 256),
}


@dataclass
class Outcome:
    """Ops attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, ops: int, error: str | None) -> None:
        self.attempted += ops
        if error is not None:
            self.failed += ops
            if len(self.errors) < 20:
                self.errors.append(error)


# -- seeded inputs ---------------------------------------------------------------


def smooth_image(rng: np.random.Generator, size: int, gain: float, offset: float) -> np.ndarray:
    """(size, size, 3) uint8 image: blurred noise rescaled to gain * x + offset."""
    x = rng.random((size, size, 3))
    for _ in range(3):
        x = 0.5 * x + 0.25 * np.roll(x, 1, axis=0) + 0.25 * np.roll(x, 1, axis=1)
    x = (x - x.min()) / (x.max() - x.min())
    return np.rint(np.clip(gain * x + offset, 0.0, 1.0) * 255.0).astype(np.uint8)


def write_ppm(path: str, pixels: np.ndarray) -> None:
    height, width, _ = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


def ppm_dims(blob: bytes) -> tuple[int, int]:
    """(width, height) from a P6 header as normkit writes it."""
    magic, width, height, maxval = blob.split(maxsplit=4)[:4]
    if magic != b"P6" or maxval != b"255":
        raise ValueError(f"not a P6/255 header: {blob[:20]!r}")
    return int(width), int(height)


def make_dataset(rng: np.random.Generator, directory: str, size: int) -> tuple[str, list[str]]:
    """One style image and CONTENT_IMAGES content images whose brightness and contrast vary."""
    os.makedirs(directory, exist_ok=True)
    style = os.path.join(directory, "style.ppm")
    write_ppm(style, smooth_image(rng, size, 1.0, 0.0))
    content = []
    for i in range(CONTENT_IMAGES):
        gain = rng.uniform(0.3, 1.0)
        path = os.path.join(directory, f"content{i}.ppm")
        write_ppm(path, smooth_image(rng, size, gain, rng.uniform(0.0, 1.0 - gain)))
        content.append(path)
    return style, content


# -- train -----------------------------------------------------------------------


class TrainWorkload:
    def __init__(self, spec: Spec, seed: int, out_dir: str):
        from normkit.training import TrainConfig

        style, content = make_dataset(np.random.default_rng(seed), out_dir, spec.size)
        self.config = TrainConfig(
            style=style, dataset=content, seed=seed, steps=spec.steps, batch_size=4,
            norm_mode=spec.norm_mode, padding_mode=spec.padding_mode,
            base_channels=8, residual_blocks=3,
        )
        self.instances_per_op = self.config.batch_size
        self.outcome = Outcome()
        self.setup_samples: list[float] = []
        self.loss_final = None  # set by the first full-length call that passes its checks
        self._reference = None  # (checksum, losses) of the first full-length call
        self._stamps: list[float] = []
        self._tracer = None
        self._patches = Patches()

    def _hook(self) -> None:
        from normkit.generator import Generator

        forward = Generator.__dict__["forward"]
        stamps, clock, workload = self._stamps, time.perf_counter, self

        def step_boundary(*args, **kwargs):
            stamps.append(clock())
            tracer = workload._tracer
            if tracer is not None:
                tracer.op = tracer.ops
                tracer.ops += 1
            return forward(*args, **kwargs)

        self._patches.set(Generator, "forward", step_boundary)

    def _call(self, config):
        """One train() call: (set-up s, step latencies s, report or None, error or None)."""
        from normkit.training import train

        self._stamps.clear()
        started = time.perf_counter()
        report, error = None, None
        try:
            _, report = train(config)
        except Exception as exc:  # any failure of the op counts in error_rate
            error = f"{type(exc).__name__}: {exc}"
        ended = time.perf_counter()
        if self._tracer is not None:
            self._tracer.op = None
        stamps = self._stamps + [ended]
        setup_s = stamps[0] - started if len(stamps) > 1 else math.nan
        return setup_s, list(np.diff(stamps)), report, error

    def _check(self, config, report) -> str | None:
        losses = report.losses
        if len(losses) != config.steps:
            return f"{len(losses)} losses recorded for {config.steps} steps"
        if not all(math.isfinite(v) for v in losses):
            return "non-finite loss"
        if config.steps >= FINAL_WINDOW and not np.mean(losses[-FINAL_WINDOW:]) < losses[0]:
            return f"loss.final {np.mean(losses[-FINAL_WINDOW:])!r} not below step-1 loss {losses[0]!r}"
        return None

    def setup(self) -> None:
        """Run a short repeat of the config twice; the checksums must agree bitwise."""
        self._hook()
        short = replace(self.config, steps=SHORT_REPEAT_STEPS)
        checksums = []
        for _ in range(2):
            setup_s, _, report, error = self._call(short)
            self.setup_samples.append(setup_s)
            error = error or self._check(short, report)
            if error is None:
                checksums.append(report.param_checksum)
                if checksums[-1] != checksums[0]:
                    error = "short repeat gave a different param_checksum"
            self.outcome.record(short.steps, error)

    def attach(self, tracer) -> None:
        """Trace every later op; the tracer's wrappers sit inside the step boundary."""
        self._patches.restore()
        tracer.install(self._patches)
        self._hook()
        self._tracer = tracer

    def run(self, seconds: float) -> list[float]:
        """Repeat the fixed-length train() call until ``seconds`` have passed."""
        latencies: list[float] = []
        deadline = time.perf_counter() + seconds
        calls = 0
        while calls == 0 or time.perf_counter() < deadline:
            calls += 1
            setup_s, steps, report, error = self._call(self.config)
            self.setup_samples.append(setup_s)
            latencies += steps
            if error is None:
                error = self._check(self.config, report)
            if error is None:
                result = (report.param_checksum, report.losses)
                if self._reference is None:
                    self._reference = result
                    self.loss_final = float(np.mean(report.losses[-FINAL_WINDOW:]))
                elif result != self._reference:
                    error = "repeated config gave different losses or param_checksum"
            self.outcome.record(self.config.steps, error)
        return latencies

    def close(self) -> None:
        self._patches.restore()


# -- stylize ---------------------------------------------------------------------


class StylizeWorkload:
    WEIGHT_STEPS = 5  # a short instance-norm training run, saved as the weights

    def __init__(self, spec: Spec, seed: int, out_dir: str):
        from normkit.training import TrainConfig, train

        rng = np.random.default_rng(seed)
        style, content = make_dataset(rng, os.path.join(out_dir, "train"), 32)
        generator, _ = train(TrainConfig(style=style, dataset=content, seed=seed,
                                         steps=self.WEIGHT_STEPS, norm_mode="instance"))
        self.weights = os.path.join(out_dir, "generator.nrmk")
        generator.save(self.weights)
        self.pool = []
        for i in range(STYLIZE_POOL):
            path = os.path.join(out_dir, f"pool{i}.ppm")
            gain = rng.uniform(0.3, 1.0)
            write_ppm(path, smooth_image(rng, spec.size, gain, rng.uniform(0.0, 1.0 - gain)))
            # each pool image keeps one noise seed, so its output must repeat bytewise
            self.pool.append((path, os.path.join(out_dir, f"styled{i}.ppm"), seed * 100 + i,
                              (spec.size, spec.size)))
        self.instances_per_op = 1
        self.outcome = Outcome()
        self.setup_samples: list[float] = []
        self.loss_final = None  # stylize trains nothing
        self._reference: dict[int, bytes] = {}
        self._tracer = None
        self._patches = Patches()

    def _op(self, index: int) -> tuple[float, str | None]:
        from normkit.cli import main

        source, output, noise_seed, dims = self.pool[index]
        argv = ["stylize", "--weights", self.weights, "--input", source,
                "--output", output, "--seed", str(noise_seed)]
        messages = io.StringIO()
        tracer = self._tracer
        if tracer is not None:
            tracer.op = tracer.ops
            tracer.ops += 1
        started = time.perf_counter()
        try:
            with contextlib.redirect_stderr(messages):
                code = main(argv)
        except Exception as exc:  # any failure of the op counts in error_rate
            code, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - started
        if tracer is not None:
            tracer.op = None
        if code is None:
            return elapsed, error
        if code != 0:
            return elapsed, f"stylize exited {code}: {messages.getvalue().strip()}"
        try:
            with open(output, "rb") as fh:
                blob = fh.read()
            out_dims = ppm_dims(blob)
        except (OSError, ValueError) as exc:
            return elapsed, f"unreadable output: {exc}"
        if out_dims != dims:
            return elapsed, f"output dims {out_dims} != input dims {dims}"
        expected = self._reference.setdefault(index, blob)
        if blob != expected:
            return elapsed, f"pool image {index}: repeated (image, seed) gave different bytes"
        return elapsed, None

    def setup(self) -> None:
        """Warm up once per pool image; these outputs are the byte references."""
        for index in range(len(self.pool)):
            elapsed, error = self._op(index)
            self.setup_samples.append(elapsed)
            self.outcome.record(1, error)

    def attach(self, tracer) -> None:
        """Trace every later op."""
        tracer.install(self._patches)
        self._tracer = tracer

    def run(self, seconds: float) -> list[float]:
        latencies: list[float] = []
        deadline = time.perf_counter() + seconds
        while not latencies or time.perf_counter() < deadline:
            elapsed, error = self._op(len(latencies) % len(self.pool))
            latencies.append(elapsed)
            self.outcome.record(1, error)
        return latencies

    def close(self) -> None:
        self._patches.restore()


def make(name: str, seed: int, out_dir: str):
    spec = SPECS[name]
    cls = TrainWorkload if spec.kind == "train" else StylizeWorkload
    return cls(spec, seed, out_dir)


def latency_summary(latencies: list[float], instances_per_op: int) -> dict[str, float]:
    ms = np.asarray(latencies) * 1e3
    return {
        "latency_ms.p50": float(statistics.median(ms)),
        "latency_ms.p90": float(np.percentile(ms, 90)),
        "images_per_s": instances_per_op * len(ms) / (float(ms.sum()) / 1e3),
    }
