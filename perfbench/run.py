#!/usr/bin/env python3
"""normkit benchmark: closed-loop workloads, end-to-end metrics, a traced per-layer profile.

Run from the repository root; normkit is imported from ``src/`` of the same
checkout (there is nothing to build):

    python3 perfbench/run.py                  # every workload, end-to-end metrics
    python3 perfbench/run.py --trace 1        # every workload, per-layer profile
    python3 perfbench/run.py --quick          # every workload briefly, both modes,
                                              # plus the result-schema self-test
    python3 perfbench/run.py --workload train-in-32 --seed 3 --seconds 30 --trace 0

``--workload`` runs one workload in this process (``ru_maxrss`` is a
per-process high-water mark); without it every workload runs in a process of
its own, one after another. The last line of a single workload's standard
output is ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. Spans,
metadata and the full result go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# One BLAS thread: the 2-vCPU baseline lost nothing at 1 thread and was far
# less sensitive to a competing process than at 2.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NORMKIT_THREADS")
IMPORT_SAMPLES = 9

END_TO_END = {
    "latency_ms.p50": "ms",
    "latency_ms.p90": "ms",
    "images_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _import_normkit():
    """Import normkit from this checkout's src/, never from an installed copy."""
    if not (SRC / "normkit" / "__init__.py").is_file():
        raise SystemExit(f"error: no normkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import normkit

    if SRC not in Path(normkit.__file__).resolve().parents:
        raise SystemExit(f"error: imported normkit from {normkit.__file__}, not {SRC}")


def _import_seconds() -> list[float]:
    """Import time of normkit's entry modules, each in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import normkit.cli, normkit.training; print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                              text=True, check=True, timeout=60)
        samples.append(float(proc.stdout))
    return samples


def _blas_threads(np_module) -> int | None:
    """Thread count OpenBLAS reports, when the bundled library exposes it."""
    libs = glob.glob(os.path.join(os.path.dirname(np_module.__file__), "..", "numpy.libs",
                                  "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "normkit").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _reference_ms() -> float:
    """Time of a fixed GEMM loop: slow readings mark a run on a contended machine."""
    import numpy as np

    a, b = np.ones((256, 2304)), np.ones((2304, 64))
    started = time.perf_counter()
    for _ in range(50):
        a @ b
    return 1e3 * (time.perf_counter() - started)


def run_meta(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_set": BLAS_THREADS,
        "blas_threads": _blas_threads(np),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads
    from tracing import Tracer

    meta = run_meta(seed)
    meta["loadavg_1m_before"] = os.getloadavg()[0]
    meta["reference_gemm_ms_before"] = _reference_ms()
    import_s = _import_seconds()
    OUT.mkdir(exist_ok=True)
    workload = workloads.make(name, seed, str(OUT / f"{name}-seed{seed}"))
    tracer = Tracer() if trace else None
    try:
        workload.setup()
        plain = workload.run(seconds / 2 if trace else seconds)
        if tracer is not None:
            workload.attach(tracer)
            traced = workload.run(seconds / 2)
    finally:
        workload.close()
    meta["loadavg_1m_after"] = os.getloadavg()[0]
    meta["reference_gemm_ms_after"] = _reference_ms()

    setup_samples = [s for s in workload.setup_samples if not math.isnan(s)]
    e2e = workloads.latency_summary(plain, workload.instances_per_op)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e["setup_s"] = statistics.median(import_s) + statistics.median(setup_samples)
    outcome = workload.outcome
    extra = {
        "error_rate": (outcome.failed / outcome.attempted, "ratio"),
        "latency_samples": (len(plain), "count"),
        "import_s": (statistics.median(import_s), "s"),
        "program_setup_s": (statistics.median(setup_samples), "s"),
    }
    if workload.loss_final is not None:
        extra["loss.final"] = (workload.loss_final, "loss")

    print(f"workload {name} seed {seed} seconds {seconds:g} trace {int(trace)}")
    print("meta " + json.dumps(meta, sort_keys=True))
    for metric, value in e2e.items():
        print(f"{metric:<18} {value:>12.4f} {END_TO_END[metric]}")
    for metric, (value, unit) in extra.items():
        print(f"{metric:<18} {value:>12.6g} {unit}")
    if len(plain) < 100:
        print(f"note: {len(plain)} latency samples; latency_ms.p90 has fewer than 10 beyond it")
    for error in outcome.errors:
        print(f"error: {error}")

    if tracer is not None:
        traced_p50 = workloads.latency_summary(traced, workload.instances_per_op)["latency_ms.p50"]
        overhead = traced_p50 - e2e["latency_ms.p50"]
        metrics = tracer.metrics(overhead)
        print(f"trace.overhead_ms  {overhead:>12.4f} ms (traced minus untraced latency_ms.p50)")
        print(tracer.table(name))
        for line in tracer.predictions(name):
            print(line)
        tracer.dump(str(OUT / f"spans-{name}-seed{seed}.json"))
    else:
        metrics = {metric: (value, END_TO_END[metric]) for metric, value in e2e.items()}

    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in metrics.items()},
    }
    with open(OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump({"meta": meta, "result": result, "end_to_end": e2e,
                   "extra": {k: v for k, (v, _) in extra.items()}}, fh, indent=1)
    print(json.dumps(result))
    return 0


def check_schema(result: dict, trace: bool, benchmark: dict) -> list[str]:
    """Problems with one result line: keys, counts, and every declared metric
    present with its declared unit and a finite value."""
    from tracing import per_layer_metrics

    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys are {sorted(result)}"]
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    attempted, failed = result["attempted"], result["failed"]
    if type(attempted) is not int or type(failed) is not int or not 0 <= failed <= attempted \
            or attempted < 1:
        problems.append(f"attempted {attempted!r} and failed {failed!r} are not counts")
    declared = {m["name"]: m["unit"] for m in benchmark["per_layer" if trace else "end_to_end"]}
    ours = ({name: unit for name, unit, _ in per_layer_metrics()} if trace else END_TO_END)
    if declared != ours:
        problems.append("BENCHMARK.json metrics differ from the ones perfbench reports")
    metrics = result["metrics"]
    for name in sorted(set(declared) - set(metrics)):
        problems.append(f"missing metric {name}")
    for name in sorted(set(metrics) - set(declared)):
        problems.append(f"undeclared metric {name}")
    for name, entry in metrics.items():
        value = entry.get("value") if isinstance(entry, dict) else None
        if not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            problems.append(f"{name}: entry is {entry!r}")
        elif name in declared and entry["unit"] != declared[name]:
            problems.append(f"{name}: unit {entry['unit']!r}, declared {declared[name]!r}")
        elif type(value) not in (int, float) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
    return problems


def run_all(seed: int, seconds: float, traces: tuple[int, ...]) -> int:
    """Every workload in its own process, then a summary and the schema self-test."""
    import workloads

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems, results = [], {}
    for trace in traces:
        for name in workloads.SPECS:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", f"{seconds:g}", "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
            sys.stdout.write(proc.stdout + "\n")
            if proc.returncode != 0:
                sys.stdout.write(proc.stderr)
                problems.append(f"{name} trace {trace}: exit code {proc.returncode}")
                continue
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                problems.append(f"{name} trace {trace}: last line is not a JSON result")
                continue
            results[name, trace] = result
            if not result["correct"]:
                problems.append(f"{name} trace {trace}: {result['failed']} of "
                                f"{result['attempted']} ops failed")
            problems += [f"{name} trace {trace}: {p}"
                         for p in check_schema(result, bool(trace), benchmark)]

    names = [name for name in workloads.SPECS if (name, 0) in results]
    if names:
        print("| metric | unit | " + " | ".join(names) + " |")
        print("| --- | --- |" + " --- |" * len(names))
        for metric, unit in END_TO_END.items():
            cells = [f"{results[name, 0]['metrics'][metric]['value']:.4g}" for name in names]
            print(f"| {metric} | {unit} | " + " | ".join(cells) + " |")
        rates = [f"{results[name, 0]['failed']}/{results[name, 0]['attempted']}" for name in names]
        print("| error_rate | failed/attempted | " + " | ".join(rates) + " |")
    for problem in problems:
        print(f"problem: {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=1, help="seed of the generated inputs")
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"],
                        help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--quick", action="store_true",
                        help="1 s runs; without --workload, every workload in both modes")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    _import_normkit()
    import workloads

    seconds = 1.0 if args.quick else args.seconds
    if args.workload is None:
        return run_all(args.seed, seconds, (0, 1) if args.quick else (args.trace,))
    if args.workload not in workloads.SPECS:
        parser.error(f"--workload must be one of {', '.join(workloads.SPECS)}")
    return run_workload(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
