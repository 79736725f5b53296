"""Command-line surface: train, stylize, compare-norms, gradcheck.

Exit codes: 0 success, 1 check failure, 2 usage error, 3 input error,
4 divergence. Every command is deterministic given its flags; rerunning
one produces byte-identical output files.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace
from math import isfinite


def _apply_thread_cap():
    """Honor NORMKIT_THREADS before numpy binds its thread pools.

    The cap overrides BLAS variables already set. Capping threads never changes
    results (each output element keeps its own accumulation order).
    """
    cap = os.environ.get("NORMKIT_THREADS")
    if cap:
        blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
        os.environ.update(dict.fromkeys(blas, cap))


_apply_thread_cap()

# numpy loads with these imports, so they all follow the cap
from .errors import Diverged, InputError, InvalidArgument, NormkitError  # noqa: E402
from .generator import NORM_MODES, Generator  # noqa: E402
from .gradcheck import gradcheck  # noqa: E402
from .imageio import read_ppm, write_ppm  # noqa: E402
from .layers import PADDING_MODES  # noqa: E402
from .tensor import RngStream  # noqa: E402
from .training import STREAM_NOISE, TrainConfig, serialize_report, train  # noqa: E402

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_DIVERGED = 4


def _add_train_flags(parser, with_out=True):
    # parsers built with argument_default=SUPPRESS: an omitted flag leaves no
    # attribute, so TrainConfig's field defaults are the only defaults
    parser.add_argument("--style", required=True, help="style image (binary PPM)")
    parser.add_argument("--content-dir", required=True, help="directory of content PPMs")
    if with_out:
        parser.add_argument("--out", required=True, help="output weight file; log goes to <out>.log")
    parser.add_argument("--norm", dest="norm_mode", choices=NORM_MODES)
    parser.add_argument("--padding", dest="padding_mode", choices=PADDING_MODES)
    parser.add_argument("--steps", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--batch-size", type=int)
    parser.add_argument("--lr", dest="learning_rate", type=float)
    parser.add_argument("--alpha", type=float, help="content loss weight")
    parser.add_argument("--beta", type=float, help="style loss weight")
    parser.add_argument("--base-channels", type=int)
    parser.add_argument("--residual-blocks", type=int)
    parser.add_argument("--noise-channels", type=int)
    parser.add_argument("--affine", action="store_true", help="learnable scale/shift after norms")
    parser.add_argument("--extractor-seed", type=int)
    parser.add_argument("--extractor-weights", help="load loss features from a weight file")


def _content_paths(directory):
    try:
        names = sorted(n for n in os.listdir(directory) if n.lower().endswith(".ppm"))
    except OSError as exc:
        raise InputError(f"cannot list content dir {directory!r}: {exc}")
    if not names:
        raise InputError(f"no .ppm files in content dir {directory!r}")
    return [os.path.join(directory, n) for n in names]


def _train_config(args, dataset):
    names = {f.name for f in fields(TrainConfig)}
    return TrainConfig(dataset=dataset, **{k: v for k, v in vars(args).items() if k in names})


def cmd_train(parser, args) -> int:
    if args.log_every < 1:
        parser.error(f"--log-every must be >= 1, got {args.log_every}")
    config = _train_config(args, _content_paths(args.content_dir))
    # fail before training, not after the last step
    if os.path.isdir(args.out):
        raise InputError(f"--out {args.out!r} is a directory")
    if not os.path.isdir(os.path.dirname(args.out) or "."):
        raise InputError(f"the directory of --out {args.out!r} does not exist")
    generator, report = train(config)
    for i, value in enumerate(report.losses, 1):
        if i == 1 or i == len(report.losses) or i % args.log_every == 0:
            print(f"step {i} loss {value!r}")
    generator.save(args.out)
    with open(args.out + ".log", "w") as fh:
        fh.write(serialize_report(report))
    print(f"wrote {args.out} and {args.out}.log", file=sys.stderr)
    print(f"trained {config.steps} steps in {report.wall_time:.1f}s", file=sys.stderr)
    return EXIT_OK


def _stylize_tensor(generator, content, seed):
    t_count, _, w, h = content.shape
    nz = generator.config.noise_channels
    z = RngStream(seed, STREAM_NOISE).normal((t_count, nz, w, h)) if nz > 0 else None
    # eval: batch norm uses its running statistics; the other modes ignore it
    y, _ = generator.forward(content, z, mode="eval")
    return y


def cmd_stylize(parser, args) -> int:
    generator = Generator.load(args.weights)
    y = _stylize_tensor(generator, read_ppm(args.input), args.seed)
    write_ppm(args.output, y)
    print(f"wrote {args.output}", file=sys.stderr)
    return EXIT_OK


def cmd_compare_norms(parser, args) -> int:
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip() != ""]
    except ValueError:
        parser.error(f"--seeds must be a comma-separated list of integers, got {args.seeds!r}")
    if not seeds:
        parser.error("--seeds must name at least one seed")
    if len(set(seeds)) != len(seeds):
        parser.error(f"--seeds must not repeat a seed, got {args.seeds!r}")

    paths = _content_paths(args.content_dir)
    if len(paths) < 2:
        raise InputError("compare-norms needs >= 2 content images (one is held out)")
    if os.path.realpath(args.style) in map(os.path.realpath, paths):
        raise InputError(f"--style {args.style!r} is also a content image")
    train_paths, held_out = paths[:-1], paths[-1]
    held = read_ppm(held_out)
    if held.shape[2] % 4 or held.shape[3] % 4:
        raise InputError(
            f"held-out image {held_out!r} is {held.shape[2]}x{held.shape[3]}; "
            "dimensions must be divisible by 4"
        )
    # a bad flag must fail before any output exists
    base_config = _train_config(args, train_paths)

    os.makedirs(args.out_dir, exist_ok=True)
    rows = []
    for seed in seeds:
        finals = {}
        for mode in ("batch", "instance"):
            config = replace(base_config, seed=seed, norm_mode=mode)
            generator, report = train(config)
            with open(os.path.join(args.out_dir, f"seed{seed}_{mode}.log"), "w") as fh:
                fh.write(serialize_report(report))
            styled = _stylize_tensor(generator, held, seed)
            write_ppm(os.path.join(args.out_dir, f"seed{seed}_{mode}.ppm"), styled)
            finals[mode] = report.losses[-1]
        rows.append((seed, finals["batch"], finals["instance"]))
        print(
            f"seed {seed} batch {finals['batch']!r} instance {finals['instance']!r}"
        )

    summary = ["seed batch_final instance_final ratio_instance_over_batch"]
    for seed, bn, inn in rows:
        summary.append(f"{seed} {bn!r} {inn!r} {inn / bn!r}")
    with open(os.path.join(args.out_dir, "summary.txt"), "w") as fh:
        fh.write("\n".join(summary) + "\n")
    print(f"wrote {args.out_dir}/summary.txt", file=sys.stderr)
    return EXIT_OK


def cmd_gradcheck(parser, args) -> int:
    if not isfinite(args.tol):
        raise InvalidArgument(f"--tol must be finite, got {args.tol}")
    report = gradcheck(args.subject, h=args.h)
    failed = False
    for name, err in report.items():
        ok = err < args.tol
        failed = failed or not ok
        print(f"{name} max_rel_err {err:.3e} {'PASS' if ok else 'FAIL'}")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normkit",
        description="Feed-forward stylization toolkit with swappable normalization layers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser(
        "train", help="train a stylization generator", argument_default=argparse.SUPPRESS
    )
    _add_train_flags(p_train)
    p_train.add_argument("--log-every", type=int, default=10, help="print every n-th step's loss")

    p_sty = sub.add_parser("stylize", help="apply trained weights to an image")
    p_sty.add_argument("--weights", required=True)
    p_sty.add_argument("--input", required=True)
    p_sty.add_argument("--output", required=True)
    p_sty.add_argument("--seed", type=int, default=0)

    p_cmp = sub.add_parser(
        "compare-norms",
        help="train batch-norm and instance-norm generators from identical initializations",
        argument_default=argparse.SUPPRESS,
    )
    _add_train_flags(p_cmp, with_out=False)
    p_cmp.add_argument("--out-dir", required=True)
    p_cmp.add_argument("--seeds", required=True, help="comma-separated seeds, e.g. 1,2,3")

    p_gc = sub.add_parser("gradcheck", help="finite-difference audit of every backward pass")
    p_gc.add_argument("--subject", default="all")
    p_gc.add_argument("--tol", type=float, default=1e-4)
    p_gc.add_argument("--h", type=float, default=1e-5)
    return parser


_HANDLERS = {
    "train": cmd_train,
    "stylize": cmd_stylize,
    "compare-norms": cmd_compare_norms,
    "gradcheck": cmd_gradcheck,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](parser, args)
    # a size flag too large to allocate is an input error, not a failed check
    except (NormkitError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, Diverged):
            return EXIT_DIVERGED
        return EXIT_USAGE if isinstance(exc, InvalidArgument) else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
