import os
import struct
from pathlib import Path

import numpy as np
import pytest
from helpers import flip_bit, make_fixture_image, write_fixture

from normkit.cli import main
from normkit.generator import Generator
from normkit.imageio import read_ppm, write_ppm


def run_cli(*argv):
    try:
        return main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        return exc.code


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli_fixture")
    paths, style = write_fixture(str(directory))
    return str(directory), paths, style


TINY = ["--steps", "3", "--batch-size", "2", "--base-channels", "4", "--residual-blocks", "1"]


@pytest.fixture(scope="module")
def weights(dataset, tmp_path_factory):
    directory, _, style = dataset
    out = str(tmp_path_factory.mktemp("w") / "gen.nrmk")
    assert run_cli("train", "--style", style, "--content-dir", directory,
                   "--out", out, *TINY) == 0
    return out


class TestUsageErrors:
    def test_missing_style_flag(self, tmp_path):
        assert run_cli("train", "--content-dir", str(tmp_path), "--out", "w") == 2

    def test_zero_steps(self, dataset, tmp_path):
        directory, _, style = dataset
        out = str(tmp_path / "w.nrmk")
        code = run_cli("train", "--style", style, "--content-dir", directory,
                       "--out", out, "--steps", "0")
        assert code == 2

    @pytest.mark.parametrize("flag,value", [("--lr", "nan"), ("--alpha", "nan"), ("--beta", "inf")])
    def test_non_finite_flag(self, dataset, tmp_path, flag, value):
        directory, _, style = dataset
        code = run_cli("train", "--style", style, "--content-dir", directory,
                       "--out", str(tmp_path / "w.nrmk"), flag, value)
        assert code == 2
        assert not os.listdir(tmp_path)

    def test_unknown_command(self):
        assert run_cli("frobnicate") == 2

    def test_empty_seeds(self, dataset, tmp_path):
        directory, _, style = dataset
        code = run_cli("compare-norms", "--style", style, "--content-dir", directory,
                       "--out-dir", str(tmp_path), "--seeds", "")
        assert code == 2

    def test_gradcheck_unknown_subject(self):
        assert run_cli("gradcheck", "--subject", "nosuch") == 2


class TestTrainCommand:
    def test_writes_weights_and_log(self, dataset, tmp_path):
        directory, _, style = dataset
        out = str(tmp_path / "gen.nrmk")
        code = run_cli("train", "--style", style, "--content-dir", directory,
                       "--out", out, *TINY)
        assert code == 0
        assert os.path.exists(out) and os.path.exists(out + ".log")
        log = Path(out + ".log").read_text()
        assert log.startswith("step 1 loss ")
        assert "# config" in log

    def test_weight_file_reloads_bitwise(self, dataset, tmp_path):
        directory, _, style = dataset
        out = str(tmp_path / "gen.nrmk")
        assert run_cli("train", "--style", style, "--content-dir", directory,
                       "--out", out, *TINY) == 0
        g = Generator.load(out)
        resaved = str(tmp_path / "resaved.nrmk")
        g.save(resaved)
        assert Path(out).read_bytes() == Path(resaved).read_bytes()

    def test_rerun_byte_identical(self, dataset, tmp_path):
        directory, _, style = dataset
        outs = []
        for name in ("a.nrmk", "b.nrmk"):
            out = str(tmp_path / name)
            assert run_cli("train", "--style", style, "--content-dir", directory,
                           "--out", out, *TINY) == 0
            outs.append(out)
        assert Path(outs[0]).read_bytes() == Path(outs[1]).read_bytes()
        assert Path(outs[0] + ".log").read_text() == Path(outs[1] + ".log").read_text()

    def test_missing_content_dir(self, dataset, tmp_path):
        _, _, style = dataset
        code = run_cli("train", "--style", style, "--content-dir", str(tmp_path / "void"),
                       "--out", str(tmp_path / "w"), *TINY)
        assert code == 3

    @pytest.mark.parametrize("where", ["missing-dir", "is-dir"])
    def test_unwritable_out_exits_3_before_training(self, dataset, tmp_path, capsys, where):
        directory, _, style = dataset
        out = tmp_path / "gen.nrmk"
        if where == "is-dir":
            out.mkdir()
        else:
            out = tmp_path / "missing" / "gen.nrmk"
        code = run_cli("train", "--style", style, "--content-dir", directory,
                       "--out", str(out), *TINY)
        captured = capsys.readouterr()
        assert code == 3
        assert "step" not in captured.out
        assert str(out) in captured.err
        assert not [p for p in tmp_path.rglob("*") if p.is_file()]

    def test_bad_style_file(self, dataset, tmp_path):
        directory, _, _ = dataset
        bad = str(tmp_path / "bad.ppm")
        Path(bad).write_bytes(b"not a ppm")
        code = run_cli("train", "--style", bad, "--content-dir", directory,
                       "--out", str(tmp_path / "w"), *TINY)
        assert code == 3

    def test_extractor_weights_flag_matches_seeded_default(self, dataset, tmp_path):
        from normkit.loss import DEFAULT_EXTRACTOR_SEED, FeatureExtractor

        directory, _, style = dataset
        phi_file = str(tmp_path / "phi.nrmk")
        FeatureExtractor.seeded(DEFAULT_EXTRACTOR_SEED).save(phi_file)
        out_a = str(tmp_path / "a.nrmk")
        out_b = str(tmp_path / "b.nrmk")
        assert run_cli("train", "--style", style, "--content-dir", directory,
                       "--out", out_a, *TINY) == 0
        assert run_cli("train", "--style", style, "--content-dir", directory,
                       "--out", out_b, "--extractor-weights", phi_file, *TINY) == 0
        assert Path(out_a).read_bytes() == Path(out_b).read_bytes()

    def test_extractor_weights_missing_taps_exit_3(self, dataset, tmp_path, capsys):
        from normkit.loss import FeatureExtractor
        from normkit.weights import save_entries

        directory, _, style = dataset
        entries = FeatureExtractor.seeded().to_entries()
        del entries["meta.style_taps"]
        phi_file = str(tmp_path / "phi.nrmk")
        save_entries(phi_file, entries)
        code = run_cli("train", "--style", style, "--content-dir", directory,
                       "--out", str(tmp_path / "w.nrmk"), "--extractor-weights", phi_file, *TINY)
        assert code == 3
        assert "'meta.style_taps'" in capsys.readouterr().err

    @pytest.mark.parametrize("name,value", [
        ("meta.blocks", np.full((1, 1, 1, 1), np.nan)),
        ("meta.blocks", np.full((1, 1, 1, 1), 2.5)),
        ("meta.content_tap", np.full((1, 1, 1, 1), np.nan)),
        ("meta.style_taps", np.full((1, 1, 1, 3), np.nan)),
        ("block1.w", np.full((8, 3, 3, 3), np.nan)),
        ("block2.stride", np.zeros((1, 1, 1, 1))),
        ("meta.kind", np.full((1, 1, 1, 1), 1.0)),  # a generator's kind
        ("block5.w", np.zeros((16, 16, 3, 3))),  # a block past meta.blocks
        ("block2.w", np.zeros((16, 5, 3, 3))),  # block 1 puts out 8 channels, not 5
        ("block1.w", np.zeros((8, 3, 3, 5))),  # non-square kernel
        ("meta.content_tap", np.full((1, 1, 1, 1), 5.0)),  # past meta.blocks = 4
        ("meta.style_taps", np.array([1.0, 2.0, 5.0]).reshape(1, 1, 1, 3)),
        ("block1.w", np.zeros((8, 3, 2, 2))),  # even kernel
    ])
    def test_malformed_extractor_entry_exit_3(self, dataset, tmp_path, capsys, name, value):
        from normkit.loss import FeatureExtractor
        from normkit.weights import save_entries

        directory, _, style = dataset
        entries = FeatureExtractor.seeded().to_entries()
        entries[name] = value
        phi_file = str(tmp_path / "phi.nrmk")
        save_entries(phi_file, entries)
        code = run_cli("train", "--style", style, "--content-dir", directory,
                       "--out", str(tmp_path / "w.nrmk"), "--extractor-weights", phi_file, *TINY)
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(name) in err


class TestStylizeCommand:
    def test_output_matches_input_dims(self, weights, dataset, tmp_path):
        _, paths, _ = dataset
        out = str(tmp_path / "styled.ppm")
        assert run_cli("stylize", "--weights", weights, "--input", paths[0],
                       "--output", out) == 0
        img = read_ppm(out)
        assert (img.width, img.height) == (32, 32)

    def test_rerun_byte_identical(self, weights, dataset, tmp_path):
        _, paths, _ = dataset
        a, b = str(tmp_path / "a.ppm"), str(tmp_path / "b.ppm")
        for out in (a, b):
            assert run_cli("stylize", "--weights", weights, "--input", paths[0],
                           "--output", out, "--seed", "5") == 0
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_seed_changes_output(self, weights, dataset, tmp_path):
        _, paths, _ = dataset
        a, b = str(tmp_path / "a.ppm"), str(tmp_path / "b.ppm")
        assert run_cli("stylize", "--weights", weights, "--input", paths[0],
                       "--output", a, "--seed", "1") == 0
        assert run_cli("stylize", "--weights", weights, "--input", paths[0],
                       "--output", b, "--seed", "2") == 0
        assert Path(a).read_bytes() != Path(b).read_bytes()

    def test_non_divisible_dims_exit_3(self, weights, tmp_path, capsys):
        bad = str(tmp_path / "odd.ppm")
        img = make_fixture_image(3, size=32)
        from normkit.imageio import ImageRGB

        cropped = ImageRGB(width=30, height=30, pixels=bytes(30 * 30 * 3))
        write_ppm(bad, cropped)
        code = run_cli("stylize", "--weights", weights, "--input", bad,
                       "--output", str(tmp_path / "x.ppm"))
        assert code == 3
        assert "divisible by 4" in capsys.readouterr().err

    def test_missing_files_exit_3(self, weights, tmp_path):
        assert run_cli("stylize", "--weights", str(tmp_path / "void.nrmk"),
                       "--input", str(tmp_path / "void.ppm"),
                       "--output", str(tmp_path / "o.ppm")) == 3
        assert run_cli("stylize", "--weights", weights,
                       "--input", str(tmp_path / "void.ppm"),
                       "--output", str(tmp_path / "o.ppm")) == 3

    def test_batch_norm_weights_use_running_stats(self, dataset, tmp_path):
        directory, paths, style = dataset
        out = str(tmp_path / "bn.nrmk")
        assert run_cli("train", "--style", style, "--content-dir", directory,
                       "--out", out, "--norm", "batch", *TINY) == 0
        dst = str(tmp_path / "bn_styled.ppm")
        assert run_cli("stylize", "--weights", out, "--input", paths[0],
                       "--output", dst) == 0
        assert read_ppm(dst).width == 32

    def test_uncalibrated_batch_norm_weights_exit_3(self, dataset, tmp_path):
        from normkit.generator import GeneratorConfig, build
        from normkit.tensor import RngStream

        _, paths, _ = dataset
        out = str(tmp_path / "raw_bn.nrmk")
        build(GeneratorConfig(norm_mode="batch"), RngStream(1)).save(out)
        code = run_cli("stylize", "--weights", out, "--input", paths[0],
                       "--output", str(tmp_path / "x.ppm"))
        assert code == 3

    def test_overflowing_entry_dims_exit_3(self, weights, dataset, tmp_path, capsys):
        # the int64 product of these dims wraps to 0
        from normkit.weights import MAGIC

        _, paths, _ = dataset
        blob = bytearray(Path(weights).read_bytes())
        name_len = int.from_bytes(blob[len(MAGIC) + 4 : len(MAGIC) + 6], "little")
        dims_at = len(MAGIC) + 6 + name_len
        blob[dims_at : dims_at + 16] = struct.pack("<4I", 262144, 65536, 65536, 3489071104)
        bad = str(tmp_path / "overflow.nrmk")
        Path(bad).write_bytes(bytes(blob))
        code = run_cli("stylize", "--weights", bad, "--input", paths[0],
                       "--output", str(tmp_path / "x.ppm"))
        assert code == 3
        assert f"byte offset {dims_at + 16}" in capsys.readouterr().err

    @pytest.mark.parametrize("name,bit", [
        ("meta.base_channels", 56),  # 8 -> 524288, once a MemoryError building the skeleton
        ("meta.residual_blocks", 51),  # 3 -> 2, once loaded silently without res2.*
    ])
    def test_flipped_size_bit_exit_3(self, dataset, tmp_path, capsys, name, bit):
        from normkit.generator import GeneratorConfig, build
        from normkit.tensor import RngStream
        from normkit.weights import save_entries

        _, paths, _ = dataset
        path = str(tmp_path / "gen.nrmk")
        entries = build(GeneratorConfig(), RngStream(1)).to_entries()
        save_entries(path, flip_bit(entries, name, bit))
        code = run_cli("stylize", "--weights", path, "--input", paths[0],
                       "--output", str(tmp_path / "x.ppm"))
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(name) in err

    @pytest.mark.parametrize("name,value", [
        ("head_conv.b", np.zeros((1, 5, 1, 1))),  # bias of the wrong size
        ("stem_conv.w", np.zeros((4, 5, 3, 3))),  # weight of the wrong shape
        ("down1_norm.running_mu", None),  # batch-norm statistic missing
        ("meta.norm_mode", np.full((1, 1, 1, 1), 7.0)),  # unknown code
        ("meta.base_channels", np.full((1, 1, 1, 1), 0.5)),  # config rejects it
        ("meta.eps", np.full((1, 1, 1, 1), -1.0)),  # config rejects it
        ("stem_conv.w", np.full((4, 4, 3, 3), np.nan)),  # non-finite weight
        ("down1_norm.running_var", np.full((1, 4, 1, 1), -1.0)),  # negative variance
        ("down1_norm.count", np.full((1, 1, 1, 1), np.nan)),  # non-finite count
        ("meta.residual_blocks", np.full((1, 1, 1, 1), 1.7)),  # int() would truncate
        ("meta.noise_channels", np.full((1, 1, 1, 1), 1.2)),  # int() would truncate
        ("meta.base_channels", np.full((1, 1, 1, 1), 8.9)),  # int() would truncate
        ("down1_norm.count", np.full((1, 1, 1, 1), 2.5)),  # fractional count
        ("down1_norm.count", np.full((1, 1, 1, 1), -3.0)),  # negative count
        ("meta.affine", np.full((1, 1, 1, 1), 0.5)),  # neither 0 nor 1
    ])
    def test_malformed_weight_entry_exit_3(self, dataset, tmp_path, capsys, name, value):
        from normkit.generator import GeneratorConfig, build
        from normkit.tensor import RngStream
        from normkit.weights import save_entries

        _, paths, _ = dataset
        g = build(GeneratorConfig(norm_mode="batch", base_channels=4, residual_blocks=1),
                  RngStream(1))
        g.forward(RngStream(2).uniform((2, 3, 8, 8)), RngStream(3).normal((2, 1, 8, 8)))
        entries = g.to_entries()
        if value is None:
            del entries[name]
        else:
            entries[name] = value
        out = str(tmp_path / "bad.nrmk")
        save_entries(out, entries)
        code = run_cli("stylize", "--weights", out, "--input", paths[0],
                       "--output", str(tmp_path / "x.ppm"))
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(name) in err


class TestCompareNormsCommand:
    def test_writes_traces_summary_and_pair(self, dataset, tmp_path):
        directory, _, style = dataset
        out_dir = str(tmp_path / "cmp")
        code = run_cli("compare-norms", "--style", style, "--content-dir", directory,
                       "--out-dir", out_dir, "--seeds", "1,2", *TINY)
        assert code == 0
        for seed in (1, 2):
            for mode in ("batch", "instance"):
                assert os.path.exists(os.path.join(out_dir, f"seed{seed}_{mode}.log"))
                assert os.path.exists(os.path.join(out_dir, f"seed{seed}_{mode}.ppm"))
        lines = Path(out_dir, "summary.txt").read_text().splitlines()
        assert lines[0].startswith("seed ")
        assert len(lines) == 3
        for line in lines[1:]:
            fields = line.split()
            assert len(fields) == 4
            assert np.isfinite(float(fields[1])) and np.isfinite(float(fields[2]))

    def test_rerun_byte_identical(self, dataset, tmp_path):
        directory, _, style = dataset
        blobs = []
        for name in ("c1", "c2"):
            out_dir = str(tmp_path / name)
            assert run_cli("compare-norms", "--style", style, "--content-dir", directory,
                           "--out-dir", out_dir, "--seeds", "1", *TINY) == 0
            blobs.append({
                f: Path(out_dir, f).read_bytes()
                for f in sorted(os.listdir(out_dir))
            })
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("flag,value", [
        ("--steps", "0"),
        ("--base-channels", "0"),
        ("--residual-blocks", "-1"),
        ("--noise-channels", "-1"),
    ])
    def test_bad_flag_exits_2_before_writing(self, dataset, tmp_path, flag, value):
        directory, _, style = dataset
        out_dir = tmp_path / "cmp"
        code = run_cli("compare-norms", "--style", style, "--content-dir", directory,
                       "--out-dir", str(out_dir), "--seeds", "1", flag, value)
        assert code == 2
        assert not out_dir.exists()

    def test_non_finite_flag_exits_2_before_writing(self, dataset, tmp_path):
        directory, _, style = dataset
        out_dir = tmp_path / "cmp"
        code = run_cli("compare-norms", "--style", style, "--content-dir", directory,
                       "--out-dir", str(out_dir), "--seeds", "1", "--lr", "nan")
        assert code == 2
        assert not out_dir.exists()

    def test_single_content_image_rejected(self, dataset, tmp_path):
        _, paths, style = dataset
        solo_dir = str(tmp_path / "solo")
        os.mkdir(solo_dir)
        write_ppm(os.path.join(solo_dir, "only.ppm"), make_fixture_image(9))
        code = run_cli("compare-norms", "--style", style, "--content-dir", solo_dir,
                       "--out-dir", str(tmp_path / "out"), "--seeds", "1", *TINY)
        assert code == 3


class TestMiscSurface:
    def test_zero_padding_train_path(self, dataset, tmp_path):
        directory, _, style = dataset
        out = str(tmp_path / "zp.nrmk")
        assert run_cli("train", "--style", style, "--content-dir", directory,
                       "--out", out, "--padding", "zero", *TINY) == 0
        assert Generator.load(out).config.padding_mode == "zero"

    def test_thread_cap_env_var(self):
        import subprocess
        import sys

        env = dict(os.environ, NORMKIT_THREADS="1")
        result = subprocess.run(
            [sys.executable, "-m", "normkit.cli", "gradcheck", "--subject", "relu"],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0
        assert "relu" in result.stdout and "PASS" in result.stdout


    def test_thread_cap_overrides_set_blas_variables(self):
        import subprocess
        import sys

        blas_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                     "NUMEXPR_NUM_THREADS")
        env = dict(os.environ, NORMKIT_THREADS="1", **dict.fromkeys(blas_vars, "4"))
        code = f"import os, normkit.cli; print(*(os.environ[v] for v in {blas_vars!r}))"
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env=env)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["1"] * len(blas_vars)

    def test_thread_cap_keeps_output_bytes(self, dataset, tmp_path):
        # the README's claim: NORMKIT_THREADS bounds parallelism, never results
        import subprocess
        import sys

        directory, _, style = dataset
        image = str(tmp_path / "in256.ppm")
        write_ppm(image, make_fixture_image(11, size=256))
        outputs = []
        for cap in ("1", "2"):
            # the cap overrides any BLAS thread variable the environment sets
            env = dict(os.environ, NORMKIT_THREADS=cap)
            out = str(tmp_path / f"gen{cap}.nrmk")
            styled = str(tmp_path / f"out{cap}.ppm")
            for argv in (["train", "--style", style, "--content-dir", directory, "--out", out,
                          "--steps", "5"],
                         ["stylize", "--weights", out, "--input", image, "--output", styled]):
                result = subprocess.run([sys.executable, "-m", "normkit.cli", *argv],
                                        capture_output=True, env=env)
                assert result.returncode == 0, result.stderr
            outputs.append([Path(path).read_bytes() for path in (out, out + ".log", styled)])
        assert outputs[0] == outputs[1]


class TestGradcheckCommand:
    def test_default_passes(self, capsys):
        assert run_cli("gradcheck") == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 7  # six layer subjects and the composite
        assert all(line.endswith("PASS") for line in lines)

    def test_unreachable_tolerance_fails(self):
        assert run_cli("gradcheck", "--tol", "1e-12") == 1

    def test_single_subject(self, capsys):
        assert run_cli("gradcheck", "--subject", "relu") == 0
        assert len(capsys.readouterr().out.splitlines()) == 1

    @pytest.mark.parametrize("flag,value", [("--h", "nan"), ("--h", "inf"), ("--tol", "nan")])
    def test_non_finite_step_or_tolerance_exits_2(self, capsys, flag, value):
        assert run_cli("gradcheck", "--subject", "relu", flag, value) == 2
        assert capsys.readouterr().out == ""
