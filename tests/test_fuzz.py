"""Every truncation and every single-byte replacement of a weight file or a PPM
either loads or raises a NormkitError, never another exception."""

import pytest
from helpers import make_fixture_image
from hypothesis import given
from hypothesis import strategies as st

from normkit.errors import NormkitError
from normkit.generator import Generator, GeneratorConfig, build
from normkit.imageio import read_ppm, write_ppm
from normkit.loss import FeatureExtractor
from normkit.tensor import RngStream

LOADERS = {"generator": Generator.load, "extractor": FeatureExtractor.load, "ppm": read_ppm}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """kind -> (path to write mutated bytes to, the original bytes)."""
    directory = tmp_path_factory.mktemp("fuzz")
    build(GeneratorConfig(norm_mode="batch"), RngStream(1)).save(str(directory / "generator"))
    FeatureExtractor.seeded().save(str(directory / "extractor"))
    write_ppm(str(directory / "ppm"), make_fixture_image(100, size=4))
    return {kind: (str(directory / f"mutated_{kind}"), (directory / kind).read_bytes())
            for kind in LOADERS}


def load_or_reject(kind, path, blob):
    with open(path, "wb") as fh:
        fh.write(blob)
    try:
        LOADERS[kind](path)
    except NormkitError:
        return False
    return True


@pytest.mark.parametrize("kind", list(LOADERS))
class TestLoaderFuzz:
    @given(data=st.data())
    def test_truncation_rejected(self, files, kind, data):
        path, blob = files[kind]
        cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
        assert not load_or_reject(kind, path, blob[:cut])

    @given(data=st.data())
    def test_byte_replacement_loads_or_is_rejected(self, files, kind, data):
        path, blob = files[kind]
        at = data.draw(st.integers(0, len(blob) - 1), label="at")
        byte = data.draw(st.integers(0, 255), label="byte")
        load_or_reject(kind, path, blob[:at] + bytes([byte]) + blob[at + 1 :])
