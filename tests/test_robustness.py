"""File robustness: a truncated or bit-flipped file either loads or raises
FormatError/ValueError, and the CLI turns it into exit code 0 or 3, never a
traceback; every writer replaces its target atomically, so a failed write
leaves the old bytes and no temp file behind."""

import contextlib
import io
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import multikmeans.index
from multikmeans.cli import main
from multikmeans.core import atomic_write
from multikmeans.dataio import VectorReader, read_labels, read_vectors, write_labels, write_vectors
from multikmeans.encoder import (
    EncoderSpec,
    Variant,
    encode_many,
    load_quantizer,
    save_quantizer,
    train_dual_codebook,
)
from multikmeans.evaluate import brute_force_gt
from multikmeans.index import build_index, load_index, save_index
from multikmeans.kmeans import TrainParams, train


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """One valid file of every kind, small enough to fuzz quickly."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(3)
    base = rng.standard_normal((40, 4)).astype(np.float32)
    queries = base[:5] + np.float32(0.01)
    write_vectors(root / "base.fvecs", base)
    write_vectors(root / "queries.fvecs", queries)
    write_vectors(root / "gt.ivecs", brute_force_gt(base, queries, 10))
    write_vectors(root / "bytes.bvecs", rng.integers(0, 256, size=(12, 4)))
    params = TrainParams(max_iters=5, seed=3)
    cb = train(base, 8, params)
    save_quantizer(cb, root / "cb.mkmc")
    save_quantizer(train_dual_codebook(base, 4, params), root / "cb.mkm2")
    spec = EncoderSpec(Variant.T)
    index = build_index(encode_many(base, cb, spec), np.arange(40), spec, cb)
    save_index(index, root / "t.mkmi")
    return root


def load(path):
    """Everything the library reads from a file of this kind."""
    suffix = path.suffix
    if suffix == ".mkmi":
        load_index(path)
    elif suffix in (".mkmc", ".mkm2"):
        load_quantizer(path)
    else:
        read_vectors(path)
        with VectorReader(path) as reader:
            reader.take(np.arange(reader.count))


def cli_args(path, root):
    """A command that reads the file, with every other input valid."""
    out = str(root / "out")
    good = {"index": str(root / "t.mkmi"), "base": str(root / "base.fvecs"), "queries": str(root / "queries.fvecs")}
    suffix = path.suffix
    if suffix == ".mkmi":
        good["index"] = str(path)
    elif suffix == ".mkmc":
        return ["index", "--codebook", str(path), "--base", good["base"], "--variant", "t", "--out", out + ".mkmi"]
    elif suffix == ".mkm2":
        return ["index", "--codebook", str(path), "--base", good["base"], "--variant", "t2", "--out", out + ".mkmi"]
    elif suffix == ".bvecs":
        return ["gt", "--base", str(path), "--queries", str(path), "--out", out + ".ivecs", "--depth", "1"]
    elif suffix == ".ivecs":
        return ["eval", "--index", good["index"], "--base", good["base"], "--queries", good["queries"],
                "--gt", str(path), "--recall-at", "1,5", "--shortlist", "20"]
    else:
        good["base"] = str(path)
    return ["query", "--index", good["index"], "--base", good["base"], "--query-file", good["queries"],
            "--shortlist", "20", "--top", "5"]


@st.composite
def corruptions(draw, size):
    """A truncation and/or one to three bit flips, biased to the first 64
    bytes where the headers live."""
    cut = draw(st.one_of(st.none(), st.integers(0, size - 1)))
    bits = st.one_of(st.integers(0, min(size, 64) * 8 - 1), st.integers(0, size * 8 - 1))
    flips = draw(st.lists(bits, min_size=0 if cut is not None else 1, max_size=3))
    return cut, flips


@pytest.mark.parametrize("name", ["t.mkmi", "cb.mkmc", "cb.mkm2", "base.fvecs", "gt.ivecs", "bytes.bvecs"])
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_corrupt_file_loads_or_raises_format_error(files, tmp_path, name, data):
    raw = bytearray((files / name).read_bytes())
    cut, flips = data.draw(corruptions(len(raw)))
    for bit in flips:
        raw[bit // 8] ^= 1 << (bit % 8)
    path = tmp_path / ("bad" + os.path.splitext(name)[1])
    path.write_bytes(bytes(raw[:cut]))
    try:
        load(path)
    except ValueError:  # FormatError is a ValueError
        pass
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(cli_args(path, tmp_path))
    assert code in (0, 3), err.getvalue()


class TestAtomicWrite:
    def test_block_raising_keeps_old_target(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")
        with pytest.raises(RuntimeError):
            with atomic_write(path) as f:
                f.write(b"new, half")
                raise RuntimeError("crash mid-write")
        assert path.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["out.bin"]

    def test_record_writer_raising_keeps_old_index(self, files, tmp_path, monkeypatch):
        path = tmp_path / "t.mkmi"
        path.write_bytes((files / "t.mkmi").read_bytes())
        before = path.read_bytes()
        index = load_index(path)

        def half_record(f, quantizer):
            f.write(b"MKMC\x01")
            raise RuntimeError("crash mid-record")

        monkeypatch.setattr(multikmeans.index, "write_quantizer_record", half_record)
        with pytest.raises(RuntimeError):
            save_index(index, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["t.mkmi"]

    WRITERS = {
        "save_index": lambda files, p: save_index(load_index(files / "t.mkmi"), p),
        "write_vectors": lambda files, p: write_vectors(p, np.ones((2, 3), dtype=np.float32)),
        "write_labels": lambda files, p: write_labels(p, [1, 2, 3]),
        "save_quantizer_mkmc": lambda files, p: save_quantizer(load_quantizer(files / "cb.mkmc"), p),
        "save_quantizer_mkm2": lambda files, p: save_quantizer(load_quantizer(files / "cb.mkm2"), p),
        "eval_out": lambda files, p: main(
            ["eval", "--index", str(files / "t.mkmi"), "--base", str(files / "base.fvecs"),
             "--queries", str(files / "queries.fvecs"), "--gt", str(files / "gt.ivecs"),
             "--recall-at", "1,5", "--shortlist", "20", "--out", str(p)]
        ),
    }
    SUFFIXES = {"write_vectors": ".fvecs", "write_labels": ".txt", "eval_out": ".json"}

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_writer_goes_through_atomic_replace(self, files, tmp_path, monkeypatch, writer):
        path = tmp_path / ("target" + self.SUFFIXES.get(writer, ".bin"))
        path.write_bytes(b"old")

        def failing_replace(src, dst):
            raise OSError("replace refused")

        with monkeypatch.context() as m:
            m.setattr(os, "replace", failing_replace)
            with contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = self.WRITERS[writer](files, path)
                except OSError:
                    code = 3
            assert code == 3
        assert path.read_bytes() == b"old"
        assert os.listdir(tmp_path) == [path.name]
        with contextlib.redirect_stderr(io.StringIO()):
            self.WRITERS[writer](files, path)
        assert path.read_bytes() != b"old"
        assert os.listdir(tmp_path) == [path.name]
        if writer == "write_labels":
            np.testing.assert_array_equal(read_labels(path), [1, 2, 3])

    def test_symlink_target_is_replaced_through_the_link(self, tmp_path):
        (tmp_path / "real.bin").write_bytes(b"old")
        os.symlink("real.bin", tmp_path / "link.bin")
        with atomic_write(tmp_path / "link.bin") as f:
            f.write(b"new")
        assert os.path.islink(tmp_path / "link.bin")
        assert (tmp_path / "real.bin").read_bytes() == b"new"
        assert sorted(os.listdir(tmp_path)) == ["link.bin", "real.bin"]

    def test_pipe_target_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            with atomic_write(fifo) as f:
                f.write(b"through")
            assert os.read(reader, 16) == b"through"
        finally:
            os.close(reader)
        assert not os.path.isfile(fifo)
        assert os.listdir(tmp_path) == ["pipe"]
