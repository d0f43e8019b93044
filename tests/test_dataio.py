import errno
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import multikmeans.dataio as dataio_mod
from multikmeans.core import FormatError
from multikmeans.dataio import (
    SyntheticSpec,
    VectorReader,
    generate_synthetic,
    read_labels,
    read_vectors,
    write_labels,
    write_vectors,
)
from multikmeans.kmeans import TrainParams, train


def fvecs_bytes(rows):
    out = b""
    for row in rows:
        out += struct.pack("<i", len(row)) + struct.pack(f"<{len(row)}f", *row)
    return out


def bvecs_bytes(rows):
    out = b""
    for row in rows:
        out += struct.pack("<i", len(row)) + bytes(row)
    return out


def ivecs_bytes(rows):
    out = b""
    for row in rows:
        out += struct.pack("<i", len(row)) + struct.pack(f"<{len(row)}i", *row)
    return out


class TestReadCrafted:
    def test_fvecs(self, tmp_path):
        path = tmp_path / "a.fvecs"
        path.write_bytes(fvecs_bytes([[1.5, -2.0, 0.25], [0.0, 7.0, -0.5]]))
        got = read_vectors(path)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(
            got, np.array([[1.5, -2.0, 0.25], [0.0, 7.0, -0.5]], dtype=np.float32)
        )

    def test_bvecs_widen_to_float32(self, tmp_path):
        path = tmp_path / "a.bvecs"
        path.write_bytes(bvecs_bytes([[0, 128, 255], [1, 2, 3]]))
        got = read_vectors(path)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(
            got, np.array([[0, 128, 255], [1, 2, 3]], dtype=np.float32)
        )

    def test_ivecs(self, tmp_path):
        path = tmp_path / "a.ivecs"
        path.write_bytes(ivecs_bytes([[5, -7], [2**31 - 1, -(2**31)]]))
        got = read_vectors(path)
        assert got.dtype == np.int32
        assert got.tolist() == [[5, -7], [2147483647, -2147483648]]

    def test_unknown_suffix_is_rejected(self, tmp_path):
        # the suffix is the only element-kind rule; .IVECS reads as .ivecs
        path = tmp_path / "a.dat"
        path.write_bytes(ivecs_bytes([[9, 9]]))
        message = "cannot infer element kind from suffix '.dat'; use .fvecs, .bvecs or .ivecs"
        for call in (read_vectors, VectorReader, lambda p: write_vectors(p, [[9, 9]])):
            with pytest.raises(ValueError, match=re.escape(message)):
                call(path)
        upper = tmp_path / "a.IVECS"
        upper.write_bytes(path.read_bytes())
        assert read_vectors(upper).tolist() == [[9, 9]]

    def test_range_reads(self, tmp_path):
        path = tmp_path / "a.fvecs"
        rows = [[float(i), float(i + 1)] for i in range(6)]
        path.write_bytes(fvecs_bytes(rows))
        with VectorReader(path) as reader:
            np.testing.assert_array_equal(reader.read(2, 3), np.array(rows[2:5], dtype=np.float32))
            assert reader.read(6, 0).shape == (0, 2)
            with pytest.raises(ValueError):
                reader.read(5, 2)
            with pytest.raises(ValueError):
                reader.read(-1, 1)


class TestFormatErrors:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "a.fvecs"
        path.write_bytes(b"")
        with pytest.raises(FormatError) as exc:
            VectorReader(path)
        assert exc.value.offset == 0

    def test_bad_leading_dim(self, tmp_path):
        path = tmp_path / "a.fvecs"
        path.write_bytes(struct.pack("<i", 0) + b"\x00" * 12)
        with pytest.raises(FormatError) as exc:
            VectorReader(path)
        assert exc.value.offset == 0

    def test_truncated_tail(self, tmp_path):
        path = tmp_path / "a.fvecs"
        blob = fvecs_bytes([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        path.write_bytes(blob[:-5])
        with pytest.raises(FormatError) as exc:
            VectorReader(path)
        # 27 bytes = one whole 16-byte record plus a ragged tail at offset 16
        assert exc.value.offset == 16

    def test_corrupt_mid_file_header(self, tmp_path):
        path = tmp_path / "a.fvecs"
        blob = bytearray(fvecs_bytes([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
        blob[16:20] = struct.pack("<i", 7)  # second record claims dim 7
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError) as exc:
            read_vectors(path)
        assert exc.value.offset == 16

    def test_mid_file_error_escapes_partial_reads_too(self, tmp_path):
        path = tmp_path / "a.fvecs"
        blob = bytearray(fvecs_bytes([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        blob[12:16] = struct.pack("<i", 9)
        path.write_bytes(bytes(blob))
        with VectorReader(path) as reader:
            reader.read(0, 1)  # clean prefix still reads
            for start, count in [(1, 1), (0, 3)]:
                with pytest.raises(FormatError) as exc:
                    reader.read(start, count)
                assert exc.value.offset == 12
        with pytest.raises(FormatError) as exc:
            read_vectors(path)
        assert exc.value.offset == 12


class TestWrite:
    def test_roundtrip_float32_bit_exact(self, tmp_path):
        rng = np.random.default_rng(80)
        data = rng.standard_normal((25, 7)).astype(np.float32)
        path = tmp_path / "a.fvecs"
        meta = write_vectors(path, data)
        assert (meta.dim, meta.count) == (7, 25)
        back = read_vectors(path)
        assert back.tobytes() == data.tobytes()

    def test_roundtrip_uint8(self, tmp_path):
        rng = np.random.default_rng(81)
        data = rng.integers(0, 256, size=(10, 4))
        path = tmp_path / "a.bvecs"
        write_vectors(path, data)
        np.testing.assert_array_equal(read_vectors(path), data.astype(np.float32))

    def test_roundtrip_int32(self, tmp_path):
        data = np.array([[1, -1], [2**31 - 1, -(2**31)]])
        path = tmp_path / "a.ivecs"
        write_vectors(path, data)
        np.testing.assert_array_equal(read_vectors(path), data.astype(np.int32))

    def test_rejects_unrepresentable_uint8(self, tmp_path):
        path = tmp_path / "a.bvecs"
        with pytest.raises(ValueError):
            write_vectors(path, np.array([[0.5, 1.0]]))
        with pytest.raises(ValueError):
            write_vectors(path, np.array([[300, 1]]))
        with pytest.raises(ValueError):
            write_vectors(path, np.array([[-1, 1]]))

    def test_rejects_unrepresentable_int32(self, tmp_path):
        path = tmp_path / "a.ivecs"
        with pytest.raises(ValueError):
            write_vectors(path, np.array([[2**31, 0]]))
        with pytest.raises(ValueError):
            write_vectors(path, np.array([[1.5, 0.0]]))

    def test_rejects_nonfinite_float32(self, tmp_path):
        path = tmp_path / "a.fvecs"
        with pytest.raises(ValueError):
            write_vectors(path, np.array([[1e39, 0.0]]))  # overflows float32
        with pytest.raises(ValueError):
            write_vectors(path, np.array([[np.nan, 0.0]]))

    def test_peak_memory_is_about_one_copy_of_the_file(self, tmp_path):
        # the records are written from their own buffer, with no bytes copy
        data = np.random.default_rng(83).standard_normal((20_000, 128)).astype(np.float32)
        path = tmp_path / "a.fvecs"
        tracemalloc.start()
        try:
            write_vectors(path, data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * os.path.getsize(path)
        assert read_vectors(path).tobytes() == data.tobytes()

    def test_unopenable_file_error_names_the_path_asked_for(self, tmp_path):
        path = tmp_path / "missing_dir" / "a.fvecs"
        with pytest.raises(FileNotFoundError) as info:
            write_vectors(path, np.zeros((2, 3)))
        assert info.value.errno == errno.ENOENT
        assert info.value.filename == str(path)
        assert ".tmp" not in str(info.value)
        assert isinstance(info.value.__cause__, FileNotFoundError)
        assert info.value.__cause__.filename.endswith("a.fvecs.tmp")


class TestVectorReader:
    def make_file(self, tmp_path, n=20, dim=5, seed=82):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((n, dim)).astype(np.float32)
        path = tmp_path / "base.fvecs"
        write_vectors(path, data)
        return path, data

    def test_take_matches_full_read(self, tmp_path):
        path, data = self.make_file(tmp_path)
        with VectorReader(path) as reader:
            assert (reader.count, reader.dim) == (20, 5)
            ids = np.array([3, 0, 19, 3])
            np.testing.assert_array_equal(reader.take(ids), data[ids])

    def test_read_range_and_getitem(self, tmp_path):
        path, data = self.make_file(tmp_path)
        with VectorReader(path) as reader:
            np.testing.assert_array_equal(reader.read(4, 3), data[4:7])
            np.testing.assert_array_equal(reader[11], data[11])
            assert len(reader) == 20

    def test_take_rejects_2d_ids(self, tmp_path):
        path, _ = self.make_file(tmp_path)
        with VectorReader(path) as reader:
            with pytest.raises(ValueError, match="ids must be 1-D"):
                reader.take(np.array([[0, 1]]))

    def test_out_of_bounds_id(self, tmp_path):
        path, _ = self.make_file(tmp_path)
        with VectorReader(path) as reader:
            with pytest.raises(LookupError):
                reader.take(np.array([0, 20]))
            with pytest.raises(LookupError):
                reader.take(np.array([-1]))

    def test_out_of_bounds_id_past_int64_is_named_unwrapped(self, tmp_path):
        path, _ = self.make_file(tmp_path)
        with VectorReader(path) as reader:
            with pytest.raises(LookupError, match="vector id 9223372036854775813 outside"):
                reader.take(np.array([0, 2**63 + 5], dtype=np.uint64))

    @pytest.mark.parametrize(
        "ids, dtype",
        [([True, False, True, False], "bool"), ([1.7, 2.2], "float64"), (np.array([1, 2], dtype=object), "object")],
        ids=["bool-mask", "float", "object"],
    )
    def test_take_rejects_non_integer_ids(self, tmp_path, ids, dtype):
        # a mask or float ids read as positions would return rows 1, 0, 1, 0
        # or rows 1 and 2
        path, _ = self.make_file(tmp_path, n=4)
        with VectorReader(path) as reader:
            with pytest.raises(ValueError, match=f"ids must be integers, got dtype {dtype}"):
                reader.take(np.asarray(ids))
            assert reader.take([]).shape == (0, 5)
            np.testing.assert_array_equal(reader.take(np.array([3, 1], dtype=np.uint8)), reader.read(0, 4)[[3, 1]])

    def test_closed_reader_rejects_reads(self, tmp_path):
        path, _ = self.make_file(tmp_path)
        reader = VectorReader(path)
        reader.close()
        with pytest.raises(ValueError, match="reader is closed"):
            reader.take(np.array([0]))
        with pytest.raises(ValueError, match="reader is closed"):
            reader.read(0, 1)

    @pytest.mark.parametrize("suffix", [".fvecs", ".bvecs", ".ivecs"])
    def test_read_paths_agree(self, tmp_path, suffix):
        # read and take of the same range, and read_vectors of the whole
        # file: equal values and dtype; read and read_vectors give fresh
        # C-ordered arrays that a second read does not see
        data = np.random.default_rng(83).integers(0, 256, size=(12, 4))
        path = tmp_path / ("a" + suffix)
        write_vectors(path, data)
        for start, count in [(0, 12), (3, 5), (12, 0)]:
            with VectorReader(path) as reader:
                reads = [reader.read(start, count), reader.take(np.arange(start, start + count))]
                for got in reads:
                    assert got.dtype == reads[0].dtype
                    np.testing.assert_array_equal(got, data[start : start + count])
                fresh = [reads[0], read_vectors(path)] if count == data.shape[0] else reads[:1]
                for got in fresh:
                    assert got.dtype == reads[0].dtype
                    assert got.flags.c_contiguous and got.flags.writeable
                    got += 1
                np.testing.assert_array_equal(reader.read(start, count), data[start : start + count])
        np.testing.assert_array_equal(read_vectors(path), data)

    def test_corrupt_header_caught_on_take(self, tmp_path):
        path, data = self.make_file(tmp_path, n=4, dim=3)
        blob = bytearray(path.read_bytes())
        blob[32:36] = struct.pack("<i", 8)  # third record header (16-byte records)
        path.write_bytes(bytes(blob))
        with VectorReader(path) as reader:
            reader.take(np.array([0, 1, 3]))  # untouched rows still fine
            with pytest.raises(FormatError):
                reader.take(np.array([2]))

    def test_threads_share_one_reader(self, tmp_path):
        # positional reads move no shared file offset, so reads that
        # interleave chunk by chunk still get their own records
        path, data = self.make_file(tmp_path, n=3000, dim=8)
        ranges = [(s, 97) for s in range(0, 2900, 97)] * 4
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with VectorReader(path) as reader, mock.patch.object(dataio_mod, "_READ_CHUNK_BYTES", 5 * 36):
                with ThreadPoolExecutor(8) as pool:
                    got = list(pool.map(lambda r: reader.read(*r), ranges, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for (s, n), rows in zip(ranges, got):
            np.testing.assert_array_equal(rows, data[s : s + n])


def numpy_decode(path, payload_dtype, dim):
    """A vector file decoded by numpy alone: (n, dim) payloads, headers dropped."""
    raw = np.fromfile(path, dtype=np.uint8).reshape(-1, 4 + dim * np.dtype(payload_dtype).itemsize)
    return raw[:, 4:].view(payload_dtype)


class TestReadChunks:
    """read() with a chunk budget of 1, 2 and 3 records, so ranges start,
    end and break inside and across chunks."""

    @pytest.mark.parametrize("per_chunk", [1, 2, 3])
    @pytest.mark.parametrize(
        "suffix, payload, out",
        [(".fvecs", "<f4", np.float32), (".bvecs", "u1", np.float32), (".ivecs", "<i4", np.int32)],
    )
    def test_ranges_equal_a_numpy_decode(self, tmp_path, suffix, payload, out, per_chunk):
        path = tmp_path / ("a" + suffix)
        write_vectors(path, np.random.default_rng(84).integers(0, 256, size=(10, 3)))
        want = numpy_decode(path, payload, 3)
        rec = os.path.getsize(path) // 10
        with VectorReader(path) as reader, mock.patch.object(dataio_mod, "_READ_CHUNK_BYTES", per_chunk * rec):
            for start, count in [(0, 10), (1, 7), (3, 1), (9, 1), (2, 6), (4, 0), (10, 0)]:
                got = reader.read(start, count)
                assert got.dtype == out and got.shape == (count, 3) and got.flags.c_contiguous
                np.testing.assert_array_equal(got, want[start : start + count])

    @pytest.mark.parametrize("per_chunk", [1, 2, 3])
    def test_bad_header_in_a_later_chunk(self, tmp_path, per_chunk):
        path = tmp_path / "a.fvecs"
        write_vectors(path, np.ones((10, 3)))
        blob = bytearray(path.read_bytes())
        blob[7 * 16 : 7 * 16 + 4] = struct.pack("<i", 9)
        path.write_bytes(bytes(blob))
        message = f"{path}: record 7 declares 9 components, expected 3 (byte offset 112)"
        with VectorReader(path) as reader, mock.patch.object(dataio_mod, "_READ_CHUNK_BYTES", per_chunk * 16):
            np.testing.assert_array_equal(reader.read(0, 7), np.ones((7, 3)))
            for start, count in [(0, 10), (5, 4), (7, 1)]:
                with pytest.raises(FormatError) as exc:
                    reader.read(start, count)
                assert str(exc.value) == message and exc.value.offset == 112
            with pytest.raises(FormatError, match=re.escape(message)):
                read_vectors(path)


_SHRINK_SCRIPT = """
import os, sys
import numpy as np
import multikmeans.dataio as dataio
from multikmeans.core import FormatError

path, call = sys.argv[1], sys.argv[2]
keep = 100 * (4 + 64 * 4)
try:
    if call == "read_vectors":
        opened = dataio.VectorReader.__init__

        def open_then_shrink(self, p):
            opened(self, p)
            os.truncate(p, keep)

        dataio.VectorReader.__init__ = open_then_shrink
        dataio.read_vectors(path)
    else:
        reader = dataio.VectorReader(path)
        os.truncate(path, keep)
        if call == "read":
            reader.read(0, reader.count)
        else:
            reader.take(np.array([5, 6]))
except FormatError as exc:
    print(exc.offset)
    print(exc)
else:
    print("no FormatError")
"""


def _run_python(code, *args):
    """code in a fresh interpreter that imports this checkout's package."""
    src = str(Path(dataio_mod.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], capture_output=True, text=True, env=env)


class TestShrunkFile:
    # each call runs in its own process, so a SIGBUS fails the test instead
    # of killing the test run
    @pytest.mark.parametrize("call", ["read", "read_vectors", "take"])
    def test_names_the_first_missing_record(self, tmp_path, call):
        path = tmp_path / "a.fvecs"
        write_vectors(path, np.ones((5000, 64)))
        proc = _run_python(_SHRINK_SCRIPT, path, call)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "26000",
            f"{path}: record 100 is missing; the file held 5000 records when opened (byte offset 26000)",
        ]


_WALK_SCRIPT = """
import resource, sys
import multikmeans.dataio as dataio

with dataio.VectorReader(sys.argv[1]) as reader:
    reader.read(0, 4096)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for s in range(0, reader.count, 4096):
        reader.read(s, min(4096, reader.count - s))
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_a_read_walk_keeps_no_file_pages_resident(tmp_path):
    # a walk over the file in read() calls holds one call's output and
    # chunk, not the pages it has read; copied out of a memory map, the
    # same walk grew by 47 MB
    path = tmp_path / "a.fvecs"
    block = np.ones((8192, 129), dtype="<f4")
    block[:, 0] = np.int32(128).view("<f4")
    with open(path, "wb") as f:
        for _ in range(16):
            block.tofile(f)
    size = os.path.getsize(path)  # 131 072 records, 67.6 MB
    proc = _run_python(_WALK_SCRIPT, path)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) * 1024 < size / 2


class TestLabels:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "labels.txt"
        write_labels(path, [4, 0, 4, 17, -2])
        np.testing.assert_array_equal(read_labels(path), [4, 0, 4, 17, -2])

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("1\n\n2\n \n3\n")
        assert read_labels(path).tolist() == [1, 2, 3]

    def test_bad_line(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("1\nxyz\n")
        with pytest.raises(ValueError):
            read_labels(path)

    def test_label_outside_int64_names_path_and_line(self, tmp_path):
        path = tmp_path / "labels.txt"
        for bad in ("99999999999999999999", str(2**63), str(-(2**63) - 1)):
            path.write_text(f"1\n\n{bad}\n")
            with pytest.raises(ValueError, match=f"{path}: line 3 label '{bad}' is outside the int64 range"):
                read_labels(path)
        path.write_text(f"{2**63 - 1}\n{-(2**63)}\n")
        assert read_labels(path).tolist() == [2**63 - 1, -(2**63)]

    def test_no_labels(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("\n")
        with pytest.raises(ValueError):
            read_labels(path)

    def test_write_rejects_fractional(self, tmp_path):
        # non-finite and out-of-int64 floats used to wrap to -2**63 silently
        for labels in ([1.5], [1.0, np.inf], [np.nan], [-np.inf], [1e19], [-1e19], [2.0**63]):
            with pytest.raises(ValueError):
                write_labels(tmp_path / "labels.txt", labels)
        assert not (tmp_path / "labels.txt").exists()
        write_labels(tmp_path / "labels.txt", [-(2.0**63), 2.0**62])
        assert read_labels(tmp_path / "labels.txt").tolist() == [-(2**63), 2**62]


class TestSyntheticSpec:
    def test_defaults_derive_learning_size(self):
        spec = SyntheticSpec(n_clusters=8, points_per_cluster=40, dim=4)
        assert spec.n_learning == 80  # quarter of 320
        tiny = SyntheticSpec(n_clusters=8, points_per_cluster=2, dim=4)
        assert tiny.n_learning == 16  # floor of 2 per cluster

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_clusters=1, points_per_cluster=5, dim=4)
        with pytest.raises(ValueError):
            SyntheticSpec(n_clusters=2, points_per_cluster=0, dim=4)
        with pytest.raises(ValueError):
            SyntheticSpec(n_clusters=2, points_per_cluster=5, dim=1)
        with pytest.raises(ValueError):
            SyntheticSpec(n_clusters=2, points_per_cluster=5, dim=4, cluster_spread=0.0)
        with pytest.raises(ValueError):
            SyntheticSpec(n_clusters=2, points_per_cluster=5, dim=4, n_queries=0)
        with pytest.raises(ValueError, match="seed must fit in an unsigned 64-bit integer"):
            SyntheticSpec(n_clusters=2, points_per_cluster=5, dim=4, seed=-1)
        with pytest.raises(ValueError, match="need at least 1 learning point"):
            SyntheticSpec(n_clusters=2, points_per_cluster=5, dim=4, n_learning=0)

    @pytest.mark.parametrize("field", ["cluster_spread", "center_scale"])
    @pytest.mark.parametrize("value", [np.inf, np.nan, 1e308, 9e307, 3.5e38, 0.0, -1.0])
    def test_scales_must_be_positive_and_fit_float32(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be positive and at most 3.402823e\\+38"):
            SyntheticSpec(n_clusters=2, points_per_cluster=2, dim=2, **{field: value})

    def test_float32_max_scale_is_accepted(self):
        top = float(np.finfo(np.float32).max)
        spec = SyntheticSpec(n_clusters=2, points_per_cluster=2, dim=2, cluster_spread=top, center_scale=top)
        assert spec.center_scale == spec.cluster_spread == top


class TestGenerateSynthetic:
    def test_shapes_and_dtypes(self):
        spec = SyntheticSpec(
            n_clusters=5, points_per_cluster=12, dim=6, n_queries=9, seed=3
        )
        ds = generate_synthetic(spec, gt_depth=8)
        assert ds.base.shape == (60, 6) and ds.base.dtype == np.float32
        assert ds.queries.shape == (9, 6)
        assert ds.learning.shape == (spec.n_learning, 6)
        assert ds.base_labels.shape == (60,)
        assert ds.query_labels.tolist() == [0, 1, 2, 3, 4, 0, 1, 2, 3]
        assert ds.ground_truth.shape == (9, 8)

    def test_gt_depth_must_be_positive(self):
        spec = SyntheticSpec(n_clusters=2, points_per_cluster=3, dim=4, n_queries=2)
        with pytest.raises(ValueError, match="gt_depth must be at least 1"):
            generate_synthetic(spec, gt_depth=0)

    def test_gt_depth_clamped_to_base_size(self):
        spec = SyntheticSpec(n_clusters=2, points_per_cluster=3, dim=4, n_queries=2)
        ds = generate_synthetic(spec, gt_depth=100)
        assert ds.ground_truth.shape == (2, 6)

    def test_deterministic_and_seed_sensitive(self):
        spec = SyntheticSpec(n_clusters=4, points_per_cluster=10, dim=5, seed=11)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        c = generate_synthetic(
            SyntheticSpec(n_clusters=4, points_per_cluster=10, dim=5, seed=12)
        )
        np.testing.assert_array_equal(a.base, b.base)
        np.testing.assert_array_equal(a.queries, b.queries)
        np.testing.assert_array_equal(a.ground_truth, b.ground_truth)
        assert not np.array_equal(a.base, c.base)

    def test_base_reproducible_regardless_of_query_count(self):
        small = SyntheticSpec(n_clusters=4, points_per_cluster=10, dim=5, seed=11, n_queries=3)
        large = SyntheticSpec(n_clusters=4, points_per_cluster=10, dim=5, seed=11, n_queries=50)
        np.testing.assert_array_equal(
            generate_synthetic(small).base, generate_synthetic(large).base
        )

    @pytest.mark.parametrize("rows", [1, 7, 60])
    def test_block_size_does_not_change_the_dataset(self, rows):
        # 60 base, 9 query and 15 learning rows: 7-row blocks leave each
        # split a ragged last block, 60-row blocks hold each split whole
        spec = SyntheticSpec(n_clusters=5, points_per_cluster=12, dim=6, n_queries=9, seed=4)
        expected = generate_synthetic(spec, gt_depth=10)
        with mock.patch.object(dataio_mod, "_BLOCK_ELEMENTS", rows * spec.dim):
            got = generate_synthetic(spec, gt_depth=10)
        for field in ("base", "queries", "learning", "base_labels", "query_labels", "ground_truth"):
            a, b = getattr(expected, field), getattr(got, field)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field

    def test_peak_memory_is_the_float32_splits_plus_a_block(self):
        # the splits are drawn in blocks straight into float32, with no
        # float64 copy of a whole split
        spec = SyntheticSpec(n_clusters=100, points_per_cluster=200, dim=64, n_queries=100, seed=5)
        out_bytes = (20_000 + spec.n_queries + spec.n_learning) * spec.dim * 4

        def no_gt(base, queries, k):
            return np.zeros((len(queries), k), dtype=np.int64)

        with mock.patch.object(dataio_mod, "_BLOCK_ELEMENTS", 1024 * spec.dim), mock.patch.object(
            dataio_mod, "brute_force_gt", no_gt
        ):
            tracemalloc.start()
            try:
                ds = generate_synthetic(spec)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert ds.base.shape == (20_000, 64)
        assert peak < 2 * out_bytes

    def test_tight_clusters_make_labels_the_ground_truth(self):
        spec = SyntheticSpec(
            n_clusters=10,
            points_per_cluster=30,
            dim=16,
            cluster_spread=0.01,
            n_queries=40,
            seed=21,
        )
        ds = generate_synthetic(spec, gt_depth=1)
        nearest_labels = ds.base_labels[ds.ground_truth[:, 0]]
        np.testing.assert_array_equal(nearest_labels, ds.query_labels)

    def test_kmeans_recovers_cluster_noise_floor(self):
        # with k == number of clusters and tiny spread, the trained objective
        # approaches N * dim * spread^2 (the summed noise variance)
        spec = SyntheticSpec(
            n_clusters=8, points_per_cluster=40, dim=16, cluster_spread=0.05, seed=31
        )
        ds = generate_synthetic(spec, gt_depth=1)
        cb = train(ds.base, 8, TrainParams(seed=31))
        expected = 320 * 16 * 0.05**2  # 12.8
        assert cb.train_meta.objective == pytest.approx(expected, rel=0.2)
