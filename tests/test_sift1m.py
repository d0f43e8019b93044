"""Optional benchmark against the public SIFT1M dataset.

Runs only when MULTIKMEANS_SIFT1M points at a directory holding the
standard files (sift_base.fvecs, sift_learn.fvecs, sift_query.fvecs,
sift_groundtruth.ivecs). Expect a few minutes of runtime.
"""

import os
import time

import numpy as np
import pytest

from multikmeans.dataio import VectorReader, read_vectors
from multikmeans.encoder import EncoderSpec, MeanKind, Variant, encode_many
from multikmeans.index import build_index, search_ids
from multikmeans.kmeans import TrainParams, train

SIFT_DIR = os.environ.get("MULTIKMEANS_SIFT1M")

pytestmark = pytest.mark.skipif(
    not SIFT_DIR, reason="MULTIKMEANS_SIFT1M not set; SIFT1M files not available"
)


def test_sift1m_threshold_variant_recall():
    base_path = os.path.join(SIFT_DIR, "sift_base.fvecs")
    learn_path = os.path.join(SIFT_DIR, "sift_learn.fvecs")
    query_path = os.path.join(SIFT_DIR, "sift_query.fvecs")
    gt_path = os.path.join(SIFT_DIR, "sift_groundtruth.ivecs")

    t0 = time.perf_counter()
    learning = read_vectors(learn_path)
    cb = train(learning, 64, TrainParams(seed=0))
    spec = EncoderSpec(Variant.T, MeanKind.ARITHMETIC)

    with VectorReader(base_path) as reader:
        codes = encode_many(reader, cb, spec)  # reads the base in encode blocks
        index = build_index(codes, np.arange(reader.count, dtype=np.int64), spec, cb)

        queries = read_vectors(query_path)
        gt = read_vectors(gt_path)
        truth = gt[:, 0].astype(np.int64)[:, None]

        hits = {1: 0, 100: 0, 1000: 0}
        for s in range(0, queries.shape[0], 256):
            block = queries[s : s + 256]
            ids = search_ids(index, reader, block, shortlist_size=10_000, top=1000)
            t = truth[s : s + 256]
            for r in hits:
                hits[r] += int((ids[:, :r] == t).any(axis=1).sum())

    n = queries.shape[0]
    r1, r100, r1000 = hits[1] / n, hits[100] / n, hits[1000] / n
    dt = time.perf_counter() - t0
    line = (
        f"[acceptance] sift1m-threshold-variant: recall@1={r1:.3f} "
        f"recall@100={r100:.4f} recall@1000={r1000:.4f} in {dt:.0f}s"
    )
    print(line)
    assert r100 >= 0.9995, line
    assert r1000 >= 0.9995, line
    assert abs(r1 - 0.501) <= 0.10, line
