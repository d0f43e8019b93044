"""The benchmark's three workloads, driven through the public library API.

online-t  the `multikmeans query` path: search() one query at a time, base
          served by a memory-mapped VectorReader.
batch-n   the `multikmeans eval` path: search_ids() over blocks of queries,
          base held in memory, rank variant n.
build     the write side: train, encode, build/save/load the index, then
          brute-force ground truth.

Every workload prints every end-to-end metric. A query's latency is the
wall time of the library call that returned its answer: one search() call
on online-t, one search_ids() block on batch-n, one brute_force_gt() call on
build. The search workloads train and index in set-up, which gives them
build_s. gt_ms_per_query is a per-layer value: the generator's ground-truth
call on the search workloads, the measured brute_force_gt() calls on build.

Import this module only after common.use_source_tree().
"""

from __future__ import annotations

import gc
import json
import resource
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import multikmeans as mk
from multikmeans.core import hamming_distances

from common import BENCH, WORKLOADS, Sizes
from reference import fvecs_rows, reference_knn, reference_search, reference_shortlist, same_ranking
from spans import Tracer

END_TO_END_UNITS = {
    "setup_s": "s",
    "qps": "1/s",
    "query_p50_ms": "ms",
    "build_s": "s",
    "index_bytes_per_vector": "B",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "index.scan_ms": "ms",
    "index.select_ms": "ms",
    "index.candidates_scanned": "count",
    "index.cutoff_radius": "bits",
    "index.tie_set": "count",
    "index.select_useful_ratio": "share",
    "dataio.take_ms": "ms",
    "dataio.take_bytes": "B",
    "index.gather_ms": "ms",
    "index.rerank_ms": "ms",
    "encoder.query_ms": "ms",
    "encoder.bits_set_mean": "count",
    "kmeans.seed_s": "s",
    "kmeans.lloyd_s": "s",
    "kmeans.iterations": "count",
    "kmeans.lloyd_ms_per_iter": "ms",
    "encoder.base_vectors_per_s": "1/s",
    "dataio.read_mb_per_s": "MB/s",
    "index.build_s": "s",
    "index.save_s": "s",
    "index.load_s": "s",
    "gt_ms_per_query": "ms",
    "trace.overhead_share": "share",
}

# per-layer values that are differences of two separately timed calls
DERIVED = {"index.select_ms", "index.rerank_ms", "kmeans.lloyd_s", "kmeans.lloyd_ms_per_iter"}


@dataclass
class Tally:
    """Operations attempted and failed; a failure raised or gave a wrong output."""

    attempted: int = 0
    failed: int = 0
    reported: int = 0

    def record(self, ok: bool, what: str, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            self._report(f"wrong output: {what}")

    def raised(self, what: str, count: int = 1) -> None:
        self.attempted += count
        self.failed += count
        self._report(f"{what} raised:\n{traceback.format_exc()}")

    def _report(self, message: str) -> None:
        if self.reported < 5:
            print(f"FAIL {message}", file=sys.stderr)
        self.reported += 1


@dataclass
class Outcome:
    end_to_end: dict
    per_layer: dict
    tally: Tally
    unbounded: dict  # name -> (value, unit): printed, not declared in BENCHMARK.json
    notes: list = field(default_factory=list)
    tracer: Tracer | None = None


@dataclass
class Data:
    dir: Path
    learning: np.ndarray
    queries: np.ndarray
    ground_truth: np.ndarray
    gt_s: float

    @property
    def base_path(self) -> Path:
        return self.dir / "base.fvecs"

    def reference_rows(self) -> np.ndarray:
        """The base rows as the reference reads them, apart from the library."""
        return fvecs_rows(self.base_path)


@dataclass
class Built:
    codebook: object
    codes: np.ndarray
    index: object


def _ms(seconds) -> float:
    return float(seconds) * 1e3


def _untraced_span(name, query=None, **counts):
    return nullcontext({})


def generate(workdir: Path, sizes: Sizes, seed: int, n_queries: int) -> Data:
    """Write the dataset from a child process, then load its small files."""
    cmd = [
        sys.executable,
        str(BENCH / "gen.py"),
        str(workdir),
        str(seed),
        str(sizes.clusters),
        str(sizes.per_cluster),
        str(sizes.dim),
        repr(sizes.spread),
        str(n_queries),
        str(sizes.gt_depth),
    ]
    subprocess.run(cmd, check=True)
    return Data(
        dir=workdir,
        learning=mk.read_vectors(workdir / "learning.fvecs"),
        queries=mk.read_vectors(workdir / "queries.fvecs"),
        ground_truth=mk.read_vectors(workdir / "groundtruth.ivecs").astype(np.int64),
        gt_s=json.loads((workdir / "gen.json").read_text())["gt_s"],
    )


def build_pipeline(data: Data, spec, sizes: Sizes, seed: int, tracer: Tracer | None) -> Built:
    """Learning set to a loaded, searchable index, by the calls `multikmeans
    train` and `multikmeans index` make. Traced, kmeanspp_seed is first
    called on its own, so the trace can split seeding from Lloyd sweeps;
    train() seeds again itself, so that call is extra work."""
    span = tracer.span if tracer else _untraced_span
    if tracer is not None:
        with span("kmeans.kmeanspp_seed"):
            mk.kmeanspp_seed(data.learning, sizes.k, seed)
    with span("kmeans.train") as counts:
        codebook = mk.train(data.learning, sizes.k, mk.TrainParams(seed=seed))
        counts["iterations"] = codebook.train_meta.iterations
    with span("encoder.encode_base"), mk.VectorReader(data.base_path) as reader:
        parts = []
        for start in range(0, reader.count, sizes.read_block):
            n = min(sizes.read_block, reader.count - start)
            with span("dataio.read", bytes=n * reader.meta.record_size):
                block = reader.read(start, n)
            with span("encoder.encode_many", vectors=n):
                parts.append(mk.encode_many(block, codebook, spec))
        codes = np.vstack(parts)
        count = reader.count
    with span("index.build_index"):
        index = mk.build_index(codes, np.arange(count), spec, codebook)
    path = data.dir / "bench.mkmi"
    with span("index.save_index"):
        mk.save_index(index, path)
    with span("index.load_index"):
        loaded = mk.load_index(path)
    return Built(codebook, codes, loaded)


def check_loaded(built: Built, spec, tally: Tally) -> None:
    idx = built.index
    ok = (
        np.array_equal(idx.codes, built.codes)
        and np.array_equal(idx.ids, np.arange(built.codes.shape[0]))
        and idx.spec == spec
        and idx.code_length == built.codebook.k
    )
    tally.record(ok, "load_index did not return the saved codes and ids")


def check_shortlists(tally: Tally, index, firsts: dict, limit: int) -> None:
    """shortlist() output of each distinct query against the naive reference."""
    for j, (words, cand) in firsts.items():
        want = reference_shortlist(index.codes, index.ids, words, limit)
        tally.record(np.array_equal(cand, want), f"shortlist() of query {j} differs from the reference")


def _latency_metrics(per_query_seconds: np.ndarray, busy_s: float) -> dict:
    """qps over the seconds spent in the answering calls, and the median of
    one latency per answered query."""
    return {
        "qps": per_query_seconds.shape[0] / busy_s,
        "query_p50_ms": _ms(np.percentile(per_query_seconds, 50)),
    }


def _p99(per_query_seconds: np.ndarray) -> tuple:
    return _ms(np.percentile(per_query_seconds, 99)), "ms"


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _overhead_share(untraced_seconds, traced_seconds) -> float:
    """1 - untraced / traced median time of the same library work: what the
    spans around it cost, and nothing else."""
    return 1.0 - float(np.median(untraced_seconds)) / float(np.median(traced_seconds))


def _build_layers(tracer: Tracer, n_vectors: int) -> dict:
    """Per-layer values of the build pipeline, medians over its repetitions."""
    seed = np.array([s.seconds for s in tracer.named("kmeans.kmeanspp_seed")])
    trains = tracer.named("kmeans.train")
    train = np.array([s.seconds for s in trains])
    iters = np.array([s.counts["iterations"] for s in trains], dtype=np.float64)
    lloyd = train - seed
    read = tracer.named("dataio.read")
    encode = tracer.named("encoder.encode_many")
    return {
        "kmeans.seed_s": float(np.median(seed)),
        "kmeans.lloyd_s": float(np.median(lloyd)),
        "kmeans.iterations": float(np.median(iters)),
        "kmeans.lloyd_ms_per_iter": _ms(np.median(lloyd / np.maximum(iters, 1))),
        "encoder.base_vectors_per_s": len(trains) * n_vectors / sum(s.seconds for s in encode),
        "dataio.read_mb_per_s": sum(s.counts["bytes"] for s in read) / 1e6 / sum(s.seconds for s in read),
        "index.build_s": float(np.median([s.seconds for s in tracer.named("index.build_index")])),
        "index.save_s": float(np.median([s.seconds for s in tracer.named("index.save_index")])),
        "index.load_s": float(np.median([s.seconds for s in tracer.named("index.load_index")])),
    }


def _shortlist_layers(tracer: Tracer, limit: int) -> dict:
    """Scan, select, gather and take values, medians over queries."""
    scan = tracer.by_query("core.hamming_distances")
    short = tracer.by_query("index.shortlist")
    lists = tracer.named("index.shortlist")
    takes = tracer.named("dataio.take")
    tie = np.mean([s.counts["tie_set"] for s in lists])
    return {
        "index.scan_ms": _ms(np.median(list(scan.values()))),
        "index.select_ms": _ms(np.median([short[q] - scan[q] for q in short])),
        "index.candidates_scanned": float(np.mean([s.counts["scanned"] for s in lists])),
        "index.cutoff_radius": float(np.mean([s.counts["cutoff_radius"] for s in lists])),
        "index.tie_set": float(tie),
        "index.select_useful_ratio": float(limit / tie),
        "dataio.take_ms": _ms(np.median([s.seconds for s in takes])),
        "dataio.take_bytes": float(np.mean([s.counts["bytes"] for s in takes])),
        "index.gather_ms": _ms(np.median([s.seconds for s in tracer.named("index.gather")])),
    }


class SearchWorkload:
    """Shared set-up, checks and metrics of online-t and batch-n."""

    def __init__(self, sizes: Sizes, seed: int, workdir: Path, traced: bool):
        self.sizes = sizes
        self.seed = seed
        self.tally = Tally()
        self.tracer = Tracer() if traced else None
        t0 = time.perf_counter()
        self.data = generate(workdir, sizes, seed, self.n_queries)
        t1 = time.perf_counter()
        self.built = build_pipeline(self.data, self.spec, sizes, seed, self.tracer)
        self.build_s = time.perf_counter() - t1
        self.index = self.built.index
        self.open_store()
        self.setup_s = time.perf_counter() - t0
        self.generate_s = t1 - t0
        check_loaded(self.built, self.spec, self.tally)

    def run(self, seconds: float) -> Outcome:
        latencies, busy_s, loop_s = self.measure(seconds)
        # taken before the reference checks map the base file a second time
        peak_rss_mb = _peak_rss_mb()
        per_layer = {}
        if self.tracer is not None:
            per_layer = self.traced_phase(seconds)
            traced = [s.seconds for s in self.tracer.named(self.call_name)]
            per_layer["trace.overhead_share"] = _overhead_share(self.call_seconds, traced)
            per_layer.update(_build_layers(self.tracer, self.index.size))
            per_layer["encoder.bits_set_mean"] = float(np.bitwise_count(self.built.codes).sum(axis=1).mean())
        gt_ms = _ms(self.data.gt_s / self.data.queries.shape[0])
        per_layer["gt_ms_per_query"] = gt_ms
        self.check_expected()
        end_to_end = {
            "setup_s": self.setup_s,
            **_latency_metrics(latencies, busy_s),
            "build_s": self.build_s,
            "index_bytes_per_vector": (self.data.dir / "bench.mkmi").stat().st_size / self.index.size,
            "peak_rss_mb": peak_rss_mb,
        }
        unbounded = {
            "query_p99_ms": _p99(latencies),
            "recall_at_1": (self.recall_at_1(), "share"),
            "gt_ms_per_query": (gt_ms, "ms"),
        }
        notes = [
            f"set-up: {self.generate_s:.2f} s generating (child process), {self.build_s:.2f} s train+index",
            f"query latency samples: {latencies.shape[0]} queries in {self.calls} library calls "
            f"over {self.data.queries.shape[0]} distinct queries; measured loop {loop_s:.2f} s",
        ]
        return Outcome(end_to_end, per_layer, self.tally, unbounded, notes, self.tracer)


class OnlineT(SearchWorkload):
    """Variant t, one search() call per query over a memory-mapped base."""

    call_name = "index.search"

    @property
    def n_queries(self) -> int:
        return self.sizes.online_queries

    @property
    def spec(self):
        return mk.EncoderSpec(mk.Variant.T, mean_kind=mk.MeanKind.ARITHMETIC)

    def open_store(self) -> None:
        self.reader = mk.VectorReader(self.data.base_path)

    def close(self) -> None:
        self.reader.close()

    def measure(self, seconds: float):
        """At least online_min_calls search() calls and `seconds`, cycling over
        the distinct queries. A query's first result is kept for the reference
        check; every later call must return exactly the same."""
        queries, nq = self.data.queries, self.data.queries.shape[0]
        index, reader = self.index, self.reader
        limit, top = self.sizes.online_shortlist, self.sizes.online_top
        expected = [None] * nq
        latencies = []
        gc.collect()
        start = time.perf_counter()
        i = 0
        while True:
            j = i % nq
            t0 = time.perf_counter()
            try:
                ranked = mk.search(index, reader, queries[j], limit, top).ranked
            except Exception:
                ranked = None
                self.tally.raised(f"search() of query {j}")
            t1 = time.perf_counter()
            latencies.append(t1 - t0)
            if i < nq:
                expected[j] = ranked
            elif ranked is not None:
                self.tally.record(ranked == expected[j], f"search() of query {j} changed between calls")
            i += 1
            if i >= self.sizes.online_min_calls and t1 - start >= seconds:
                break
        self.expected = expected
        self.calls = i
        latencies = np.asarray(latencies)
        self.call_seconds = latencies
        return latencies, latencies.sum(), time.perf_counter() - start

    def check_expected(self) -> None:
        """Every distinct query's result against the naive reference."""
        idx, rows = self.index, self.data.reference_rows()
        for j, q in enumerate(self.data.queries):
            if self.expected[j] is None:
                continue
            code = mk.encode(q, idx.quantizer, idx.spec)
            want_ids, want_scores = reference_search(
                idx.codes, idx.ids, code.words, q, rows.__getitem__,
                self.sizes.online_shortlist, self.sizes.online_top,
            )
            got = self.expected[j]
            ok = same_ranking([i for i, _ in got], [s for _, s in got], want_ids, want_scores)
            self.tally.record(ok, f"search() of query {j} differs from the reference")

    def recall_at_1(self) -> float:
        ranked = [[i for i, _ in r] if r is not None else [-1] for r in self.expected]
        return mk.recall_at_r(ranked, self.data.ground_truth, 1)

    def traced_phase(self, seconds: float) -> dict:
        base = mk.read_vectors(self.data.base_path)
        return traced_queries(
            self.tracer, self.tally, self.index, self.reader, base, self.data.queries,
            self.sizes.online_shortlist, self.sizes.online_top, seconds, self.expected,
        )


def _trace_stages(tracer, index, code, base, reader, limit: int, qid: int) -> np.ndarray:
    """Separately timed scan, shortlist, in-memory gather and take of one
    query's code; records the shortlist's counts and returns the shortlist."""
    with tracer.span("core.hamming_distances", query=qid):
        ham = hamming_distances(index.codes, code.words)
    with tracer.span("index.shortlist", query=qid) as counts:
        cand = mk.shortlist(index, code, limit)
    with tracer.span("index.gather", query=qid):
        base[cand]
    with tracer.span("dataio.take", query=qid, bytes=cand.shape[0] * reader.meta.record_size):
        reader.take(cand)
    radius = int(ham[cand[-1]])
    counts.update(scanned=ham.shape[0], cutoff_radius=radius, tie_set=int((ham <= radius).sum()))
    return cand


def traced_queries(tracer, tally, index, reader, base, queries, limit, top, seconds, expected=None) -> dict:
    """search() one query at a time, each followed by separately timed calls
    to the public functions it is made of; returns the per-layer values.

    The query path gathers from `reader` (a VectorReader), so the derived
    re-rank time subtracts dataio.take; index.gather is the same gather from
    an in-memory array, timed for comparison.
    """
    nq = queries.shape[0]
    firsts = {}  # distinct query -> (code words, shortlist), checked after the timed loop
    start = time.perf_counter()
    i = 0
    while i < nq or time.perf_counter() - start < seconds:
        j = i % nq
        q = queries[j]
        with tracer.span("query", query=i):
            with tracer.span("index.search"):
                ranked = mk.search(index, reader, q, limit, top).ranked
            with tracer.span("encoder.encode"):
                code = mk.encode(q, index.quantizer, index.spec)
            cand = _trace_stages(tracer, index, code, base, reader, limit, i)
        if expected is not None:
            tally.record(ranked == expected[j], f"traced search() of query {j} changed between calls")
        firsts.setdefault(j, (code.words, cand))
        i += 1
    check_shortlists(tally, index, firsts, limit)
    layers = _shortlist_layers(tracer, limit)
    search = tracer.by_query("index.search")
    encode = tracer.by_query("encoder.encode")
    short = tracer.by_query("index.shortlist")
    take = tracer.by_query("dataio.take")
    layers["encoder.query_ms"] = _ms(np.median(list(encode.values())))
    layers["index.rerank_ms"] = _ms(np.median([search[q] - encode[q] - short[q] - take[q] for q in search]))
    return layers


class BatchN(SearchWorkload):
    """Variant n, search_ids() over blocks of queries against an in-memory base."""

    call_name = "index.search_ids"

    @property
    def n_queries(self) -> int:
        return self.sizes.batch_queries

    @property
    def spec(self):
        return mk.EncoderSpec(mk.Variant.N, n_nearest=self.sizes.n_nearest)

    def open_store(self) -> None:
        self.base = mk.read_vectors(self.data.base_path)

    def close(self) -> None:
        pass

    def _blocks(self):
        q, b = self.data.queries, self.sizes.batch_block
        return [(s, q[s : s + b]) for s in range(0, q.shape[0], b)]

    def _search_ids(self, block):
        return mk.search_ids(self.index, self.base, block, self.sizes.batch_shortlist, self.sizes.batch_top)

    def _compare(self, ids, want, s: int, what: str) -> None:
        n = ids.shape[0]
        same = 0 if want is None else int((ids == want).all(axis=1).sum())
        self.tally.record(True, "", same)
        if same < n:
            self.tally.record(False, f"{what} of the block at query {s} changed between calls", n - same)

    def measure(self, seconds: float):
        """Whole passes of search_ids() blocks for at least `seconds`. The
        first pass's ids are kept for the reference check; every later pass
        must return exactly the same."""
        blocks = self._blocks()
        expected = [None] * len(blocks)
        latencies, call_seconds = [], []
        calls = 0
        busy_s = 0.0
        gc.collect()
        start = time.perf_counter()
        while calls == 0 or time.perf_counter() - start < seconds:
            for b, (s, block) in enumerate(blocks):
                t0 = time.perf_counter()
                try:
                    ids = self._search_ids(block)
                except Exception:
                    ids = None
                    self.tally.raised(f"search_ids() of the block at query {s}", block.shape[0])
                took = time.perf_counter() - t0
                call_seconds.append(took)
                latencies.extend([took] * block.shape[0])
                busy_s += took
                if calls < len(blocks):
                    expected[b] = ids
                elif ids is not None:
                    self._compare(ids, expected[b], s, "search_ids()")
                calls += 1
        self.expected = expected
        self.calls = calls
        self.call_seconds = call_seconds
        return np.asarray(latencies), busy_s, time.perf_counter() - start

    def check_expected(self) -> None:
        idx, limit, top = self.index, self.sizes.batch_shortlist, self.sizes.batch_top
        rows = self.data.reference_rows()
        for (s, block), got in zip(self._blocks(), self.expected):
            if got is None:
                continue
            codes = mk.encode_many(block, idx.quantizer, idx.spec)
            for r in range(block.shape[0]):
                want_ids, _ = reference_search(
                    idx.codes, idx.ids, codes[r], block[r], rows.__getitem__, limit, top
                )
                self.tally.record(
                    same_ranking(got[r], None, want_ids, None),
                    f"search_ids() row of query {s + r} differs from the reference",
                )

    def recall_at_1(self) -> float:
        rows = [row for got in self.expected if got is not None for row in got]
        if len(rows) != self.data.queries.shape[0]:
            return 0.0
        return mk.recall_at_r(rows, self.data.ground_truth, 1)

    def traced_phase(self, seconds: float) -> dict:
        """search_ids() per block, then the block's batched encode and, per
        query, separately timed scan, shortlist, in-memory gather and take.
        The query path gathers from memory, so the derived re-rank time
        subtracts index.gather; dataio.take is timed for comparison."""
        tracer, idx = self.tracer, self.index
        limit = self.sizes.batch_shortlist
        firsts = {}
        block_spans = []
        answered = 0
        start = time.perf_counter()
        with mk.VectorReader(self.data.base_path) as reader:
            while time.perf_counter() - start < seconds or answered == 0:
                for (s, block), want in zip(self._blocks(), self.expected):
                    first = len(tracer.spans)
                    with tracer.span("block", query=answered):
                        with tracer.span("index.search_ids"):
                            ids = self._search_ids(block)
                        with tracer.span("encoder.encode_queries"):
                            codes = mk.encode_many(block, idx.quantizer, idx.spec)
                        for r in range(block.shape[0]):
                            code = mk.HashCode(codes[r], idx.code_length)
                            cand = _trace_stages(tracer, idx, code, self.base, reader, limit, answered + r)
                            firsts.setdefault(s + r, (codes[r], cand))
                    block_spans.append((tracer.spans[first:], block.shape[0]))
                    answered += block.shape[0]
                    self._compare(ids, want, s, "traced search_ids()")
        check_shortlists(self.tally, idx, firsts, limit)
        layers = _shortlist_layers(tracer, limit)

        def total(spans, name):
            return sum(x.seconds for x in spans if x.name == name)

        layers["encoder.query_ms"] = _ms(np.median([total(sp, "encoder.encode_queries") / n for sp, n in block_spans]))
        layers["index.rerank_ms"] = _ms(
            np.median(
                [
                    (total(sp, "index.search_ids") - total(sp, "encoder.encode_queries")) / n
                    - (total(sp, "index.shortlist") + total(sp, "index.gather")) / n
                    for sp, n in block_spans
                ]
            )
        )
        return layers


class Build:
    """Train, encode, build, save and load an index, then exact ground truth."""

    def __init__(self, sizes: Sizes, seed: int, workdir: Path, traced: bool):
        self.sizes = sizes
        self.seed = seed
        self.tally = Tally()
        self.tracer = Tracer() if traced else None
        self.spec = mk.EncoderSpec(mk.Variant.T, mean_kind=mk.MeanKind.ARITHMETIC)
        t0 = time.perf_counter()
        self.data = generate(workdir, sizes, seed, sizes.build_queries)
        self.base = mk.read_vectors(self.data.base_path)
        self.setup_s = time.perf_counter() - t0
        self.first = None  # first iteration's codebook bytes and ground truth

    def iterate(self, seconds: float, tracer: Tracer | None):
        """Repeat the pipeline until `seconds` pass; per-iteration build and
        ground-truth seconds, and the last index built. Only a traced pass
        calls kmeanspp_seed on its own, so untraced build_s times exactly the
        calls `multikmeans train` and `multikmeans index` make."""
        span = tracer.span if tracer else _untraced_span
        queries, depth = self.data.queries, self.sizes.gt_depth
        builds, gts, last = [], [], None
        start = time.perf_counter()
        while len(builds) < self.sizes.build_min_iterations or time.perf_counter() - start < seconds:
            t0 = time.perf_counter()
            try:
                built = build_pipeline(self.data, self.spec, self.sizes, self.seed, tracer)
            except Exception:
                self.tally.raised("the build pipeline")
                break
            t1 = time.perf_counter()
            try:
                with span("evaluate.brute_force_gt", queries=queries.shape[0]):
                    gt = mk.brute_force_gt(self.base, queries, depth)
            except Exception:
                self.tally.raised("brute_force_gt()", queries.shape[0])
                break
            t2 = time.perf_counter()
            builds.append(t1 - t0)
            gts.append(t2 - t1)
            last = built
            self.check_iteration(built, gt)
        if not builds:
            raise RuntimeError("no build iteration completed")
        return np.asarray(builds), np.asarray(gts), last

    def check_iteration(self, built: Built, gt: np.ndarray) -> None:
        check_loaded(built, self.spec, self.tally)
        trained = built.codebook.centroids.tobytes()
        if self.first is None:
            self.first = (trained, gt)
        else:
            self.tally.record(trained == self.first[0], "train() with one seed gave other codebook bytes")
        same = (gt == self.data.ground_truth[:, : gt.shape[1]]).all(axis=1)
        self.tally.record(True, "", int(same.sum()))
        if not same.all():
            self.tally.record(False, "brute_force_gt() differs from the generator's ground truth", int((~same).sum()))

    def check_reference(self) -> None:
        """brute_force_gt against direct differences on a sample of queries."""
        gt, rows = self.first[1], self.data.reference_rows()
        for j in range(min(self.sizes.gt_check_queries, gt.shape[0])):
            want = reference_knn(rows, self.data.queries[j], gt.shape[1])
            self.tally.record(np.array_equal(gt[j], want), f"brute_force_gt() row {j} differs from the reference")

    def run(self, seconds: float) -> Outcome:
        nq = self.data.queries.shape[0]
        gc.collect()
        builds, gts, last = self.iterate(seconds, None)
        peak_rss_mb = _peak_rss_mb()
        per_layer = {}
        if self.tracer is not None:
            traced_builds, traced_gts, last = self.iterate(seconds, self.tracer)
            per_layer = _build_layers(self.tracer, self.base.shape[0])
            per_layer["gt_ms_per_query"] = _ms(np.median(traced_gts) / nq)
            # the traced pass's extra kmeanspp_seed call is not span overhead
            seeding = np.array([s.seconds for s in self.tracer.named("kmeans.kmeanspp_seed")])
            per_layer["trace.overhead_share"] = _overhead_share(builds, traced_builds - seeding[: traced_builds.shape[0]])
            per_layer["encoder.bits_set_mean"] = float(np.bitwise_count(last.codes).sum(axis=1).mean())
            with mk.VectorReader(self.data.base_path) as reader:
                probe = traced_queries(
                    self.tracer, self.tally, last.index, reader, self.base, self.data.queries,
                    self.sizes.online_shortlist, self.sizes.online_top, 0.0,
                )
            per_layer.update(probe)
        self.check_reference()
        end_to_end = {
            "setup_s": self.setup_s,
            **_latency_metrics(np.repeat(gts, nq), gts.sum()),
            "build_s": float(np.median(builds)),
            "index_bytes_per_vector": (self.data.dir / "bench.mkmi").stat().st_size / self.base.shape[0],
            "peak_rss_mb": peak_rss_mb,
        }
        unbounded = {"query_p99_ms": _p99(np.repeat(gts, nq)), "gt_ms_per_query": (_ms(np.median(gts) / nq), "ms")}
        notes = [
            f"build iterations: {builds.shape[0]} untraced, build_s samples {np.round(builds, 3).tolist()}",
            f"query latency samples: {nq * gts.shape[0]} queries in {gts.shape[0]} brute_force_gt() calls",
        ]
        return Outcome(end_to_end, per_layer, self.tally, unbounded, notes, self.tracer)

    def close(self) -> None:
        pass


def run_workload(name: str, sizes: Sizes, seed: int, seconds: float, traced: bool, workdir: Path) -> Outcome:
    workload = dict(zip(WORKLOADS, (OnlineT, BatchN, Build)))[name](sizes, seed, workdir, traced)
    try:
        return workload.run(seconds)
    finally:
        workload.close()
