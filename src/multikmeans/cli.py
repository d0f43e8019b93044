"""Command-line pipeline: gen, gt, train, index, query, eval.

Seed discipline: every stochastic stage draws from its own child stream of
the run seed (core.derive_seed): training split and the two sub-codebook
trainings use tags 1-3, the synthetic generator tags 10-13, and evaluation
query sampling tag 20. Identical configuration therefore reproduces
byte-identical reports; wall-clock timings go to the console only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .core import FormatError, atomic_write, derive_seed
from .dataio import (
    SyntheticSpec,
    VectorReader,
    generate_synthetic,
    read_labels,
    read_vectors,
    write_labels,
    write_vectors,
)
from .encoder import (
    DualCodebook,
    EncoderSpec,
    MeanKind,
    Variant,
    encode_many,
    load_quantizer,
    save_quantizer,
    train_dual_codebook,
)
from .evaluate import average_precision, brute_force_gt, label_relevance
from .index import build_index, load_index, save_index, search, search_ids
from .kmeans import TrainParams, train

__all__ = ["main", "build_parser", "ConfigError"]

_QUERY_SAMPLE_STREAM = 20
_EVAL_BLOCK = 256  # queries scored per search_ids call; bounds memory


class ConfigError(Exception):
    """Bad flag value or combination; exits with status 2."""


def _ints_csv(text: str, name: str) -> list[int]:
    try:
        values = [int(tok) for tok in str(text).split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"{name} must be a comma-separated list of integers, got {text!r}") from exc
    if not values:
        raise ConfigError(f"{name} must list at least one integer")
    return values


def _positive(value: int, name: str) -> int:
    if value < 1:
        raise ConfigError(f"{name} must be at least 1, got {value}")
    return value


def _seed_ok(value: int, name: str = "--seed") -> int:
    if not (0 <= value < 2**64):
        raise ConfigError(f"{name} must fit in an unsigned 64-bit integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="multikmeans",
        description="Compact k-means hash codes for approximate nearest-neighbor search.",
        allow_abbrev=False,
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", metavar="command")

    g = sub.add_parser("gen", help="generate a clustered synthetic dataset", allow_abbrev=False)
    g.add_argument("--out-dir", required=True, help="directory for the generated files")
    g.add_argument("--clusters", type=int, default=64)
    g.add_argument("--per-cluster", type=int, default=160, help="base points per cluster")
    g.add_argument("--dim", type=int, default=128)
    g.add_argument("--spread", type=float, default=0.05, help="within-cluster noise scale")
    g.add_argument("--center-scale", type=float, default=1.0)
    g.add_argument("--queries", type=int, default=100)
    g.add_argument("--learning", type=int, default=None, help="learning points (default: base/4)")
    g.add_argument("--gt-depth", type=int, default=100)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=cmd_gen)

    t = sub.add_parser("gt", help="compute exact ground truth for a query set", allow_abbrev=False)
    t.add_argument("--base", required=True)
    t.add_argument("--queries", required=True)
    t.add_argument("--out", required=True, help="output id file (.ivecs)")
    t.add_argument("--depth", type=int, default=100, help="neighbors per query")
    t.set_defaults(func=cmd_gt)

    tr = sub.add_parser("train", help="train a codebook on a learning set", allow_abbrev=False)
    tr.add_argument("--learning", required=True, help="learning vectors (.fvecs/.bvecs)")
    tr.add_argument("--variant", required=True, choices=[v.value for v in Variant])
    tr.add_argument("--k", type=int, required=True, help="total code length in bits")
    tr.add_argument("--max-iters", type=int, default=100)
    tr.add_argument("--tol", type=float, default=1e-4, help="relative objective improvement cutoff")
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--out", required=True, help="output codebook path")
    tr.set_defaults(func=cmd_train)

    ix = sub.add_parser("index", help="encode base vectors into a search index", allow_abbrev=False)
    ix.add_argument("--codebook", required=True)
    ix.add_argument("--base", required=True, help="base vectors (.fvecs/.bvecs)")
    ix.add_argument("--out", required=True, help="output index path")
    ix.add_argument("--variant", required=True, choices=[v.value for v in Variant])
    ix.add_argument("--mean", choices=[m.value for m in MeanKind], default=None,
                    help="threshold mean for t/t2 (default arith)")
    ix.add_argument("--n", type=int, default=None,
                    help="total bits set per code for n/n2 (n2 splits it across halves)")
    ix.set_defaults(func=cmd_index)

    q = sub.add_parser("query", help="search one query against an index", allow_abbrev=False)
    q.add_argument("--index", required=True)
    q.add_argument("--base", required=True, help="base vectors the index was built from")
    q.add_argument("--query-file", required=True)
    q.add_argument("--query-row", type=int, default=0)
    q.add_argument("--shortlist", type=int, default=10000)
    q.add_argument("--top", type=int, default=10)
    q.set_defaults(func=cmd_query)

    e = sub.add_parser("eval", help="score an index against ground truth or labels", allow_abbrev=False)
    e.add_argument("--index", required=True)
    e.add_argument("--base", required=True)
    e.add_argument("--queries", required=True)
    e.add_argument("--mode", choices=["recall", "map"], default="recall")
    e.add_argument("--gt", help="exact neighbor ids (.ivecs), required for recall mode")
    e.add_argument("--base-labels", help="class labels for base rows, required for map mode")
    e.add_argument("--query-labels", help="class labels for query rows, required for map mode")
    e.add_argument("--recall-at", default="1,10,100,1000,10000",
                   help="comma-separated recall depths")
    e.add_argument("--map-depth", type=int, default=1000, help="ranked depth scored in map mode")
    e.add_argument("--shortlist", type=int, default=10000)
    e.add_argument("--seeds", default="0", help="comma-separated run seeds for query sampling")
    e.add_argument("--query-sample", type=int, default=None,
                   help="queries drawn per run (map mode samples per class); default all")
    e.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
    e.set_defaults(func=cmd_eval)

    return p


def cmd_gen(args) -> int:
    _positive(args.gt_depth, "--gt-depth")
    _seed_ok(args.seed)
    try:
        spec = SyntheticSpec(
            n_clusters=args.clusters,
            points_per_cluster=args.per_cluster,
            dim=args.dim,
            cluster_spread=args.spread,
            center_scale=args.center_scale,
            seed=args.seed,
            n_queries=args.queries,
            n_learning=args.learning,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    os.makedirs(args.out_dir, exist_ok=True)
    t0 = time.perf_counter()
    ds = generate_synthetic(spec, gt_depth=args.gt_depth)
    outputs = [
        ("base", "base.fvecs", write_vectors, ds.base),
        ("queries", "queries.fvecs", write_vectors, ds.queries),
        ("learning", "learning.fvecs", write_vectors, ds.learning),
        ("gt", "groundtruth.ivecs", write_vectors, ds.ground_truth),
        ("base_labels", "base_labels.txt", write_labels, ds.base_labels),
        ("query_labels", "query_labels.txt", write_labels, ds.query_labels),
    ]
    for _, name, write, data in outputs:
        write(os.path.join(args.out_dir, name), data)
    dt = time.perf_counter() - t0
    print(
        f"generated {len(ds.base)} base / {len(ds.queries)} query / {len(ds.learning)} "
        f"learning vectors (dim {spec.dim}, {spec.n_clusters} clusters) in {dt:.2f}s"
    )
    for key, name, _, _ in outputs:
        print(f"  {key}: {os.path.join(args.out_dir, name)}")
    return 0


def cmd_gt(args) -> int:
    _positive(args.depth, "--depth")
    # the suffix picks the element kind on every read, as in element_kind_for
    if os.path.splitext(args.out)[1].lower() != ".ivecs":
        raise ConfigError(f"--out must end in .ivecs, the int32 id format, got {args.out!r}")
    # brute_force_gt reads the base in blocks, so the file is never all in memory
    with VectorReader(args.base) as base:
        queries = read_vectors(args.queries)
        if args.depth > len(base):
            raise ConfigError(f"--depth {args.depth} exceeds base size {len(base)}")
        t0 = time.perf_counter()
        gt = brute_force_gt(base, queries, args.depth)
    write_vectors(args.out, gt)  # it checks every id fits int32
    dt = time.perf_counter() - t0
    print(
        f"wrote exact top-{args.depth} ids for {len(queries)} queries over "
        f"{len(base)} base vectors to {args.out} in {dt:.2f}s"
    )
    return 0


def cmd_train(args) -> int:
    variant = Variant(args.variant)
    if args.k < 2:
        raise ConfigError(f"--k must be at least 2, got {args.k}")
    _positive(args.max_iters, "--max-iters")
    if not args.tol >= 0:
        raise ConfigError(f"--tol must be non-negative, got {args.tol}")
    _seed_ok(args.seed)
    dual = variant in (Variant.T2, Variant.N2)
    if dual and (args.k % 2 or args.k < 4):
        raise ConfigError(f"variant {variant.value} needs an even --k of at least 4 (2 per codebook), got {args.k}")
    data = read_vectors(args.learning)
    params = TrainParams(max_iters=args.max_iters, rel_tol=args.tol, seed=args.seed)
    t0 = time.perf_counter()
    quantizer = train_dual_codebook(data, args.k // 2, params) if dual else train(data, args.k, params)
    save_quantizer(quantizer, args.out)
    dt = time.perf_counter() - t0
    if dual:
        for name, cb in (("first", quantizer.first), ("second", quantizer.second)):
            m = cb.train_meta
            print(
                f"{name} codebook: k={cb.k} dim={cb.dim} iterations={m.iterations} "
                f"objective={m.objective:.6f}"
            )
        print(f"trained dual codebook ({args.k} bits total) in {dt:.2f}s -> {args.out}")
    else:
        m = quantizer.train_meta
        print(
            f"trained codebook: k={quantizer.k} dim={quantizer.dim} iterations={m.iterations} "
            f"objective={m.objective:.6f} in {dt:.2f}s -> {args.out}"
        )
    return 0


def _encoder_spec(args, quantizer) -> EncoderSpec:
    """Build the EncoderSpec for the index command, checking flag pairings."""
    variant = Variant(args.variant)
    dual = variant in (Variant.T2, Variant.N2)
    if dual != isinstance(quantizer, DualCodebook):
        raise ConfigError(f"variant {variant.value} needs a {'dual' if dual else 'single'} codebook file")
    if variant in (Variant.T, Variant.T2):
        if args.n is not None:
            raise ConfigError(f"--n does not apply to variant {variant.value}")
        mean = MeanKind(args.mean) if args.mean else MeanKind.ARITHMETIC
        return EncoderSpec(variant, mean_kind=mean)
    if args.mean is not None:
        raise ConfigError(f"--mean does not apply to variant {variant.value}")
    if args.n is None:
        raise ConfigError(f"variant {variant.value} needs --n")
    n = args.n
    if variant is Variant.N2:
        if n % 2:
            raise ConfigError(f"variant n2 splits --n across two codebooks; need even --n, got {n}")
        n //= 2
    if n < 1:
        raise ConfigError("--n too small: each codebook must set at least 1 bit")
    k = quantizer.k
    if n > k:
        raise ConfigError(f"--n sets {n} bits per codebook but codebooks have k={k} centroids")
    return EncoderSpec(variant, n_nearest=n)


def cmd_index(args) -> int:
    quantizer = load_quantizer(args.codebook)
    spec = _encoder_spec(args, quantizer)
    t0 = time.perf_counter()
    with VectorReader(args.base) as reader:
        if reader.dim != quantizer.dim:
            raise ValueError(
                f"base file dimension {reader.dim} does not match codebook dimension {quantizer.dim}"
            )
        codes = encode_many(reader, quantizer, spec)  # read in encode blocks, so never all in memory
        idx = build_index(codes, np.arange(reader.count, dtype=np.int64), spec, quantizer)
    save_index(idx, args.out)
    dt = time.perf_counter() - t0
    rate = idx.size / dt if dt > 0 else float("inf")
    print(
        f"indexed {idx.size} vectors into {idx.code_length}-bit codes "
        f"in {dt:.2f}s ({rate:.0f} vec/s) -> {args.out}"
    )
    return 0


def _open_base(path: str, idx):
    """Open the base file behind idx; its dimension and count must fit the index."""
    reader = VectorReader(path)
    if reader.dim != idx.quantizer.dim:
        reader.close()
        raise ValueError(
            f"base file dimension {reader.dim} does not match index dimension {idx.quantizer.dim}"
        )
    if reader.count < idx.size:
        reader.close()
        raise ValueError(f"base file holds {reader.count} vectors but index expects {idx.size}")
    return reader


def _clamp(requested: int, limit: int, what: str, limit_name: str) -> int:
    """min(requested, limit), with a note on stderr when that clamps."""
    if requested > limit:
        print(f"note: {what} clamped to {limit_name} {limit}", file=sys.stderr)
    return min(requested, limit)


def cmd_query(args) -> int:
    _positive(args.top, "--top")
    _positive(args.shortlist, "--shortlist")
    idx = load_index(args.index)
    with _open_base(args.base, idx) as reader:
        with VectorReader(args.query_file) as queries:
            if not 0 <= args.query_row < queries.count:
                raise ConfigError(f"--query-row {args.query_row} outside [0, {queries.count})")
            qvec = queries[args.query_row]
        shortlist_size = _clamp(args.shortlist, idx.size, "shortlist", "index size")
        top = _clamp(args.top, shortlist_size, "top", "shortlist size")
        result = search(idx, reader, qvec, shortlist_size, top)
    print("rank\tid\tdistance")
    for rank, (vid, score) in enumerate(result.ranked, start=1):
        print(f"{rank}\t{vid}\t{score:.6f}")
    return 0


def _sample_rows(n: int, rng: np.random.Generator, sample: int | None, labels=None) -> np.ndarray:
    """Row selection for one evaluation run; stratified when labels are given."""
    if sample is None:
        return np.arange(n, dtype=np.int64)
    if sample > n:
        raise ConfigError(f"--query-sample {sample} exceeds query count {n}")
    if labels is None:
        return np.sort(rng.choice(n, size=sample, replace=False))
    classes, counts = np.unique(labels, return_counts=True)
    per, extra = divmod(sample, classes.shape[0])
    short = np.flatnonzero(counts < per)
    if short.size:
        cls, have = classes[short[0]], counts[short[0]]
        raise ConfigError(f"--query-sample needs {per} queries of class {cls}, file has {have}")
    want = np.full(classes.shape[0], per)
    if extra:  # the remainder goes one each to classes the rng draws among those with a row to spare
        spare = np.flatnonzero(counts > per)
        if spare.shape[0] < extra:
            raise ConfigError(
                f"--query-sample needs {extra} classes of more than {per} queries, file has {spare.shape[0]}"
            )
        want[rng.choice(spare, size=extra, replace=False)] += 1
    picks = [
        rng.choice(np.flatnonzero(labels == cls), size=w, replace=False)
        for cls, w in zip(classes, want)
        if w
    ]
    return np.sort(np.concatenate(picks))


def _recall_mode(args, reader, queries, shortlist_size, config):
    """Check recall inputs; return the depth, sampling labels, block score,
    run record and summary (report fields plus console lines)."""
    if not args.gt:
        raise ConfigError("recall mode needs --gt")
    gt = read_vectors(args.gt)
    if not np.issubdtype(gt.dtype, np.integer):
        raise ValueError(f"{args.gt} does not hold integer neighbor ids")
    if gt.shape[0] != queries.shape[0]:
        raise ValueError(f"{gt.shape[0]} ground-truth rows for {queries.shape[0]} queries")
    requested_rs = sorted(set(_ints_csv(args.recall_at, "--recall-at")))
    if any(r < 1 for r in requested_rs):
        raise ConfigError("--recall-at depths must be at least 1")
    recall_rs = [r for r in requested_rs if r <= shortlist_size]
    if not recall_rs:
        raise ConfigError(
            f"no --recall-at depth fits the shortlist size {shortlist_size}"
        )
    if len(recall_rs) < len(requested_rs):
        dropped = [r for r in requested_rs if r > shortlist_size]
        print(
            f"note: recall depths {dropped} exceed the shortlist ({shortlist_size}); skipped",
            file=sys.stderr,
        )
    config["gt"] = args.gt
    config["recall_at_requested"] = requested_rs
    config["recall_at"] = recall_rs

    def score(rows, ids):  # one hit flag per query and recall depth
        truth = gt[rows, 0][:, None]
        return np.stack([(ids[:, :r] == truth).any(axis=1) for r in recall_rs], axis=1)

    def run_record(hits):
        counts = hits.sum(axis=0)
        return {"recall_at": {str(r): int(c) / hits.shape[0] for r, c in zip(recall_rs, counts)}}

    def summary(per_run):  # mean and spread over the runs at each depth
        series = {str(r): [run["recall_at"][str(r)] for run in per_run] for r in recall_rs}
        means = {r: float(np.mean(v)) for r, v in series.items()}
        stds = {r: float(np.std(v)) for r, v in series.items()}
        lines = ["".join(f"{'R@' + r:>12}" for r in series), "".join(f"{means[r]:>12.4f}" for r in series)]
        if len(per_run) > 1:
            lines.append("".join(f"{stds[r]:>12.4f}" for r in series) + "  (std)")
        return {"recall_at": means, "recall_at_std": stds}, lines

    return max(recall_rs), None, score, run_record, summary


def _map_mode(args, reader, queries, shortlist_size, config):
    """Check MAP inputs; return the depth, sampling labels, block score,
    run record and summary (report fields plus console lines)."""
    if not args.base_labels or not args.query_labels:
        raise ConfigError("map mode needs --base-labels and --query-labels")
    base_labels = read_labels(args.base_labels)
    query_labels = read_labels(args.query_labels)
    if base_labels.shape[0] != reader.count:
        raise ValueError(
            f"{base_labels.shape[0]} base labels for {reader.count} base vectors"
        )
    if query_labels.shape[0] != queries.shape[0]:
        raise ValueError(
            f"{query_labels.shape[0]} query labels for {queries.shape[0]} queries"
        )
    _positive(args.map_depth, "--map-depth")
    depth = _clamp(args.map_depth, shortlist_size, "map depth", "shortlist size")
    config["base_labels"] = args.base_labels
    config["query_labels"] = args.query_labels
    config["map_depth_requested"] = args.map_depth
    config["map_depth"] = depth

    def score(rows, ids):  # one average precision per query
        aps = []
        for row, ranked in zip(rows, ids):
            rel = label_relevance(query_labels[row], ranked, base_labels)
            found = int(rel.sum())  # no hit within the depth scores 0
            aps.append(average_precision(rel, found) if found else 0.0)
        return np.asarray(aps)

    def run_record(aps):
        return {"map": float(np.mean(aps))}

    def summary(per_run):  # mean and spread over the runs
        values = [run["map"] for run in per_run]
        mean, std = float(np.mean(values)), float(np.std(values))
        line = f"MAP {mean:.4f}" + (f" +/- {std:.4f}" if len(per_run) > 1 else "")
        return {"map_value": mean, "map_std": std}, [line + f" over {len(per_run)} run(s)"]

    return depth, query_labels, score, run_record, summary


def cmd_eval(args) -> int:
    seeds = [_seed_ok(s, "--seeds") for s in _ints_csv(args.seeds, "--seeds")]
    _positive(args.shortlist, "--shortlist")
    if args.query_sample is not None:
        _positive(args.query_sample, "--query-sample")
    elif len(seeds) > 1:
        raise ConfigError("--seeds lists several runs, but without --query-sample every run scores every query alike")
    idx = load_index(args.index)
    shortlist_size = _clamp(args.shortlist, idx.size, "shortlist", "index size")

    with _open_base(args.base, idx) as reader:
        queries = read_vectors(args.queries)
        config = {
            "command": "eval",
            "mode": args.mode,
            "index": args.index,
            "base": args.base,
            "queries": args.queries,
            "metric": "l2",  # the one metric; kept so earlier reports keep their bytes
            "variant": idx.spec.variant.value,
            "mean": idx.spec.mean_kind.value,
            "n_nearest": idx.spec.n_nearest,
            "code_length": idx.code_length,
            "index_size": idx.size,
            "shortlist_requested": args.shortlist,
            "shortlist": shortlist_size,
            "seeds": seeds,
            "query_sample": args.query_sample,
            "threads": None,  # search runs one worker per usable CPU; kept so earlier reports keep their bytes
        }
        t0 = time.perf_counter()
        setup = _recall_mode if args.mode == "recall" else _map_mode
        depth, labels, score, run_record, summary = setup(args, reader, queries, shortlist_size, config)
        per_run = []
        for seed in seeds:
            rng = np.random.default_rng(derive_seed(seed, _QUERY_SAMPLE_STREAM))
            sel = _sample_rows(queries.shape[0], rng, args.query_sample, labels)
            scores = []
            for s in range(0, sel.shape[0], _EVAL_BLOCK):
                rows = sel[s : s + _EVAL_BLOCK]
                ids = search_ids(idx, reader, queries[rows], shortlist_size, depth)
                scores.append(score(rows, ids))
            per_run.append(
                {"seed": seed, "query_count": int(sel.shape[0]), **run_record(np.concatenate(scores))}
            )
        fields, lines = summary(per_run)
        dt = time.perf_counter() - t0

    # the other mode's score pair stays null
    report = {"mode": args.mode, "config": config, "runs_averaged": len(per_run), "per_run": per_run,
              "recall_at": None, "recall_at_std": None, "map_value": None, "map_std": None, **fields}
    for line in lines:
        print(line, file=sys.stderr)
    print(f"evaluated {len(seeds)} run(s) in {dt:.2f}s", file=sys.stderr)
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        with atomic_write(args.out, "w", encoding="utf-8") as f:
            f.write(text)
        print(f"report -> {args.out}", file=sys.stderr)
    else:
        print(text, end="")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    if getattr(args, "command", None) is None or not hasattr(args, "func"):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FormatError, OSError, ValueError, LookupError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
