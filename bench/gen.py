"""Write one seeded synthetic dataset as vector files (run as a child process).

generate_synthetic holds ~850 MB of float64 temporaries at full size; it
runs here, in its own process, so they never count toward the measuring
process's peak RSS. Writes base/queries/learning .fvecs, groundtruth.ivecs
and gen.json (the seconds spent in brute_force_gt).

    python3 bench/gen.py OUT_DIR SEED CLUSTERS PER_CLUSTER DIM SPREAD QUERIES GT_DEPTH
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from common import use_source_tree


def main(argv: list[str]) -> int:
    out, seed, clusters, per_cluster, dim, spread, queries, gt_depth = argv
    mk = use_source_tree()
    from multikmeans import dataio

    # generate_synthetic runs ground truth through the name dataio imported;
    # timing that one call is how set-up attributes its ground-truth cost.
    gt_seconds = []
    inner = dataio.brute_force_gt

    def timed_gt(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            gt_seconds.append(time.perf_counter() - t0)

    dataio.brute_force_gt = timed_gt
    spec = mk.SyntheticSpec(
        n_clusters=int(clusters),
        points_per_cluster=int(per_cluster),
        dim=int(dim),
        cluster_spread=float(spread),
        seed=int(seed),
        n_queries=int(queries),
    )
    ds = mk.generate_synthetic(spec, gt_depth=int(gt_depth))
    out = Path(out)
    mk.write_vectors(out / "base.fvecs", ds.base)
    mk.write_vectors(out / "queries.fvecs", ds.queries)
    mk.write_vectors(out / "learning.fvecs", ds.learning)
    mk.write_vectors(out / "groundtruth.ivecs", ds.ground_truth.astype("int32"))
    (out / "gen.json").write_text(json.dumps({"gt_s": sum(gt_seconds)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
