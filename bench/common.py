"""Paths, sizes and library import shared by the benchmark modules.

The benchmark always measures the library in the checkout it sits in:
`src/` next to this directory goes first on sys.path, and an import that
resolves anywhere else is refused, so an installed copy of the package can
never be measured by mistake.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("online-t", "batch-n", "build")


class MissingLibrary(RuntimeError):
    """The checkout holds no `src/multikmeans` package to measure."""


def use_source_tree():
    """Import multikmeans from this checkout's src/ or raise MissingLibrary."""
    init = SRC / "multikmeans" / "__init__.py"
    if not init.is_file():
        raise MissingLibrary(f"no library source at {init.relative_to(ROOT)}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import multikmeans

    if Path(multikmeans.__file__).resolve() != init.resolve():
        raise MissingLibrary(f"multikmeans imported from {multikmeans.__file__}, not {init}")
    return multikmeans


@dataclass(frozen=True)
class Sizes:
    """Every size a workload uses. FULL is the benchmark; tests use SMOKE."""

    clusters: int = 1000
    per_cluster: int = 200
    dim: int = 128
    spread: float = 0.5
    k: int = 64
    gt_depth: int = 100
    read_block: int = 65536  # rows per VectorReader.read while indexing, as `multikmeans index`
    online_queries: int = 200
    online_shortlist: int = 10_000
    online_top: int = 10
    online_min_calls: int = 1000  # p99 needs at least 10 samples beyond it
    batch_queries: int = 256
    batch_block: int = 256  # queries per search_ids call, as `multikmeans eval`
    batch_shortlist: int = 1000
    batch_top: int = 100
    n_nearest: int = 4
    build_queries: int = 100
    build_min_iterations: int = 2  # the second train call checks codebook determinism
    gt_check_queries: int = 3  # queries checked against the direct-difference reference


FULL = Sizes()
SMOKE = Sizes(
    clusters=20,
    per_cluster=60,
    dim=16,
    k=8,
    gt_depth=20,
    read_block=500,
    online_queries=6,
    online_shortlist=200,
    online_top=5,
    online_min_calls=12,
    batch_queries=8,
    batch_block=4,
    batch_shortlist=100,
    batch_top=20,
    n_nearest=2,
    build_queries=5,
    gt_check_queries=2,
)
