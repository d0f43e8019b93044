"""Compact multi-assignment k-means hash codes for approximate NN search.

Train small k-means codebooks, give every centroid one bit of a hash
code, set the bits of all sufficiently-near centroids, and search by
Hamming shortlist plus exact re-rank. See the README for the pipeline.
"""

__version__ = "0.1.0"

from .core import (
    FormatError,
    HashCode,
    Metric,
    derive_seed,
    pack_bits,
)
from .dataio import (
    SyntheticDataset,
    SyntheticSpec,
    VectorFile,
    VectorReader,
    generate_synthetic,
    inspect_vectors,
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
    encode,
    encode_many,
    load_quantizer,
    save_quantizer,
    split_training,
    train_dual_codebook,
)
from .evaluate import (
    average_precision,
    brute_force_gt,
    label_relevance,
    recall_at_r,
)
from .index import (
    SearchIndex,
    SearchResult,
    build_index,
    load_index,
    save_index,
    search,
    search_ids,
    shortlist,
)
from .kmeans import (
    Codebook,
    TrainMeta,
    TrainParams,
    kmeanspp_seed,
    train,
)

__all__ = [
    "__version__",
    "FormatError",
    "HashCode",
    "Metric",
    "derive_seed",
    "pack_bits",
    "Codebook",
    "TrainMeta",
    "TrainParams",
    "kmeanspp_seed",
    "train",
    "DualCodebook",
    "EncoderSpec",
    "MeanKind",
    "Variant",
    "encode",
    "encode_many",
    "load_quantizer",
    "save_quantizer",
    "split_training",
    "train_dual_codebook",
    "SearchIndex",
    "SearchResult",
    "build_index",
    "load_index",
    "save_index",
    "search",
    "search_ids",
    "shortlist",
    "average_precision",
    "brute_force_gt",
    "label_relevance",
    "recall_at_r",
    "SyntheticDataset",
    "SyntheticSpec",
    "VectorFile",
    "VectorReader",
    "generate_synthetic",
    "inspect_vectors",
    "read_labels",
    "read_vectors",
    "write_labels",
    "write_vectors",
]
