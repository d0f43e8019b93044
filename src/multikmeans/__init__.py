"""Compact multi-assignment k-means hash codes for approximate NN search.

Train small k-means codebooks, give every centroid one bit of a hash
code, set the bits of all sufficiently-near centroids, and search by
Hamming shortlist plus exact re-rank. See the README for the pipeline.
The package exports __version__ and the __all__ of its six library modules.
"""

__version__ = "0.1.0"

from .core import *
from .dataio import *
from .encoder import *
from .evaluate import *
from .index import *
from .kmeans import *

__all__ = [
    "__version__",
    *core.__all__,
    *dataio.__all__,
    *encoder.__all__,
    *evaluate.__all__,
    *index.__all__,
    *kmeans.__all__,
]
