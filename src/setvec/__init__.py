"""setvec: set-compositional and negated query algebra over sparse vectors.

Build lexically grounded sparse representations, combine them with
set-style vector operations (subtraction, disentangled or orthogonal
negation, relevance feedback, union by addition or max-pooling, pseudo-term
intersections), retrieve exactly with a negative-weight-aware inverted
index, and evaluate rankings with standard TREC-style metrics.
"""

from .activations import (
    ActivationConfig,
    LogitMatrix,
    activate,
    snrelu_activate,
    snrelu_neg,
    snrelu_pos,
    splade_activate,
)
from .compose import (
    CompositionalQuery,
    CompositionParams,
    compose,
    difference_disentangled,
    difference_nrf,
    difference_orthogonal,
)
from .cpt import PseudoTermVector, expand_query
from .errors import (
    CptDomainError,
    DuplicateDocError,
    FormatError,
    IndexFormatError,
    NonFiniteError,
    SetvecError,
    UndefinedMetricError,
    VocabularyMismatchError,
    ZeroNormError,
)
from .evaluation import (
    InterferenceBin,
    PairedQueries,
    Qrels,
    interference_bins,
    ndcg_at_k,
    pairwise_accuracy,
    recall_at_k,
)
from .fusion import fuse, min_max_scale
from .index import InvertedIndex, SearchResult, build, load, save, search, search_cpt
from .lexical import encode_bm25, encode_tf, tokenize
from .sparse import (
    SparseVector,
    VectorBatch,
    Vocabulary,
    add,
    cosine,
    dot,
    mask_remove,
    maxpool,
    norm,
    project,
    scale,
    sub,
    top_m,
)

__version__ = "0.1.0"

__all__ = [
    "ActivationConfig",
    "CompositionParams",
    "CompositionalQuery",
    "CptDomainError",
    "DuplicateDocError",
    "FormatError",
    "IndexFormatError",
    "InterferenceBin",
    "InvertedIndex",
    "LogitMatrix",
    "NonFiniteError",
    "PairedQueries",
    "PseudoTermVector",
    "Qrels",
    "SearchResult",
    "SetvecError",
    "SparseVector",
    "UndefinedMetricError",
    "VectorBatch",
    "Vocabulary",
    "VocabularyMismatchError",
    "ZeroNormError",
    "activate",
    "add",
    "build",
    "compose",
    "cosine",
    "difference_disentangled",
    "difference_nrf",
    "difference_orthogonal",
    "dot",
    "encode_bm25",
    "encode_tf",
    "expand_query",
    "fuse",
    "interference_bins",
    "load",
    "mask_remove",
    "maxpool",
    "min_max_scale",
    "ndcg_at_k",
    "norm",
    "pairwise_accuracy",
    "project",
    "recall_at_k",
    "save",
    "scale",
    "search",
    "search_cpt",
    "snrelu_activate",
    "snrelu_neg",
    "snrelu_pos",
    "splade_activate",
    "sub",
    "top_m",
]
