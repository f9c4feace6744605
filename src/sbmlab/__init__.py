"""Desk-scale laboratory for testing, recovery and learning on the symmetric SBM."""

from .model import (
    BlockGraphon,
    Graph,
    Labels,
    SbmParams,
    edge_prob_matrix,
    membership_matrix,
    sample_er,
    sample_labels,
    sample_ssbm,
    sbm_graphon,
)
from .seeds import derive_seed, stream_rng

__all__ = [
    "BlockGraphon",
    "Graph",
    "Labels",
    "SbmParams",
    "derive_seed",
    "edge_prob_matrix",
    "membership_matrix",
    "sample_er",
    "sample_labels",
    "sample_ssbm",
    "sbm_graphon",
    "stream_rng",
]
