"""Sequence-aware next-item recommendation over a similarity-popularity
network embedding.

Items are embedded in a low-dimensional Euclidean space where pairwise
connection probability grows with popularity and shrinks with distance.
Coordinates are fitted from session co-occurrence statistics by nonlinear
least squares, and next-item candidates are ranked by their probability of
connecting to the active session's anchor item.
"""

from .affinity import (
    AffinityGraph,
    PopularityTable,
    build_affinity_graph,
    compute_popularity,
)
from .baselines import (
    ClickoutPopularityRanker,
    CooccurrenceKnnRanker,
    InteractionPopularityRanker,
    MetadataKnnRanker,
    RandomRanker,
    Ranker,
)
from .embedder import FitConfig, FitTrace, fit_embedding, gradient, objective
from .errors import (
    DivergenceError,
    MissingItemError,
    ParseError,
    SimpopError,
    ValidationError,
)
from .evaluator import EvalReport, SearchGrid, evaluate, grid_search
from .model import (
    EmbeddingModel,
    ModelParams,
    derive_squared_distance,
    generate_synthetic_network,
    read_model,
    write_model,
)
from .recommender import (
    NextItemRecommender,
    RankedList,
    anchor_item,
    rank_candidates,
)
from .sessions import (
    Action,
    Role,
    SessionCorpus,
    filter_bookable_sessions,
    hide_test_targets,
    parse_session_log,
    subsample_sessions,
    write_corpus,
)

__version__ = "0.1.0"

__all__ = [
    "Action",
    "AffinityGraph",
    "ClickoutPopularityRanker",
    "CooccurrenceKnnRanker",
    "DivergenceError",
    "EmbeddingModel",
    "EvalReport",
    "FitConfig",
    "FitTrace",
    "InteractionPopularityRanker",
    "MetadataKnnRanker",
    "MissingItemError",
    "ModelParams",
    "NextItemRecommender",
    "ParseError",
    "PopularityTable",
    "RandomRanker",
    "RankedList",
    "Ranker",
    "Role",
    "SearchGrid",
    "SessionCorpus",
    "SimpopError",
    "ValidationError",
    "anchor_item",
    "build_affinity_graph",
    "compute_popularity",
    "derive_squared_distance",
    "evaluate",
    "filter_bookable_sessions",
    "fit_embedding",
    "generate_synthetic_network",
    "gradient",
    "grid_search",
    "hide_test_targets",
    "objective",
    "parse_session_log",
    "rank_candidates",
    "read_model",
    "subsample_sessions",
    "write_corpus",
    "write_model",
]
