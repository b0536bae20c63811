"""Two-sided fairness-aware re-ranking for recommender systems.

Re-ranks precomputed recommendation lists so that providers receive
exposure close to a fair share (uniform by catalog size, or weighted by
relevance mass) while spreading the resulting quality loss evenly across
customers. Ships batch and streaming re-rankers, three baselines, the
full metric suite, a synthetic instance generator and an experiment
harness with a CLI.
"""

from .baselines import minimum_exposure, top_k
from .errors import (
    DuplicateTripletWarning,
    EmptyRow,
    InputFormatError,
    InsufficientItems,
    InvalidDimension,
    InvalidRank,
    InvalidShape,
    MissingProviderForItem,
    NegativeScore,
    NonFiniteScore,
    ParseError,
    TfromError,
    UnknownCustomer,
    UnknownItemInProviderFile,
    ValidationError,
    ZeroIdealQuality,
    ZeroTotalRelevance,
)
from .experiments import StreamTracker, TraceRow, request_stream
from .fileio import write_instance_files
from .metrics import (
    dcg,
    exposure,
    ndcg,
    position_weight,
    quality,
    total_quality,
    uniform_provider_fairness,
)
from .model import RecommendationList, build_instance, original_ranking, original_rankings
from .offline import tfrom_offline
from .online import OnlineState, serve_request
from .synth import generate_synthetic
from .targets import FairnessMode, fair_targets, online_total_exposure, total_exposure

__version__ = "0.1.0"
