"""Two-sided fairness-aware re-ranking for recommender systems.

Re-ranks precomputed recommendation lists so that providers receive
exposure close to a fair share (uniform by catalog size, or weighted by
relevance mass) while spreading the resulting quality loss evenly across
customers. Ships batch and streaming re-rankers, three baselines, the
full metric suite, a synthetic instance generator and an experiment
harness with a CLI.
"""

from .baselines import all_random, minimum_exposure, top_k
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
from .experiments import (
    ALGORITHMS,
    ExperimentConfig,
    OfflineSweepResult,
    OnlineStreamResult,
    StreamTracker,
    TraceRow,
    request_stream,
    run_offline_sweep,
    run_online_stream,
)
from .fileio import (
    InstanceLabels,
    default_labels,
    load_instance,
    read_recommendations,
    write_instance_files,
    write_recommendations,
    write_summary,
    write_trace,
)
from .metrics import (
    ExposureReport,
    QualityReport,
    customer_fairness,
    dcg,
    exposure,
    ndcg,
    position_weight,
    provider_relevance,
    quality,
    quality_weighted_provider_fairness,
    size_normalized_provider_fairness,
    total_quality,
    uniform_provider_fairness,
)
from .model import (
    Catalog,
    PreferenceMatrix,
    RankedList,
    RecommendationList,
    build_instance,
    original_ranking,
    original_rankings,
    validate_recommendation_list,
)
from .offline import BUDGET_SLACK, OfflineRun, PlacementEvent, tfrom_offline
from .online import OnlineState, serve_request
from .synth import generate_synthetic
from .targets import (
    FairnessMode,
    FairTargets,
    fair_targets,
    online_total_exposure,
    total_exposure,
)

__version__ = "0.1.0"
