"""Retrieval-based dialogue toolkit.

Builds ⟨context, response⟩ training sets from dialogue corpora, draws
negative samples from configurable response distributions (empirical,
uniform, power-transformed, KDE-smoothed, inverse-count filtered), trains
dual-encoder scoring models from first principles, retrieves responses by
nearest-context search, and evaluates everything with recall@k.
"""

from .corpus import (
    ContextResponsePair,
    Dialogue,
    EOU_TOKEN,
    ParseResult,
    Speaker,
    SplitSpec,
    Turn,
    extract_all_pairs,
    extract_pairs,
    parse_dialogues,
    split_corpus,
    tokenize,
)
from .distribution import (
    ResponseDistribution,
    TransformSpec,
    count_responses,
    distribution_report,
    transform,
)
from .encoder import (
    AttentionParams,
    DualEncoderModel,
    EmbeddingTable,
    GruParams,
    TrainConfig,
    TrainResult,
    encode,
    load_checkpoint,
    load_embeddings,
    loss_and_gradients,
    random_embeddings,
    save_checkpoint,
    score_pair,
    train,
)
from .evaluation import (
    AnnotationRecord,
    EvalConfig,
    EvalReport,
    cross_distribution_grid,
    evaluate,
    export_annotation,
    score_human_marks,
)
from .retrieval import (
    DEFAULT_RESPONSE_WEIGHT,
    HistoryIndex,
    build_history_index,
    load_index,
    query_nearest,
    save_index,
)
from .sampling import (
    AliasSampler,
    SamplingStrategy,
    TrainingExample,
    build_training_set,
    draw_negatives,
)
from .seeding import derive_rng

__version__ = "0.1.0"

__all__ = [
    "AliasSampler",
    "AnnotationRecord",
    "AttentionParams",
    "ContextResponsePair",
    "DEFAULT_RESPONSE_WEIGHT",
    "Dialogue",
    "DualEncoderModel",
    "EOU_TOKEN",
    "EmbeddingTable",
    "EvalConfig",
    "EvalReport",
    "GruParams",
    "HistoryIndex",
    "ParseResult",
    "ResponseDistribution",
    "SamplingStrategy",
    "Speaker",
    "SplitSpec",
    "TrainConfig",
    "TrainResult",
    "TrainingExample",
    "TransformSpec",
    "Turn",
    "build_history_index",
    "build_training_set",
    "count_responses",
    "cross_distribution_grid",
    "derive_rng",
    "distribution_report",
    "draw_negatives",
    "encode",
    "evaluate",
    "export_annotation",
    "extract_all_pairs",
    "extract_pairs",
    "load_checkpoint",
    "load_embeddings",
    "load_index",
    "loss_and_gradients",
    "parse_dialogues",
    "query_nearest",
    "random_embeddings",
    "save_checkpoint",
    "save_index",
    "score_human_marks",
    "score_pair",
    "split_corpus",
    "tokenize",
    "train",
    "transform",
]
