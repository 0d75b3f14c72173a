"""Joint symbolic and neural entity alignment for knowledge-graph pairs."""

from .data import DatasetBundle, DatasetError, load_dataset, split_seed
from .em import EmConfig, EmState, FusedPredictions, fuse_predictions, run_em
from .embedder import Hyperparams, NeuralModel, Origin, PseudoLabelSet
from .explain import AnchorMode, AnchorSet, RuleExplanation, explain
from .graph import (
    AlignmentSeed,
    IngestError,
    KnowledgeGraph,
    KnowledgeGraphPair,
    load_graph,
)
from .metrics import MetricsReport, evaluate_binary, evaluate_ranking
from .symbolic import (
    SubrelationTable,
    TruthScoreTable,
    compute_functionalities,
    extract_positive_pairs,
    propagate_entity_scores,
    run_symbolic_inference,
    update_subrelation_probs,
)

__version__ = "0.1.0"

__all__ = [
    "AlignmentSeed",
    "AnchorMode",
    "AnchorSet",
    "DatasetBundle",
    "DatasetError",
    "EmConfig",
    "EmState",
    "FusedPredictions",
    "Hyperparams",
    "IngestError",
    "KnowledgeGraph",
    "KnowledgeGraphPair",
    "MetricsReport",
    "NeuralModel",
    "Origin",
    "PseudoLabelSet",
    "RuleExplanation",
    "SubrelationTable",
    "TruthScoreTable",
    "compute_functionalities",
    "evaluate_binary",
    "evaluate_ranking",
    "explain",
    "extract_positive_pairs",
    "fuse_predictions",
    "load_dataset",
    "load_graph",
    "propagate_entity_scores",
    "run_em",
    "run_symbolic_inference",
    "split_seed",
    "update_subrelation_probs",
]
