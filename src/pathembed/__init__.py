"""Unsupervised node embeddings from path-consistency constraints.

The package learns one embedding per node by asking a relational metric
(a plain 2-norm, a small MLP, or a variational Gaussian encoder) to be
consistent along paths of the graph: parallel paths between two endpoints
should compose to the same relation, and the direct relation between
distant endpoints of a unique path should not undershoot the composed one.
"""

from pathembed.config import ConfigError, TrainConfig
from pathembed.datasets import (
    DatasetError,
    load_prepared,
    prepare_dataset,
    synthetic_citation_graph,
    toy_graph,
)
from pathembed.evaluation import (
    ClassifierReport,
    auc_score,
    average_precision_score,
    classify_nodes,
    evaluate_split,
    score_pairs,
    sweep,
    write_sweep_csv,
)
from pathembed.graph import (
    EdgeSplit,
    Graph,
    GraphError,
    LabeledDataset,
    load_dataset,
    load_split,
    save_split,
    split_edges,
)
from pathembed.paths import (
    MultiPathSet,
    Path,
    SinglePathSet,
    build_multipath_pool,
    build_singlepath_pool,
    enumerate_simple_paths,
)
from pathembed.relations import EmbeddingMatrix
from pathembed.training import (
    ModelState,
    TrainingError,
    TrainResult,
    init_state,
    load_checkpoint,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "ClassifierReport",
    "ConfigError",
    "DatasetError",
    "EdgeSplit",
    "EmbeddingMatrix",
    "Graph",
    "GraphError",
    "LabeledDataset",
    "ModelState",
    "MultiPathSet",
    "Path",
    "SinglePathSet",
    "TrainConfig",
    "TrainResult",
    "TrainingError",
    "auc_score",
    "average_precision_score",
    "build_multipath_pool",
    "build_singlepath_pool",
    "classify_nodes",
    "enumerate_simple_paths",
    "evaluate_split",
    "init_state",
    "load_checkpoint",
    "load_dataset",
    "load_prepared",
    "load_split",
    "prepare_dataset",
    "save_checkpoint",
    "save_split",
    "score_pairs",
    "split_edges",
    "sweep",
    "synthetic_citation_graph",
    "toy_graph",
    "train",
    "write_sweep_csv",
]
