"""Knowledge-graph-enhanced drug-target affinity pipeline.

Build multimodal knowledge graphs from declarative schemas, compute per-modality
initial embeddings, pretrain an inductive relational graph encoder on link
prediction (optionally plus numeric regression), and evaluate the enhanced
embeddings on binding-affinity regression with equal-weight ensembling.
"""

from . import blas  # noqa: F401  (pins numpy's OpenBLAS to one thread)
from .graph import (
    MultimodalGraph,
    Node,
    NodeId,
    NodeKind,
    Relation,
    RelationKind,
    Triple,
    attribute_node,
    entity,
    merge_graphs,
    resolve_same_as,
)
from .schema import Schema, build_graph, parse_ntriples, parse_schema, to_ntriples
from .handlers import (
    EmbeddingTable,
    Handler,
    HandlerRegistry,
    compute_initial_embeddings,
    default_registry,
    hashed_ngram_embed,
    import_external_embeddings,
    number_embed,
    sequence_embed,
    smiles_fingerprint,
)
from .gnn import FlowPolicy, GnnParams, encode, infer, init_gnn_params
from .pretrain import (
    AdmissibleSets,
    Checkpoint,
    LinkFilter,
    PretrainConfig,
    ScoreFn,
    TrainResult,
    link_auc,
    load_checkpoint,
    partition,
    pretrain_loss,
    sample_negatives,
    save_checkpoint,
    sequential_pretrain,
    train,
)
from .downstream import (
    AffinityDataset,
    AffinityRow,
    DownstreamConfig,
    DownstreamModel,
    EntityIndex,
    EntityTables,
    Examples,
    SplitSpec,
    encoder_tables,
    evaluate,
    initial_tables,
    load_affinity_tsv,
    make_split,
    pearson,
    run_benchmark,
    spearman,
    train_downstream,
)
from .synthetic import PlantedWorld, make_planted_world

__version__ = "0.1.0"
