"""Self-supervised pretraining of the graph encoder.

Link prediction with synthetic negatives (admissible-set corruption at a 1:1 ratio
by default) under one of three triple scorers — a bilinear product, a translational
distance, or a small classifier network — optionally combined with a regression
objective that predicts numeric attribute literals from the source entity embedding.

Large graphs train partition by partition: a balance-first multi-seed BFS splits the
entities, and embeddings of out-of-partition neighbors are read from the historical
store instead of being recomputed. With a single partition this reduces exactly to
full-batch training.

Relations named "rdf:type" and "sameAs" are metadata, not domain structure, and are
excluded from both the objectives and message passing (merge identity first via
`resolve_same_as`).
"""

from __future__ import annotations

import json
import math
import time
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from . import numerics as nm
from .errors import (
    EmptyTrainingSet,
    ExhaustedCandidates,
    InvalidK,
    NonFinite,
    ParseError,
    UnknownRelation,
)
from .gnn import (
    FlowPolicy,
    GnnParams,
    HistoricalStore,
    array_from_doc,
    array_to_doc,
    build_mp,
    encode_layers,
    init_gnn_params,
    params_from_dict,
    params_to_dict,
    policy_from_dict,
    policy_to_dict,
)
from .graph import (
    RDF_TYPE,
    SAME_AS,
    MultimodalGraph,
    NodeId,
    NodeKind,
    Triple,
)
from .handlers import EmbeddingTable, NUMBER_MODALITY
from .numerics import Tensor
from .util import average_ranks, substream

CHECKPOINT_VERSION = 2
META_RELATIONS = (RDF_TYPE, SAME_AS)

SCORE_KINDS = ("distmult", "transe", "classifier")


@dataclass(frozen=True)
class LinkFilter:
    mode: str  # "all" | "restricted"
    relations: frozenset[str] = frozenset()

    def __post_init__(self):
        if self.mode not in ("all", "restricted"):
            raise ValueError(f"unknown link filter mode {self.mode!r}")
        if self.mode == "restricted" and not self.relations:
            raise ValueError("restricted link filter needs at least one relation")

    @staticmethod
    def all_links() -> "LinkFilter":
        return LinkFilter("all")

    @staticmethod
    def restricted(relations) -> "LinkFilter":
        return LinkFilter("restricted", frozenset(relations))

    def admits(self, relation_name: str) -> bool:
        if relation_name in META_RELATIONS:
            return False
        return self.mode == "all" or relation_name in self.relations


@dataclass
class ScoreFn:
    """Triple scorer mapping (h, relation, t) to a probability in (0, 1)."""

    kind: str
    rel_emb: dict[str, Tensor]
    margin: float = 1.0
    clf: dict[str, Tensor] | None = None

    def named_parameters(self) -> dict[str, Tensor]:
        named = {f"score/rel/{r}": w for r, w in sorted(self.rel_emb.items())}
        if self.clf is not None:
            for key in sorted(self.clf):
                named[f"score/clf/{key}"] = self.clf[key]
        return named


def init_score_fn(
    kind: str,
    relations: list[str],
    dim: int,
    rng: np.random.Generator,
    clf_hidden: int = 128,
    margin: float = 1.0,
) -> ScoreFn:
    if kind not in SCORE_KINDS:
        raise ValueError(f"unknown score function {kind!r} (expected one of {SCORE_KINDS})")
    rel_emb = {r: nm.param(rng.normal(size=dim) * 0.1) for r in sorted(relations)}
    clf = None
    if kind == "classifier":
        limit1 = np.sqrt(6.0 / (3 * dim + clf_hidden))
        limit2 = np.sqrt(6.0 / (clf_hidden + 1))
        clf = {
            "w1": nm.param(rng.uniform(-limit1, limit1, size=(3 * dim, clf_hidden))),
            "b1": nm.param(np.zeros(clf_hidden)),
            "w2": nm.param(rng.uniform(-limit2, limit2, size=(clf_hidden, 1))),
            "b2": nm.param(np.zeros(1)),
        }
    return ScoreFn(kind, rel_emb, margin, clf)


def score_logits(fn: ScoreFn, relation: str, h_src: Tensor, h_tgt: Tensor) -> Tensor:
    """Batched pre-sigmoid scores for triples sharing one relation; rows align."""
    w = fn.rel_emb.get(relation)
    if w is None:
        raise UnknownRelation(relation)
    n = h_src.data.shape[0]
    if fn.kind == "distmult":
        return nm.rowsum(nm.mul(nm.mul(h_src, w), h_tgt))
    if fn.kind == "transe":
        dist = nm.l2norm_rows(nm.sub(nm.add(h_src, w), h_tgt))
        return nm.add_scalar(nm.scale(dist, -1.0), fn.margin)
    w_tiled = nm.matmul(nm.constant(np.ones((n, 1))), nm.reshape(w, (1, -1)))
    x = nm.concat_cols([h_src, h_tgt, w_tiled])
    hidden = nm.relu(nm.add(nm.matmul(x, fn.clf["w1"]), fn.clf["b1"]))
    return nm.rowsum(nm.add(nm.matmul(hidden, fn.clf["w2"]), fn.clf["b2"]))


def score(fn: ScoreFn, h, relation: str, t) -> float:
    """Probability for a single triple given its endpoint embeddings."""
    h = np.asarray(h, dtype=np.float64).reshape(1, -1)
    t = np.asarray(t, dtype=np.float64).reshape(1, -1)
    logits = score_logits(fn, relation, nm.constant(h), nm.constant(t))
    return float(nm.sigmoid(logits).data[0])


# --- negatives -----------------------------------------------------------------


@dataclass
class AdmissibleSets:
    """Observed source/target node sets per relation, in sorted order."""

    by_relation: dict[str, tuple[list[NodeId], list[NodeId]]]

    @staticmethod
    def from_triples(triples) -> "AdmissibleSets":
        sources: dict[str, set[NodeId]] = {}
        targets: dict[str, set[NodeId]] = {}
        for t in triples:
            sources.setdefault(t.relation.name, set()).add(t.source)
            targets.setdefault(t.relation.name, set()).add(t.target)
        return AdmissibleSets(
            {r: (sorted(sources[r]), sorted(targets[r])) for r in sorted(sources)}
        )


def sample_negatives(
    positives: list[Triple],
    sets: AdmissibleSets,
    ratio: int = 1,
    rng: np.random.Generator | None = None,
    forbidden: set | None = None,
) -> list[Triple]:
    """`ratio` corruptions per positive, resampling one endpoint uniformly from the
    relation's admissible set; never emits a triple in `forbidden` (default: the
    given positives)."""
    if rng is None:
        rng = np.random.default_rng(0)
    if forbidden is None:
        forbidden = {t.key for t in positives}
    out: list[Triple] = []
    for t in positives:
        for _ in range(ratio):
            out.append(_corrupt(t, sets, forbidden, rng))
    return out


def _corrupt(t: Triple, sets: AdmissibleSets, forbidden: set, rng) -> Triple:
    sources, targets = sets.by_relation[t.relation.name]
    for _ in range(32):
        if int(rng.integers(0, 2)) == 0:
            cand = Triple(sources[int(rng.integers(len(sources)))], t.relation, t.target)
        else:
            cand = Triple(t.source, t.relation, targets[int(rng.integers(len(targets)))])
        if cand.key not in forbidden:
            return cand
    # rejection failed: enumerate the admissible complement exactly
    pool = [
        Triple(s, t.relation, t.target) for s in sources
        if (s, t.relation.name, t.target) not in forbidden
    ]
    pool += [
        Triple(t.source, t.relation, tt) for tt in targets
        if (t.source, t.relation.name, tt) not in forbidden
    ]
    if not pool:
        raise ExhaustedCandidates(
            f"no admissible corruption exists for {t.key} (degenerate fixture?)"
        )
    return pool[int(rng.integers(len(pool)))]


# --- loss ------------------------------------------------------------------------


class EmbeddingView:
    """Final-layer embeddings: differentiable rows for in-scope nodes, constant
    fallback rows (historical or zero) for everything else."""

    def __init__(self, h: Tensor, index: dict[NodeId, int], fallback: dict[NodeId, np.ndarray] | None = None):
        self.h = h
        self.index = index
        self.fallback = fallback or {}
        self.dim = h.data.shape[1]

    def rows(self, node_ids: list[NodeId]) -> Tensor:
        pos_in, idx_in, pos_out = [], [], []
        for i, nid in enumerate(node_ids):
            j = self.index.get(nid)
            if j is None:
                pos_out.append(i)
            else:
                pos_in.append(i)
                idx_in.append(j)
        if not pos_out:
            return nm.gather_rows(self.h, np.array(idx_in, dtype=np.intp))
        pieces = []
        if pos_in:
            pieces.append((np.array(pos_in, dtype=np.intp), nm.gather_rows(self.h, np.array(idx_in, dtype=np.intp))))
        const = np.zeros((len(pos_out), self.dim))
        for row, i in enumerate(pos_out):
            vec = self.fallback.get(node_ids[i])
            if vec is not None:
                const[row] = vec
        pieces.append((np.array(pos_out, dtype=np.intp), const))
        return nm.assemble_rows(len(node_ids), self.dim, pieces)


@dataclass
class RegressionHeads:
    heads: dict[str, tuple[Tensor, Tensor]]  # relation -> (w, b)
    lam: float = 1.0

    def named_parameters(self) -> dict[str, Tensor]:
        named = {}
        for rel in sorted(self.heads):
            w, b = self.heads[rel]
            named[f"reg/{rel}/w"] = w
            named[f"reg/{rel}/b"] = b
        return named


def numeric_triples(graph: MultimodalGraph) -> list[tuple[NodeId, str, float]]:
    out = []
    for t in graph.triples():
        node = graph.nodes[t.target]
        if node.kind is NodeKind.ATTRIBUTE and node.modality == NUMBER_MODALITY:
            out.append((t.source, t.relation.name, float(node.value)))
    return out


def init_regression_heads(relations: list[str], dim: int, rng: np.random.Generator, lam: float = 1.0) -> RegressionHeads:
    heads = {
        rel: (nm.param(rng.normal(size=(dim, 1)) * 0.1), nm.param(np.zeros(1)))
        for rel in sorted(relations)
    }
    return RegressionHeads(heads, lam)


def pretrain_loss(
    positives: list[Triple],
    negatives: list[Triple],
    view: EmbeddingView,
    fn: ScoreFn,
    regression: RegressionHeads | None = None,
    regression_triples: list[tuple[NodeId, str, float]] | None = None,
) -> Tensor:
    """Bernoulli NLL over positive and corrupted triples, plus (optionally) the mean
    squared error of the numeric-attribute heads, weighted by the regression lambda."""
    groups: dict[str, tuple[list[Triple], list[Triple]]] = {}
    for t in positives:
        groups.setdefault(t.relation.name, ([], []))[0].append(t)
    for t in negatives:
        groups.setdefault(t.relation.name, ([], []))[1].append(t)
    total_examples = len(positives) + len(negatives)
    if total_examples == 0 and (not regression or not regression_triples):
        raise EmptyTrainingSet("loss over nothing")

    loss = nm.constant(np.array(0.0))
    for rel in sorted(groups):
        pos, neg = groups[rel]
        batch = pos + neg
        h_src = view.rows([t.source for t in batch])
        h_tgt = view.rows([t.target for t in batch])
        logits = score_logits(fn, rel, h_src, h_tgt)
        labels = np.concatenate([np.ones(len(pos)), np.zeros(len(neg))])
        group_loss = nm.bce_with_logits(logits, labels)
        loss = nm.add(loss, nm.scale(group_loss, len(batch) / total_examples))

    if regression is not None and regression_triples:
        by_rel: dict[str, list[tuple[NodeId, float]]] = {}
        for src, rel, value in regression_triples:
            by_rel.setdefault(rel, []).append((src, value))
        n_reg = sum(len(v) for v in by_rel.values())
        reg_loss = nm.constant(np.array(0.0))
        for rel in sorted(by_rel):
            entries = by_rel[rel]
            w, b = regression.heads[rel]
            h = view.rows([src for src, _ in entries])
            pred = nm.add(nm.rowsum(nm.matmul(h, w)), b)
            target = np.array([v for _, v in entries])
            reg_loss = nm.add(reg_loss, nm.scale(nm.mse(pred, target), len(entries) / n_reg))
        loss = nm.add(loss, nm.scale(reg_loss, regression.lam))

    if not np.isfinite(loss.data):
        raise NonFinite("pretraining loss is not finite")
    return loss


# --- partitioning -----------------------------------------------------------------


@dataclass
class PartitionPlan:
    k: int
    assignment: dict[NodeId, int]

    def nodes_of(self, p: int) -> list[NodeId]:
        return [nid for nid, part in self.assignment.items() if part == p]


def partition(graph: MultimodalGraph, k: int, rng: np.random.Generator | None = None) -> PartitionPlan:
    """Balance-first greedy multi-seed BFS over entities; attribute nodes co-locate
    with their lexicographically smallest incident entity. Entity counts per part
    differ by at most one."""
    gi = graph.index()
    n_all = len(gi.node_ids)
    entities = np.flatnonzero(gi.is_entity).tolist()  # ints in sorted-id order
    n = len(entities)
    if k < 1 or k > max(n, 1):
        raise InvalidK(f"k={k} out of range for {n} entities")
    if rng is None:
        rng = np.random.default_rng(0)

    assignment: dict[NodeId, int] = {}
    if n:
        # entity neighbours of each entity over domain relations, sorted and unique
        meta = [c for c, name in enumerate(gi.relations) if name in META_RELATIONS]
        keep = gi.is_entity[gi.receiver] & gi.is_entity[gi.sender] & ~np.isin(gi.relation, meta)
        receiver, sender = np.divmod(np.unique(gi.receiver[keep] * n_all + gi.sender[keep]), n_all)
        bounds = np.searchsorted(receiver, np.arange(n_all + 1)).tolist()
        sender = sender.tolist()

        seed_rows = sorted(int(i) for i in rng.choice(n, size=k, replace=False))
        queues = [deque([entities[i]]) for i in seed_rows]
        sizes = [0] * k
        cursor = 0  # scan position for fresh seeds
        assigned = [False] * n_all
        for _ in range(n):
            p = min(range(k), key=lambda i: (sizes[i], i))
            node = None
            while queues[p]:
                cand = queues[p].popleft()
                if not assigned[cand]:
                    node = cand
                    break
            if node is None:
                while assigned[entities[cursor]]:
                    cursor += 1
                node = entities[cursor]
            assigned[node] = True
            assignment[gi.node_ids[node]] = p
            sizes[p] += 1
            queues[p].extend(u for u in sender[bounds[node] : bounds[node + 1]] if not assigned[u])

    # one pass over the triples: the smallest entity pointing at each attribute
    smallest = np.full(n_all, n_all, dtype=np.intp)
    to_attr = ~gi.is_entity[gi.targets]
    np.minimum.at(smallest, gi.targets[to_attr], gi.sources[to_attr])
    for nid, node in graph.nodes.items():
        if node.kind is NodeKind.ATTRIBUTE:
            first = int(smallest[gi.position[nid]])
            assignment[nid] = assignment[gi.node_ids[first]] if first < n_all else 0
    return PartitionPlan(k, assignment)


# --- training ------------------------------------------------------------------------


@dataclass
class PretrainConfig:
    score_fn: str = "distmult"
    policy: FlowPolicy = field(default_factory=FlowPolicy.unrestricted)
    link_filter: LinkFilter = field(default_factory=LinkFilter.all_links)
    partitions: int = 1
    lr: float = 1e-5
    epochs: int = 35
    train_val: float = 0.9
    seed: int = 0
    regression: bool = False
    reg_lambda: float = 1.0
    negative_ratio: int = 1
    proj_dim: int = 64
    hidden_dim: int = 128
    out_dim: int = 128
    clf_hidden: int = 128
    margin: float = 1.0
    max_seconds: float | None = None


@dataclass
class TrainResult:
    params: GnnParams
    score_fn: ScoreFn
    regression: RegressionHeads | None
    history: HistoricalStore
    log: list[dict]
    train_triples: list[Triple]
    val_triples: list[Triple]
    relations: list[str]
    config: PretrainConfig

    def named_parameters(self) -> dict[str, Tensor]:
        named = {**self.params.named_parameters(), **self.score_fn.named_parameters()}
        if self.regression is not None:
            named.update(self.regression.named_parameters())
        return named


def _attr_modality_dims(graph: MultimodalGraph, initial: EmbeddingTable) -> dict[str, int]:
    from .graph import CATEGORICAL

    dims = {}
    for node in graph.attributes():
        if node.modality == CATEGORICAL:
            continue
        dims[node.modality] = initial.dims[node.modality]
    return dims


def trainable_relations(graph: MultimodalGraph) -> list[str]:
    return sorted({t.relation.name for t in graph.triples() if t.relation.name not in META_RELATIONS})


def _split_positives(filtered: list[Triple], cfg: PretrainConfig) -> tuple[list[Triple], list[Triple]]:
    perm = substream(cfg.seed, "split").permutation(len(filtered))
    n_train = int(round(cfg.train_val * len(filtered)))
    n_train = min(max(n_train, 1), len(filtered))
    train = [filtered[int(i)] for i in perm[:n_train]]
    val = [filtered[int(i)] for i in perm[n_train:]]
    return train, val


def _final_embeddings(
    graph: MultimodalGraph,
    initial: EmbeddingTable,
    params: GnnParams,
    policy: FlowPolicy,
) -> tuple[Tensor, dict[NodeId, int]]:
    mp = build_mp(graph, None, policy)
    layers = encode_layers(mp, initial, params)
    return layers[-1], {nid: i for i, nid in enumerate(mp.scope_ids)}


def score_triples(
    embeddings: dict[NodeId, np.ndarray] | EmbeddingView,
    fn: ScoreFn,
    triples: list[Triple],
) -> np.ndarray:
    """Probabilities for a triple batch; plain arrays in, plain arrays out."""
    if isinstance(embeddings, EmbeddingView):
        view = embeddings
    else:
        ids = sorted(embeddings)
        h = nm.constant(np.stack([embeddings[i] for i in ids]) if ids else np.zeros((0, 1)))
        view = EmbeddingView(h, {nid: i for i, nid in enumerate(ids)})
    out = np.zeros(len(triples))
    by_rel: dict[str, list[int]] = {}
    for i, t in enumerate(triples):
        by_rel.setdefault(t.relation.name, []).append(i)
    for rel in sorted(by_rel):
        rows = by_rel[rel]
        h_src = view.rows([triples[i].source for i in rows])
        h_tgt = view.rows([triples[i].target for i in rows])
        probs = nm.sigmoid(score_logits(fn, rel, h_src, h_tgt)).data
        out[rows] = probs
    return out


def link_auc(pos_scores, neg_scores) -> float:
    """Area under the ROC curve by rank statistics (ties count one half)."""
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    if len(pos) == 0 or len(neg) == 0:
        raise EmptyTrainingSet("AUC needs both positive and negative scores")
    ranks = average_ranks(np.concatenate([pos, neg]))
    u = ranks[: len(pos)].sum() - len(pos) * (len(pos) + 1) / 2.0
    return float(u / (len(pos) * len(neg)))


def train(
    graph: MultimodalGraph,
    initial: EmbeddingTable,
    cfg: PretrainConfig,
    warm_start: TrainResult | None = None,
) -> TrainResult:
    """Pretrain encoder + scorer on `graph`. Deterministic for a fixed config.

    With `warm_start`, parameters whose name and shape match the previous result are
    copied over after fresh initialization; new relations/modalities keep their
    fresh weights.
    """
    t_start = time.monotonic()
    filtered = [t for t in graph.triples() if cfg.link_filter.admits(t.relation.name)]
    if not filtered:
        raise EmptyTrainingSet("no triples admitted by the link filter")
    train_pos, val_pos = _split_positives(filtered, cfg)
    sets = AdmissibleSets.from_triples(filtered)
    forbidden = {t.key for t in filtered}

    plan = partition(graph, cfg.partitions, substream(cfg.seed, "partition"))
    relations = trainable_relations(graph)
    params = init_gnn_params(
        _attr_modality_dims(graph, initial),
        relations,
        substream(cfg.seed, "init"),
        cfg.proj_dim,
        cfg.hidden_dim,
        cfg.out_dim,
    )
    fn = init_score_fn(
        cfg.score_fn, relations, cfg.out_dim, substream(cfg.seed, "init_score"), cfg.clf_hidden, cfg.margin
    )
    regression = None
    reg_triples_all: list[tuple[NodeId, str, float]] = []
    if cfg.regression:
        reg_triples_all = numeric_triples(graph)
        if not reg_triples_all:
            raise EmptyTrainingSet("the regression objective needs a numeric-attribute triple")
        reg_relations = sorted({rel for _, rel, _ in reg_triples_all})
        regression = init_regression_heads(
            reg_relations, cfg.out_dim, substream(cfg.seed, "init_reg"), cfg.reg_lambda
        )

    named: dict[str, Tensor] = {**params.named_parameters(), **fn.named_parameters()}
    if regression is not None:
        named.update(regression.named_parameters())
    if warm_start is not None:
        previous = warm_start.named_parameters()
        for name, tensor in named.items():
            src = previous.get(name)
            if src is not None and src.data.shape == tensor.data.shape:
                tensor.data = src.data.copy()

    history = HistoricalStore(len(params.layers))
    mps = [build_mp(graph, set(plan.nodes_of(p)), cfg.policy) for p in range(plan.k)]
    train_by_part: list[list[Triple]] = [[] for _ in range(plan.k)]
    for t in train_pos:
        train_by_part[plan.assignment[t.source]].append(t)
    reg_by_part: list[list[tuple[NodeId, str, float]]] = [[] for _ in range(plan.k)]
    for src, rel, value in reg_triples_all:
        reg_by_part[plan.assignment[src]].append((src, rel, value))

    state = None
    log: list[dict] = []
    for epoch in range(cfg.epochs):
        if cfg.max_seconds is not None and time.monotonic() - t_start > cfg.max_seconds:
            break
        epoch_rows = []
        for p in range(plan.k):
            mp = mps[p]
            layers = encode_layers(mp, initial, params, history)
            view = EmbeddingView(
                layers[-1],
                {nid: i for i, nid in enumerate(mp.scope_ids)},
                history.layers[-1],
            )
            pos_p = train_by_part[p]
            reg_p = reg_by_part[p] if regression is not None else None
            if pos_p or reg_p:
                negs = sample_negatives(
                    pos_p, sets, cfg.negative_ratio, substream(cfg.seed, "neg", epoch, p), forbidden
                )
                loss = pretrain_loss(pos_p, negs, view, fn, regression, reg_p)
                nm.zero_grads(named)
                nm.backward(loss)
                _, state = nm.adam_step(named, nm.collect_grads(named), state, cfg.lr)
                train_loss = float(loss.data)
            else:
                train_loss = None  # partition holds no training triples
            for l, h_layer in enumerate(layers[1:]):
                history.update(l, mp.scope_ids, h_layer.data)
            epoch_rows.append({"epoch": epoch, "partition": p, "train_loss": train_loss})
        val_loss = _validation_loss(graph, initial, params, fn, cfg, val_pos, sets, forbidden, epoch)
        for row in epoch_rows:
            row["val_loss"] = val_loss
            log.append(row)
    return TrainResult(params, fn, regression, history, log, train_pos, val_pos, relations, cfg)


def _validation_loss(graph, initial, params, fn, cfg, val_pos, sets, forbidden, epoch):
    if not val_pos:
        return None
    h, index = _final_embeddings(graph, initial, params, cfg.policy)
    view = EmbeddingView(h, index)
    negs = sample_negatives(val_pos, sets, cfg.negative_ratio, substream(cfg.seed, "valneg", epoch), forbidden)
    return float(pretrain_loss(val_pos, negs, view, fn).data)


def evaluate_link_auc(
    graph: MultimodalGraph,
    initial: EmbeddingTable,
    result: TrainResult,
    seed: int = 0,
    ratio: int = 1,
) -> float:
    """Held-out AUC: validation positives vs fresh admissible corruptions."""
    cfg = result.config
    filtered = [t for t in graph.triples() if cfg.link_filter.admits(t.relation.name)]
    sets = AdmissibleSets.from_triples(filtered)
    forbidden = {t.key for t in filtered}
    h, index = _final_embeddings(graph, initial, result.params, cfg.policy)
    view = EmbeddingView(h, index)
    negs = sample_negatives(result.val_triples, sets, ratio, substream(seed, "auc_neg"), forbidden)
    pos_scores = score_triples(view, result.score_fn, result.val_triples)
    neg_scores = score_triples(view, result.score_fn, negs)
    return link_auc(pos_scores, neg_scores)


def sequential_pretrain(
    graphs: list[MultimodalGraph],
    cfg: PretrainConfig,
    initial_tables: list[EmbeddingTable] | None = None,
    registry=None,
) -> TrainResult:
    """Train on each graph in order, warm-starting every phase from the previous
    checkpoint; relations and modalities introduced later get fresh weights."""
    if not graphs:
        raise EmptyTrainingSet("no graphs to pretrain on")
    if initial_tables is None:
        from .handlers import compute_initial_embeddings, default_registry

        registry = registry or default_registry()
        initial_tables = [
            compute_initial_embeddings(g, registry, entity_dim=cfg.proj_dim) for g in graphs
        ]
    result: TrainResult | None = None
    log: list[dict] = []
    for phase, (graph, initial) in enumerate(zip(graphs, initial_tables)):
        result = train(graph, initial, cfg, warm_start=result)
        for row in result.log:
            row["phase"] = phase
        log.extend(result.log)
    result = replace(result, log=log)
    return result


# --- checkpoints -----------------------------------------------------------------------


@dataclass
class Checkpoint:
    params: GnnParams
    score_fn: ScoreFn
    regression: RegressionHeads | None
    policy: FlowPolicy
    meta: dict

    @staticmethod
    def from_result(result: TrainResult, meta: dict | None = None) -> "Checkpoint":
        base = {
            "score_fn": result.config.score_fn,
            "relations": result.relations,
            "epochs": len({row["epoch"] for row in result.log}),
            "seed": result.config.seed,
        }
        base.update(meta or {})
        return Checkpoint(result.params, result.score_fn, result.regression, result.config.policy, base)


def checkpoint_to_json(ckpt: Checkpoint) -> str:
    doc = {
        "version": CHECKPOINT_VERSION,
        "gnn": params_to_dict(ckpt.params),
        "score": {
            "kind": ckpt.score_fn.kind,
            "margin": ckpt.score_fn.margin,
            "relations": {r: array_to_doc(w.data) for r, w in sorted(ckpt.score_fn.rel_emb.items())},
            "classifier": (
                {k: array_to_doc(v.data) for k, v in sorted(ckpt.score_fn.clf.items())}
                if ckpt.score_fn.clf is not None
                else None
            ),
        },
        "regression": (
            {
                "lambda": ckpt.regression.lam,
                "heads": {
                    r: {"w": array_to_doc(w.data), "b": array_to_doc(b.data)}
                    for r, (w, b) in sorted(ckpt.regression.heads.items())
                },
            }
            if ckpt.regression is not None
            else None
        ),
        "policy": policy_to_dict(ckpt.policy),
        "meta": ckpt.meta,
    }
    return json.dumps(doc, sort_keys=True)


def checkpoint_from_json(text: str) -> Checkpoint:
    """Decode and validate a checkpoint document. Anything malformed raises
    ParseError: invalid JSON, another version, a missing or mistyped field, an
    array whose shape disagrees with the encoder dims, or a non-finite value."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"checkpoint is not valid JSON: {exc}") from None
    version = doc.get("version") if isinstance(doc, dict) else None
    if version != CHECKPOINT_VERSION:
        raise ParseError(
            f"unsupported checkpoint version {version!r} (expected {CHECKPOINT_VERSION}); "
            "re-run `kgdta pretrain` to write a current one"
        )
    try:
        return _checkpoint_from_doc(doc)
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        detail = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ParseError(f"malformed checkpoint: {detail}") from None


def _finite_number(value, name: str) -> float:
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ParseError(f"{name} must be a finite number, got {value!r}")
    return value


def _checkpoint_from_doc(doc: dict) -> Checkpoint:
    params = params_from_dict(doc["gnn"])
    out_dim = params.out_dim
    raw_score = doc["score"]
    kind = raw_score["kind"]
    if kind not in SCORE_KINDS:
        raise ParseError(f"unknown score kind {kind!r}")
    raw_clf = raw_score["classifier"]
    if (kind == "classifier") != (raw_clf is not None):
        raise ParseError("score.classifier must be present exactly when the kind is classifier")
    clf = None
    if raw_clf is not None:
        w1 = array_from_doc(raw_clf["w1"], (3 * out_dim, None), "score.classifier.w1")
        hidden = w1.shape[1]
        clf = {
            "w1": nm.param(w1),
            "b1": nm.param(array_from_doc(raw_clf["b1"], (hidden,), "score.classifier.b1")),
            "w2": nm.param(array_from_doc(raw_clf["w2"], (hidden, 1), "score.classifier.w2")),
            "b2": nm.param(array_from_doc(raw_clf["b2"], (1,), "score.classifier.b2")),
        }
    fn = ScoreFn(
        kind=kind,
        rel_emb={
            r: nm.param(array_from_doc(w, (out_dim,), f"score.relations.{r}"))
            for r, w in raw_score["relations"].items()
        },
        margin=_finite_number(raw_score["margin"], "score.margin"),
        clf=clf,
    )
    regression = None
    if doc["regression"] is not None:
        raw = doc["regression"]
        regression = RegressionHeads(
            {
                r: (
                    nm.param(array_from_doc(h["w"], (out_dim, 1), f"regression.heads.{r}.w")),
                    nm.param(array_from_doc(h["b"], (1,), f"regression.heads.{r}.b")),
                )
                for r, h in raw["heads"].items()
            },
            _finite_number(raw["lambda"], "regression.lambda"),
        )
    return Checkpoint(params, fn, regression, policy_from_dict(doc["policy"]), doc.get("meta", {}))


def save_checkpoint(ckpt: Checkpoint, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(checkpoint_to_json(ckpt))


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"checkpoint {path} is not UTF-8 text: {exc}") from None
    return checkpoint_from_json(text)
