"""Self-supervised pretraining of the graph encoder.

Link prediction with synthetic negatives (admissible-set corruption at a 1:1 ratio
by default) under one of three triple scorers — a bilinear product, a translational
distance, or a small classifier network — optionally combined with a regression
objective that predicts numeric attribute literals from the source entity embedding.

Large graphs train partition by partition: a balance-first multi-seed BFS splits the
entities, and embeddings of out-of-partition neighbors are read from the history (one
array per encoder layer >= 1, a row per index node) instead of being recomputed.
With a single partition this reduces exactly to full-batch training.

Relations named "rdf:type" and "sameAs" are metadata, not domain structure: the graph
index gives them no relation code, so they carry no messages and are no objective's
positives (merge identity first via `resolve_same_as`).
"""

from __future__ import annotations

import base64
import binascii
import json
import math
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
    RgcnLayer,
    build_mp,
    encode_layers,
    init_gnn_params,
)
from .graph import META_RELATIONS, GraphIndex, MultimodalGraph
from .handlers import EmbeddingTable, NUMBER_MODALITY
from .numerics import Tensor
from .util import average_ranks, read_utf8, substream

CHECKPOINT_VERSION = 2

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
        clf = {
            "w1": nm.param(nm.glorot(rng, 3 * dim, clf_hidden)),
            "b1": nm.param(np.zeros(clf_hidden)),
            "w2": nm.param(nm.glorot(rng, clf_hidden, 1)),
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
        return nm.sub(fn.margin, dist)
    w_tiled = nm.matmul(nm.constant(np.ones((n, 1))), nm.reshape(w, (1, -1)))
    x = nm.concat_cols([h_src, h_tgt, w_tiled])
    hidden = nm.relu(nm.add(nm.matmul(x, fn.clf["w1"]), fn.clf["b1"]))
    return nm.rowsum(nm.add(nm.matmul(hidden, fn.clf["w2"]), fn.clf["b2"]))


# --- negatives -----------------------------------------------------------------


@dataclass
class AdmissibleSets:
    """Observed source and target node ints per relation code, each sorted, for
    triples given as (source, relation code, target) int rows over `n_nodes` nodes
    and `n_relations` relation codes."""

    by_relation: dict[int, tuple[np.ndarray, np.ndarray]]
    n_nodes: int
    n_relations: int

    @staticmethod
    def from_rows(rows: np.ndarray, n_nodes: int, n_relations: int) -> "AdmissibleSets":
        by_relation = {
            r: (np.unique(rows[at, 0]), np.unique(rows[at, 2])) for r, at in _relation_groups(rows[:, 1])
        }
        return AdmissibleSets(by_relation, n_nodes, n_relations)

    def keys(self, rows: np.ndarray) -> set[int]:
        """One int per row, (source * n_relations + relation) * n_nodes + target."""
        return set(((rows[:, 0] * self.n_relations + rows[:, 1]) * self.n_nodes + rows[:, 2]).tolist())


def sample_negatives(
    positives: np.ndarray,
    sets: AdmissibleSets,
    ratio: int = 1,
    rng: np.random.Generator | None = None,
    forbidden: set[int] | None = None,
) -> np.ndarray:
    """`ratio` corruptions per positive row, resampling one endpoint uniformly from
    the relation's admissible set; never emits a row whose key (`sets.keys`) is in
    `forbidden` (default: the given positives)."""
    if rng is None:
        rng = np.random.default_rng(0)
    if forbidden is None:
        forbidden = sets.keys(positives)
    out = [
        _corrupt(s, r, t, sets, forbidden, rng)
        for s, r, t in positives.tolist()
        for _ in range(ratio)
    ]
    return np.array(out, dtype=np.intp).reshape(-1, 3)


def _corrupt(s: int, r: int, t: int, sets: AdmissibleSets, forbidden: set[int], rng) -> tuple[int, int, int]:
    sources, targets = sets.by_relation[r]
    n, base = sets.n_nodes, r * sets.n_nodes  # key = (source * R + r) * N + target
    stride = sets.n_relations * n
    for _ in range(32):
        if int(rng.integers(0, 2)) == 0:
            cand = (int(sources[int(rng.integers(len(sources)))]), r, t)
        else:
            cand = (s, r, int(targets[int(rng.integers(len(targets)))]))
        if cand[0] * stride + base + cand[2] not in forbidden:
            return cand
    # rejection failed: enumerate the admissible complement exactly, sources first
    pool = [(u, r, t) for u in sources.tolist() if u * stride + base + t not in forbidden]
    pool += [(s, r, v) for v in targets.tolist() if s * stride + base + v not in forbidden]
    if not pool:
        raise ExhaustedCandidates(
            f"no admissible corruption exists for triple row {(s, r, t)} (degenerate fixture?)"
        )
    return pool[int(rng.integers(len(pool)))]


def _relation_groups(codes: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """(code, positions of the rows with that relation code), ascending by code,
    each group's positions in row order. Codes follow sorted relation names."""
    order = np.argsort(codes, kind="stable")
    ordered = codes[order]
    bounds = [0, *(np.flatnonzero(ordered[1:] != ordered[:-1]) + 1).tolist(), len(codes)]
    return [(int(ordered[lo]), order[lo:hi]) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]


# --- loss ------------------------------------------------------------------------


class EmbeddingView:
    """Final-layer embeddings by index node: differentiable rows of `h` for nodes
    in scope (`row[node]` >= 0, as in `MpGraph.row`), constant rows of `fallback`
    (the last history array) or zeros for everything else."""

    def __init__(self, h: Tensor, row: np.ndarray, fallback: np.ndarray | None = None):
        self.h = h
        self.row = row
        self.fallback = fallback
        self.dim = h.data.shape[1]
        self.covers_all = bool(row.size) and row.min() >= 0

    def rows(self, nodes: np.ndarray) -> Tensor:
        rows = self.row.take(nodes)
        if self.covers_all or (inside := rows >= 0).all():
            return nm.gather_rows(self.h, rows)
        pos_in, pos_out = np.flatnonzero(inside), np.flatnonzero(~inside)
        pieces = []
        if len(pos_in):
            pieces.append((pos_in, nm.gather_rows(self.h, rows[pos_in])))
        if self.fallback is not None:
            pieces.append((pos_out, self.fallback[nodes[pos_out]]))
        return nm.assemble_rows(len(nodes), self.dim, pieces)


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


def numeric_triples(graph: MultimodalGraph) -> tuple[np.ndarray, np.ndarray]:
    """The triples whose target is a numeric attribute, as int rows over
    `graph.index()` in insertion order, and their numeric values."""
    gi = graph.index()
    numeric = ~gi.is_entity & (np.array(gi.modalities) == NUMBER_MODALITY)[gi.modality]
    rows = gi.triples[numeric[gi.triples[:, 2]] & (gi.triples[:, 1] >= 0)]
    values = np.array([float(graph.nodes[gi.node_ids[t]].value) for t in rows[:, 2].tolist()])
    return rows, values


def init_regression_heads(relations: list[str], dim: int, rng: np.random.Generator, lam: float = 1.0) -> RegressionHeads:
    heads = {
        rel: (nm.param(rng.normal(size=(dim, 1)) * 0.1), nm.param(np.zeros(1)))
        for rel in sorted(relations)
    }
    return RegressionHeads(heads, lam)


def pretrain_loss(
    positives: np.ndarray,
    negatives: np.ndarray,
    view: EmbeddingView,
    fn: ScoreFn,
    relations: list[str],
    regression: RegressionHeads | None = None,
    regression_triples: tuple[np.ndarray, np.ndarray] | None = None,
) -> Tensor:
    """Bernoulli NLL over positive and corrupted triples, plus (optionally) the mean
    squared error of the numeric-attribute heads, weighted by the regression lambda.

    Triples are (source, relation code, target) int rows, relation code k naming
    `relations[k]`; `regression_triples` is such rows with their target values, as
    `numeric_triples` returns them. Each relation's group lists its positives, then
    its negatives, and groups are summed in relation-name order."""
    n_reg = 0 if regression is None or regression_triples is None else len(regression_triples[1])
    total_examples = len(positives) + len(negatives)
    if total_examples == 0 and n_reg == 0:
        raise EmptyTrainingSet("loss over nothing")

    batch = np.concatenate([positives, negatives])
    labels = np.zeros(total_examples)
    labels[: len(positives)] = 1.0
    loss = nm.constant(np.array(0.0))
    for code, at in _relation_groups(batch[:, 1]):
        group = batch.take(at, axis=0)
        logits = score_logits(fn, relations[code], view.rows(group[:, 0]), view.rows(group[:, 2]))
        group_loss = nm.bce_with_logits(logits, labels[at])
        loss = nm.add(loss, nm.scale(group_loss, len(at) / total_examples))

    if n_reg:
        rows, values = regression_triples
        reg_loss = nm.constant(np.array(0.0))
        for code, at in _relation_groups(rows[:, 1]):
            w, b = regression.heads[relations[code]]
            pred = nm.add(nm.rowsum(nm.matmul(view.rows(rows[at, 0]), w)), b)
            reg_loss = nm.add(reg_loss, nm.scale(nm.mse(pred, values[at]), len(at) / n_reg))
        loss = nm.add(loss, nm.scale(reg_loss, regression.lam))

    if not np.isfinite(loss.data):
        raise NonFinite("pretraining loss is not finite")
    return loss


# --- partitioning -----------------------------------------------------------------


def partition(graph: MultimodalGraph, k: int, rng: np.random.Generator | None = None) -> np.ndarray:
    """The part of every node of `graph.index()`, as an int array.

    Balance-first greedy multi-seed BFS over entities; attribute nodes co-locate
    with their lexicographically smallest incident entity, or part 0 when none
    points at them. Entity counts per part differ by at most one."""
    gi = graph.index()
    n_all = len(gi.node_ids)
    entities = np.flatnonzero(gi.is_entity).tolist()  # ints in sorted-id order
    n = len(entities)
    if k < 1 or k > max(n, 1):
        raise InvalidK(f"k={k} out of range for {n} entities")
    if rng is None:
        rng = np.random.default_rng(0)

    part = np.zeros(n_all + 1, dtype=np.intp)  # slot n_all: part 0 for unreferenced attributes
    if n:
        # entity neighbours of each entity over domain relations, sorted and unique
        keep = gi.is_entity[gi.receiver] & gi.is_entity[gi.sender]
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
            part[node] = p
            sizes[p] += 1
            queues[p].extend(u for u in sender[bounds[node] : bounds[node + 1]] if not assigned[u])

    # one pass over the triples: the smallest entity pointing at each attribute
    smallest = np.full(n_all, n_all, dtype=np.intp)
    sources, targets = gi.triples[:, 0], gi.triples[:, 2]
    to_attr = ~gi.is_entity[targets]
    np.minimum.at(smallest, targets[to_attr], sources[to_attr])
    attrs = np.flatnonzero(~gi.is_entity)
    part[attrs] = part[smallest[attrs]]
    return part[:n_all]


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

    def __post_init__(self):
        sizes = (self.proj_dim, self.hidden_dim, self.out_dim, self.clf_hidden)
        if min(sizes) < 1:
            raise ValueError(f"dims and clf_hidden must be >= 1, got {sizes}")
        if self.negative_ratio < 1:
            raise ValueError(f"negative_ratio must be >= 1, got {self.negative_ratio}")
        if not 0 < self.train_val <= 1:
            raise ValueError(f"train_val must lie in (0, 1], got {self.train_val}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if not (math.isfinite(self.reg_lambda) and self.reg_lambda >= 0):
            raise ValueError(f"reg_lambda must be finite and >= 0, got {self.reg_lambda}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")


@dataclass
class TrainResult:
    """`train_rows` and `val_rows` hold the split's (source, relation code, target)
    int rows over the index of the graph `train` ran on; `history[l]` holds layer
    l + 1 of each of its index nodes as last computed."""

    params: GnnParams
    score_fn: ScoreFn
    regression: RegressionHeads | None
    history: list[np.ndarray]
    log: list[dict]
    train_rows: np.ndarray
    val_rows: np.ndarray
    relations: list[str]
    config: PretrainConfig

    def named_parameters(self) -> dict[str, Tensor]:
        return model_parameters(self.params, self.score_fn, self.regression)


def model_parameters(params: GnnParams, fn: ScoreFn, regression: RegressionHeads | None) -> dict[str, Tensor]:
    """Every trainable tensor of a model by name: encoder, scorer, then regression heads."""
    named = {**params.named_parameters(), **fn.named_parameters()}
    if regression is not None:
        named.update(regression.named_parameters())
    return named


def _attr_modality_dims(initial: EmbeddingTable) -> dict[str, int]:
    return {m: matrix.shape[1] for m, matrix in sorted(initial.matrices.items())}


def trainable_relations(graph: MultimodalGraph) -> list[str]:
    return list(graph.index().relations)


def _admitted(gi: GraphIndex, link_filter: LinkFilter) -> np.ndarray:
    """Positions, in insertion order, of the triples `link_filter` admits."""
    codes = [k for k, name in enumerate(gi.relations) if link_filter.admits(name)]
    return np.flatnonzero(np.isin(gi.triples[:, 1], codes))


def _split_positives(n: int, cfg: PretrainConfig) -> tuple[np.ndarray, np.ndarray]:
    """Train and validation positions among `n` admitted triples."""
    perm = substream(cfg.seed, "split").permutation(n)
    n_train = int(round(cfg.train_val * n))
    n_train = min(max(n_train, 1), n)
    return perm[:n_train], perm[n_train:]


def score_triples(view: EmbeddingView, fn: ScoreFn, rows: np.ndarray, relations: list[str]) -> np.ndarray:
    """Probabilities for a batch of (source, relation code, target) int rows."""
    out = np.zeros(len(rows))
    for code, at in _relation_groups(rows[:, 1]):
        h_src, h_tgt = view.rows(rows[at, 0]), view.rows(rows[at, 2])
        out[at] = nm.sigmoid(score_logits(fn, relations[code], h_src, h_tgt)).data
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
    initial.check_aligned(graph)
    gi = graph.index()
    n_nodes = len(gi.node_ids)
    admitted = _admitted(gi, cfg.link_filter)
    if not len(admitted):
        raise EmptyTrainingSet("no triples admitted by the link filter")
    train_at, val_at = _split_positives(len(admitted), cfg)
    rows = gi.triples[admitted]
    train_pos, val_pos = rows[train_at], rows[val_at]
    sets = AdmissibleSets.from_rows(rows, n_nodes, len(gi.relations))
    forbidden = sets.keys(rows)

    part = partition(graph, cfg.partitions, substream(cfg.seed, "partition"))
    relations = trainable_relations(graph)
    params = init_gnn_params(
        _attr_modality_dims(initial),
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
    reg_rows, reg_values = rows[:0], np.zeros(0)
    if cfg.regression:
        reg_rows, reg_values = numeric_triples(graph)
        if not len(reg_values):
            raise EmptyTrainingSet("the regression objective needs a numeric-attribute triple")
        reg_relations = [gi.relations[k] for k, _ in _relation_groups(reg_rows[:, 1])]
        regression = init_regression_heads(
            reg_relations, cfg.out_dim, substream(cfg.seed, "init_reg"), cfg.reg_lambda
        )

    named = model_parameters(params, fn, regression)
    if warm_start is not None:
        previous = warm_start.named_parameters()
        for name, tensor in named.items():
            src = previous.get(name)
            if src is not None and src.data.shape == tensor.data.shape:
                tensor.data = src.data.copy()

    history = [np.zeros((n_nodes, d)) for d in (params.hidden_dim, params.out_dim)]
    scopes = [np.flatnonzero(part == p) for p in range(cfg.partitions)]
    mps = [build_mp(graph, s, cfg.policy) for s in scopes]
    train_by_part = [train_pos[part[train_pos[:, 0]] == p] for p in range(cfg.partitions)]
    reg_part = part[reg_rows[:, 0]]
    reg_by_part = [(reg_rows[reg_part == p], reg_values[reg_part == p]) for p in range(cfg.partitions)]
    state = None
    log: list[dict] = []
    # the last validation forward, when the whole graph is the only scope: its
    # MpGraph is then the training one and the parameters have not moved since
    forward = None
    for epoch in range(cfg.epochs):
        epoch_rows = []
        for p, mp in enumerate(mps):
            layers = forward if forward is not None else encode_layers(mp, initial, params, history)
            view = EmbeddingView(layers[-1], mp.row, history[-1])
            pos_p = train_by_part[p]
            if len(pos_p) or len(reg_by_part[p][1]):
                negs = sample_negatives(
                    pos_p, sets, cfg.negative_ratio, substream(cfg.seed, "neg", epoch, p), forbidden
                )
                loss = pretrain_loss(pos_p, negs, view, fn, gi.relations, regression, reg_by_part[p])
                nm.backward(loss)
                state = nm.adam_step(named, state, cfg.lr)
                train_loss = float(loss.data)
            else:
                train_loss = None  # partition holds no training triples
            for stored, h_layer in zip(history, layers[1:]):
                stored[scopes[p]] = h_layer.data
            epoch_rows.append({"epoch": epoch, "partition": p, "train_loss": train_loss})
        val_loss = None
        if len(val_pos):
            val_mp = build_mp(graph, None, cfg.policy)
            val_layers = encode_layers(val_mp, initial, params)
            view = EmbeddingView(val_layers[-1], val_mp.row)
            negs = sample_negatives(
                val_pos, sets, cfg.negative_ratio, substream(cfg.seed, "valneg", epoch), forbidden
            )
            val_loss = float(pretrain_loss(val_pos, negs, view, fn, gi.relations).data)
            forward = val_layers if len(mps) == 1 and mps[0] is val_mp else None
        for row in epoch_rows:
            row["val_loss"] = val_loss
            log.append(row)
    return TrainResult(params, fn, regression, history, log, train_pos, val_pos, relations, cfg)


def evaluate_link_auc(
    graph: MultimodalGraph,
    initial: EmbeddingTable,
    result: TrainResult,
    seed: int = 0,
    ratio: int = 1,
) -> float:
    """Held-out AUC: validation positives vs fresh admissible corruptions, on the
    graph `result` was trained on."""
    cfg = result.config
    gi = graph.index()
    rows = gi.triples[_admitted(gi, cfg.link_filter)]
    sets = AdmissibleSets.from_rows(rows, len(gi.node_ids), len(gi.relations))
    initial.check_aligned(graph)
    mp = build_mp(graph, None, cfg.policy)
    view = EmbeddingView(encode_layers(mp, initial, result.params)[-1], mp.row)
    negs = sample_negatives(result.val_rows, sets, ratio, substream(seed, "auc_neg"), sets.keys(rows))
    pos_scores = score_triples(view, result.score_fn, result.val_rows, gi.relations)
    neg_scores = score_triples(view, result.score_fn, negs, gi.relations)
    return link_auc(pos_scores, neg_scores)


def sequential_pretrain(
    graphs: list[MultimodalGraph],
    cfg: PretrainConfig,
    initial_tables: list[EmbeddingTable],
) -> TrainResult:
    """Train on each graph in order, warm-starting every phase from the previous
    checkpoint; relations and modalities introduced later get fresh weights."""
    if not graphs:
        raise EmptyTrainingSet("no graphs to pretrain on")
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

    def named_parameters(self) -> dict[str, Tensor]:
        return model_parameters(self.params, self.score_fn, self.regression)


def array_to_doc(a: np.ndarray) -> dict:
    """One array as `{"shape": [...], "f8": base64 of its little-endian float64
    bytes}`; exact to the bit, with no decimal formatting."""
    raw = np.asarray(a, dtype="<f8").tobytes()
    return {"shape": list(np.shape(a)), "f8": base64.b64encode(raw).decode("ascii")}


def array_from_doc(doc: dict, shape: tuple, name: str) -> np.ndarray:
    """Decode `array_to_doc` output into an owned, writeable float64 array.

    `shape` is the expected shape; a None entry accepts any size on that axis.
    Raises ParseError when the blob's byte length disagrees with its stored shape,
    the shape with the expected one, or a value is not finite.
    """
    if not isinstance(doc, dict) or not isinstance(doc.get("f8"), str):
        raise ParseError(f'{name}: expected {{"shape": [...], "f8": "<base64>"}}')
    stored = doc.get("shape")
    if not isinstance(stored, list) or not all(type(d) is int and d >= 0 for d in stored):
        raise ParseError(f"{name}: shape must be a list of non-negative ints, got {stored!r}")
    if len(stored) != len(shape) or any(e is not None and e != d for e, d in zip(shape, stored)):
        want = tuple("*" if e is None else e for e in shape)
        raise ParseError(f"{name}: shape {tuple(stored)} does not match expected {want}")
    try:
        raw = base64.b64decode(doc["f8"], validate=True)
    except binascii.Error as exc:
        raise ParseError(f"{name}: bad base64: {exc}") from None
    if len(raw) != 8 * math.prod(stored):
        raise ParseError(f"{name}: {len(raw)} bytes do not hold shape {tuple(stored)} of float64")
    out = np.frombuffer(raw, dtype="<f8").reshape(stored).astype(np.float64)
    if not np.isfinite(out).all():
        raise ParseError(f"{name}: non-finite value")
    return out


def _tensor_doc(value) -> dict:
    """`json.dumps` hook: a Tensor as its `array_to_doc` form. Anything else is
    not JSON and raises TypeError, as it would without the hook."""
    if not isinstance(value, Tensor):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    return array_to_doc(value.data)


def checkpoint_to_json(ckpt: Checkpoint) -> str:
    """The checkpoint as sorted-key JSON text. The document holds the Tensors
    themselves; `json.dumps` writes each through `_tensor_doc`."""
    params, fn, reg, allowed = ckpt.params, ckpt.score_fn, ckpt.regression, ckpt.policy.allowed_inbound
    doc = {
        "version": CHECKPOINT_VERSION,
        "gnn": {
            "dims": [params.proj_dim, params.hidden_dim, params.out_dim],
            "projections": {m: {"w": w, "b": b} for m, (w, b) in params.projections.items()},
            "layers": [
                {"self": layer.w_self, "bias": layer.bias, "default": layer.w_default,
                 "relations": layer.w_rel}
                for layer in params.layers
            ],
        },
        "score": {"kind": fn.kind, "margin": fn.margin, "relations": fn.rel_emb, "classifier": fn.clf},
        "regression": None if reg is None else {
            "lambda": reg.lam,
            "heads": {r: {"w": w, "b": b} for r, (w, b) in reg.heads.items()},
        },
        "policy": {"mode": ckpt.policy.mode, "allowed_inbound": {m: sorted(v) for m, v in allowed.items()}},
        "meta": ckpt.meta,
    }
    return json.dumps(doc, sort_keys=True, default=_tensor_doc)


def checkpoint_from_json(text: str) -> Checkpoint:
    """Decode and validate a checkpoint document. Anything malformed raises
    ParseError: invalid JSON, another version, a missing or mistyped field, an
    array whose shape disagrees with the encoder dims, a non-finite value, or a
    policy whose allowed relations are not a list of strings."""
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
    """The inverse of `checkpoint_to_json`, checking every array against
    `gnn.dims`: a projection maps any input width to proj_dim, layer l maps
    dims[l] to dims[l + 1], and the scorer and regression heads read out_dim
    vectors. A missing field raises the lookup's own KeyError/TypeError."""

    def arr(leaf, shape: tuple, name: str) -> Tensor:
        return nm.param(array_from_doc(leaf, shape, name))

    gnn, raw_score, raw_reg, raw_policy = doc["gnn"], doc["score"], doc["regression"], doc["policy"]
    dims = gnn["dims"]
    if not (isinstance(dims, list) and len(dims) == 3 and all(type(d) is int and d > 0 for d in dims)):
        raise ParseError(f"gnn.dims must be three positive ints, got {dims!r}")
    proj_dim, out_dim = dims[0], dims[-1]
    projections = {
        m: (arr(p["w"], (None, proj_dim), f"gnn.projections.{m}.w"),
            arr(p["b"], (proj_dim,), f"gnn.projections.{m}.b"))
        for m, p in gnn["projections"].items()
    }
    if not isinstance(gnn["layers"], list) or len(gnn["layers"]) != len(dims) - 1:
        raise ParseError(f"gnn.layers must be a list of {len(dims) - 1} layers")
    layers = []
    for l, raw in enumerate(gnn["layers"]):
        weight, where = (dims[l], dims[l + 1]), f"gnn.layers[{l}]"
        layers.append(
            RgcnLayer(
                w_self=arr(raw["self"], weight, f"{where}.self"),
                bias=arr(raw["bias"], (dims[l + 1],), f"{where}.bias"),
                w_rel={r: arr(w, weight, f"{where}.relations.{r}") for r, w in raw["relations"].items()},
                w_default=arr(raw["default"], weight, f"{where}.default"),
            )
        )

    kind, raw_clf = raw_score["kind"], raw_score["classifier"]
    if kind not in SCORE_KINDS:
        raise ParseError(f"unknown score kind {kind!r}")
    if (kind == "classifier") != (raw_clf is not None):
        raise ParseError("score.classifier must be present exactly when the kind is classifier")
    clf = None
    if raw_clf is not None:
        w1 = arr(raw_clf["w1"], (3 * out_dim, None), "score.classifier.w1")
        hidden = w1.data.shape[1]
        clf = {
            "w1": w1,
            "b1": arr(raw_clf["b1"], (hidden,), "score.classifier.b1"),
            "w2": arr(raw_clf["w2"], (hidden, 1), "score.classifier.w2"),
            "b2": arr(raw_clf["b2"], (1,), "score.classifier.b2"),
        }
    fn = ScoreFn(
        kind=kind,
        rel_emb={r: arr(w, (out_dim,), f"score.relations.{r}") for r, w in raw_score["relations"].items()},
        margin=_finite_number(raw_score["margin"], "score.margin"),
        clf=clf,
    )

    regression = None
    if raw_reg is not None:
        regression = RegressionHeads(
            {
                r: (arr(h["w"], (out_dim, 1), f"regression.heads.{r}.w"),
                    arr(h["b"], (1,), f"regression.heads.{r}.b"))
                for r, h in raw_reg["heads"].items()
            },
            _finite_number(raw_reg["lambda"], "regression.lambda"),
        )

    allowed = raw_policy["allowed_inbound"]
    for m, relations in allowed.items():
        if not (isinstance(relations, list) and all(isinstance(r, str) for r in relations)):
            raise ParseError(f"policy.allowed_inbound.{m} must be a list of strings, got {relations!r}")
    policy = FlowPolicy(raw_policy["mode"], {m: frozenset(v) for m, v in allowed.items()})
    return Checkpoint(GnnParams(projections, layers, *dims), fn, regression, policy, doc.get("meta", {}))


def save_checkpoint(ckpt: Checkpoint, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(checkpoint_to_json(ckpt))


def load_checkpoint(path: str) -> Checkpoint:
    return checkpoint_from_json(read_utf8(path, ParseError, "checkpoint"))
