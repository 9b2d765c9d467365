"""Inductive multi-relational graph encoder.

Per-modality linear projections bring attribute embeddings into a common space;
entities and categorical attributes start at zero. Two relational graph-convolution
layers then propagate messages along triples (treated as undirected labeled edges,
one weight matrix per relation plus a shared self-loop weight and a default weight
for relations unseen at fit time), averaging over neighbors per relation:

    h_{l+1}(v) = relu( W_self h_l(v) + sum_r mean_{u in N_r(v)} W_r h_l(u) + b )

A flow policy can restrict which relations may deliver messages into governed
entity modalities (e.g. proteins listen only to their sequence attribute), which
keeps pretraining consistent with inference-time inputs.

Messages travel in `MpGraph.groups`, each relation's edges cut from the sparse edge
list of the graph's integer index, never an n x n matrix: each layer is one tape op
(`numerics.rgcn_layer`), in which one weighted scatter-add per group gives the mean
message of each row the relation reaches, and only those rows get its product with W_r.
Encoding covers the scope plus its one-hop, flow-permitted in-neighbors only,
because out-of-scope neighbors at layers >= 1 read from the history (partitioned
training: one array per layer >= 1, a row per index node) when given and zeros
otherwise. Full-graph embeddings thus still depend on exactly the two-hop
neighborhood. `EmbeddingView` is the one reader of rows outside a scope, for the
encoder's layer >= 1 input and for the pretraining loss alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numerics as nm
from .errors import KindViolation, MissingProjection, ShapeMismatch
from .graph import (
    CATEGORICAL,
    GraphIndex,
    MultimodalGraph,
    NodeId,
    Relation,
    RelationKind,
    attribute_node,
    entity,
    literal,
)
from .handlers import (
    EmbeddingTable,
    HandlerRegistry,
    SEQUENCE_MODALITY,
    SMILES_MODALITY,
    embedding_matrix,
)
from .numerics import Tensor

# entity modality -> (data relation, attribute modality) used by the inference API
INFER_DEFAULTS = {
    SMILES_MODALITY: ("smiles", "drug"),
    SEQUENCE_MODALITY: ("sequence", "protein"),
}


@dataclass(frozen=True)
class FlowPolicy:
    mode: str  # "unrestricted" | "controlled"
    allowed_inbound: dict[str, frozenset[str]] = field(default_factory=dict)

    # the policy's fields as a hashable value (`allowed_inbound` is a dict), set once
    key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in ("unrestricted", "controlled"):
            raise ValueError(f"unknown flow policy mode {self.mode!r}")
        if self.mode == "controlled":
            for modality, allowed in self.allowed_inbound.items():
                if not allowed:
                    raise ValueError(f"controlled policy has empty allowed set for {modality!r}")
        key = (self.mode, tuple(sorted((m, tuple(sorted(v))) for m, v in self.allowed_inbound.items())))
        object.__setattr__(self, "key", key)  # the dataclass is frozen

    @staticmethod
    def unrestricted() -> "FlowPolicy":
        return FlowPolicy("unrestricted", {})

    @staticmethod
    def controlled(allowed: dict[str, set[str] | frozenset[str]] | None = None) -> "FlowPolicy":
        if allowed is None:
            allowed = {"protein": {"sequence"}, "drug": {"smiles"}}
        return FlowPolicy("controlled", {m: frozenset(v) for m, v in allowed.items()})

    def blocked(self, index: GraphIndex) -> np.ndarray:
        """Per message edge of `index`: True when the policy drops it, i.e. its
        receiver is a governed entity and its relation is not allowed inbound."""
        allowed = self.allowed_inbound if self.mode == "controlled" else {}
        closed = np.array(  # (modality, relation) -> does the policy close it
            [[m in allowed and r not in allowed[m] for r in index.relations] for m in index.modalities],
            dtype=bool,
        ).reshape(len(index.modalities), len(index.relations))
        receiver = index.receiver
        return closed[index.modality[receiver], index.relation] & index.is_entity[receiver]


@dataclass
class RgcnLayer:
    w_self: Tensor
    bias: Tensor
    w_rel: dict[str, Tensor]
    w_default: Tensor

    def weight_for(self, relation: str) -> Tensor:
        return self.w_rel.get(relation, self.w_default)


@dataclass
class GnnParams:
    projections: dict[str, tuple[Tensor, Tensor]]  # modality -> (W, b)
    layers: list[RgcnLayer]
    proj_dim: int = 64
    hidden_dim: int = 128
    out_dim: int = 128

    def named_parameters(self) -> dict[str, Tensor]:
        named: dict[str, Tensor] = {}
        for modality in sorted(self.projections):
            w, b = self.projections[modality]
            named[f"proj/{modality}/w"] = w
            named[f"proj/{modality}/b"] = b
        for i, layer in enumerate(self.layers):
            named[f"layer{i}/self"] = layer.w_self
            named[f"layer{i}/bias"] = layer.bias
            named[f"layer{i}/default"] = layer.w_default
            for rel in sorted(layer.w_rel):
                named[f"layer{i}/rel/{rel}"] = layer.w_rel[rel]
        return named


def init_gnn_params(
    modality_dims: dict[str, int],
    relations: list[str],
    rng: np.random.Generator,
    proj_dim: int = 64,
    hidden_dim: int = 128,
    out_dim: int = 128,
) -> GnnParams:
    """Fresh parameters for the given attribute modalities and relation vocabulary.

    Draws happen in sorted order, so identical inputs give identical parameters.
    """
    projections = {}
    for modality in sorted(modality_dims):
        dim = modality_dims[modality]
        projections[modality] = (
            nm.param(nm.glorot(rng, dim, proj_dim)),
            nm.param(np.zeros(proj_dim)),
        )
    layers = []
    dims = [proj_dim, hidden_dim, out_dim]
    for l in range(2):
        d_in, d_out = dims[l], dims[l + 1]
        layers.append(
            RgcnLayer(
                w_self=nm.param(nm.glorot(rng, d_in, d_out)),
                bias=nm.param(np.zeros(d_out)),
                w_rel={rel: nm.param(nm.glorot(rng, d_in, d_out)) for rel in sorted(relations)},
                w_default=nm.param(nm.glorot(rng, d_in, d_out)),
            )
        )
    return GnnParams(projections, layers, proj_dim, hidden_dim, out_dim)


@dataclass
class MpGraph:
    """Message-passing structure for (graph, scope, policy).

    Rows are the closure: the scope plus every sender of a flow-permitted edge into
    the scope, in canonical (sorted NodeId) order; row i is node `closure[i]` of
    the graph's index, with id `node_ids[i]`. `groups` holds the messages, one
    entry per relation with a permitted edge into a scope row, in relation order:
    (name, `targets`: the distinct receiving rows, sorted; `segment`: each edge's
    position in `targets`; `sender`: each edge's sending row; `weight`: each edge's
    scale, the receiver's 1/degree under the relation (mean aggregation)), edges
    sorted by (receiver, sender). Memory is O(closure + edges), never
    O(closure^2). Group arrays are views of read-only arrays, so none can be made
    writeable again.
    `projected` also counts attributes whose only edge into the scope is blocked:
    they send nothing, but their modality must still have a projection. `row`
    maps each index node to its row in `encode_layers`' scope outputs, or -1
    outside the scope, so closure row i is outside it when `row[closure[i]]` < 0.
    """

    node_ids: list[NodeId]
    closure: np.ndarray
    scope_rows: np.ndarray
    groups: list[tuple[str, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]
    attr_rows: dict[str, np.ndarray]  # non-categorical attribute modality -> row indices
    projected: list[str]  # non-categorical attribute modalities in or next to the scope
    row: np.ndarray


def build_mp(graph: MultimodalGraph, scope: np.ndarray | None, policy: FlowPolicy) -> MpGraph:
    """Closure, relation groups and projected rows for encoding `scope`, an int array of
    nodes of `graph.index()` (None: every node); an index outside the graph raises
    IndexError, as does a non-integer one (a bool mask would read as rows 0 and 1).
    Cached on the index by scope set and policy: equal inputs share one result,
    so its arrays are read-only."""
    gi = graph.index()
    n = len(gi.node_ids)
    rows = None if scope is None else np.unique(nm.as_index(scope))
    if rows is not None and len(rows) and (rows[0] < 0 or rows[-1] >= n):
        raise IndexError(f"scope index out of range for {n} nodes")
    key = (None if rows is None or len(rows) == n else rows.tobytes(), policy.key)  # None: every node
    if key in gi.mp_cache:
        return gi.mp_cache[key]
    if rows is None:
        rows = np.arange(n)
    in_scope = np.zeros(n, dtype=bool)
    in_scope[rows] = True
    into_scope = in_scope[gi.receiver]
    live = np.flatnonzero(into_scope & ~policy.blocked(gi))
    in_closure = in_scope.copy()
    in_closure[gi.sender[live]] = True
    closure = np.flatnonzero(in_closure)
    node_ids = [gi.node_ids[i] for i in closure.tolist()]
    scope_rows = np.flatnonzero(in_scope[closure])

    # entities and categorical attributes start at zero; the rest are projected
    modality = np.where(gi.is_entity[closure], -1, gi.modality[closure])
    attr_rows = {
        gi.modalities[m]: np.flatnonzero(modality == m)
        for m in sorted(set(modality.tolist()) - {-1})  # codes follow sorted modality names
        if gi.modalities[m] != CATEGORICAL
    }
    row = np.full(n, -1, dtype=np.intp)
    row[rows] = np.arange(len(rows))  # scope outputs follow sorted node order
    near = in_scope.copy()
    near[gi.sender[into_scope]] = True
    codes = sorted(set(gi.modality[near & ~gi.is_entity].tolist()))
    relation, weight = gi.relation[live], gi.weight[live]
    receiver = np.searchsorted(closure, gi.receiver[live])
    sender = np.searchsorted(closure, gi.sender[live])
    # each edge opening a new (relation, receiver) pair starts a target row
    first = np.ones(len(live), dtype=bool)
    first[1:] = (relation[1:] != relation[:-1]) | (receiver[1:] != receiver[:-1])
    pair = np.cumsum(first) - 1
    targets, segment = receiver[first], pair - pair[np.searchsorted(relation, relation)]
    # frozen before slicing: a view of a read-only base cannot be made writeable again
    for a in (targets, segment, sender, weight):
        a.flags.writeable = False
    runs = np.searchsorted(relation, np.arange(len(gi.relations) + 1)).tolist()
    groups = [
        (rel, targets[pair[lo] : pair[hi - 1] + 1], segment[lo:hi], sender[lo:hi], weight[lo:hi])
        for rel, lo, hi in zip(gi.relations, runs, runs[1:])
        if lo < hi
    ]
    mp = gi.mp_cache[key] = MpGraph(
        node_ids=node_ids,
        closure=closure,
        scope_rows=scope_rows,
        groups=groups,
        attr_rows=attr_rows,
        projected=[gi.modalities[m] for m in codes if gi.modalities[m] != CATEGORICAL],
        row=row,
    )
    for a in (*vars(mp).values(), *attr_rows.values()):
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return mp


class EmbeddingView:
    """One layer's rows by index node, the one reader of rows outside a scope: a
    node in the scope (`row[node]` >= 0, as in `MpGraph.row`) gives its
    differentiable row of `h`, any other node its constant row of `stored` (that
    layer's history array), or zeros when nothing is stored. `encode_layers`
    builds each partial scope's layer >= 1 input through it, and the pretraining
    loss reads final-layer rows through it."""

    def __init__(self, h: Tensor, row: np.ndarray, stored: np.ndarray | None = None):
        self.h, self.row, self.stored = h, row, stored

    def rows(self, nodes: np.ndarray) -> Tensor:
        rows = self.row.take(nodes)
        if (inside := rows >= 0).all():
            return nm.gather_rows(self.h, rows)
        pos_in, pos_out = np.flatnonzero(inside), np.flatnonzero(~inside)
        pieces = [(pos_in, nm.gather_rows(self.h, rows[pos_in]))] if len(pos_in) else []
        if self.stored is not None:
            pieces.append((pos_out, self.stored[nodes[pos_out]]))
        return nm.assemble_rows(len(nodes), self.h.data.shape[1], pieces)


def encode_layers(
    mp: MpGraph,
    table: EmbeddingTable,
    params: GnnParams,
    history: list[np.ndarray] | None = None,
) -> list[Tensor]:
    """Forward pass. Returns per-layer tensors whose rows follow mp.scope_rows order
    for layers >= 1; layer 0 covers the whole closure. `history`, when given, is
    one (index nodes x width) array per layer >= 1; `history[l - 1]` holds layer l
    of every index node. Other shapes raise ShapeMismatch. A partial scope's layer
    l >= 1 input is `EmbeddingView(layer l, mp.row, history[l - 1])` over the closure.

    Each layer is one `numerics.rgcn_layer` over `mp.groups`: relation r adds
    (A_r h) W_r on its target rows only, where A_r h, the mean of each target's
    messages under r, is a block with a row per target."""
    for modality in mp.projected:
        if modality not in params.projections:
            raise MissingProjection(modality)
    dims = [params.proj_dim, params.hidden_dim, params.out_dim]
    if history is not None:
        want = [(len(mp.row), d) for d in dims[1:]]
        if [np.shape(h) for h in history] != want:
            raise ShapeMismatch(f"history needs arrays of shapes {want}, got {[np.shape(h) for h in history]}")
    n = len(mp.node_ids)
    pieces = []
    for modality, rows in mp.attr_rows.items():
        w, b = params.projections[modality]
        at = table.row[mp.closure[rows]]
        if at.min() < 0:
            raise ValueError(f"the initial table has no row for a {modality!r} node")
        X = table.matrices[modality][at]
        pieces.append((rows, nm.add(nm.matmul(nm.constant(X), w), b)))
    h_full = nm.assemble_rows(n, params.proj_dim, pieces)

    outputs: list[Tensor] = [h_full]
    groups = [group[1:] for group in mp.groups]
    for l, layer in enumerate(params.layers):
        if l > 0:
            h_full = outputs[-1]  # when the scope is the whole closure
            if len(mp.scope_rows) < n:
                stored = None if history is None else history[l - 1]
                h_full = EmbeddingView(h_full, mp.row, stored).rows(mp.closure)
        weights = [layer.weight_for(group[0]) for group in mp.groups]
        outputs.append(nm.rgcn_layer(h_full, layer.w_self, layer.bias, weights, groups, mp.scope_rows))
    return outputs


def encode(
    graph: MultimodalGraph,
    initial: EmbeddingTable,
    params: GnnParams,
    policy: FlowPolicy | None = None,
    history: list[np.ndarray] | None = None,
    scope: set[NodeId] | list[NodeId] | None = None,
) -> dict[NodeId, np.ndarray]:
    """Embed the scope nodes (default: all) given initial embeddings and parameters."""
    initial.check_aligned(graph)
    policy = policy or FlowPolicy.unrestricted()
    position = graph.index().position
    rows = None if scope is None else np.array([position[nid] for nid in scope], dtype=np.intp)
    mp = build_mp(graph, rows, policy)
    final = encode_layers(mp, initial, params, history)[-1]
    return {mp.node_ids[r]: final.data[i].copy() for i, r in enumerate(mp.scope_rows.tolist())}


# (modality, relation, entity modality) -> the two-node graph `infer` encodes on
_QUERY_GRAPHS: dict[tuple[str, str, str], MultimodalGraph] = {}


def infer(
    params: GnnParams,
    policy: FlowPolicy,
    value: str | float,
    modality: str,
    registry: HandlerRegistry,
    relation: str | None = None,
    entity_modality: str | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Embed a brand-new literal: returns (initial vector, encoder vector), equal to
    `encode` on a two-node graph of a fresh entity and the value's attribute with
    every node in scope. Under a controlled policy that is the vector pretraining
    gives an entity whose only allowed attribute holds the value. Values differ only
    in the attribute's initial row, so one graph is kept per key with its `build_mp`
    result cached. The encoder is inductive: any value works."""
    if modality == CATEGORICAL:
        raise KindViolation("categorical attributes start at zero: a value has nothing to infer from")
    value = literal(value)
    handler = registry.get(modality)
    default_relation, default_entity = INFER_DEFAULTS.get(modality, (None, None))
    relation, entity_modality = relation or default_relation, entity_modality or default_entity
    if relation is None or entity_modality is None:
        raise ValueError(f"no inference defaults for {modality!r}: pass relation= and entity_modality=")
    initial = embedding_matrix(handler, ["value"], [handler.embed(value)], f"{modality} value")
    key = (modality, relation, entity_modality)
    if key not in _QUERY_GRAPHS:
        query, attr = entity("query", "q", entity_modality), attribute_node(modality, "")
        _QUERY_GRAPHS[key] = MultimodalGraph().add_triple(query, Relation(relation, RelationKind.DATA), attr)
    graph = _QUERY_GRAPHS[key]
    mp = build_mp(graph, None, policy)
    table = EmbeddingTable(graph.index().node_ids, np.array([0, -1]), {modality: initial})
    return initial[0], encode_layers(mp, table, params)[-1].data[mp.row[1]]  # node 1 is the entity: "attr" sorts first

