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

Messages travel along the sparse edge list of the graph's integer index: one
weighted scatter-add (`numerics.segment_sum`) per relation and layer, never an
n x n matrix.
Encoding covers the scope plus its one-hop, flow-permitted in-neighbors only,
because out-of-scope neighbors at layers >= 1 read from a historical store when
one is provided (partitioned training) and zeros otherwise. Full-graph embeddings
thus still depend on exactly the two-hop neighborhood.
"""

from __future__ import annotations

import base64
import binascii
import math
from dataclasses import dataclass, field

import numpy as np

from . import numerics as nm
from .errors import MissingProjection, ParseError
from .graph import (
    CATEGORICAL,
    GraphIndex,
    MultimodalGraph,
    NodeId,
    Relation,
    RelationKind,
    attribute_node,
    entity,
)
from .handlers import (
    EmbeddingTable,
    HandlerRegistry,
    SEQUENCE_MODALITY,
    SMILES_MODALITY,
    compute_initial_embeddings,
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

    def __post_init__(self):
        if self.mode not in ("unrestricted", "controlled"):
            raise ValueError(f"unknown flow policy mode {self.mode!r}")
        if self.mode == "controlled":
            for modality, allowed in self.allowed_inbound.items():
                if not allowed:
                    raise ValueError(f"controlled policy has empty allowed set for {modality!r}")

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


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


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
            nm.param(_glorot(rng, dim, proj_dim)),
            nm.param(np.zeros(proj_dim)),
        )
    layers = []
    dims = [proj_dim, hidden_dim, out_dim]
    for l in range(2):
        d_in, d_out = dims[l], dims[l + 1]
        layers.append(
            RgcnLayer(
                w_self=nm.param(_glorot(rng, d_in, d_out)),
                bias=nm.param(np.zeros(d_out)),
                w_rel={rel: nm.param(_glorot(rng, d_in, d_out)) for rel in sorted(relations)},
                w_default=nm.param(_glorot(rng, d_in, d_out)),
            )
        )
    return GnnParams(projections, layers, proj_dim, hidden_dim, out_dim)


class HistoricalStore:
    """Last-computed per-layer embeddings of every node of a graph, kept in host
    memory for partitioned training: `layers[l]` is an (n_nodes x dims[l]) array
    indexed by the graph's index ints. A row never written reads as zeros."""

    def __init__(self, n_nodes: int, dims: list[int]):
        self.layers = [np.zeros((n_nodes, d)) for d in dims]

    def update(self, layer: int, nodes: np.ndarray, values: np.ndarray):
        self.layers[layer][nodes] = values


@dataclass
class MpGraph:
    """Message-passing structure for (graph, scope, policy).

    Rows are the closure: the scope plus every sender of a flow-permitted edge into
    the scope, in canonical (sorted NodeId) order; row i is node `closure[i]` of
    the graph's index, with id `node_ids[i]`. Edges are flat arrays over closure
    rows, one entry per permitted message into a scope row, sorted by (relation,
    receiver, sender): `relations[relation[e]]` carries row `sender[e]` into row
    `receiver[e]`, scaled by `weight[e]`, the receiver's 1/degree under that
    relation (mean aggregation). Memory is O(closure + edges), never O(closure^2).
    `projected` also counts attributes whose only edge into the scope is blocked:
    they send nothing, but their modality must still have a projection.
    """

    node_ids: list[NodeId]
    closure: np.ndarray
    scope_rows: np.ndarray
    out_rows: np.ndarray
    relations: list[str]
    relation: np.ndarray
    receiver: np.ndarray
    sender: np.ndarray
    weight: np.ndarray
    attr_rows: dict[str, np.ndarray]  # non-categorical attribute modality -> row indices
    projected: list[str]  # non-categorical attribute modalities in or next to the scope

    def row_of(self, n_nodes: int) -> np.ndarray:
        """Per index node of the graph: its row in `encode_layers`' scope outputs,
        or -1 outside the scope."""
        row_of = np.full(n_nodes, -1, dtype=np.intp)
        row_of[self.closure[self.scope_rows]] = np.arange(len(self.scope_rows))
        return row_of


def build_mp(graph: MultimodalGraph, scope: np.ndarray | None, policy: FlowPolicy) -> MpGraph:
    """Closure, edges and projected rows for encoding `scope`, an int array of
    nodes of `graph.index()` (None: every node)."""
    gi = graph.index()
    if scope is None:
        in_scope = np.ones(len(gi.node_ids), dtype=bool)
    else:
        in_scope = np.zeros(len(gi.node_ids), dtype=bool)
        in_scope[scope] = True
    into_scope = in_scope[gi.receiver]
    live = np.flatnonzero(into_scope & ~policy.blocked(gi))
    in_closure = in_scope.copy()
    in_closure[gi.sender[live]] = True
    closure = np.flatnonzero(in_closure)
    node_ids = [gi.node_ids[i] for i in closure.tolist()]
    scope_mask = in_scope[closure]
    scope_rows = np.flatnonzero(scope_mask)
    out_rows = np.flatnonzero(~scope_mask)

    # entities and categorical attributes start at zero; the rest are projected
    modality = np.where(gi.is_entity[closure], -1, gi.modality[closure])
    attr_rows = {
        gi.modalities[m]: np.flatnonzero(modality == m)
        for m in sorted(set(modality.tolist()) - {-1})  # codes follow sorted modality names
        if gi.modalities[m] != CATEGORICAL
    }
    near = in_scope.copy()
    near[gi.sender[into_scope]] = True
    codes = sorted(set(gi.modality[near & ~gi.is_entity].tolist()))
    return MpGraph(
        node_ids=node_ids,
        closure=closure,
        scope_rows=scope_rows,
        out_rows=out_rows,
        relations=gi.relations,
        relation=gi.relation[live],
        receiver=np.searchsorted(closure, gi.receiver[live]),
        sender=np.searchsorted(closure, gi.sender[live]),
        weight=gi.weight[live],
        attr_rows=attr_rows,
        projected=[gi.modalities[m] for m in codes if gi.modalities[m] != CATEGORICAL],
    )


def encode_layers(
    mp: MpGraph,
    table: EmbeddingTable,
    params: GnnParams,
    history: HistoricalStore | None = None,
) -> list[Tensor]:
    """Forward pass. Returns per-layer tensors whose rows follow mp.scope_rows order
    for layers >= 1; layer 0 covers the whole closure.

    Relation r adds (A_r h) W_r, where A_r h, the mean of each receiver's messages
    under r, is one `segment_sum` over r's edges."""
    for modality in mp.projected:
        if modality not in params.projections:
            raise MissingProjection(modality)
    n = len(mp.node_ids)
    pieces = []
    for modality, rows in mp.attr_rows.items():
        w, b = params.projections[modality]
        X = np.stack([table.get(mp.node_ids[i]) for i in rows])
        pieces.append((rows, nm.add(nm.matmul(nm.constant(X), w), b)))
    h_full = nm.assemble_rows(n, params.proj_dim, pieces)

    outputs: list[Tensor] = [h_full]
    dims = [params.proj_dim, params.hidden_dim, params.out_dim]
    runs = np.searchsorted(mp.relation, np.arange(len(mp.relations) + 1)).tolist()
    edges = [
        (rel, mp.sender[lo:hi], mp.receiver[lo:hi], mp.weight[lo:hi])
        for rel, lo, hi in zip(mp.relations, runs, runs[1:])
        if lo < hi
    ]
    h_scope: Tensor | None = None
    for l, layer in enumerate(params.layers):
        if l > 0:
            fill = [(mp.scope_rows, h_scope)]
            if len(mp.out_rows):
                hist = (
                    history.layers[l - 1][mp.closure[mp.out_rows]]
                    if history is not None
                    else np.zeros((len(mp.out_rows), dims[l]))
                )
                fill.append((mp.out_rows, hist))
            h_full = nm.assemble_rows(n, dims[l], fill)
        z = nm.matmul(h_full, layer.w_self)
        for rel, sender, receiver, weight in edges:
            mean = nm.segment_sum(h_full, sender, receiver, weight, n)
            z = nm.add(z, nm.matmul(mean, layer.weight_for(rel)))
        h_next_full = nm.relu(nm.add(z, layer.bias))
        h_scope = nm.gather_rows(h_next_full, mp.scope_rows)
        outputs.append(h_scope)
    return outputs


def encode(
    graph: MultimodalGraph,
    initial: EmbeddingTable,
    params: GnnParams,
    policy: FlowPolicy | None = None,
    history: HistoricalStore | None = None,
    scope: set[NodeId] | list[NodeId] | None = None,
) -> dict[NodeId, np.ndarray]:
    """Embed the scope nodes (default: all) given initial embeddings and parameters."""
    policy = policy or FlowPolicy.unrestricted()
    position = graph.index().position
    rows = None if scope is None else np.array([position[nid] for nid in scope], dtype=np.intp)
    mp = build_mp(graph, rows, policy)
    final = encode_layers(mp, initial, params, history)[-1]
    return {mp.node_ids[r]: final.data[i].copy() for i, r in enumerate(mp.scope_rows.tolist())}


def infer(
    params: GnnParams,
    policy: FlowPolicy,
    value: str,
    modality: str,
    registry: HandlerRegistry,
    relation: str | None = None,
    entity_modality: str | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Embed a brand-new sequence/SMILES: returns (initial vector, encoder vector).

    Builds a two-node micro-graph (fresh entity plus one attribute) and encodes it;
    works for values never seen in training because the encoder is inductive.
    """
    defaults = INFER_DEFAULTS.get(modality)
    if relation is None or entity_modality is None:
        if defaults is None:
            raise ValueError(
                f"no inference defaults for modality {modality!r}; pass relation= and entity_modality="
            )
        relation = relation or defaults[0]
        entity_modality = entity_modality or defaults[1]

    micro = MultimodalGraph()
    subject = entity("query", "q", entity_modality)
    attr = attribute_node(modality, value)
    micro.add_triple(subject, Relation(relation, RelationKind.DATA), attr)
    table = compute_initial_embeddings(micro, registry, entity_dim=params.proj_dim)
    out = encode(micro, table, params, policy, scope=[subject.id])
    return table.get(attr.id).copy(), out[subject.id]


# --- parameter (de)serialization --------------------------------------------------


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


def params_to_dict(params: GnnParams) -> dict:
    return {
        "dims": [params.proj_dim, params.hidden_dim, params.out_dim],
        "projections": {
            m: {"w": array_to_doc(w.data), "b": array_to_doc(b.data)}
            for m, (w, b) in sorted(params.projections.items())
        },
        "layers": [
            {
                "self": array_to_doc(layer.w_self.data),
                "bias": array_to_doc(layer.bias.data),
                "default": array_to_doc(layer.w_default.data),
                "relations": {r: array_to_doc(w.data) for r, w in sorted(layer.w_rel.items())},
            }
            for layer in params.layers
        ],
    }


def params_from_dict(doc: dict) -> GnnParams:
    """Inverse of `params_to_dict`, checking every array against `dims`: a
    projection maps any input width to proj_dim, layer l maps dims[l] to
    dims[l + 1]. A missing field raises the lookup's own KeyError/TypeError."""
    dims = doc["dims"]
    if not (
        isinstance(dims, list) and len(dims) == 3 and all(type(d) is int and d > 0 for d in dims)
    ):
        raise ParseError(f"gnn.dims must be three positive ints, got {dims!r}")
    proj_dim = dims[0]
    projections = {
        m: (
            nm.param(array_from_doc(p["w"], (None, proj_dim), f"gnn.projections.{m}.w")),
            nm.param(array_from_doc(p["b"], (proj_dim,), f"gnn.projections.{m}.b")),
        )
        for m, p in doc["projections"].items()
    }
    raw_layers = doc["layers"]
    if not isinstance(raw_layers, list) or len(raw_layers) != len(dims) - 1:
        raise ParseError(f"gnn.layers must be a list of {len(dims) - 1} layers")
    layers = []
    for l, raw in enumerate(raw_layers):
        weight, where = (dims[l], dims[l + 1]), f"gnn.layers[{l}]"
        layers.append(
            RgcnLayer(
                w_self=nm.param(array_from_doc(raw["self"], weight, f"{where}.self")),
                bias=nm.param(array_from_doc(raw["bias"], (dims[l + 1],), f"{where}.bias")),
                w_rel={
                    r: nm.param(array_from_doc(w, weight, f"{where}.relations.{r}"))
                    for r, w in raw["relations"].items()
                },
                w_default=nm.param(array_from_doc(raw["default"], weight, f"{where}.default")),
            )
        )
    return GnnParams(projections, layers, *dims)


def policy_to_dict(policy: FlowPolicy) -> dict:
    return {
        "mode": policy.mode,
        "allowed_inbound": {m: sorted(v) for m, v in sorted(policy.allowed_inbound.items())},
    }


def policy_from_dict(doc: dict) -> FlowPolicy:
    return FlowPolicy(doc["mode"], {m: frozenset(v) for m, v in doc["allowed_inbound"].items()})
