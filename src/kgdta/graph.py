"""Multimodal knowledge graph data model.

A directed labeled graph whose nodes carry a modality and split into entity nodes
(concepts such as proteins or drugs) and attribute nodes (literal-valued qualifiers
such as a sequence or a mass). Edges are data properties (entity -> attribute) or
object properties (entity -> entity). Triples are unique per (source, relation name,
target), and entities with equal ids merge across graphs.

All collections iterate in insertion order, so builds are reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import KindViolation, ModalityConflict
from .util import fnv1a64

SAME_AS = "sameAs"
RDF_TYPE = "rdf:type"
# metadata, not domain structure: no relation code, so no messages and no training
META_RELATIONS = (RDF_TYPE, SAME_AS)

# attribute nodes carrying this modality are zero-initialized like entities
CATEGORICAL = "categorical"


class NodeKind(Enum):
    ENTITY = "entity"
    ATTRIBUTE = "attribute"


class RelationKind(Enum):
    DATA = "data"
    OBJECT = "object"


@dataclass(frozen=True, order=True)
class NodeId:
    namespace: str
    local_id: str

    def __str__(self) -> str:
        return f"{self.namespace}:{self.local_id}"


@dataclass(frozen=True)
class Node:
    id: NodeId
    modality: str
    kind: NodeKind
    value: str | float | None = None

    def __post_init__(self):
        if not self.id.namespace or not self.id.local_id:
            raise KindViolation(f"node id has empty namespace or local id: {self.id!r}")
        if self.kind is NodeKind.ATTRIBUTE and self.value is None:
            raise KindViolation(f"attribute node {self.id} must carry a literal value")
        if self.kind is NodeKind.ENTITY and self.value is not None:
            raise KindViolation(f"entity node {self.id} must not carry a value")


@dataclass(frozen=True)
class Relation:
    name: str
    kind: RelationKind


@dataclass(frozen=True)
class Triple:
    source: NodeId
    relation: Relation
    target: NodeId

    @property
    def key(self) -> tuple[NodeId, str, NodeId]:
        return (self.source, self.relation.name, self.target)


def entity(namespace: str, local_id: str, modality: str) -> Node:
    return Node(NodeId(namespace, str(local_id)), modality, NodeKind.ENTITY)


def literal(value: str | float) -> str | float:
    """An attribute literal as nodes store it: a string as is, a number as a float.
    Raises KindViolation for anything else, bools included."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise KindViolation(f"attribute value must be a string or number, got {type(value)}")
    return value if isinstance(value, str) else float(value)


def attribute_node(modality: str, value: str | float, namespace: str = "attr") -> Node:
    """Attribute node whose id is a stable content hash of (modality, value).

    Identical literals become shared nodes, which both deduplicates storage and lets
    entities with e.g. the same sequence meet at a common neighbor.
    """
    value = literal(value)
    if isinstance(value, float):
        digest = fnv1a64(f"{modality}\x00num\x00{value!r}")
    else:
        digest = fnv1a64(f"{modality}\x00str\x00{value}")
    return Node(NodeId(namespace, f"{digest:016x}"), modality, NodeKind.ATTRIBUTE, value)


@dataclass(frozen=True, eq=False)
class GraphIndex:
    """Integer view of a graph, shared by everything that walks its structure.

    Node i is `node_ids[i]`, and ints follow canonical (sorted `NodeId`) order, so
    sorting ints sorts ids. Node i has modality `modalities[modality[i]]`.
    `triples` holds every triple as a (source, relation code, target) row, in
    insertion order; a metadata triple (`META_RELATIONS`), which has no code, has
    relation -1.

    Message edges are the triples with a relation code, each in both directions,
    deduplicated and sorted by (relation, receiver, sender): each relation's edges
    form one run, a receiver's edges under one relation list its neighbours in
    order, and no sum over them depends on triple insertion order. Edge e carries
    `relations[relation[e]]` from `sender[e]` to `receiver[e]`, with `weight[e]` =
    1 / (number of senders of that receiver under that relation).
    `mp_cache` holds `gnn.build_mp` results for this index, which die with it.
    """

    node_ids: list[NodeId]
    position: dict[NodeId, int]
    is_entity: np.ndarray
    modalities: list[str]
    modality: np.ndarray
    triples: np.ndarray
    relations: list[str]
    relation: np.ndarray
    receiver: np.ndarray
    sender: np.ndarray
    weight: np.ndarray
    mp_cache: dict = field(default_factory=dict, repr=False)


def _build_index(graph: "MultimodalGraph") -> GraphIndex:
    node_ids = sorted(graph.nodes, key=lambda nid: (nid.namespace, nid.local_id))
    position = {nid: i for i, nid in enumerate(node_ids)}
    nodes = [graph.nodes[nid] for nid in node_ids]
    modalities = sorted({node.modality for node in nodes})
    modality_code = {m: k for k, m in enumerate(modalities)}
    relations = sorted(set(graph.relation_kinds) - set(META_RELATIONS))
    relation_code = {name: k for k, name in enumerate(relations)}
    n = max(len(nodes), 1)
    rows, keys = [], []
    for source, name, target in graph._triples:
        s, t = position[source], position[target]
        r = relation_code.get(name, -1)
        rows.append((s, r, t))
        if r >= 0:  # one int per edge, ordered as (relation, receiver, sender)
            keys += ((r * n + t) * n + s, (r * n + s) * n + t)
    segments, sender = np.divmod(np.unique(np.array(keys, dtype=np.intp)), n)
    # segments are sorted, so each (relation, receiver) run's length is its degree
    degree = np.searchsorted(segments, segments, "right") - np.searchsorted(segments, segments, "left")
    relation, receiver = np.divmod(segments, n)
    return GraphIndex(
        node_ids=node_ids,
        position=position,
        is_entity=np.array([node.kind is NodeKind.ENTITY for node in nodes], dtype=bool),
        modalities=modalities,
        modality=np.array([modality_code[node.modality] for node in nodes], dtype=np.intp),
        triples=np.array(rows, dtype=np.intp).reshape(-1, 3),
        relations=relations,
        relation=relation,
        receiver=receiver,
        sender=sender,
        weight=1.0 / degree,
    )


class MultimodalGraph:
    """Mutable multimodal KG. Single writer; queries are pure."""

    def __init__(self):
        self.nodes: dict[NodeId, Node] = {}
        self._triples: dict[tuple[NodeId, str, NodeId], Triple] = {}
        self.relation_kinds: dict[str, RelationKind] = {}
        # canonical id -> ids merged away by resolve_same_as
        self.aliases: dict[NodeId, tuple[NodeId, ...]] = {}
        self._index: GraphIndex | None = None  # built on demand, dropped on mutation

    # -- mutation ---------------------------------------------------------

    def add_node(self, node: Node) -> Node:
        existing = self.nodes.get(node.id)
        if existing is not None:
            if existing.modality != node.modality:
                raise ModalityConflict(
                    f"node {node.id}: modality {existing.modality!r} vs {node.modality!r}"
                )
            if existing.kind != node.kind:
                raise KindViolation(
                    f"node {node.id}: kind {existing.kind.value} vs {node.kind.value}"
                )
            if existing.value != node.value:
                raise ModalityConflict(
                    f"node {node.id}: conflicting literal {existing.value!r} vs {node.value!r}"
                )
            return existing
        self._index = None
        self.nodes[node.id] = node
        return node

    def add_triple(self, source: Node, relation: Relation, target: Node) -> "MultimodalGraph":
        if source.kind is not NodeKind.ENTITY:
            raise KindViolation(f"triple source {source.id} must be an entity")
        if relation.kind is RelationKind.DATA and target.kind is not NodeKind.ATTRIBUTE:
            raise KindViolation(f"data property {relation.name!r} must target an attribute")
        if relation.kind is RelationKind.OBJECT and target.kind is not NodeKind.ENTITY:
            raise KindViolation(f"object property {relation.name!r} must target an entity")
        known_kind = self.relation_kinds.get(relation.name)
        if known_kind is not None and known_kind is not relation.kind:
            raise KindViolation(
                f"relation {relation.name!r} used as both data and object property"
            )
        self.add_node(source)
        self.add_node(target)
        self.relation_kinds.setdefault(relation.name, relation.kind)
        triple = Triple(source.id, relation, target.id)
        if triple.key not in self._triples:
            self._index = None
            self._triples[triple.key] = triple
        return self

    # -- queries ----------------------------------------------------------

    def triples(self) -> list[Triple]:
        return list(self._triples.values())

    def num_triples(self) -> int:
        return len(self._triples)

    def entities(self) -> list[Node]:
        return [n for n in self.nodes.values() if n.kind is NodeKind.ENTITY]

    def attributes(self) -> list[Node]:
        return [n for n in self.nodes.values() if n.kind is NodeKind.ATTRIBUTE]

    def index(self) -> GraphIndex:
        """The integer index of the graph as it is now; rebuilt after any change."""
        if self._index is None:
            self._index = _build_index(self)
        return self._index

    def triple_keys(self) -> set[tuple[str, str, str]]:
        """Hashable view used by tests and merge code for set comparisons."""
        return {(str(s), r, str(t)) for (s, r, t) in self._triples}


def merge_graphs(a: MultimodalGraph, b: MultimodalGraph) -> MultimodalGraph:
    """Union of nodes and triples; entities with equal ids merge their incident triples."""
    merged = MultimodalGraph()
    for g in (a, b):
        for node in g.nodes.values():
            merged.add_node(node)
        for triple in g.triples():
            merged.add_triple(g.nodes[triple.source], triple.relation, g.nodes[triple.target])
    for g in (a, b):
        for canonical, alias_ids in g.aliases.items():
            seen = merged.aliases.get(canonical, ())
            merged.aliases[canonical] = tuple(
                sorted(set(seen) | set(alias_ids))
            )
    return merged


def resolve_same_as(graph: MultimodalGraph) -> MultimodalGraph:
    """Collapse sameAs-connected entities onto one canonical id per component.

    The canonical id is the lexicographically smallest (namespace, local_id) in the
    component. sameAs triples are dropped; everything else is rewritten onto the
    canonical ids. The merged-away ids are recorded in `aliases`.
    """
    parent: dict[NodeId, NodeId] = {}

    def find(x: NodeId) -> NodeId:
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    def union(x: NodeId, y: NodeId):
        rx, ry = find(x), find(y)
        if rx != ry:
            # keep the smaller id as the root so canonicals fall out of find()
            if ry < rx:
                rx, ry = ry, rx
            parent[ry] = rx

    same_as = [t for t in graph.triples() if t.relation.name == SAME_AS]
    for triple in same_as:
        parent.setdefault(triple.source, triple.source)
        parent.setdefault(triple.target, triple.target)
        union(triple.source, triple.target)

    canon: dict[NodeId, NodeId] = {nid: find(nid) for nid in parent}

    # modality consistency inside each component
    members: dict[NodeId, list[NodeId]] = {}
    for nid, root in canon.items():
        members.setdefault(root, []).append(nid)
    for root, ids in members.items():
        modalities = {graph.nodes[i].modality for i in ids if i in graph.nodes}
        if len(modalities) > 1:
            raise ModalityConflict(
                f"sameAs component of {root} mixes modalities {sorted(modalities)}"
            )

    resolved = MultimodalGraph()
    for node in graph.nodes.values():
        target_id = canon.get(node.id, node.id)
        if target_id == node.id:
            resolved.add_node(node)
        else:
            resolved.add_node(Node(target_id, node.modality, node.kind, node.value))
    for triple in graph.triples():
        if triple.relation.name == SAME_AS:
            continue
        s = canon.get(triple.source, triple.source)
        t = canon.get(triple.target, triple.target)
        resolved.add_triple(resolved.nodes[s], triple.relation, resolved.nodes[t])

    for root, ids in sorted(members.items()):
        dropped = tuple(sorted(i for i in ids if i != root))
        if dropped:
            resolved.aliases[root] = dropped
    # carry forward aliases from earlier resolutions, remapped onto new canonicals
    for canonical, alias_ids in graph.aliases.items():
        root = canon.get(canonical, canonical)
        seen = set(resolved.aliases.get(root, ()))
        seen.update(alias_ids)
        seen.discard(root)
        resolved.aliases[root] = tuple(sorted(seen))
    return resolved
