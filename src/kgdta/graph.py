"""Multimodal knowledge graph data model.

A directed labeled graph whose nodes carry a modality and split into entity nodes
(concepts such as proteins or drugs) and attribute nodes (literal-valued qualifiers
such as a sequence or a mass). Edges are data properties (entity -> attribute) or
object properties (entity -> entity). Triples are unique per (source, relation name,
target), and entities with equal ids merge across graphs.

A graph is a node table, `nodes` in insertion order, plus its triples as three int
columns: source node, relation code and target node, appended by every builder
through one row path. `triples()` is a view built from the columns on each call,
and `index()` turns them into a `GraphIndex` with numpy. All collections iterate
in insertion order, so builds are reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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
# the namespace of attribute node ids, which are content hashes
ATTR_NAMESPACE = "attr"


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


def same_literal(a: str | float, b: str | float) -> bool:
    """Whether two attribute literals are one value: equal, or both NaN. A number
    never equals a string, so 1.0 and "1.0" differ."""
    return a == b or (a != a and b != b)


def attribute_node(modality: str, value: str | float) -> Node:
    """Attribute node whose id is a stable content hash of (modality, value).

    Identical literals become shared nodes, which both deduplicates storage and lets
    entities with e.g. the same sequence meet at a common neighbor.
    """
    value = literal(value)
    if isinstance(value, float):
        digest = fnv1a64(f"{modality}\x00num\x00{value!r}")
    else:
        digest = fnv1a64(f"{modality}\x00str\x00{value}")
    return Node(NodeId(ATTR_NAMESPACE, f"{digest:016x}"), modality, NodeKind.ATTRIBUTE, value)


@dataclass(frozen=True, eq=False)
class GraphIndex:
    """Integer view of a graph, shared by everything that walks its structure.

    Node i is `nodes[i]`, with id `node_ids[i]`; ints follow canonical (sorted
    `NodeId`) order, so sorting ints sorts ids. Node i has modality
    `modalities[modality[i]]`. `triples` holds every triple as a (source, relation
    code, target) row, in insertion order; a metadata triple (`META_RELATIONS`),
    which has no code, has relation -1.

    Message edges are the triples with a relation code, each in both directions,
    deduplicated and sorted by (relation, receiver, sender): each relation's edges
    form one run, a receiver's edges under one relation list its neighbours in
    order, and no sum over them depends on triple insertion order. Edge e carries
    `relations[relation[e]]` from `sender[e]` to `receiver[e]`, with `weight[e]` =
    1 / (number of senders of that receiver under that relation).
    `mp_cache` holds `gnn.build_mp` results for this index, which die with it.
    """

    node_ids: list[NodeId]
    nodes: list[Node]
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
    # insertion position -> canonical position, and first-use code -> sorted code
    rank = np.array([position[nid] for nid in graph.nodes], dtype=np.intp)
    recode = np.array([relation_code.get(name, -1) for name in graph.relation_kinds], dtype=np.intp)
    source, code, target = graph.columns()
    s, r, t = rank[source], recode[code], rank[target]
    es, er, et = s[r >= 0], r[r >= 0], t[r >= 0]
    # one int per edge, ordered as (relation, receiver, sender)
    keys = np.concatenate([(er * n + et) * n + es, (er * n + es) * n + et])
    segments, sender = np.divmod(np.unique(keys), n)
    # segments are sorted, so each (relation, receiver) run's length is its degree
    degree = np.searchsorted(segments, segments, "right") - np.searchsorted(segments, segments, "left")
    relation, receiver = np.divmod(segments, n)
    return GraphIndex(
        node_ids=node_ids,
        nodes=nodes,
        position=position,
        is_entity=np.array([node.kind is NodeKind.ENTITY for node in nodes], dtype=bool),
        modalities=modalities,
        modality=np.array([modality_code[node.modality] for node in nodes], dtype=np.intp),
        triples=np.stack([s, r, t], axis=1),
        relations=relations,
        relation=relation,
        receiver=receiver,
        sender=sender,
        weight=1.0 / degree,
    )


class MultimodalGraph:
    """Mutable multimodal KG. Single writer; queries are pure. Rows enter by one path,
    `add_node`, `_code` and `_append` (an int row), which `add_triple` runs per triple."""

    def __init__(self):
        self.nodes: dict[NodeId, Node] = {}
        self.relation_kinds: dict[str, RelationKind] = {}
        # canonical id -> ids merged away by resolve_same_as
        self.aliases: dict[NodeId, tuple[NodeId, ...]] = {}
        self._position: dict[NodeId, int] = {}
        self._relation_code: dict[str, int] = {}
        self._source: list[int] = []
        self._relation: list[int] = []
        self._target: list[int] = []
        self._keys: set[tuple[int, int, int]] = set()
        self._index: GraphIndex | None = None  # built on demand, dropped on mutation

    # -- mutation ---------------------------------------------------------

    def add_node(self, node: Node) -> int:
        """The position of `node` in `nodes`, where it is added if its id is new.
        Raises if the graph holds a node of another modality, kind or value under it."""
        position = self._position.get(node.id)
        if position is None:
            self._index = None
            position = self._position[node.id] = len(self.nodes)
            self.nodes[node.id] = node
            return position
        existing = self.nodes[node.id]
        if existing.modality != node.modality:
            raise ModalityConflict(
                f"node {node.id}: modality {existing.modality!r} vs {node.modality!r}"
            )
        if existing.kind != node.kind:
            raise KindViolation(
                f"node {node.id}: kind {existing.kind.value} vs {node.kind.value}"
            )
        if not same_literal(existing.value, node.value):
            raise ModalityConflict(
                f"node {node.id}: conflicting literal {existing.value!r} vs {node.value!r}"
            )
        return position

    def _code(self, name: str, kind: RelationKind) -> int:
        """The code of relation `name`, which is added if new."""
        known_kind = self.relation_kinds.get(name)
        if known_kind is None:
            self.relation_kinds[name] = kind
            self._relation_code[name] = len(self._relation_code)
        elif known_kind is not kind:
            raise KindViolation(f"relation {name!r} used as both data and object property")
        return self._relation_code[name]

    def _append(self, source: int, relation: int, target: int) -> None:
        """Add the int row unless the graph holds it: a repeat keeps its first position."""
        key = (source, relation, target)
        if key not in self._keys:
            self._index = None
            self._keys.add(key)
            self._source.append(source)
            self._relation.append(relation)
            self._target.append(target)

    def add_triple(self, source: Node, relation: Relation, target: Node) -> "MultimodalGraph":
        """Check the kinds, code the relation, add source and target, append the row."""
        if source.kind is not NodeKind.ENTITY:
            raise KindViolation(f"triple source {source.id} must be an entity")
        if relation.kind is RelationKind.DATA and target.kind is not NodeKind.ATTRIBUTE:
            raise KindViolation(f"data property {relation.name!r} must target an attribute")
        if relation.kind is RelationKind.OBJECT and target.kind is not NodeKind.ENTITY:
            raise KindViolation(f"object property {relation.name!r} must target an entity")
        code = self._code(relation.name, relation.kind)
        self._append(self.add_node(source), code, self.add_node(target))
        return self

    # -- queries ----------------------------------------------------------

    def columns(self) -> tuple[list[int], list[int], list[int]]:
        """The (source, relation, target) int columns, one row per triple in insertion
        order: node i is the i-th key of `nodes`, relation k the k-th key of
        `relation_kinds`. They are the graph's own lists: read them, do not change them."""
        return self._source, self._relation, self._target

    def triples(self) -> list[Triple]:
        """Every triple in insertion order, built from the columns on each call."""
        ids = list(self.nodes)
        relations = [Relation(name, kind) for name, kind in self.relation_kinds.items()]
        return [Triple(ids[s], relations[r], ids[t]) for s, r, t in zip(*self.columns())]

    def num_triples(self) -> int:
        return len(self._source)

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
        """The triples as (source, relation name, target) strings, for set comparisons."""
        return {(str(t.source), t.relation.name, str(t.target)) for t in self.triples()}


def merge_graphs(a: MultimodalGraph, b: MultimodalGraph) -> MultimodalGraph:
    """Union of nodes and triples; entities with equal ids merge their incident triples.
    The rows of `a`, then of `b`, are appended remapped, so a shared one keeps `a`'s place."""
    merged = MultimodalGraph()
    for g in (a, b):
        position = [merged.add_node(node) for node in g.nodes.values()]
        code = [merged._code(name, kind) for name, kind in g.relation_kinds.items()]
        for s, r, t in zip(*g.columns()):
            merged._append(position[s], code[r], position[t])
        for canonical, alias_ids in g.aliases.items():
            merged.aliases[canonical] = tuple(sorted({*merged.aliases.get(canonical, ()), *alias_ids}))
    return merged


def resolve_same_as(graph: MultimodalGraph) -> MultimodalGraph:
    """Collapse sameAs-connected entities onto one canonical id per component.

    The canonical id is the lexicographically smallest (namespace, local_id) in the
    component. sameAs triples are dropped; everything else is rewritten onto the
    canonical ids as remapped int rows (a repeat keeps its first position). The
    merged-away ids are recorded in `aliases`.
    """
    ids = list(graph.nodes)
    nodes = list(graph.nodes.values())
    parent = list(range(len(ids)))

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    same_as = graph._relation_code.get(SAME_AS, -1)
    linked: dict[int, None] = {}  # nodes of sameAs triples, in first-use order
    for s, r, t in zip(*graph.columns()):
        if r == same_as:
            linked[s] = linked[t] = None
            # the smaller id stays the root, so canonicals fall out of find()
            low, high = sorted((find(s), find(t)), key=ids.__getitem__)
            parent[high] = low

    # modality consistency inside each component
    members: dict[int, list[int]] = {}
    for i in linked:
        members.setdefault(find(i), []).append(i)
    for root, group in members.items():
        modalities = {nodes[i].modality for i in group}
        if len(modalities) > 1:
            raise ModalityConflict(
                f"sameAs component of {ids[root]} mixes modalities {sorted(modalities)}"
            )

    resolved = MultimodalGraph()
    position = [resolved.add_node(replace(node, id=ids[find(i)])) for i, node in enumerate(nodes)]
    code = [-1 if name == SAME_AS else resolved._code(name, kind) for name, kind in graph.relation_kinds.items()]
    for s, r, t in zip(*graph.columns()):
        if code[r] >= 0:
            resolved._append(position[s], code[r], position[t])

    for root in sorted(members, key=ids.__getitem__):
        dropped = tuple(sorted(ids[i] for i in members[root] if i != root))
        if dropped:
            resolved.aliases[ids[root]] = dropped
    # carry forward aliases from earlier resolutions, remapped onto new canonicals
    for canonical, alias_ids in graph.aliases.items():
        i = graph._position.get(canonical)
        root = canonical if i is None else ids[find(i)]
        seen = set(resolved.aliases.get(root, ()))
        seen.update(alias_ids)
        seen.discard(root)
        resolved.aliases[root] = tuple(sorted(seen))
    return resolved
