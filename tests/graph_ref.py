"""Row-at-a-time references for the graph core.

`reference_index` is the per-triple loop that built `GraphIndex` before the graph
kept its triples as int columns; `kgdta.graph._build_index` is checked against it.
`ReferenceGraph`, `reference_merge` and `reference_resolve_same_as` build graphs
the way `add_triple` did before the builders appended int rows: a node dict, a
list of (source id, relation name, target id) triples and a set of those keys.
The builders are checked against them."""

import numpy as np

from kgdta.errors import KindViolation, ModalityConflict
from kgdta.graph import (
    META_RELATIONS,
    SAME_AS,
    GraphIndex,
    MultimodalGraph,
    Node,
    NodeId,
    NodeKind,
    Relation,
    RelationKind,
    same_literal,
)


def reference_index(graph: MultimodalGraph) -> GraphIndex:
    node_ids = sorted(graph.nodes, key=lambda nid: (nid.namespace, nid.local_id))
    position = {nid: i for i, nid in enumerate(node_ids)}
    nodes = [graph.nodes[nid] for nid in node_ids]
    modalities = sorted({node.modality for node in nodes})
    modality_code = {m: k for k, m in enumerate(modalities)}
    relations = sorted(set(graph.relation_kinds) - set(META_RELATIONS))
    relation_code = {name: k for k, name in enumerate(relations)}
    n = max(len(nodes), 1)
    rows, keys = [], []
    for triple in graph.triples():
        s, t = position[triple.source], position[triple.target]
        r = relation_code.get(triple.relation.name, -1)
        rows.append((s, r, t))
        if r >= 0:  # one int per edge, ordered as (relation, receiver, sender)
            keys += ((r * n + t) * n + s, (r * n + s) * n + t)
    segments, sender = np.divmod(np.unique(np.array(keys, dtype=np.intp)), n)
    degree = np.searchsorted(segments, segments, "right") - np.searchsorted(segments, segments, "left")
    relation, receiver = np.divmod(segments, n)
    return GraphIndex(
        node_ids=node_ids,
        nodes=nodes,
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


class ReferenceGraph:
    """A graph built one triple at a time, keyed by ids rather than positions."""

    def __init__(self):
        self.nodes: dict[NodeId, Node] = {}
        self.relation_kinds: dict[str, RelationKind] = {}
        self.aliases: dict[NodeId, tuple[NodeId, ...]] = {}
        self.triples: list[tuple[NodeId, str, NodeId]] = []
        self.keys: set[tuple[NodeId, str, NodeId]] = set()

    def add_node(self, node: Node) -> None:
        existing = self.nodes.get(node.id)
        if existing is None:
            self.nodes[node.id] = node
        elif existing.modality != node.modality:
            raise ModalityConflict(f"node {node.id}: modality {existing.modality!r} vs {node.modality!r}")
        elif existing.kind != node.kind:
            raise KindViolation(f"node {node.id}: kind {existing.kind.value} vs {node.kind.value}")
        elif not same_literal(existing.value, node.value):
            raise ModalityConflict(f"node {node.id}: conflicting literal {existing.value!r} vs {node.value!r}")

    def add_triple(self, source: Node, relation: Relation, target: Node) -> "ReferenceGraph":
        if source.kind is not NodeKind.ENTITY:
            raise KindViolation(f"triple source {source.id} must be an entity")
        if relation.kind is RelationKind.DATA and target.kind is not NodeKind.ATTRIBUTE:
            raise KindViolation(f"data property {relation.name!r} must target an attribute")
        if relation.kind is RelationKind.OBJECT and target.kind is not NodeKind.ENTITY:
            raise KindViolation(f"object property {relation.name!r} must target an entity")
        if self.relation_kinds.setdefault(relation.name, relation.kind) is not relation.kind:
            raise KindViolation(f"relation {relation.name!r} used as both data and object property")
        self.add_node(source)
        self.add_node(target)
        key = (source.id, relation.name, target.id)
        if key not in self.keys:
            self.keys.add(key)
            self.triples.append(key)
        return self

    def columns(self) -> tuple[list[int], list[int], list[int]]:
        """The triples as `MultimodalGraph.columns` numbers them."""
        position = {nid: i for i, nid in enumerate(self.nodes)}
        code = {name: k for k, name in enumerate(self.relation_kinds)}
        return (
            [position[s] for s, _, _ in self.triples],
            [code[r] for _, r, _ in self.triples],
            [position[t] for _, _, t in self.triples],
        )


def reference_merge(a: ReferenceGraph, b: ReferenceGraph) -> ReferenceGraph:
    """Each input's nodes, then its triples one by one, added to one graph."""
    merged = ReferenceGraph()
    for g in (a, b):
        for node in g.nodes.values():
            merged.add_node(node)
        for s, name, t in g.triples:
            merged.add_triple(g.nodes[s], Relation(name, g.relation_kinds[name]), g.nodes[t])
        for canonical, alias_ids in g.aliases.items():
            merged.aliases[canonical] = tuple(sorted({*merged.aliases.get(canonical, ()), *alias_ids}))
    return merged


def reference_resolve_same_as(graph: ReferenceGraph) -> ReferenceGraph:
    """Each sameAs component onto its smallest id, triple by triple."""
    parent = {nid: nid for nid in graph.nodes}

    def find(x: NodeId) -> NodeId:
        while parent[x] != x:
            x = parent[x]
        return x

    linked = [nid for s, name, t in graph.triples if name == SAME_AS for nid in (s, t)]
    for s, name, t in graph.triples:
        if name == SAME_AS:
            low, high = sorted((find(s), find(t)))
            parent[high] = low
    members: dict[NodeId, list[NodeId]] = {}
    for nid in dict.fromkeys(linked):
        members.setdefault(find(nid), []).append(nid)
    for root, group in members.items():
        modalities = {graph.nodes[nid].modality for nid in group}
        if len(modalities) > 1:
            raise ModalityConflict(f"sameAs component of {root} mixes modalities {sorted(modalities)}")

    def canonical(nid: NodeId) -> Node:
        node = graph.nodes[nid]
        return Node(find(nid), node.modality, node.kind, node.value)

    resolved = ReferenceGraph()
    for nid in graph.nodes:
        resolved.add_node(canonical(nid))
    for s, name, t in graph.triples:
        if name != SAME_AS:
            resolved.add_triple(canonical(s), Relation(name, graph.relation_kinds[name]), canonical(t))
    for root in sorted(members):
        dropped = tuple(sorted(nid for nid in members[root] if nid != root))
        if dropped:
            resolved.aliases[root] = dropped
    for old_root, alias_ids in graph.aliases.items():
        root = find(old_root) if old_root in parent else old_root
        seen = {*resolved.aliases.get(root, ()), *alias_ids} - {root}
        resolved.aliases[root] = tuple(sorted(seen))
    return resolved
