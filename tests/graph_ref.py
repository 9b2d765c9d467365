"""The per-triple loop that built `GraphIndex` before the graph kept its triples
as int columns, kept as the reference that `kgdta.graph._build_index` is checked
against."""

import numpy as np

from kgdta.graph import META_RELATIONS, GraphIndex, MultimodalGraph, NodeKind


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
