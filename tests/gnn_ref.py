"""The encoder's layer loop as it was before each relation's mean and `W_r` product
were restricted to the rows the relation reaches: every relation scatters into a
block as tall as the closure, and the layer multiplies that whole block by `W_r`.
Kept as the reference that `kgdta.gnn.encode_layers` is checked against."""

from types import SimpleNamespace

import numpy as np

from kgdta import numerics as nm
import numerics_ref as ref
from kgdta.gnn import GnnParams, MpGraph
from kgdta.handlers import EmbeddingTable
from kgdta.numerics import Tensor


def flat_messages(mp: MpGraph) -> SimpleNamespace:
    """`mp.groups` flattened back into one entry per message, sorted by (relation,
    receiver, sender): `relations[relation[e]]` carries row `sender[e]` into row
    `receiver[e]`, scaled by `weight[e]`. `relations` names the groups, so a code
    counts only relations with a message; `receiver` is each group's
    `targets[segment]`."""
    relations = [group[0] for group in mp.groups]
    sizes = [len(group[3]) for group in mp.groups]
    return SimpleNamespace(
        relations=relations,
        relation=np.repeat(np.arange(len(relations)), sizes),
        receiver=np.concatenate([[], *(targets[segment] for _, targets, segment, *_ in mp.groups)]).astype(np.intp),
        sender=np.concatenate([[], *(group[3] for group in mp.groups)]).astype(np.intp),
        weight=np.concatenate([[], *(group[4] for group in mp.groups)]),
    )


def reference_encode_layers(
    mp: MpGraph,
    table: EmbeddingTable,
    params: GnnParams,
    history: list[np.ndarray] | None = None,
) -> list[Tensor]:
    n = len(mp.node_ids)
    pieces = []
    for modality, rows in mp.attr_rows.items():
        w, b = params.projections[modality]
        X = table.matrices[modality][table.row[mp.closure[rows]]]
        pieces.append((rows, nm.add(nm.matmul(nm.constant(X), w), b)))
    h_full = nm.assemble_rows(n, params.proj_dim, pieces)

    outputs: list[Tensor] = [h_full]
    dims = [params.proj_dim, params.hidden_dim, params.out_dim]
    flat = flat_messages(mp)
    runs = np.searchsorted(flat.relation, np.arange(len(flat.relations) + 1)).tolist()
    edges = [
        (rel, flat.sender[lo:hi], flat.receiver[lo:hi], flat.weight[lo:hi])
        for rel, lo, hi in zip(flat.relations, runs, runs[1:])
        if lo < hi
    ]
    out_rows = np.flatnonzero(mp.row[mp.closure] < 0)
    h_scope: Tensor | None = None
    for l, layer in enumerate(params.layers):
        if l > 0:
            fill = [(mp.scope_rows, h_scope)]
            if len(out_rows) and history is not None:
                fill.append((out_rows, history[l - 1][mp.closure[out_rows]]))
            h_full = nm.assemble_rows(n, dims[l], fill)
        z = nm.matmul(h_full, layer.w_self)
        for rel, sender, receiver, weight in edges:
            mean = ref.segment_sum(h_full, sender, receiver, weight, n)
            z = nm.add(z, nm.matmul(mean, layer.weight_for(rel)))
        h_next_full = nm.relu(nm.add(z, layer.bias))
        h_scope = nm.gather_rows(h_next_full, mp.scope_rows)
        outputs.append(h_scope)
    return outputs
