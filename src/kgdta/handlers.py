"""Per-modality handlers that turn attribute literals into initial embedding vectors.

The heavyweight pretrained models normally used for sequences, SMILES, and text are
deliberately replaced here by deterministic hashed n-gram encoders, so the whole
pipeline runs reproducibly with no model downloads. Externally computed vectors can
be imported from a delimited table instead (`import_external_embeddings`).

Entity nodes and categorical attributes have no handler and no row in the initial
table: the encoder starts them as zero vectors, and they only pick up signal through
graph convolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import DimMismatch, KindViolation, MissingHandler, ModalityConflict, NonFinite, ParseError
from .graph import ATTR_NAMESPACE, CATEGORICAL, MultimodalGraph, NodeId, NodeKind
from .util import FNV64_OFFSET, FNV64_PRIME, read_utf8

SEQUENCE_MODALITY = "protein_sequence"
SMILES_MODALITY = "smiles"
TEXT_MODALITY = "text"
NUMBER_MODALITY = "number"

SEQUENCE_TRUNCATION = 1022
FINGERPRINT_DIM = 2048


def _ngram_hashes(value: str, sizes: list[int]) -> np.ndarray:
    """FNV-1a 64 of the UTF-8 bytes of every character n-gram of the non-empty `value`,
    one run per entry of `sizes` (in that order), each run by start character.

    An n-gram's hash continues the hash of its (n - 1)-gram prefix, so step s feeds
    each start's running hash the bytes of character start + s - 1 only.
    """
    data = np.frombuffer(value.encode("utf-8"), dtype=np.uint8)
    starts = np.flatnonzero((data & 0xC0) != 0x80)  # continuation bytes are 10xxxxxx
    ends = np.concatenate((starts[1:], [len(data)]))
    first, widest = data[starts], int((ends - starts).max())
    running = np.full(len(first), FNV64_OFFSET, dtype=np.uint64)
    runs = []
    for size in range(1, min(max(sizes), len(first)) + 1):
        running = (running[: len(first) - size + 1] ^ first[size - 1 :]) * FNV64_PRIME
        for t in range(1, widest):  # the continuation bytes of multi-byte characters
            lo, hi = starts[size - 1 :], ends[size - 1 :]
            more = np.flatnonzero(lo + t < hi)
            running[more] = (running[more] ^ data[lo[more] + t]) * FNV64_PRIME
        runs += [running] * sizes.count(size)
    return np.concatenate(runs) if runs else np.zeros(0, dtype=np.uint64)


def hashed_ngram_embed(
    value: str,
    n: int | Iterable[int],
    dim: int,
    binary: bool = False,
) -> np.ndarray:
    """Hash character n-grams of `value` into `dim` buckets: n-gram g goes to bucket
    `fnv1a64(g) % dim`, hashing its UTF-8 bytes.

    Binary mode sets hit buckets to 1 (fingerprint-like); counting mode accumulates
    counts and L2-normalizes. The empty string maps to the zero vector; a value that
    is not a string raises KindViolation.
    """
    if not isinstance(value, str):
        raise KindViolation(f"n-gram embedding needs a string literal, got {value!r}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    sizes = [n] if isinstance(n, int) else list(n)
    for size in sizes:
        if not 1 <= size <= 8:
            raise ValueError(f"n-gram size must be in 1..8, got {size}")
    vec = np.zeros(dim, dtype=np.float64)
    if not value:
        return vec
    buckets = (_ngram_hashes(value, sizes) % np.uint64(dim)).astype(np.intp)
    if binary:
        vec[buckets] = 1.0
    else:
        vec += np.bincount(buckets, minlength=dim)
        norm = math.sqrt(float(np.dot(vec, vec)))
        if norm > 0.0:
            vec /= norm
    return vec


def smiles_fingerprint(smiles: str, dim: int = FINGERPRINT_DIM) -> np.ndarray:
    """Binary hashed fingerprint over n-grams of size 1..5 of the SMILES string."""
    return hashed_ngram_embed(smiles, range(1, 6), dim, binary=True)


def sequence_embed(seq: str, dim: int = 128) -> np.ndarray:
    """Counting 3-gram embedding of a sequence truncated to 1022 residues, L2-normalized."""
    # only a string is cut: anything else reaches hashed_ngram_embed whole, which rejects it
    return hashed_ngram_embed(seq[:SEQUENCE_TRUNCATION] if isinstance(seq, str) else seq, 3, dim)


def text_embed(text: str, dim: int = 128) -> np.ndarray:
    return hashed_ngram_embed(text, 3, dim, binary=False)


def number_embed(x: float) -> np.ndarray:
    """Numbers embed as themselves: the 1-vector [x]."""
    if isinstance(x, bool) or not isinstance(x, (int, float)) or not math.isfinite(float(x)):
        raise NonFinite(f"number modality requires a finite value, got {x!r}")
    return np.array([float(x)], dtype=np.float64)


@dataclass(frozen=True)
class Handler:
    modality: str
    dim: int
    embed: Callable[[str | float], np.ndarray]


def embedding_matrix(handler: Handler, names: list, vectors: Iterable, what: str) -> np.ndarray:
    """The `vectors`, one per name in `names`, as the float64 rows of one matrix.
    Raises DimMismatch naming a vector that is not `handler.dim` values, and
    NonFinite naming `what` if any value is not finite."""
    matrix = np.empty((len(names), handler.dim))
    for r, (name, vec) in enumerate(zip(names, vectors, strict=True)):
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (handler.dim,):
            raise DimMismatch(f"{name}: {handler.modality!r} is {handler.dim}-dim, got shape {vec.shape}")
        matrix[r] = vec
    if not np.isfinite(matrix).all():
        raise NonFinite(f"{what}: non-finite {handler.modality!r} initial embedding")
    return matrix


class HandlerRegistry:
    """One handler per modality; re-registration replaces the previous one."""

    def __init__(self):
        self._handlers: dict[str, Handler] = {}

    def register(self, handler: Handler) -> "HandlerRegistry":
        self._handlers[handler.modality] = handler
        return self

    def get(self, modality: str) -> Handler:
        try:
            return self._handlers[modality]
        except KeyError:
            raise MissingHandler(modality) from None

    def __contains__(self, modality: str) -> bool:
        return modality in self._handlers


def default_registry(
    sequence_dim: int = 128,
    text_dim: int = 128,
    fingerprint_dim: int = FINGERPRINT_DIM,
) -> HandlerRegistry:
    reg = HandlerRegistry()
    reg.register(Handler(SEQUENCE_MODALITY, sequence_dim, lambda v: sequence_embed(v, sequence_dim)))
    reg.register(Handler(SMILES_MODALITY, fingerprint_dim, lambda v: smiles_fingerprint(v, fingerprint_dim)))
    reg.register(Handler(TEXT_MODALITY, text_dim, lambda v: text_embed(v, text_dim)))
    reg.register(Handler(NUMBER_MODALITY, 1, number_embed))
    return reg


@dataclass
class EmbeddingTable:
    """Initial embeddings of a graph's index nodes, one matrix per modality.

    `matrices[m]` holds one float64 row per non-categorical attribute of modality
    m, in index order: node i's vector is `matrices[<modality of i>][row[i]]`.
    `row[i]` is -1 for entities and categorical attributes, which the encoder
    starts at zero. `node_ids` is the index's node list that `row` follows.
    """

    node_ids: list[NodeId]
    row: np.ndarray
    matrices: dict[str, np.ndarray]

    def check_aligned(self, graph: MultimodalGraph):
        """Raise ValueError unless `row` follows the nodes of `graph.index()`."""
        node_ids = graph.index().node_ids
        if self.node_ids is not node_ids and self.node_ids != node_ids:
            raise ValueError("initial embeddings were computed for a graph with other nodes")


def import_external_embeddings(path: str) -> dict[str, dict[NodeId, np.ndarray]]:
    """Read externally computed embeddings as `{modality: {node id: vector}}`, for
    the `external=` argument of `compute_initial_embeddings`.

    Format: first line `modality,dim`; each following line `key,v1,...,vdim` where the
    key is either `namespace:local_id` or a bare attribute content hash. The header's
    dim checks each row, and its modality is the one the vectors are filed under.
    """
    lines = [ln for ln in read_utf8(path, ParseError, "embedding table").split("\n") if ln.strip()]
    if not lines:
        raise ParseError(f"{path}: empty embedding table")
    head = lines[0].split(",")
    if len(head) != 2:
        raise ParseError(f"{path}:1: header must be 'modality,dim'")
    modality = head[0].strip()
    try:
        dim = int(head[1])
    except ValueError:
        raise ParseError(f"{path}:1: bad dim {head[1]!r}") from None
    if not modality or dim < 1:
        raise ParseError(f"{path}:1: bad header {lines[0]!r}")
    vectors = {}
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        key = parts[0].strip()
        if not key:
            raise ParseError(f"{path}:{lineno}: missing key")
        try:
            values = [float(p) for p in parts[1:]]
        except ValueError:
            raise ParseError(f"{path}:{lineno}: non-numeric component") from None
        if len(values) != dim:
            raise DimMismatch(f"{path}:{lineno}: expected {dim} floats, got {len(values)}")
        if not all(math.isfinite(v) for v in values):
            raise ParseError(f"{path}:{lineno}: non-finite component")
        if ":" in key:
            namespace, local = key.split(":", 1)
            node_id = NodeId(namespace, local)
        else:
            node_id = NodeId(ATTR_NAMESPACE, key)
        vectors[node_id] = np.array(values, dtype=np.float64)
    return {modality: vectors}


def compute_initial_embeddings(
    graph: MultimodalGraph,
    registry: HandlerRegistry,
    entity_dim: int | None = None,
    external: dict[str, dict[NodeId, np.ndarray]] | None = None,
) -> EmbeddingTable:
    """Embed every non-categorical attribute of `graph` through its modality
    handler, into one matrix per modality whose rows follow `graph.index()`.

    Entities and categorical attributes get no row. A vector in `external[m]`
    wins over handler output for its node id and must have the handler's width;
    a key that names a graph node of a modality other than m raises
    `ModalityConflict`, and one that names an entity or a categorical attribute
    (nodes with no row) raises `KindViolation`. Keys that name no node of the
    graph are ignored. `entity_dim` is ignored; it remains for callers that still
    pass it.
    """
    gi = graph.index()
    external = external or {}
    for modality, vectors in external.items():
        for node_id in vectors:
            node = graph.nodes.get(node_id)
            if node is None:
                continue
            if node.modality != modality:
                raise ModalityConflict(f"{node_id}: external {modality!r} vector for a {node.modality!r} node")
            if node.kind is NodeKind.ENTITY or node.modality == CATEGORICAL:
                raise KindViolation(f"{node_id}: external {modality!r} vector for an entity or categorical "
                                    "attribute, which has no initial embedding")
    members: dict[str, list[int]] = {}
    for i, node in enumerate(gi.nodes):
        if node.kind is not NodeKind.ENTITY and node.modality != CATEGORICAL:
            members.setdefault(node.modality, []).append(i)
    row = np.full(len(gi.node_ids), -1, dtype=np.intp)
    matrices = {}
    for modality, nodes in members.items():
        handler = registry.get(modality)
        given = external.get(modality, {})
        ids = [gi.node_ids[i] for i in nodes]
        vectors = (given[nid] if nid in given else handler.embed(gi.nodes[i].value) for i, nid in zip(nodes, ids))
        matrices[modality] = embedding_matrix(handler, ids, vectors, f"modality {modality!r}")
        row[nodes] = np.arange(len(nodes))
    return EmbeddingTable(gi.node_ids, row, matrices)
