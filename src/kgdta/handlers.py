"""Per-modality handlers that turn attribute literals into initial embedding vectors.

The heavyweight pretrained models normally used for sequences, SMILES, and text are
deliberately replaced here by deterministic hashed n-gram encoders, so the whole
pipeline runs reproducibly with no model downloads. Externally computed vectors can
be imported from a delimited table instead (`import_external_embeddings`).

Entity nodes and categorical attributes have no handler: they start as zero vectors
and only pick up signal through graph convolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .errors import DimMismatch, MissingHandler, NonFinite, ParseError
from .graph import CATEGORICAL, MultimodalGraph, NodeId, NodeKind
from .util import FNV64_OFFSET, FNV64_PRIME

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
    counts and L2-normalizes. The empty string maps to the zero vector.
    """
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


def smiles_fingerprint(smiles: str | None, dim: int = FINGERPRINT_DIM) -> np.ndarray:
    """Binary hashed fingerprint over n-grams of size 1..5 of the SMILES string."""
    if not isinstance(smiles, str) or not smiles:
        return np.zeros(dim, dtype=np.float64)
    return hashed_ngram_embed(smiles, range(1, 6), dim, binary=True)


def sequence_embed(seq: str | None, dim: int = 128) -> np.ndarray:
    """Counting 3-gram embedding of a sequence truncated to 1022 residues, L2-normalized."""
    if not isinstance(seq, str):
        return np.zeros(dim, dtype=np.float64)
    return hashed_ngram_embed(seq[:SEQUENCE_TRUNCATION], 3, dim, binary=False)


def text_embed(text: str | None, dim: int = 128) -> np.ndarray:
    if not isinstance(text, str):
        return np.zeros(dim, dtype=np.float64)
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

    def modalities(self) -> list[str]:
        return list(self._handlers)


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
    """Initial embeddings keyed by node id, with one fixed dim per modality."""

    entries: dict[NodeId, tuple[str, np.ndarray]] = field(default_factory=dict)
    dims: dict[str, int] = field(default_factory=dict)

    def put(self, node_id: NodeId, modality: str, vec: np.ndarray):
        vec = np.asarray(vec, dtype=np.float64)
        if vec.ndim != 1:
            raise DimMismatch(f"{node_id}: expected a 1-d vector, got shape {vec.shape}")
        known = self.dims.get(modality)
        if known is None:
            self.dims[modality] = vec.shape[0]
        elif known != vec.shape[0]:
            raise DimMismatch(
                f"{node_id}: modality {modality!r} is {known}-dim, got {vec.shape[0]}"
            )
        self.entries[node_id] = (modality, vec)

    def get(self, node_id: NodeId) -> np.ndarray:
        return self.entries[node_id][1]

    def merge(self, other: "EmbeddingTable") -> "EmbeddingTable":
        for modality, dim in other.dims.items():
            if self.dims.get(modality, dim) != dim:
                raise DimMismatch(
                    f"modality {modality!r}: {self.dims[modality]}-dim table, import is {dim}-dim"
                )
        for node_id, (modality, vec) in other.entries.items():
            self.put(node_id, modality, vec)
        return self


def import_external_embeddings(path: str) -> EmbeddingTable:
    """Read an externally computed embedding table fragment.

    Format: first line `modality,dim`; each following line `key,v1,...,vdim` where the
    key is either `namespace:local_id` or a bare attribute content hash.
    """
    table = EmbeddingTable()
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    lines = [ln for ln in lines if ln.strip()]
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
    table.dims[modality] = dim
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
            raise NonFinite(f"{path}:{lineno}: non-finite component")
        if ":" in key:
            namespace, local = key.split(":", 1)
            node_id = NodeId(namespace, local)
        else:
            node_id = NodeId("attr", key)
        table.put(node_id, modality, np.array(values, dtype=np.float64))
    return table


def compute_initial_embeddings(
    graph: MultimodalGraph,
    registry: HandlerRegistry,
    entity_dim: int = 64,
    external: EmbeddingTable | None = None,
) -> EmbeddingTable:
    """Embed every node: attributes through their modality handler (batched per
    modality), entities and categorical attributes as zeros of `entity_dim`.

    Vectors present in `external` win over handler output for their node ids.
    """
    table = EmbeddingTable()
    if external is not None:
        table.merge(external)
    zero = np.zeros(entity_dim, dtype=np.float64)
    for modality, node_ids in graph.by_modality.items():
        batch = [graph.nodes[nid] for nid in node_ids]
        for node in batch:
            if node.id in table.entries:
                continue
            if node.kind is NodeKind.ENTITY or node.modality == CATEGORICAL:
                table.put(node.id, node.modality, zero)
                continue
            handler = registry.get(modality)
            vec = np.asarray(handler.embed(node.value), dtype=np.float64)
            if vec.shape != (handler.dim,):
                raise DimMismatch(
                    f"handler {modality!r} returned shape {vec.shape}, declared dim {handler.dim}"
                )
            if not np.isfinite(vec).all():
                raise NonFinite(f"handler {modality!r} produced non-finite components")
            table.put(node.id, modality, vec)
    return table
