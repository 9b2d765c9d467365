"""Low-level helpers shared across the pipeline: stable hashing, seeded RNG substreams, UTF-8 reads."""

from __future__ import annotations

import numpy as np

FNV64_OFFSET = 0xCBF29CE484222325
FNV64_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def read_utf8(path, error: type[Exception], what: str) -> str:
    """The text of the file at `path`; raises `error` naming the file if it is not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{what} {path} is not UTF-8 text: {exc}") from None


def fnv1a64(data: str | bytes) -> int:
    """64-bit FNV-1a hash. Stable across platforms and processes."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    h = FNV64_OFFSET
    for byte in data:
        h ^= byte
        h = (h * FNV64_PRIME) & _MASK64
    return h


def substream(seed: int, *labels) -> np.random.Generator:
    """Derive an independent, reproducible generator from a master seed and a label path.

    Every stochastic component draws from its own named substream so that adding or
    reordering consumers never perturbs the others.
    """
    entropy = [int(seed) & 0xFFFFFFFF]
    entropy.extend(fnv1a64(str(label)) & 0xFFFFFFFF for label in labels)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def average_ranks(values) -> np.ndarray:
    """1-based ranks with ties assigned the mean of the ranks they occupy."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values), dtype=np.float64)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks
