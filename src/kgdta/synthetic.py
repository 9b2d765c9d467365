"""Synthetic planted-structure worlds for end-to-end validation.

Drugs and proteins get random latent factors; a knowledge graph carries a
`binding_to` edge wherever the latent dot product clears a quantile threshold, and
an affinity dataset labels pairs with the (noisy) dot product itself. The pair
universe is split disjointly between the KG and the dataset, so downstream test
pairs never leak into pretraining edges.

Entity attribute strings (SMILES-ish and sequence-ish) are random identifiers: all
learnable signal lives in the graph structure, which is exactly what a
knowledge-enhanced encoder is supposed to pick up and a vanilla baseline cannot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .downstream import AffinityDataset, AffinityRow
from .graph import MultimodalGraph, RelationKind, attribute_node, entity
from .util import substream

SMILES_ALPHABET = list("CNOPSFcno123456()=#[]+-")
AA_ALPHABET = list("ACDEFGHIKLMNPQRSTVWY")


@dataclass
class PlantedWorld:
    graph: MultimodalGraph
    dataset: AffinityDataset | None  # None when every pair went to the KG pool
    drug_values: dict[str, str]      # drug id -> SMILES-ish string
    protein_values: dict[str, str]   # protein id -> sequence-ish string
    drug_latents: np.ndarray
    protein_latents: np.ndarray
    threshold: float
    kg_pairs: list[tuple[int, int]]
    dataset_pairs: list[tuple[int, int]]


def _new_string(rng, alphabet, low, high, seen: set[str]) -> str:
    """A random string not in `seen`, drawn again until it is new; added to `seen`."""
    while True:
        length = int(rng.integers(low, high + 1))
        value = "".join(alphabet[int(i)] for i in rng.integers(0, len(alphabet), size=length))
        if value not in seen:
            seen.add(value)
            return value


def make_planted_world(
    n_drugs: int = 60,
    n_proteins: int = 40,
    latent_dim: int = 8,
    edge_density: float = 0.3,
    kg_pair_fraction: float = 0.5,
    noise: float = 0.0,
    seed: int = 0,
) -> PlantedWorld:
    rng = substream(seed, "planted")
    drug_latents = rng.normal(size=(n_drugs, latent_dim)) / np.sqrt(latent_dim)
    protein_latents = rng.normal(size=(n_proteins, latent_dim)) / np.sqrt(latent_dim)

    seen: set[str] = set()
    drug_values = {f"d{i:03d}": _new_string(rng, SMILES_ALPHABET, 16, 40, seen) for i in range(n_drugs)}
    protein_values = {f"p{j:03d}": _new_string(rng, AA_ALPHABET, 40, 120, seen) for j in range(n_proteins)}

    # pair k of the universe is drug k // n_proteins with protein k % n_proteins
    drug_of, protein_of = np.divmod(rng.permutation(n_drugs * n_proteins), n_proteins)
    pairs = list(zip(drug_of.tolist(), protein_of.tolist()))
    n_kg = int(round(kg_pair_fraction * len(pairs)))
    kg_pairs, dataset_pairs = pairs[:n_kg], pairs[n_kg:]

    dots = drug_latents @ protein_latents.T
    kg_dots = dots[drug_of[:n_kg], protein_of[:n_kg]]
    threshold = float(np.quantile(kg_dots, 1.0 - edge_density))

    graph = MultimodalGraph()

    def add(node, relation: str, attribute) -> int:  # an entity and its attribute row: its position
        at = graph.add_node(node)
        graph._append(at, graph._code(relation, RelationKind.DATA), graph.add_node(attribute))
        return at

    drug_at = [add(entity("drug", did, "drug"), "smiles", attribute_node("smiles", value))
               for did, value in drug_values.items()]
    protein_at = [add(entity("prot", pid, "protein"), "sequence", attribute_node("protein_sequence", value))
                  for pid, value in protein_values.items()]
    bound = kg_dots > threshold
    for i, j in zip(drug_of[:n_kg][bound].tolist(), protein_of[:n_kg][bound].tolist()):
        graph._append(drug_at[i], graph._code("binding_to", RelationKind.OBJECT), protein_at[j])

    drug_ids = list(drug_values)
    protein_ids = list(protein_values)
    rows = []
    for i, j in dataset_pairs:
        affinity = float(dots[i, j])
        if noise > 0.0:
            affinity += float(rng.normal() * noise)
        rows.append(
            AffinityRow(
                drug=drug_values[drug_ids[i]],
                protein=protein_values[protein_ids[j]],
                affinity=affinity,
                time=float(rng.uniform()),
            )
        )
    dataset = AffinityDataset(f"planted-{n_drugs}x{n_proteins}-seed{seed}", rows) if rows else None
    return PlantedWorld(
        graph=graph,
        dataset=dataset,
        drug_values=drug_values,
        protein_values=protein_values,
        drug_latents=drug_latents,
        protein_latents=protein_latents,
        threshold=threshold,
        kg_pairs=kg_pairs,
        dataset_pairs=dataset_pairs,
    )
