"""Schema-driven graph construction and N-Triples serialization.

A schema is a JSON document that declares data sources (delimited text or
JSON-lines), the entity types they contain, and the data/object/sameAs properties
to extract per row:

    {
      "sources": [
        {"name": "prots", "path": "proteins.tsv", "format": "delimited",
         "delimiter": "\\t", "null_markers": ["", "NA"]}
      ],
      "namespaces": {"drugbank": "drug"},
      "entity_types": [
        {"name": "protein", "source": "prots", "namespace": "uniprot",
         "id_column": "id", "modality": "protein",
         "data_properties": [
           {"relation": "sequence", "column": "seq", "modality": "protein_sequence"}
         ],
         "object_properties": [
           {"relation": "target_of", "target_namespace": "drugbank",
            "target_column": "drug"}
         ],
         "same_as_links": [
           {"source_column": "id", "target_namespace": "chembl",
            "target_column": "chembl_id"}
         ]}
      ]
    }

Graphs serialize to a sorted, LF-terminated N-Triples file. Node IRIs use the
`ns://<namespace>/<percent-encoded local id>` convention; each node also gets a
`ns://meta/modality` triple and each attribute a `ns://meta/value` triple (numeric
literals are tagged `^^<ns://meta/float>` so round-trips preserve their type).
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import re
from collections.abc import Iterator
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from urllib.parse import quote, unquote

from .errors import NTriplesParse, SchemaParse, SchemaValidation, SourceRead
from .graph import (
    SAME_AS,
    MultimodalGraph,
    Node,
    NodeId,
    NodeKind,
    Relation,
    RelationKind,
    attribute_node,
    entity,
    same_literal,
)
from .handlers import NUMBER_MODALITY
from .util import read_utf8


@dataclass(frozen=True)
class DataSourceSpec:
    name: str
    path: str
    format: str = "delimited"  # "delimited" | "jsonl"
    delimiter: str = "\t"
    null_markers: tuple[str, ...] = ("",)


@dataclass(frozen=True)
class DataPropertySpec:
    relation: str
    column: str
    modality: str


@dataclass(frozen=True)
class ObjectPropertySpec:
    relation: str
    target_namespace: str
    target_column: str


@dataclass(frozen=True)
class SameAsSpec:
    source_column: str
    target_namespace: str
    target_column: str


@dataclass(frozen=True)
class EntityTypeSpec:
    """A property block field names the spec of its entries in its `item` metadata."""

    name: str
    source: str
    namespace: str
    id_column: str
    modality: str
    data_properties: tuple[DataPropertySpec, ...] = field(default=(), metadata={"item": DataPropertySpec})
    object_properties: tuple[ObjectPropertySpec, ...] = field(default=(), metadata={"item": ObjectPropertySpec})
    same_as_links: tuple[SameAsSpec, ...] = field(default=(), metadata={"item": SameAsSpec})


@dataclass(frozen=True)
class Schema:
    sources: tuple[DataSourceSpec, ...]
    entity_types: tuple[EntityTypeSpec, ...]
    namespace_modalities: dict[str, str]

    def source(self, name: str) -> DataSourceSpec:
        for s in self.sources:
            if s.name == name:
                return s
        raise SchemaValidation(f"unknown source {name!r}")


@dataclass
class BuildReport:
    entities: dict[str, int] = field(default_factory=dict)
    skipped_missing_id: int = 0
    errors: list[str] = field(default_factory=list)


def _nonempty_str(value, context: str) -> str:
    if not isinstance(value, str) or not value:
        raise SchemaValidation(f"{context}: expected a non-empty string, got {value!r}")
    return value


def _expect(value, kind: type, context: str):
    """`value`, if it is a `kind` (dict for a JSON object, list for a JSON list)."""
    if not isinstance(value, kind):
        what = "object" if kind is dict else "list"
        raise SchemaValidation(f"{context}: expected a JSON {what}, got {value!r}")
    return value


def _spec(cls, raw, ctx: str, header: list[str] | None = None):
    """The spec dataclass `cls` built from the JSON object `raw`.

    A field with no default must be a non-empty string, and one whose name ends in
    `column` must name a column of `header`. A field with a default takes it when
    absent; a JSON list becomes a tuple, and a property block (a field with `item`
    metadata) must be a list of objects, each parsed as that spec."""
    _expect(raw, dict, ctx)
    values = {}
    for f in fields(cls):
        where = f"{ctx}.{f.name}"
        if "item" in f.metadata:
            items = _expect(raw.get(f.name, []), list, where)
            values[f.name] = tuple(
                _spec(f.metadata["item"], item, f"{where}[{j}]", header) for j, item in enumerate(items)
            )
        elif f.default is MISSING:
            if f.name not in raw:
                raise SchemaValidation(f"{ctx}: missing field {f.name!r}")
            value = values[f.name] = _nonempty_str(raw[f.name], where)
            if f.name.endswith("column") and value not in header:
                raise SchemaValidation(f"{where}: column {value!r} not in the source header {header}")
        elif f.name in raw:
            value = raw[f.name]
            values[f.name] = tuple(value) if isinstance(value, list) else value
    return cls(**values)


def _read_source(spec: DataSourceSpec, base_dir: Path) -> tuple[list[str], Iterator[tuple[int, dict | str]]]:
    """The header of a source and its rows, decoded as they are drawn.

    A row is (line number, dict), or (line number, message) if it cannot be decoded;
    the line number is that of the row's last line in the file. A delimited source's
    header is its first record; a JSON-lines source's is the keys of its first row,
    which raises SourceRead if it cannot be decoded."""
    path = base_dir / spec.path
    try:
        text = read_utf8(path, SourceRead, f"source {spec.name!r} at")
    except OSError as exc:
        raise SourceRead(f"cannot read source {spec.name!r} at {path}: {exc}") from None
    if spec.format == "delimited":
        reader = csv.reader(io.StringIO(text), delimiter=spec.delimiter)
        header = [c.strip() for c in next(reader, [])]
        rows = (
            (reader.line_num, dict(zip(header, cells)) if len(cells) == len(header)
             else f"{path}:{reader.line_num}: expected {len(header)} cells, got {len(cells)}")
            for cells in reader
            if cells
        )
        return header, rows
    numbered = enumerate(text.split("\n"), start=1)  # a JSON string may hold U+2028
    rows = ((n, _json_row(line, f"{path}:{n}")) for n, line in numbered if line.strip())
    first = next(rows, None)
    if first is None:
        return [], rows
    if isinstance(first[1], str):
        raise SourceRead(first[1])
    return list(first[1]), itertools.chain([first], rows)


def _json_row(line: str, where: str) -> dict | str:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        return f"{where}: bad JSON: {exc.msg}"
    return record if isinstance(record, dict) else f"{where}: row is not an object"


def parse_schema(text: str | bytes, base_dir: str | Path = ".") -> Schema:
    """Parse and validate schema JSON; all cross-references are checked eagerly,
    including column names against each source's header."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaParse(f"schema is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaParse("schema root must be a JSON object")

    base_dir = Path(base_dir)
    sources = []
    for i, raw in enumerate(_expect(doc.get("sources"), list, "sources")):
        ctx = f"sources[{i}]"
        src = _spec(DataSourceSpec, raw, ctx)
        if any(s.name == src.name for s in sources):
            raise SchemaValidation(f"{ctx}: duplicate source name {src.name!r}")
        if src.format not in ("delimited", "jsonl"):
            raise SchemaValidation(f"{ctx}.format: expected 'delimited' or 'jsonl', got {src.format!r}")
        if src.format == "delimited" and (not isinstance(src.delimiter, str) or len(src.delimiter) != 1):
            raise SchemaValidation(f"{ctx}.delimiter: must be a single character")
        if not isinstance(src.null_markers, tuple) or not all(isinstance(m, str) for m in src.null_markers):
            raise SchemaValidation(f"{ctx}.null_markers: must be a list of strings")
        sources.append(src)
    headers = {s.name: _read_source(s, base_dir)[0] for s in sources}

    namespace_modalities: dict[str, str] = {}
    for ns, modality in _expect(doc.get("namespaces", {}), dict, "namespaces").items():
        namespace_modalities[_nonempty_str(ns, "namespaces key")] = _nonempty_str(
            modality, f"namespaces[{ns}]"
        )

    entity_types = []
    raw_types = _expect(doc.get("entity_types"), list, "entity_types")
    if not raw_types:
        raise SchemaValidation("schema declares no entity types")
    for i, raw in enumerate(raw_types):
        ctx = f"entity_types[{i}]"
        # read first: the source picks the header that `_spec` checks the columns against
        source = _nonempty_str(_expect(raw, dict, ctx).get("source"), f"{ctx}.source")
        if source not in headers:
            raise SchemaValidation(f"{ctx}.source: unknown source {source!r}")
        et = _spec(EntityTypeSpec, raw, ctx, headers[source])
        if namespace_modalities.setdefault(et.namespace, et.modality) != et.modality:
            raise SchemaValidation(
                f"{ctx}: namespace {et.namespace!r} already bound to modality "
                f"{namespace_modalities[et.namespace]!r}"
            )
        entity_types.append(et)

    schema = Schema(tuple(sources), tuple(entity_types), namespace_modalities)
    # referenced target namespaces must resolve to a modality
    for et in schema.entity_types:
        for op in et.object_properties:
            if op.target_namespace not in namespace_modalities:
                raise SchemaValidation(
                    f"object property {op.relation!r}: namespace {op.target_namespace!r} has no "
                    f"declared modality (declare it under 'namespaces' or as an entity type)"
                )
        for sa in et.same_as_links:
            target_mod = namespace_modalities.get(sa.target_namespace)
            if target_mod is None:
                raise SchemaValidation(
                    f"sameAs link: namespace {sa.target_namespace!r} has no declared modality"
                )
            if target_mod != et.modality:
                raise SchemaValidation(
                    f"sameAs link from {et.namespace!r} ({et.modality!r}) to "
                    f"{sa.target_namespace!r} ({target_mod!r}) mixes modalities"
                )
    return schema


def _is_null(value, markers: tuple[str, ...]) -> bool:
    if value is None:
        return True
    return isinstance(value, str) and value in markers


def _cell_text(cell, column: str, where: str, errors: list[str]) -> str | None:
    """A string, int or finite float cell as text; any other value is a row error (None)."""
    if isinstance(cell, float) and not math.isfinite(cell):
        errors.append(f"{where}: {column!r} is not finite")
        return None
    if isinstance(cell, (str, int, float)) and not isinstance(cell, bool):
        return str(cell)
    errors.append(f"{where}: {column!r} has unsupported type {type(cell).__name__}")
    return None


def build_graph(schema: Schema, base_dir: str | Path = ".") -> tuple[MultimodalGraph, BuildReport]:
    """Construct the graph declared by `schema`. Row-level problems are recorded in
    the report and the build continues; unreadable sources abort with SourceRead."""
    base_dir = Path(base_dir)
    graph = MultimodalGraph()
    report = BuildReport()
    for et in schema.entity_types:
        src = schema.source(et.source)
        markers = src.null_markers
        path = base_dir / src.path
        count = 0
        for lineno, row in _read_source(src, base_dir)[1]:
            if isinstance(row, str):
                report.errors.append(row)
                continue
            where = f"{path}:{lineno}"
            raw_id = row.get(et.id_column)
            if _is_null(raw_id, markers):
                report.skipped_missing_id += 1
                continue
            if (key := _cell_text(raw_id, et.id_column, where, report.errors)) is None:
                continue
            subject = entity(et.namespace, key, et.modality)
            graph.add_node(subject)
            count += 1
            for dp in et.data_properties:
                cell = row.get(dp.column)
                if _is_null(cell, markers):
                    continue
                if dp.modality == NUMBER_MODALITY:
                    if isinstance(cell, bool):
                        report.errors.append(f"{where}: {dp.column!r} has unsupported type bool")
                        continue
                    try:
                        value = float(cell)
                    except (TypeError, ValueError):
                        report.errors.append(f"{where}: {dp.column!r} is not a number: {cell!r}")
                        continue
                    if not math.isfinite(value):
                        report.errors.append(f"{where}: {dp.column!r} is not finite")
                        continue
                elif (value := _cell_text(cell, dp.column, where, report.errors)) is None:
                    continue
                graph.add_triple(
                    subject,
                    Relation(dp.relation, RelationKind.DATA),
                    attribute_node(dp.modality, value),
                )
            for op in et.object_properties:
                cell = row.get(op.target_column)
                if _is_null(cell, markers):
                    continue
                if (key := _cell_text(cell, op.target_column, where, report.errors)) is None:
                    continue
                target = entity(op.target_namespace, key, schema.namespace_modalities[op.target_namespace])
                graph.add_triple(subject, Relation(op.relation, RelationKind.OBJECT), target)
            for sa in et.same_as_links:
                left, right = row.get(sa.source_column), row.get(sa.target_column)
                if _is_null(left, markers) or _is_null(right, markers):
                    continue
                left = _cell_text(left, sa.source_column, where, report.errors)
                right = _cell_text(right, sa.target_column, where, report.errors)
                if left is None or right is None:
                    continue
                a = entity(et.namespace, left, et.modality)
                b = entity(sa.target_namespace, right, schema.namespace_modalities[sa.target_namespace])
                graph.add_triple(a, Relation(SAME_AS, RelationKind.OBJECT), b)
        report.entities[et.name] = report.entities.get(et.name, 0) + count
    return graph, report


# --- N-Triples ----------------------------------------------------------------

_META_VALUE = "ns://meta/value"
_META_MODALITY = "ns://meta/modality"
_FLOAT_TAG = "ns://meta/float"
_REL_PREFIX = "ns://rel/"

_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"})
_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}
_ESCAPE_RE = re.compile(r"\\(.)")


def _unescape_literal(s: str, lineno: int) -> str:
    def unescape(m: re.Match) -> str:
        mapped = _UNESCAPES.get(m.group(1))
        if mapped is None:
            raise NTriplesParse(f"line {lineno}: unknown escape \\{m.group(1)}")
        return mapped

    return _ESCAPE_RE.sub(unescape, s)


def _node_iri(node_id: NodeId) -> str:
    return f"ns://{quote(node_id.namespace, safe='')}/{quote(node_id.local_id, safe='')}"


def to_ntriples(graph: MultimodalGraph) -> str:
    """Serialize to the sorted N-Triples dialect described in the module docstring."""
    iris = [f"<{_node_iri(node_id)}>" for node_id in graph.nodes]
    relations = [f"<{_REL_PREFIX}{quote(name, safe='')}>" for name in graph.relation_kinds]
    lines = [f"{iris[s]} {relations[r]} {iris[t]} ." for s, r, t in zip(*graph.columns())]
    for iri, node in zip(iris, graph.nodes.values()):
        lines.append(f'{iri} <{_META_MODALITY}> "{node.modality.translate(_ESCAPES)}" .')
        if node.kind is NodeKind.ATTRIBUTE:
            if isinstance(node.value, float):
                lines.append(f'{iri} <{_META_VALUE}> "{node.value!r}"^^<{_FLOAT_TAG}> .')
            else:
                lines.append(f'{iri} <{_META_VALUE}> "{node.value.translate(_ESCAPES)}" .')
    return "\n".join(sorted(lines)) + "\n" if lines else ""


_LINE_RE = re.compile(
    r"^<([^<>\s]+)> <([^<>\s]+)> "
    r"(?:<([^<>\s]+)>|\"((?:[^\"\\]|\\.)*)\"(?:\^\^<([^<>\s]+)>)?) \.$"
)


def _node_id(iri: str, lineno: int, parsed: dict[str, NodeId]) -> NodeId:
    """The id that node IRI `iri` names, parsed at its first line and kept in `parsed`."""
    if iri in parsed:
        return parsed[iri]
    if not iri.startswith("ns://"):
        raise NTriplesParse(f"line {lineno}: unsupported IRI scheme in {iri!r}")
    ns, _, local = iri[len("ns://") :].partition("/")
    if not ns or not local:
        raise NTriplesParse(f"line {lineno}: malformed node IRI {iri!r}")
    parsed[iri] = NodeId(unquote(ns), unquote(local))
    return parsed[iri]


def parse_ntriples(text: str) -> MultimodalGraph:
    """Parse the dialect emitted by `to_ntriples`; inverse of it on triple sets.

    Each distinct IRI is parsed at its first line, and each node is built once. A
    node's modality and value lines may repeat only with the same literal."""
    node_ids: dict[str, NodeId] = {}
    modalities: dict[NodeId, str] = {}
    values: dict[NodeId, str | float] = {}
    edges: list[tuple[str, str, str, int]] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):  # a literal may hold U+2028 raw
        line = raw.strip()
        if not line:
            continue
        m = _LINE_RE.match(line)
        if m is None:
            raise NTriplesParse(f"line {lineno}: malformed N-Triples line: {raw!r}")
        subject_iri, predicate_iri, object_iri, literal, datatype = m.groups()
        subject = _node_id(subject_iri, lineno, node_ids)
        if predicate_iri == _META_MODALITY:
            if literal is None:
                raise NTriplesParse(f"line {lineno}: modality must be a literal")
            modality = _unescape_literal(literal, lineno)
            if modalities.setdefault(subject, modality) != modality:
                raise NTriplesParse(
                    f"line {lineno}: node {subject}: modality {modalities[subject]!r} vs {modality!r}"
                )
        elif predicate_iri == _META_VALUE:
            if literal is None:
                raise NTriplesParse(f"line {lineno}: value must be a literal")
            if datatype == _FLOAT_TAG:
                try:
                    value = float(literal)
                except ValueError:
                    raise NTriplesParse(f"line {lineno}: bad float literal {literal!r}") from None
            elif datatype is not None:
                raise NTriplesParse(f"line {lineno}: unknown literal datatype {datatype!r}")
            else:
                value = _unescape_literal(literal, lineno)
            if not same_literal(values.setdefault(subject, value), value):
                raise NTriplesParse(
                    f"line {lineno}: node {subject}: conflicting literal {values[subject]!r} vs {value!r}"
                )
        else:
            if not predicate_iri.startswith(_REL_PREFIX):
                raise NTriplesParse(f"line {lineno}: unknown predicate {predicate_iri!r}")
            if object_iri is None:
                raise NTriplesParse(f"line {lineno}: relation triple needs an IRI object")
            _node_id(object_iri, lineno, node_ids)
            edges.append((subject_iri, predicate_iri, object_iri, lineno))

    graph = MultimodalGraph()
    for nid, modality in modalities.items():
        kind = NodeKind.ATTRIBUTE if nid in values else NodeKind.ENTITY
        graph.add_node(Node(nid, modality, kind, values.get(nid)))
    nodes = {iri: graph.nodes.get(nid) for iri, nid in node_ids.items()}
    names = {p: unquote(p[len(_REL_PREFIX) :]) for p in {edge[1] for edge in edges}}
    for subject_iri, predicate_iri, object_iri, lineno in edges:
        for iri in (object_iri, subject_iri):
            if nodes[iri] is None:
                raise NTriplesParse(f"line {lineno}: node {node_ids[iri]} has no modality triple")
        target = nodes[object_iri]
        kind = RelationKind.DATA if target.kind is NodeKind.ATTRIBUTE else RelationKind.OBJECT
        graph.add_triple(nodes[subject_iri], Relation(names[predicate_iri], kind), target)
    return graph
