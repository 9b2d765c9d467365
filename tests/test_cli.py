import base64
import json
import shutil
from pathlib import Path

import pytest

from kgdta import cli, errors
from kgdta.cli import main
from kgdta.downstream import save_affinity_tsv
from kgdta.gnn import FlowPolicy
from kgdta.pretrain import array_from_doc, array_to_doc, checkpoint_to_json, load_checkpoint
from kgdta.schema import parse_ntriples
from kgdta.synthetic import make_planted_world

FIXTURES = Path(__file__).parent / "fixtures"


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def workdir(tmp_path):
    for name in ("schema.json", "schema_extra.json", "proteins.tsv", "molecules.csv",
                 "interactions.jsonl", "extra.tsv"):
        shutil.copy(FIXTURES / name, tmp_path / name)
    return tmp_path


def test_build_kg_deterministic(workdir, capsys):
    out1 = workdir / "g1.nt"
    out2 = workdir / "g2.nt"
    code, _, _ = run(["build-kg", "--schema", str(workdir / "schema.json"), "--out", str(out1)], capsys)
    assert code == 0
    code, _, _ = run(["build-kg", "--schema", str(workdir / "schema.json"), "--out", str(out2)], capsys)
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    graph = parse_ntriples(out1.read_text())
    assert graph.num_triples() > 0
    # sameAs links were resolved away during the build
    assert all(t.relation.name != "sameAs" for t in graph.triples())


def test_build_kg_merge_reports_overlap(workdir, capsys):
    base = workdir / "base.nt"
    extra = workdir / "extra.nt"
    run(["build-kg", "--schema", str(workdir / "schema.json"), "--out", str(base)], capsys)
    run(["build-kg", "--schema", str(workdir / "schema_extra.json"), "--out", str(extra)], capsys)
    merged = workdir / "merged.nt"
    code, out, _ = run(
        ["build-kg", "--schema", str(workdir / "schema.json"), "--out", str(merged),
         "--merge", str(extra)],
        capsys,
    )
    assert code == 0
    assert "merged entities shared with" in out and ": 1" in out  # P06820 overlaps
    graph = parse_ntriples(merged.read_text())
    from kgdta.graph import NodeId
    rels = {t.relation.name for t in graph.triples() if t.source == NodeId("uniprot", "P06820")}
    assert {"sequence", "organism", "function"} <= rels


def test_build_kg_invalid_schema_exit_2(workdir, capsys):
    bad = workdir / "bad_schema.json"
    doc = json.loads((workdir / "schema.json").read_text())
    doc["entity_types"][0]["id_column"] = "no_such_column"
    bad.write_text(json.dumps(doc))
    code, _, err_out = run(["build-kg", "--schema", str(bad), "--out", str(workdir / "x.nt")], capsys)
    assert code == 2
    assert "no_such_column" in err_out


def test_build_kg_missing_source_exit_3(workdir, capsys):
    doc = json.loads((workdir / "schema.json").read_text())
    doc["sources"][0]["path"] = "gone.tsv"
    bad = workdir / "bad2.json"
    bad.write_text(json.dumps(doc))
    code, _, _ = run(["build-kg", "--schema", str(bad), "--out", str(workdir / "x.nt")], capsys)
    assert code == 3


def test_build_kg_non_object_source_exit_2(workdir, capsys):
    doc = json.loads((workdir / "schema.json").read_text())
    doc["sources"][1] = 5
    bad = workdir / "bad3.json"
    bad.write_text(json.dumps(doc))
    out = workdir / "x.nt"
    code, _, err_out = run(["build-kg", "--schema", str(bad), "--out", str(out)], capsys)
    assert code == 2, err_out
    assert err_out.startswith("error:") and "sources[1]" in err_out
    assert not out.exists()


PRETRAIN_DIMS = [
    "--proj-dim", "8", "--hidden-dim", "8", "--out-dim", "8",
    "--sequence-dim", "8", "--text-dim", "8", "--fingerprint-dim", "16",
]
PRETRAIN_SMALL = [*PRETRAIN_DIMS, "--epochs", "2", "--lr", "0.001"]


def _write_world_nt(tmp_path, seed=0):
    from kgdta.schema import to_ntriples

    world = make_planted_world(n_drugs=8, n_proteins=6, seed=seed)
    path = tmp_path / "kg.nt"
    path.write_text(to_ntriples(world.graph), encoding="utf-8")
    return world, path


def test_pretrain_requires_seed(tmp_path, capsys):
    _, kg = _write_world_nt(tmp_path)
    code, _, _ = run(["pretrain", "--graph", str(kg), "--out", str(tmp_path / "c.json")], capsys)
    assert code == 2


def test_pretrain_deterministic_and_k1_matches_auto_on_small_graph(tmp_path, capsys):
    _, kg = _write_world_nt(tmp_path)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    k1 = tmp_path / "k1.json"
    base = ["pretrain", "--graph", str(kg), "--seed", "3", *PRETRAIN_SMALL]
    assert run([*base, "--out", str(a)], capsys)[0] == 0
    assert run([*base, "--out", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()
    # --partitions auto collapses to 1 on a graph this small
    assert run([*base, "--out", str(k1), "--partitions", "1"], capsys)[0] == 0
    assert a.read_bytes() == k1.read_bytes()
    assert (tmp_path / "a.json.log.jsonl").exists()


def test_pretrain_restricted_links(tmp_path, capsys):
    _, kg = _write_world_nt(tmp_path)
    out = tmp_path / "r.json"
    code, _, _ = run(
        ["pretrain", "--graph", str(kg), "--seed", "0", "--out", str(out),
         "--links", "restricted=binding_to", "--flow-control", *PRETRAIN_SMALL],
        capsys,
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["links"] == "restricted=binding_to"
    assert doc["policy"]["mode"] == "controlled"


def test_pretrain_regression_without_numeric_attribute_exit_3(tmp_path, capsys):
    _, kg = _write_world_nt(tmp_path)  # the planted world has no numeric attribute
    out = tmp_path / "r.json"
    code, _, err = run(
        ["pretrain", "--graph", str(kg), "--seed", "0", "--out", str(out), "--regression", *PRETRAIN_SMALL],
        capsys,
    )
    assert code == 3
    assert "data error:" in err and "numeric-attribute" in err
    assert not out.exists()


# case -> (flags, the start of the message after "error: ")
INVALID_PRETRAIN_FLAGS = {
    "proj_dim_0": (["--proj-dim", "0"], "dims and clf_hidden must be >= 1"),
    "neg_ratio_0": (["--neg-ratio", "0"], "negative_ratio must be >= 1"),
    "neg_ratio_negative": (["--neg-ratio", "-2"], "negative_ratio must be >= 1"),
    "train_val_0": (["--train-val", "0"], "train_val must lie in (0, 1]"),
    "train_val_above_1": (["--train-val", "1.5"], "train_val must lie in (0, 1]"),
    "lr_negative": (["--lr", "-1"], "lr must be finite and > 0"),
    "partitions_0": (["--partitions", "0"], "partitions must be >= 1, got 0"),
    "partitions_negative": (["--partitions", "-2"], "partitions must be >= 1, got -2"),
}


@pytest.mark.parametrize("case", sorted(INVALID_PRETRAIN_FLAGS))
def test_pretrain_invalid_config_exit_2(case, tmp_path, capsys):
    _, kg = _write_world_nt(tmp_path)
    out = tmp_path / "c.json"
    flags, message = INVALID_PRETRAIN_FLAGS[case]
    code, _, err_out = run(
        ["pretrain", "--graph", str(kg), "--seed", "0", "--out", str(out), *PRETRAIN_SMALL, *flags],
        capsys,
    )
    assert code == 2, err_out
    assert err_out.startswith(f"error: {message}")
    assert not out.exists() and not (tmp_path / "c.json.log.jsonl").exists()


def test_infer_outputs_two_json_lines(tmp_path, capsys):
    _, kg = _write_world_nt(tmp_path)
    ckpt = tmp_path / "c.json"
    run(["pretrain", "--graph", str(kg), "--seed", "1", "--out", str(ckpt), *PRETRAIN_SMALL], capsys)
    code, out, _ = run(["infer", "--ckpt", str(ckpt), "--modality", "smiles", "--value", "CCO"], capsys)
    assert code == 0
    lines = [json.loads(ln) for ln in out.strip().splitlines()]
    assert [ln["embedding"] for ln in lines] == ["initial", "gnn"]
    assert lines[0]["dim"] == 16  # fingerprint dim the checkpoint was trained with
    assert lines[1]["dim"] == 8
    # repeated call identical
    _, out2, _ = run(["infer", "--ckpt", str(ckpt), "--modality", "smiles", "--value", "CCO"], capsys)
    assert out == out2


def test_infer_unknown_modality_usage_error(tmp_path, capsys):
    code, _, _ = run(["infer", "--ckpt", "x.json", "--modality", "image", "--value", "v"], capsys)
    assert code == 2


@pytest.fixture(scope="module")
def checkpoint_text(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ckpt")
    _, kg = _write_world_nt(tmp)
    ckpt = tmp / "c.json"
    assert main(["pretrain", "--graph", str(kg), "--seed", "1", "--out", str(ckpt), *PRETRAIN_SMALL]) == 0
    return ckpt.read_text(encoding="utf-8")


def _edit(change):
    def apply(text):
        doc = json.loads(text)
        change(doc)
        return json.dumps(doc, sort_keys=True).encode("utf-8")
    return apply


def _decoded(leaf):
    return array_from_doc(leaf, (None,) * len(leaf["shape"]), "leaf")


def _set_nan(leaf):
    values = _decoded(leaf)
    values.flat[0] = float("nan")
    leaf.update(array_to_doc(values))


def _drop_row(leaf):
    """Remove the last row (the last entry of a vector)."""
    leaf.update(array_to_doc(_decoded(leaf)[:-1]))


def _first(mapping):
    return mapping[min(mapping)]


def _cut_blob(leaf):
    leaf["f8"] = base64.b64encode(base64.b64decode(leaf["f8"])[:-8]).decode("ascii")


def _as_version_1(doc):
    def lists(node):
        if isinstance(node, dict) and set(node) == {"shape", "f8"}:
            return _decoded(node).tolist()
        if isinstance(node, dict):
            return {k: lists(v) for k, v in node.items()}
        if isinstance(node, list):
            return [lists(v) for v in node]
        return node

    doc.update(lists(doc), version=1)


MALFORMED_CHECKPOINTS = {
    "nan_in_layer_bias": _edit(lambda doc: _set_nan(doc["gnn"]["layers"][0]["bias"])),
    "weight_one_row_short": _edit(lambda doc: _drop_row(doc["gnn"]["layers"][0]["self"])),
    "blob_shorter_than_shape": _edit(lambda doc: _cut_blob(doc["gnn"]["layers"][1]["self"])),
    "projection_bias_short": _edit(lambda doc: _drop_row(_first(doc["gnn"]["projections"])["b"])),
    "score_relation_short": _edit(lambda doc: _drop_row(_first(doc["score"]["relations"]))),
    "invalid_json": lambda text: text[:-1].encode("utf-8"),
    "not_utf8": lambda text: text.encode("utf-16"),
    "missing_gnn_layers": _edit(lambda doc: doc["gnn"].pop("layers")),
    "version_99": _edit(lambda doc: doc.update(version=99)),
    "version_1_document": _edit(_as_version_1),
    # a string is iterable, so it must not pass for a list of relation names
    "policy_allowed_set_is_a_string": _edit(
        lambda doc: doc.update(policy={"mode": "controlled", "allowed_inbound": {"protein": "sequence"}})
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS))
def test_infer_malformed_checkpoint_exit_3(case, checkpoint_text, tmp_path, capsys):
    ckpt = tmp_path / "bad.json"
    ckpt.write_bytes(MALFORMED_CHECKPOINTS[case](checkpoint_text))
    code, out, err_out = run(["infer", "--ckpt", str(ckpt), "--modality", "smiles", "--value", "CCO"], capsys)
    assert code == 3, err_out
    assert err_out.startswith("data error:") and out == ""


def test_checkpoint_fixture_of_format_version_2(capsys):
    """`checkpoint_v2.json` was written by an earlier revision, so reading it
    checks this revision's reader and writer against a fixed file, not against
    each other. Its recipe covers every field: a 6-drug, 4-protein planted world
    whose proteins carry a numeric `length`, handler dims 8/8/16, encoder dims
    4/3/3, the classifier scorer (hidden 2), regression on and the default
    controlled policy, seed 6, two epochs at lr 1e-3."""
    path = FIXTURES / "checkpoint_v2.json"
    ckpt = load_checkpoint(str(path))
    assert checkpoint_to_json(ckpt).encode("utf-8") == path.read_bytes()
    assert ckpt.policy == FlowPolicy.controlled()
    assert ckpt.score_fn.clf is not None and ckpt.regression is not None
    code, out, _ = run(["infer", "--ckpt", str(path), "--modality", "sequence", "--value", "MKV"], capsys)
    assert code == 0 and len(out.splitlines()) == 2


def test_benchmark_end_to_end(tmp_path, capsys):
    world, kg = _write_world_nt(tmp_path)
    c1, c2 = tmp_path / "c1.json", tmp_path / "c2.json"
    run(["pretrain", "--graph", str(kg), "--seed", "0", "--out", str(c1), *PRETRAIN_SMALL], capsys)
    run(["pretrain", "--graph", str(kg), "--seed", "0", "--out", str(c2), "--score", "transe",
         *PRETRAIN_SMALL], capsys)
    data = tmp_path / "affinity.tsv"
    save_affinity_tsv(world.dataset, str(data))
    args = [
        "benchmark", "--dataset", str(data), "--split", "random",
        "--ckpts", f"{c1},{c2}", "--seeds", "0,1", "--seed", "0",
        "--steps", "15", "--lr", "0.001", "--batch", "16",
        "--init-hidden", "8,4", "--gnn-hidden", "8,4", "--eval-every", "5",
        "--out", str(tmp_path / "report"),
    ]
    code, out, _ = run(args, capsys)
    assert code == 0
    text = (tmp_path / "report.txt").read_text()
    rows = [json.loads(ln) for ln in (tmp_path / "report.jsonl").read_text().splitlines()]
    names = [r["model"] for r in rows]
    assert names == ["baseline", "c1", "c2", "ensemble"]
    assert "baseline" in text and "ensemble" in text

    # byte-identical on repeat
    first = (tmp_path / "report.jsonl").read_bytes()
    code, _, _ = run(args, capsys)
    assert code == 0
    assert (tmp_path / "report.jsonl").read_bytes() == first


# case -> (flags, the start of the message after "error: ")
INVALID_BENCHMARK_FLAGS = {
    "eval_every_0": (["--eval-every", "0"], "steps, batch, eval_every and hidden sizes must be >= 1"),
    "ckpts_empty": (["--ckpts", ","], "--ckpts needs at least one checkpoint path"),
    "seeds_empty": (["--seeds", ","], "run_benchmark needs at least one seed"),
    "batch_0": (["--batch", "0"], "steps, batch, eval_every and hidden sizes must be >= 1"),
    "threshold_nan": (["--split", "temporal:nan"], "temporal split needs a finite threshold, got nan"),
    "threshold_inf": (["--split", "temporal:inf"], "temporal split needs a finite threshold, got inf"),
    "fraction_nan": (["--fractions", "nan,0.5,0.5"], "fractions must be finite"),
    "threshold_empty": (["--split", "temporal:"], "--split temporal:<t> needs a number, got ''"),
    "fraction_not_a_number": (["--fractions", "a,0.5,0.5"], "--fractions needs a number, got 'a'"),
}


@pytest.mark.parametrize("case", sorted(INVALID_BENCHMARK_FLAGS))
def test_benchmark_invalid_flag_exit_2(case, checkpoint_text, tmp_path, capsys):
    world, _ = _write_world_nt(tmp_path)
    data = tmp_path / "affinity.tsv"
    save_affinity_tsv(world.dataset, str(data))
    ckpt = tmp_path / "c.json"
    ckpt.write_text(checkpoint_text, encoding="utf-8")
    args = [
        "benchmark", "--dataset", str(data), "--split", "random", "--ckpts", str(ckpt),
        "--seeds", "0", "--seed", "0", "--steps", "10", "--lr", "0.001", "--batch", "16",
        "--init-hidden", "8,4", "--gnn-hidden", "8,4", "--eval-every", "5",
        "--out", str(tmp_path / "report"),
    ]
    flags, message = INVALID_BENCHMARK_FLAGS[case]
    code, out, err_out = run([*args, *flags], capsys)
    assert code == 2, err_out
    assert err_out.startswith(f"error: {message}") and out == ""
    assert not (tmp_path / "report.jsonl").exists() and not (tmp_path / "report.txt").exists()


def test_benchmark_checkpoints_of_different_handler_widths_exit_3(tmp_path, capsys):
    world, kg = _write_world_nt(tmp_path)
    wide, narrow = tmp_path / "wide.json", tmp_path / "narrow.json"
    for path, width in ((wide, "16"), (narrow, "8")):
        flags = [*PRETRAIN_SMALL, "--sequence-dim", width]
        assert run(["pretrain", "--graph", str(kg), "--seed", "0", "--out", str(path), *flags], capsys)[0] == 0
    data = tmp_path / "affinity.tsv"
    save_affinity_tsv(world.dataset, str(data))
    code, out, err_out = run(
        ["benchmark", "--dataset", str(data), "--split", "random", "--ckpts", f"{wide},{narrow}",
         "--seeds", "0", "--seed", "0", "--steps", "10", "--batch", "16",
         "--init-hidden", "8,4", "--gnn-hidden", "8,4", "--out", str(tmp_path / "report")],
        capsys,
    )
    assert code == 3, err_out
    assert err_out.startswith("data error:") and "narrow.json" in err_out and "protein_sequence" in err_out
    assert out == "" and not (tmp_path / "report.jsonl").exists()


def test_pretrain_number_literal_on_a_string_modality_exit_3(tmp_path, capsys):
    from kgdta.graph import MultimodalGraph, Relation, RelationKind, attribute_node, entity
    from kgdta.schema import to_ntriples

    g = MultimodalGraph()
    g.add_triple(entity("drugbank", "D1", "drug"), Relation("smiles", RelationKind.DATA), attribute_node("smiles", 2.0))
    kg = tmp_path / "kg.nt"
    kg.write_text(to_ntriples(g), encoding="utf-8")
    out = tmp_path / "c.json"
    code, _, err_out = run(["pretrain", "--graph", str(kg), "--seed", "0", "--out", str(out), *PRETRAIN_SMALL], capsys)
    assert code == 3, err_out
    assert err_out.startswith("data error:") and "string" in err_out
    assert not out.exists()


NOT_UTF8_INPUTS = {
    "pretrain_graph": lambda wd, bad: ["pretrain", "--graph", bad, "--seed", "0", *PRETRAIN_SMALL],
    "build_kg_merge": lambda wd, bad: ["build-kg", "--schema", str(wd / "schema.json"), "--merge", bad],
    "benchmark_dataset": lambda wd, bad: [
        "benchmark", "--dataset", bad, "--split", "random", "--ckpts", str(wd / "c.json"), "--seed", "0",
    ],
}


@pytest.mark.parametrize("case", sorted(NOT_UTF8_INPUTS))
def test_input_file_that_is_not_utf8_exit_3(case, workdir, capsys):
    bad = workdir / "latin1.txt"
    bad.write_bytes("smiles\tsequence\taffinity\nÄ\tM\t1.0\n".encode("latin-1"))
    out = workdir / "out"
    code, stdout, err_out = run([*NOT_UTF8_INPUTS[case](workdir, str(bad)), "--out", str(out)], capsys)
    assert code == 3, err_out
    assert err_out.startswith("data error:") and "latin1.txt" in err_out and "UTF-8" in err_out
    assert stdout == "" and not out.exists()


def test_benchmark_infeasible_split_exit_3(tmp_path, capsys):
    from kgdta.downstream import AffinityDataset, AffinityRow

    rows = [AffinityRow("CCO", f"M{i}", float(i)) for i in range(8)]
    data = tmp_path / "one_drug.tsv"
    save_affinity_tsv(AffinityDataset("one", rows), str(data))
    world, kg = _write_world_nt(tmp_path)
    ckpt = tmp_path / "c.json"
    run(["pretrain", "--graph", str(kg), "--seed", "0", "--out", str(ckpt), *PRETRAIN_SMALL], capsys)
    code, _, err_out = run(
        ["benchmark", "--dataset", str(data), "--split", "drug", "--ckpts", str(ckpt),
         "--seeds", "0", "--seed", "0", "--out", str(tmp_path / "rep")],
        capsys,
    )
    assert code == 3
    assert "drug" in err_out


def test_benchmark_nonfinite_time_exit_3(tmp_path, capsys):
    data = tmp_path / "nan_time.tsv"
    rows = [f"C{i}\tM{i}\t{float(i)}\t{t}" for i, t in enumerate(["0.1", "0.2", "nan", "0.8", "0.9"])]
    data.write_text("smiles\tsequence\taffinity\ttime\n" + "\n".join(rows) + "\n")
    code, out, err_out = run(
        ["benchmark", "--dataset", str(data), "--split", "temporal:0.5", "--ckpts", str(tmp_path / "c.json"),
         "--seeds", "0", "--seed", "0", "--out", str(tmp_path / "rep")],
        capsys,
    )
    assert code == 3, err_out
    assert err_out.startswith("data error:") and "non-finite time" in err_out and out == ""
    assert not (tmp_path / "rep.jsonl").exists()


def test_full_pipeline_on_fixture_schema(workdir, capsys):
    """build-kg (with merge + sameAs resolution) -> pretrain (regression, restricted
    links, flow control) -> infer, all through the CLI on heterogeneous fixtures."""
    base, extra, merged = workdir / "b.nt", workdir / "e.nt", workdir / "m.nt"
    assert run(["build-kg", "--schema", str(workdir / "schema.json"), "--out", str(base)], capsys)[0] == 0
    assert run(["build-kg", "--schema", str(workdir / "schema_extra.json"), "--out", str(extra)], capsys)[0] == 0
    code, out, _ = run(
        ["build-kg", "--schema", str(workdir / "schema.json"), "--out", str(merged),
         "--merge", str(extra)], capsys,
    )
    assert code == 0

    ckpt = workdir / "fixture_ckpt.json"
    code, out, err_out = run(
        ["pretrain", "--graph", str(merged), "--seed", "2", "--out", str(ckpt),
         "--links", "restricted=target_of,binding_to", "--flow-control", "--regression",
         "--epochs", "3", "--lr", "0.002", *PRETRAIN_DIMS],
        capsys,
    )
    assert code == 0, err_out
    doc = json.loads(ckpt.read_text())
    # numeric attribute relations got regression heads; graph relations got weights
    assert set(doc["regression"]["heads"]) == {"confidence", "length", "mass"}
    assert "target_of" in doc["score"]["relations"]

    code, out, _ = run(["infer", "--ckpt", str(ckpt), "--modality", "sequence",
                        "--value", "MKTAYIAKQR"], capsys)
    assert code == 0
    lines = [json.loads(ln) for ln in out.strip().splitlines()]
    assert [ln["embedding"] for ln in lines] == ["initial", "gnn"]


def test_config_file_supplies_flags(tmp_path, capsys):
    _, kg = _write_world_nt(tmp_path)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "graph": str(kg), "seed": 4, "epochs": 1, "lr": 0.001,
        "proj_dim": 8, "hidden_dim": 8, "out_dim": 8,
        "sequence_dim": 8, "text_dim": 8, "fingerprint_dim": 16,
    }))
    out = tmp_path / "from_config.json"
    code, _, _ = run(["pretrain", "--config", str(cfg), "--out", str(out)], capsys)
    assert code == 0

    # explicit flags override the config
    out2 = tmp_path / "override.json"
    code, _, _ = run(["pretrain", "--config", str(cfg), "--seed", "5", "--out", str(out2)], capsys)
    assert code == 0
    assert json.loads(out2.read_text())["meta"]["seed"] == 5
    assert json.loads(out.read_text())["meta"]["seed"] == 4


def _subclasses(cls):
    return [c for sub in cls.__subclasses__() for c in (sub, *_subclasses(sub))]


PACKAGE_ERRORS = _subclasses(errors.KgdtaError)
# the types that do not exit 3, as the README documents them
NOT_DATA_ERRORS = {"SchemaParse": 2, "SchemaValidation": 2, "NonFinite": 4, "ShapeMismatch": 4, "ZeroVariance": 4}
PREFIXES = {2: "error:", 3: "data error:", 4: "numeric failure:"}
INFER_ARGV = ["infer", "--ckpt", "c.json", "--modality", "smiles", "--value", "CCO"]


def _run_raising(exc, monkeypatch, capsys):
    def command(args):
        raise exc

    monkeypatch.setitem(cli.COMMANDS, "infer", command)
    return run(INFER_ARGV, capsys)


@pytest.mark.parametrize("error", PACKAGE_ERRORS, ids=lambda cls: cls.__name__)
def test_every_package_error_exits_with_its_class_code_and_prefix(error, monkeypatch, capsys):
    code, out, err_out = _run_raising(error("boom"), monkeypatch, capsys)
    assert code in (2, 3, 4)
    assert code == error.exit_code == NOT_DATA_ERRORS.get(error.__name__, 3)
    assert (out, err_out) == ("", f"{PREFIXES[code]} boom\n")


def test_a_new_package_error_exits_3_as_a_data_error(monkeypatch, capsys):
    class Unlisted(errors.KgdtaError):
        pass

    assert _run_raising(Unlisted("boom"), monkeypatch, capsys) == (3, "", "data error: boom\n")


@pytest.mark.parametrize("error, code", [(ValueError, 2), (FileNotFoundError, 3)])
def test_value_and_os_errors_exit_2_and_3(error, code, monkeypatch, capsys):
    assert _run_raising(error("boom"), monkeypatch, capsys) == (code, "", f"{PREFIXES[code]} boom\n")


BAD_CONFIGS = {
    "no_path": [],
    "missing_file": ["no-such-file.json"],
    "not_json": ["bad.json"],
    "not_an_object": ["list.json"],
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_a_bad_config_exits_2_before_any_command(case, tmp_path, monkeypatch, capsys):
    (tmp_path / "bad.json").write_text("{")
    (tmp_path / "list.json").write_text("[]")
    monkeypatch.chdir(tmp_path)
    code, _, err_out = run([*INFER_ARGV, "--config", *BAD_CONFIGS[case]], capsys)
    assert code == 2 and err_out.startswith("error:")


def _parsed(argv):
    return vars(cli.build_parser().parse_args(cli._inject_config(argv)))


def test_config_equals_path_expands_like_a_separate_path(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"graph": "kg.nt", "seed": 4, "epochs": 1}))
    joined = _parsed(["pretrain", f"--config={cfg}", "--out", "c.json"])
    assert joined == _parsed(["pretrain", "--config", str(cfg), "--out", "c.json"])
    assert (joined["seed"], joined["epochs"], joined["graph"]) == (4, 1, "kg.nt")


OTHER_CONFIG_SPELLINGS = {
    "abbreviated": ["--conf", "run.json"],
    "abbreviated_equals": ["--co=run.json"],
    "twice": ["--config", "run.json", "--config=run.json"],
}


@pytest.mark.parametrize("case", sorted(OTHER_CONFIG_SPELLINGS))
def test_any_other_config_spelling_exits_2(case, tmp_path, monkeypatch, capsys):
    (tmp_path / "run.json").write_text(json.dumps({"seed": 4}))
    monkeypatch.chdir(tmp_path)
    code, out, err_out = run([*INFER_ARGV, *OTHER_CONFIG_SPELLINGS[case]], capsys)
    assert code == 2 and out == "" and err_out.startswith("error:")


@pytest.mark.parametrize("allow", [["protein=sequence"], ["protein=sequence", "drug=smiles"]])
def test_a_config_list_repeats_its_flag(allow, tmp_path, capsys):
    _, kg = _write_world_nt(tmp_path)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"allow": allow}))
    base = ["pretrain", "--graph", str(kg), "--seed", "0", *PRETRAIN_DIMS, "--epochs", "1"]
    from_config, from_flags = tmp_path / "config.json", tmp_path / "flags.json"
    assert run([*base, "--config", str(cfg), "--out", str(from_config)], capsys)[0] == 0
    flags = [arg for item in allow for arg in ("--allow", item)]
    assert run([*base, *flags, "--out", str(from_flags)], capsys)[0] == 0
    policy = load_checkpoint(str(from_config)).policy
    assert policy == load_checkpoint(str(from_flags)).policy
    assert policy == FlowPolicy.controlled({item.split("=")[0]: {item.split("=")[1]} for item in allow})


@pytest.mark.parametrize("value", [{"a": 1}, None, [["CCO"]]], ids=["object", "null", "nested_list"])
def test_a_config_value_of_another_type_exits_2_naming_its_key(value, tmp_path, monkeypatch, capsys):
    (tmp_path / "run.json").write_text(json.dumps({"value": value}))
    monkeypatch.chdir(tmp_path)
    code, out, err_out = run([*INFER_ARGV, "--config", "run.json"], capsys)
    assert code == 2 and out == "" and err_out.startswith("error:") and "'value'" in err_out


def test_a_config_naming_another_config_exits_2(tmp_path, monkeypatch, capsys):
    (tmp_path / "run.json").write_text(json.dumps({"conf": "other.json"}))
    monkeypatch.chdir(tmp_path)
    code, out, err_out = run([*INFER_ARGV, "--config=run.json"], capsys)
    assert code == 2 and out == "" and err_out.startswith("error:") and "'conf'" in err_out
