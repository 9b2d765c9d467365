"""Command-line surface: build-kg, pretrain, infer, benchmark.

Every stochastic command requires --seed and is byte-reproducible: identical inputs
and flags produce identical output files. A JSON config file may supply any flag
(--config PATH or --config=PATH; a list value repeats its flag); explicit flags win.

Exit codes: 0 success, 2 usage/config error, 3 data error, 4 numeric failure. Each
error type in `kgdta.errors` carries its own as `exit_code`.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import errors as err
from .downstream import DownstreamConfig, SplitSpec, load_affinity_tsv, run_benchmark
from .gnn import FlowPolicy, infer
from .graph import merge_graphs, resolve_same_as
from .handlers import (
    FINGERPRINT_DIM,
    SEQUENCE_MODALITY,
    SMILES_MODALITY,
    compute_initial_embeddings,
    default_registry,
)
from .pretrain import (
    Checkpoint,
    LinkFilter,
    PretrainConfig,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .schema import build_graph, parse_ntriples, parse_schema, to_ntriples
from .util import read_utf8

# the stderr prefix of each failing exit code
PREFIXES = {2: "error", 3: "data error", 4: "numeric failure"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kgdta", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # `_inject_config` expands --config before parsing; this declaration is for --help
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON file supplying any flag; flags override")

    p_build = sub.add_parser("build-kg", parents=[common], help="build a knowledge graph from a schema")
    p_build.add_argument("--schema", required=True, help="schema JSON path")
    p_build.add_argument("--out", required=True, help="output N-Triples path")
    p_build.add_argument("--merge", help="existing N-Triples file to merge in")

    p_pre = sub.add_parser("pretrain", parents=[common], help="pretrain encoder + scorer on a graph")
    p_pre.add_argument("--graph", required=True, help="N-Triples graph path")
    p_pre.add_argument("--score", choices=["distmult", "transe", "classifier"], default="distmult")
    p_pre.add_argument("--flow-control", action="store_true",
                       help="restrict messages into protein/drug entities to sequence/smiles")
    p_pre.add_argument("--allow", action="append", default=[],
                       metavar="MODALITY=REL1,REL2",
                       help="override the controlled-policy allow map (implies --flow-control)")
    p_pre.add_argument("--links", default="all",
                       help="'all' or 'restricted=rel1,rel2' for the link objective")
    p_pre.add_argument("--regression", action="store_true",
                       help="add numeric-attribute regression to the objective")
    p_pre.add_argument("--partitions", default="auto",
                       help="partition count, or 'auto' (~50 entities per partition)")
    p_pre.add_argument("--epochs", type=int, default=35)
    p_pre.add_argument("--lr", type=float, default=1e-5)
    p_pre.add_argument("--train-val", type=float, default=0.9)
    p_pre.add_argument("--neg-ratio", type=int, default=1)
    p_pre.add_argument("--reg-lambda", type=float, default=1.0)
    p_pre.add_argument("--proj-dim", type=int, default=64)
    p_pre.add_argument("--hidden-dim", type=int, default=128)
    p_pre.add_argument("--out-dim", type=int, default=128)
    p_pre.add_argument("--sequence-dim", type=int, default=128)
    p_pre.add_argument("--text-dim", type=int, default=128)
    p_pre.add_argument("--fingerprint-dim", type=int, default=FINGERPRINT_DIM)
    p_pre.add_argument("--seed", type=int, required=True)
    p_pre.add_argument("--out", required=True, help="checkpoint output path")
    p_pre.add_argument("--log", help="training log path (default: <out>.log.jsonl)")

    p_inf = sub.add_parser("infer", parents=[common], help="embed a new SMILES or sequence with a checkpoint")
    p_inf.add_argument("--ckpt", required=True)
    p_inf.add_argument("--modality", choices=["smiles", "sequence"], required=True)
    p_inf.add_argument("--value", required=True)

    p_bench = sub.add_parser("benchmark", parents=[common], help="affinity regression benchmark with ensembling")
    p_bench.add_argument("--dataset", required=True, help="TSV with smiles/sequence/affinity[/time]")
    p_bench.add_argument("--split", required=True,
                         help="random | drug | target | temporal:<threshold>")
    p_bench.add_argument("--ckpts", required=True, help="comma-separated checkpoint paths")
    p_bench.add_argument("--graph", default=None,
                         help="pretraining N-Triples graph; entities found in it are "
                              "embedded with their graph context")
    p_bench.add_argument("--seeds", default="0..5", help="e.g. '0..5' or '0,2,4'")
    p_bench.add_argument("--steps", type=int, default=None,
                         help="default 10000 (20000 for temporal)")
    p_bench.add_argument("--lr", type=float, default=None,
                         help="default 5e-4 (5e-5 for temporal)")
    p_bench.add_argument("--batch", type=int, default=256)
    p_bench.add_argument("--eval-every", type=int, default=100)
    p_bench.add_argument("--init-hidden", default="1024,512")
    p_bench.add_argument("--gnn-hidden", default="1024,1024")
    p_bench.add_argument("--fractions", default="0.8,0.1,0.1")
    p_bench.add_argument("--split-seed", type=int, default=0)
    p_bench.add_argument("--seed", type=int, required=True,
                         help="base seed; member seeds come from --seeds")
    p_bench.add_argument("--out", required=True, help="report prefix (.jsonl and .txt)")
    return parser


def _names_config(arg: str) -> bool:
    """Whether argparse would read `arg` as --config: the name, an abbreviation of
    it, either one followed by `=value`."""
    name = arg.split("=", 1)[0]
    return len(name) > 2 and "--config".startswith(name)


def _inject_config(argv: list[str]) -> list[str]:
    """Expand `--config PATH` or `--config=PATH` into the file's flags, placed
    before the explicit ones. A list value gives its flag once per item. Any other
    spelling of --config, or a second one, is a usage error."""
    at = [i for i, arg in enumerate(argv) if _names_config(arg)]
    if not at:
        return argv
    i = at[0]
    flag, eq, path = argv[i].partition("=")
    if flag != "--config":
        raise err.SchemaParse(f"{flag} abbreviates --config: write --config in full")
    if len(at) > 1:
        raise err.SchemaParse("--config given more than once")
    if not eq:
        if i + 1 >= len(argv):
            raise err.SchemaParse("--config needs a path")
        path = argv[i + 1]
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise err.SchemaParse(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise err.SchemaParse(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise err.SchemaParse(f"config {path} must hold a JSON object")
    flags: list[str] = []
    for key in sorted(doc):
        flag = "--" + str(key).replace("_", "-")
        value = doc[key]
        if _names_config(flag):
            raise err.SchemaParse(f"config {path}: {key!r} would name another config")
        for item in value if isinstance(value, list) else [value]:
            if not isinstance(item, (str, int, float)):
                raise err.SchemaParse(f"config {path}: {key!r} must be a string, number, boolean or list of those")
            if isinstance(item, bool):
                if item:
                    flags.append(flag)
            else:
                flags.extend([flag, str(item)])
    rest = argv[:i] + argv[i + (1 if eq else 2) :]
    if not rest:
        raise err.SchemaParse("config given without a subcommand")
    return [rest[0]] + flags + rest[1:]


def _read_ntriples(path: str):
    """The graph in the N-Triples file at `path`; text that is not UTF-8 is a data error."""
    return parse_ntriples(read_utf8(path, err.NTriplesParse, "N-Triples file"))


# --- build-kg ------------------------------------------------------------------


def _cmd_build_kg(args) -> int:
    schema_path = Path(args.schema)
    schema = parse_schema(schema_path.read_text(encoding="utf-8"), base_dir=schema_path.parent)
    graph, report = build_graph(schema, base_dir=schema_path.parent)
    merged_entities = 0
    if args.merge:
        other = _read_ntriples(args.merge)
        merged_entities = len(
            {n.id for n in graph.entities()} & {n.id for n in other.entities()}
        )
        graph = merge_graphs(graph, other)
    graph = resolve_same_as(graph)
    Path(args.out).write_text(to_ntriples(graph), encoding="utf-8", newline="\n")
    print(f"wrote {args.out}: {len(graph.entities())} entities, "
          f"{len(graph.attributes())} attributes, {graph.num_triples()} triples")
    if args.merge:
        print(f"merged entities shared with {args.merge}: {merged_entities}")
    if graph.aliases:
        collapsed = sum(len(v) for v in graph.aliases.values())
        print(f"sameAs resolution collapsed {collapsed} aliased ids")
    if report.skipped_missing_id:
        print(f"rows skipped for missing id: {report.skipped_missing_id}")
    for line in report.errors:
        print(f"row error: {line}", file=sys.stderr)
    print(f"row errors: {len(report.errors)}")
    return 0


# --- pretrain -------------------------------------------------------------------


def _parse_links(value: str) -> LinkFilter:
    if value == "all":
        return LinkFilter.all_links()
    if value.startswith("restricted="):
        rels = [r for r in value[len("restricted="):].split(",") if r]
        if not rels:
            raise ValueError("restricted= needs at least one relation")
        return LinkFilter.restricted(rels)
    raise ValueError(f"bad --links value {value!r} (expected 'all' or 'restricted=r1,r2')")


def _parse_policy(args) -> FlowPolicy:
    if args.allow:
        allowed = {}
        for item in args.allow:
            if "=" not in item:
                raise ValueError(f"bad --allow {item!r} (expected modality=rel1,rel2)")
            modality, rels = item.split("=", 1)
            relations = {r for r in rels.split(",") if r}
            if not modality or not relations:
                raise ValueError(f"bad --allow {item!r}")
            allowed[modality] = relations
        return FlowPolicy.controlled(allowed)
    if args.flow_control:
        return FlowPolicy.controlled()
    return FlowPolicy.unrestricted()


def _auto_partitions(n_entities: int) -> int:
    return max(1, min(8, math.ceil(n_entities / 50)))


def _cmd_pretrain(args) -> int:
    graph = _read_ntriples(args.graph)
    if args.partitions == "auto":
        partitions = _auto_partitions(len(graph.entities()))
    else:
        partitions = _integer(args.partitions, "--partitions")
    cfg = PretrainConfig(
        score_fn=args.score,
        policy=_parse_policy(args),
        link_filter=_parse_links(args.links),
        partitions=partitions,
        lr=args.lr,
        epochs=args.epochs,
        train_val=args.train_val,
        seed=args.seed,
        regression=args.regression,
        reg_lambda=args.reg_lambda,
        negative_ratio=args.neg_ratio,
        proj_dim=args.proj_dim,
        hidden_dim=args.hidden_dim,
        out_dim=args.out_dim,
    )
    registry = default_registry(args.sequence_dim, args.text_dim, args.fingerprint_dim)
    initial = compute_initial_embeddings(graph, registry)
    result = train(graph, initial, cfg)
    ckpt = Checkpoint.from_result(
        result,
        meta={
            "graph": Path(args.graph).name,
            "partitions": partitions,
            "links": args.links,
            "handler_dims": {
                "sequence": args.sequence_dim,
                "text": args.text_dim,
                "fingerprint": args.fingerprint_dim,
            },
        },
    )
    save_checkpoint(ckpt, args.out)
    log_path = args.log or (args.out + ".log.jsonl")
    with open(log_path, "w", encoding="utf-8", newline="\n") as fh:
        for row in result.log:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    if result.log:
        last = result.log[-1]
        shown = "n/a" if last["train_loss"] is None else f"{last['train_loss']:.6f}"
        print(f"wrote {args.out} (epochs={last['epoch'] + 1}, partitions={partitions}, "
              f"final train_loss={shown}, val_loss={last['val_loss']})")
    else:
        print(f"wrote {args.out} (no epochs ran)")
    print(f"training log: {log_path}")
    return 0


# --- infer -----------------------------------------------------------------------


def registry_for_checkpoint(ckpt: Checkpoint):
    """Handler registry whose dims match the checkpoint's projection inputs."""
    dims = {m: w.data.shape[0] for m, (w, _) in ckpt.params.projections.items()}
    return default_registry(
        sequence_dim=dims.get(SEQUENCE_MODALITY, 128),
        text_dim=dims.get("text", 128),
        fingerprint_dim=dims.get(SMILES_MODALITY, FINGERPRINT_DIM),
    )


def _cmd_infer(args) -> int:
    ckpt = load_checkpoint(args.ckpt)
    registry = registry_for_checkpoint(ckpt)
    modality = SMILES_MODALITY if args.modality == "smiles" else SEQUENCE_MODALITY
    initial, enhanced = infer(ckpt.params, ckpt.policy, args.value, modality, registry)
    print(json.dumps({"embedding": "initial", "dim": len(initial), "values": initial.tolist()}))
    print(json.dumps({"embedding": "gnn", "dim": len(enhanced), "values": enhanced.tolist()}))
    return 0


# --- benchmark ----------------------------------------------------------------------


def _parse_seeds(value: str) -> list[int]:
    if ".." in value:
        lo, hi = value.split("..", 1)
        return list(range(_integer(lo, "--seeds"), _integer(hi, "--seeds") + 1))
    return [_integer(s, "--seeds") for s in value.split(",") if s]


def _number(text: str, flag: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{flag} needs a number, got {text!r}") from None


def _integer(text: str, flag: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{flag} needs an integer, got {text!r}") from None


def _parse_split(value: str, fractions: tuple, seed: int) -> SplitSpec:
    if value.startswith("temporal:"):
        return SplitSpec("temporal", fractions, seed, threshold=_number(value.split(":", 1)[1], "--split temporal:<t>"))
    if value == "temporal":
        raise ValueError("temporal split needs a threshold: temporal:<t>")
    return SplitSpec(value, fractions, seed)


def _parse_pair(value: str, flag: str) -> tuple[int, int]:
    parts = [_integer(p, flag) for p in value.split(",") if p]
    if len(parts) != 2:
        raise ValueError(f"{flag} needs two comma-separated integers, got {value!r}")
    return (parts[0], parts[1])


def _cmd_benchmark(args) -> int:
    dataset = load_affinity_tsv(args.dataset)
    fractions = tuple(_number(f, "--fractions") for f in args.fractions.split(","))
    if len(fractions) != 3:
        raise ValueError("--fractions needs three comma-separated values")
    spec = _parse_split(args.split, fractions, args.split_seed)
    is_temporal = spec.kind == "temporal"
    steps = args.steps if args.steps is not None else (20000 if is_temporal else 10000)
    lr = args.lr if args.lr is not None else (5e-5 if is_temporal else 5e-4)
    cfg = DownstreamConfig(
        lr=lr,
        steps=steps,
        batch=args.batch,
        seed=args.seed,
        init_hidden=_parse_pair(args.init_hidden, "--init-hidden"),
        gnn_hidden=_parse_pair(args.gnn_hidden, "--gnn-hidden"),
        eval_every=args.eval_every,
    )
    seeds = _parse_seeds(args.seeds)

    paths = [p for p in args.ckpts.split(",") if p]
    if not paths:
        raise ValueError("--ckpts needs at least one checkpoint path")
    checkpoints = [(Path(p).stem, load_checkpoint(p)) for p in paths]
    registry = registry_for_checkpoint(checkpoints[0][1])
    for path, (_, ckpt) in zip(paths, checkpoints):
        for modality, (w, _) in ckpt.params.projections.items():
            if modality in registry and w.data.shape[0] != registry.get(modality).dim:
                raise err.DimMismatch(
                    f"{path}: {modality!r} projection takes {w.data.shape[0]} inputs, but the "
                    f"handler shared by all checkpoints (from {paths[0]}) gives {registry.get(modality).dim}"
                )
    graph = _read_ntriples(args.graph) if args.graph else None
    report = run_benchmark(
        dataset, spec, checkpoints, registry, cfg, seeds=seeds, graph=graph
    )
    jsonl_path = args.out + ".jsonl"
    text_path = args.out + ".txt"
    Path(jsonl_path).write_text(report.to_jsonl(), encoding="utf-8", newline="\n")
    text = report.to_text()
    Path(text_path).write_text(text, encoding="utf-8", newline="\n")
    print(text, end="")
    print(f"wrote {jsonl_path} and {text_path}")
    return 0


COMMANDS = {
    "build-kg": _cmd_build_kg,
    "pretrain": _cmd_pretrain,
    "infer": _cmd_infer,
    "benchmark": _cmd_benchmark,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = build_parser().parse_args(_inject_config(argv))
        return COMMANDS[args.command](args)
    except SystemExit as exc:  # argparse's usage errors and --help
        return int(exc.code) if exc.code else 0
    except (err.KgdtaError, ValueError, OSError) as exc:  # a ValueError is a bad flag value
        code = exc.exit_code if isinstance(exc, err.KgdtaError) else 2 if isinstance(exc, ValueError) else 3
        print(f"{PREFIXES[code]}: {exc}", file=sys.stderr)
        return code


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
