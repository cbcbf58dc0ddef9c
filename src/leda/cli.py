"""Command-line interface: dataset generation, pretraining, embedding,
evaluation protocols, ablations, and diagnostics.

Exit codes: 0 success, 2 configuration error, 3 data error (an output
that cannot be written, or memory that runs out, is one too), 4 numeric
failure. All JSON reports are pretty-printed with sorted keys, embed the
effective configuration and seed, and isolate the timestamp in a single
top-level field so byte-level determinism checks can exclude it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

# neither loads numpy; the modules that do load in the handlers, after `main` pins BLAS
from .config import RULE_OF, VARIANTS, check_values, load_run_config, write_file
from .errors import ConfigError, DataError, NumericError, ShapeError

_BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# each character str.splitlines breaks a line at, as repr writes it
_LINE_BREAKS = str.maketrans({c: repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"})


def _refuse(code: int, line: str) -> int:
    """Print `line` to stderr as one line, each line break in it escaped; return `code`."""
    print(line.translate(_LINE_BREAKS), file=sys.stderr)
    return code


def _emit(doc: dict, out: str | None) -> None:
    doc = dict(doc)
    doc["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out:
        write_file(out, [text])
    else:
        sys.stdout.write(text)


def _load_collection(manifest: str | None):
    from .datasets import load_dataset

    if not manifest:
        raise ConfigError("no dataset manifest given (config 'data' section or --manifest)")
    return load_dataset(manifest)


def _check_output_dirs(*paths: str | None) -> None:
    """Refuse an output that is a directory or whose directory is missing, before any work."""
    for path in filter(None, paths):
        if not Path(path).parent.is_dir():
            raise FileNotFoundError(f"cannot write {path}: no directory {Path(path).parent}")
        if Path(path).is_dir():
            raise IsADirectoryError(f"cannot write {path}: it is a directory")


def _load_inputs(args):
    """Check --out's directory, then load the --ckpt checkpoint, then the
    --manifest collection: errors surface in that order."""
    from .checkpoint import load_checkpoint

    _check_output_dirs(args.out)
    ckpt = load_checkpoint(args.ckpt)
    return ckpt, _load_collection(args.manifest)


def _embed_domains(ckpt, collection, steps: list[tuple[str, int]]):
    """Yield (graph, embeddings) for each (domain id, propagation steps) in
    turn, from its `domain_operands` as graph pooling embeds. A domain must
    hold one graph; it is looked up when asked for, in the caller's order."""
    from .evaluate import _embed
    from .trainer import domain_operands

    for domain_id, t in steps:
        graphs = collection.by_domain(domain_id)
        if len(graphs) != 1:
            raise DataError(
                f"domain '{domain_id}' has {len(graphs)} graphs; node-level commands "
                "need exactly one (use eval-graph for graph-level data)"
            )
        d = domain_operands(collection, domain_id)
        yield graphs[0], _embed(domain_id, d.x, d.s, ckpt, t, graphs[0].labels)


def _run_config(args):
    """The --config run config with the flags actually given applied: each
    flag named after a TrainConfig field, --manifest in place of the
    config's data path, and ablate's --test-domain in place of
    eval.test_domains. Its model must fit in memory, which is checked
    before the manifest is read."""
    from .checkpoint import check_param_memory

    run_cfg = load_run_config(args.config)
    keys = {f.name for f in fields(run_cfg.train)}
    given = {name: value for name, value in vars(args).items() if name in keys and value is not None}
    manifest = args.manifest or run_cfg.manifest
    held_out = getattr(args, "test_domain", None) or run_cfg.eval.test_domains
    train = replace(run_cfg.train, **given)
    check_param_memory(train)
    return replace(run_cfg, manifest=manifest, train=train, eval=replace(run_cfg.eval, test_domains=held_out))


def _protocol_echo(ckpt, protocol: dict) -> dict:
    return {"checkpoint_config": ckpt.config.to_dict(), "protocol": protocol}


def _domain_flags(graph) -> list[str]:
    return ["degree-featurized"] if graph.degree_featurized else []


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_gen_sbm(args) -> int:
    from .datasets import GraphCollection, generate_sbm, save_dataset

    names = ("blocks", "nodes_per_block", "p_in", "p_out", "d", "cluster_sep", "seed", "domain_id")
    graph = generate_sbm(**{name: getattr(args, name) for name in names})
    collection = GraphCollection(graphs=(graph,), task_kind="node-level")
    manifest = save_dataset(collection, args.out)
    print(manifest)
    return 0


def cmd_pretrain(args) -> int:
    from .checkpoint import save_checkpoint
    from .evaluate import diagnostics_entropy
    from .trainer import pretrain

    run_cfg = args.run_config
    if args.report and Path(args.report).resolve() == Path(args.out).resolve():
        raise ConfigError(f"--out and --report name one file: {args.report}")
    _check_output_dirs(args.out, args.report)
    collection = _load_collection(run_cfg.manifest)
    ckpt = pretrain(collection, run_cfg.train)
    save_checkpoint(ckpt, args.out)
    entropy = {}
    for basis in ckpt.bases:
        result = diagnostics_entropy(ckpt, basis.domain_id)
        entropy[basis.domain_id] = {
            "value": None if result.degenerate else result.value,
            "degenerate": result.degenerate,
        }
    summary = {
        "checkpoint": str(args.out),
        "epochs": ckpt.epoch,
        "final_loss": ckpt.final_loss,
        "basis_entropy": entropy,
        "config": run_cfg.to_dict(),
        "seed": run_cfg.train.seed,
    }
    _emit(summary, args.report)
    return 0


def cmd_embed(args) -> int:
    from .datasets import write_float_tsv

    ckpt, collection = _load_inputs(args)
    [(_, embeddings)] = _embed_domains(ckpt, collection, [(args.domain, args.t)])
    write_float_tsv(args.out, embeddings.E, index=True)
    return 0


def cmd_eval_node(args) -> int:
    """eval-linear and eval-fewshot: embed one domain and run the
    subcommand's protocol on it with the subcommand's arguments."""
    from . import evaluate

    ckpt, collection = _load_inputs(args)
    [(graph, embeddings)] = _embed_domains(ckpt, collection, [(args.domain, args.t)])
    protocol_args = {name: getattr(args, name) for name in args.protocol_args}
    report = getattr(evaluate, args.protocol)(embeddings, **protocol_args)
    report.flags.extend(_domain_flags(graph))
    doc = report.to_dict()
    doc["domain"] = args.domain
    doc["config"] = _protocol_echo(ckpt, {**protocol_args, "t": args.t})
    _emit(doc, args.out)
    return 0


def cmd_eval_graph(args) -> int:
    from .evaluate import graph_eval

    ckpt, collection = _load_inputs(args)
    report = graph_eval(collection, ckpt, support_per_class=args.support_per_class, repeats=args.repeats,
                        seed=args.seed, t=args.t)
    doc = report.to_dict()
    doc["config"] = _protocol_echo(
        ckpt,
        {"support": args.support_per_class, "repeats": args.repeats, "seed": args.seed, "t": args.t},
    )
    _emit(doc, args.out)
    return 0


def cmd_ablate(args) -> int:
    from .datasets import NODE_LEVEL, GraphCollection
    from .evaluate import fewshot_eval
    from .trainer import pretrain

    run_cfg = args.run_config
    _check_output_dirs(args.out)
    collection = _load_collection(run_cfg.manifest)
    if collection.task_kind != NODE_LEVEL:
        raise DataError("ablate needs node-level data; for graph-level data use pretrain, then eval-graph")
    test_domains = run_cfg.eval.test_domains
    if not test_domains:
        raise ConfigError("ablate needs held-out domains (--test-domain or eval.test_domains)")
    repeated = sorted({domain_id for domain_id in test_domains if test_domains.count(domain_id) > 1})
    if repeated:
        raise ConfigError(f"held-out domains named more than once: {repeated}")
    missing = sorted(set(test_domains) - set(collection.domain_ids()))
    if missing:
        raise ConfigError(f"held-out domains not in the dataset: {missing}")
    t_propagate = run_cfg.eval.t_propagate
    idle = sorted(set(t_propagate) - set(test_domains)) if isinstance(t_propagate, dict) else []
    if idle:
        raise ConfigError(f"eval.t_propagate names domains that are not held out: {idle}")
    train_graphs = tuple(g for g in collection.graphs if g.domain_id not in test_domains)
    if not train_graphs:
        raise ConfigError("no training domains left after holding out test domains")
    train_collection = GraphCollection(graphs=train_graphs, task_kind=NODE_LEVEL)

    ckpt = pretrain(train_collection, run_cfg.train)
    results = {}
    steps = [(domain_id, run_cfg.eval.t_for(domain_id)) for domain_id in test_domains]
    for (domain_id, _), (graph, embeddings) in zip(steps, _embed_domains(ckpt, collection, steps)):
        report = fewshot_eval(
            embeddings,
            k=run_cfg.eval.k_shot,
            repeats=run_cfg.eval.repeats,
            seed=run_cfg.eval_seed,
        )
        results[domain_id] = {
            "mean_accuracy": report.mean_accuracy,
            "std": report.std,
            "repeats": report.repeats,
            "flags": _domain_flags(graph),
        }
    doc = {
        "task": "ablate",
        "variant": run_cfg.train.variant,
        "k_shot": run_cfg.eval.k_shot,
        "results": results,
        "final_loss": ckpt.final_loss,
        "config": run_cfg.to_dict(),
        "seed": run_cfg.train.seed,
    }
    _emit(doc, args.out)
    return 0


def cmd_mi_diag(args) -> int:
    from .evaluate import mi_diagnostic

    names = [part.strip() for part in args.domains.split(",") if part.strip()]
    if len(names) != 2:
        raise ConfigError(f"--domains expects two comma-separated ids, got {args.domains!r}")
    ckpt, collection = _load_inputs(args)
    [(_, first), (_, second)] = _embed_domains(ckpt, collection, [(name, args.t) for name in names])
    record = mi_diagnostic(first, second, tau=args.tau, seed=args.seed)
    record["config"] = _protocol_echo(ckpt, {"tau": args.tau, "t": args.t, "seed": args.seed})
    _emit(record, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """Refuses a command line it cannot parse as every configuration error
    is refused: one line of stderr, exit 2."""

    def error(self, message):
        self.exit(_refuse(2, f"config error: {message}"))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="leda",
        description="Multi-domain graph pre-training: train, embed, evaluate, diagnose.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # flags shared by the training commands, and by the checkpoint readers
    train = argparse.ArgumentParser(add_help=False)
    train.add_argument("--config", required=True, help="run config JSON")
    train.add_argument("--manifest", help="override the config's data path")
    train.add_argument("--epochs", type=int)
    train.add_argument("--seed", type=int)
    train.add_argument("--variant", choices=VARIANTS)
    train.add_argument("--two-phase", dest="two_phase", action="store_true", default=None)
    reader = argparse.ArgumentParser(add_help=False)
    reader.add_argument("--ckpt", required=True)
    reader.add_argument("--manifest", required=True)
    reader.add_argument("--t", type=int, default=0, help="extra propagation steps")

    p = sub.add_parser("gen-sbm", help="generate a synthetic block-model domain")
    p.add_argument("--blocks", type=int, required=True)
    p.add_argument("--nodes", dest="nodes_per_block", type=int, required=True, help="nodes per block")
    p.add_argument("--pin", dest="p_in", type=float, required=True)
    p.add_argument("--pout", dest="p_out", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--d", type=int, default=16, help="feature dimension")
    p.add_argument("--sep", dest="cluster_sep", type=float, default=3.0, help="block mean separation")
    p.add_argument("--domain-id")
    p.set_defaults(handler=cmd_gen_sbm)

    p = sub.add_parser("pretrain", parents=[train], help="train on every domain of a dataset")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--report", help="write the summary JSON here instead of stdout")
    p.set_defaults(handler=cmd_pretrain)

    p = sub.add_parser("embed", parents=[reader], help="export node embeddings as TSV")
    p.add_argument("--domain", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_embed)

    p = sub.add_parser("eval-linear", parents=[reader], help="linear probe on frozen embeddings")
    p.add_argument("--domain", required=True)
    p.add_argument("--train-frac", type=float, default=0.1)
    p.add_argument("--runs", type=int, default=20)
    p.add_argument("--seed", type=int, default=66666)
    p.add_argument("--out")
    p.set_defaults(handler=cmd_eval_node, protocol="linear_probe",
                   protocol_args=("train_frac", "runs", "seed"))

    p = sub.add_parser("eval-fewshot", parents=[reader], help="k-shot prototype classification")
    p.add_argument("--domain", required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--repeats", type=int, default=500)
    p.add_argument("--seed", type=int, default=66666)
    p.add_argument("--out")
    p.set_defaults(handler=cmd_eval_node, protocol="fewshot_eval",
                   protocol_args=("k", "repeats", "seed"))

    p = sub.add_parser("eval-graph", parents=[reader], help="graph-level prototype classification")
    p.add_argument("--support", dest="support_per_class", type=int, default=1,
                   help="support graphs per class")
    p.add_argument("--repeats", type=int, default=500)
    p.add_argument("--seed", type=int, default=66666)
    p.add_argument("--out")
    p.set_defaults(handler=cmd_eval_graph)

    p = sub.add_parser(
        "ablate", parents=[train], help="pretrain one variant and run few-shot on held-out domains"
    )
    p.add_argument("--test-domain", action="append")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_ablate)

    p = sub.add_parser("mi-diag", parents=[reader], help="cross-domain similarity diagnostic")
    p.add_argument("--domains", required=True, help="two comma-separated domain ids")
    p.add_argument("--tau", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(handler=cmd_mi_diag)

    return parser


def main(argv: list[str] | None = None) -> int:
    # BLAS on one thread keeps every product's bits independent of the CPU
    # count; `linalg.split_rows` spreads the large products over the CPUs
    # instead. The BLAS pools are sized when numpy loads, so pin them first.
    for var in _BLAS_THREAD_VARS:
        os.environ[var] = "1"
    args = build_parser().parse_args(argv)
    try:
        # every flag named after a value rule is checked before any file is read
        check_values(**{name: v for name, v in vars(args).items() if name in RULE_OF and v is not None})
        if "config" in args:
            args.run_config = _run_config(args)
        return args.handler(args)
    except ConfigError as exc:
        return _refuse(2, f"config error: {exc}")
    except (DataError, OSError) as exc:  # OSError: an output path that cannot be written
        return _refuse(3, f"data error: {exc}")
    except (NumericError, ShapeError) as exc:
        return _refuse(4, f"numeric failure: {exc}")
    except MemoryError as exc:  # the last resort, when no guard weighed the need before allocating
        return _refuse(3, f"data error: {args.command} ran out of memory" + (f": {exc}" if str(exc) else ""))


if __name__ == "__main__":
    raise SystemExit(main())
