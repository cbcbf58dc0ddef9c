"""Command-line interface: dataset generation, pretraining, embedding,
evaluation protocols, ablations, and diagnostics.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric
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
from dataclasses import replace
from pathlib import Path


_BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _flag_value(argv: list[str], flag: str) -> str | None:
    for pos, arg in enumerate(argv):
        if arg == flag and pos + 1 < len(argv):
            return argv[pos + 1]
        if arg.startswith(flag + "="):
            return arg[len(flag) + 1:]
    return None


def _config_threads(path: str) -> int | None:
    # numpy must not load before the BLAS variables are set, and leda.config
    # does not import it. A file that cannot be read here is reported by the
    # real config loader.
    from .config import has_json_type

    try:
        threads = json.loads(Path(path).read_text(encoding="utf-8"))["train"]["threads"]
    except (OSError, ValueError, KeyError, TypeError):
        return None
    return threads if has_json_type(threads, int) and threads >= 1 else None


def _apply_thread_limit(argv: list[str]) -> None:
    """Pin the BLAS pools to --threads, else to the config's train.threads.

    Must happen before numpy is imported anywhere in this process."""
    threads = _flag_value(argv, "--threads")
    config = _flag_value(argv, "--config")
    if threads is None and config is not None:
        threads = _config_threads(config)
    if threads is not None:
        for var in _BLAS_THREAD_VARS:
            os.environ[var] = str(threads)


def _timestamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _emit(doc: dict, out: str | None) -> None:
    doc = dict(doc)
    doc["timestamp"] = _timestamp()
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load_collection(manifest: str | None):
    from .datasets import load_dataset
    from .errors import ConfigError

    if not manifest:
        raise ConfigError("no dataset manifest given (config 'data' section or --manifest)")
    return load_dataset(manifest)


def _load_inputs(args):
    """The --ckpt checkpoint, then the --manifest collection: a command that
    reads both reports a bad checkpoint before a bad dataset."""
    from .checkpoint import load_checkpoint

    ckpt = load_checkpoint(args.ckpt)
    return ckpt, _load_collection(args.manifest)


def _embed_domains(ckpt, collection, steps: list[tuple[str, int]]):
    """Yield (graph, embeddings) for each (domain id, propagation steps) in
    turn. A domain must hold exactly one graph; it is looked up only when
    the caller asks for it, so errors surface in the caller's order."""
    from .errors import DataError
    from .evaluate import embed

    for domain_id, t in steps:
        graphs = collection.by_domain(domain_id)
        if len(graphs) != 1:
            raise DataError(
                f"domain '{domain_id}' has {len(graphs)} graphs; node-level commands "
                "need exactly one (use eval-graph for graph-level data)"
            )
        yield graphs[0], embed(graphs[0], ckpt, t=t)


_TRAIN_FLAGS = ("epochs", "seed", "variant", "threads", "two_phase")


def _run_config(args):
    """The --config run config with the flags actually given applied: the
    training flags, and --manifest in place of the config's data path."""
    from .config import load_run_config

    run_cfg = load_run_config(args.config)
    given = {name: getattr(args, name) for name in _TRAIN_FLAGS if getattr(args, name) is not None}
    manifest = args.manifest or run_cfg.manifest
    return replace(run_cfg, manifest=manifest, train=replace(run_cfg.train, **given))


def _protocol_echo(ckpt, protocol: dict) -> dict:
    return {"checkpoint_config": ckpt.config.to_dict(), "protocol": protocol}


def _domain_flags(graph) -> list[str]:
    return ["degree-featurized"] if graph.degree_featurized else []


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_gen_sbm(args) -> int:
    from .datasets import GraphCollection, generate_sbm, save_dataset

    graph = generate_sbm(
        blocks=args.blocks,
        nodes_per_block=args.nodes,
        p_in=args.pin,
        p_out=args.pout,
        d=args.d,
        cluster_sep=args.sep,
        seed=args.seed,
        domain_id=args.domain_id,
    )
    collection = GraphCollection(graphs=(graph,), task_kind="node-level")
    manifest = save_dataset(collection, args.out)
    print(manifest)
    return 0


def cmd_pretrain(args) -> int:
    from .checkpoint import save_checkpoint
    from .evaluate import diagnostics_entropy
    from .trainer import pretrain

    run_cfg = _run_config(args)
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
    from .evaluate import write_embeddings_tsv

    ckpt, collection = _load_inputs(args)
    [(_, embeddings)] = _embed_domains(ckpt, collection, [(args.domain, args.t)])
    write_embeddings_tsv(embeddings, args.out)
    return 0


def cmd_eval_linear(args) -> int:
    from .evaluate import linear_probe

    ckpt, collection = _load_inputs(args)
    [(graph, embeddings)] = _embed_domains(ckpt, collection, [(args.domain, args.t)])
    report = linear_probe(embeddings, train_frac=args.train_frac, runs=args.runs, seed=args.seed)
    report.flags.extend(_domain_flags(graph))
    doc = report.to_dict()
    doc["domain"] = args.domain
    doc["config"] = _protocol_echo(
        ckpt,
        {"train_frac": args.train_frac, "runs": args.runs, "seed": args.seed, "t": args.t},
    )
    _emit(doc, args.out)
    return 0


def cmd_eval_fewshot(args) -> int:
    from .evaluate import fewshot_eval

    ckpt, collection = _load_inputs(args)
    [(graph, embeddings)] = _embed_domains(ckpt, collection, [(args.domain, args.t)])
    report = fewshot_eval(embeddings, k=args.k, repeats=args.repeats, seed=args.seed)
    report.flags.extend(_domain_flags(graph))
    doc = report.to_dict()
    doc["domain"] = args.domain
    doc["config"] = _protocol_echo(
        ckpt, {"k": args.k, "repeats": args.repeats, "seed": args.seed, "t": args.t}
    )
    _emit(doc, args.out)
    return 0


def cmd_eval_graph(args) -> int:
    from .evaluate import graph_eval

    ckpt, collection = _load_inputs(args)
    report = graph_eval(
        collection,
        ckpt,
        support_per_class=args.support,
        repeats=args.repeats,
        seed=args.seed,
        t=args.t,
    )
    doc = report.to_dict()
    doc["config"] = _protocol_echo(
        ckpt,
        {"support": args.support, "repeats": args.repeats, "seed": args.seed, "t": args.t},
    )
    _emit(doc, args.out)
    return 0


def cmd_ablate(args) -> int:
    from .datasets import GraphCollection
    from .errors import ConfigError
    from .evaluate import fewshot_eval
    from .trainer import pretrain

    run_cfg = _run_config(args)
    collection = _load_collection(run_cfg.manifest)
    test_domains = tuple(args.test_domain or run_cfg.eval.test_domains)
    if not test_domains:
        raise ConfigError("ablate needs held-out domains (--test-domain or eval.test_domains)")
    known = set(collection.domain_ids())
    missing = sorted(set(test_domains) - known)
    if missing:
        raise ConfigError(f"held-out domains not in the dataset: {missing}")
    train_graphs = tuple(g for g in collection.graphs if g.domain_id not in test_domains)
    if not train_graphs:
        raise ConfigError("no training domains left after holding out test domains")
    train_collection = GraphCollection(graphs=train_graphs, task_kind=collection.task_kind)

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
    from .errors import ConfigError
    from .evaluate import mi_diagnostic

    names = [part.strip() for part in args.domains.split(",") if part.strip()]
    if len(names) != 2:
        raise ConfigError(f"--domains expects two comma-separated ids, got '{args.domains}'")
    ckpt, collection = _load_inputs(args)
    [(_, first), (_, second)] = _embed_domains(ckpt, collection, [(name, args.t) for name in names])
    record = mi_diagnostic(first, second, tau=args.tau, seed=args.seed)
    record["config"] = _protocol_echo(ckpt, {"tau": args.tau, "t": args.t, "seed": args.seed})
    _emit(record, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    from .config import VARIANTS

    parser = argparse.ArgumentParser(
        prog="leda",
        description="Multi-domain graph pre-training: train, embed, evaluate, diagnose.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-sbm", help="generate a synthetic block-model domain")
    p.add_argument("--blocks", type=int, required=True)
    p.add_argument("--nodes", type=int, required=True, help="nodes per block")
    p.add_argument("--pin", type=float, required=True)
    p.add_argument("--pout", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--d", type=int, default=16, help="feature dimension")
    p.add_argument("--sep", type=float, default=3.0, help="block mean separation")
    p.add_argument("--domain-id", default=None)
    p.set_defaults(handler=cmd_gen_sbm)

    p = sub.add_parser("pretrain", help="train on every domain of a dataset")
    p.add_argument("--config", required=True, help="run config JSON")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--manifest", default=None, help="override the config's data path")
    p.add_argument("--report", default=None, help="write the summary JSON here instead of stdout")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--variant", choices=VARIANTS, default=None)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--two-phase", dest="two_phase", action="store_true", default=None)
    p.set_defaults(handler=cmd_pretrain)

    p = sub.add_parser("embed", help="export node embeddings as TSV")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--domain", required=True)
    p.add_argument("--t", type=int, default=0, help="extra propagation steps")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_embed)

    p = sub.add_parser("eval-linear", help="linear probe on frozen embeddings")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--domain", required=True)
    p.add_argument("--train-frac", type=float, default=0.1)
    p.add_argument("--runs", type=int, default=20)
    p.add_argument("--seed", type=int, default=66666)
    p.add_argument("--t", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_eval_linear)

    p = sub.add_parser("eval-fewshot", help="k-shot prototype classification")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--domain", required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--repeats", type=int, default=500)
    p.add_argument("--seed", type=int, default=66666)
    p.add_argument("--t", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_eval_fewshot)

    p = sub.add_parser("eval-graph", help="graph-level prototype classification")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--support", type=int, default=1, help="support graphs per class")
    p.add_argument("--repeats", type=int, default=500)
    p.add_argument("--seed", type=int, default=66666)
    p.add_argument("--t", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_eval_graph)

    p = sub.add_parser("ablate", help="pretrain one variant and run few-shot on held-out domains")
    p.add_argument("--config", required=True)
    p.add_argument("--variant", choices=VARIANTS, default=None)
    p.add_argument("--manifest", default=None)
    p.add_argument("--test-domain", action="append", default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--two-phase", dest="two_phase", action="store_true", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_ablate)

    p = sub.add_parser("mi-diag", help="cross-domain similarity diagnostic")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--domains", required=True, help="two comma-separated domain ids")
    p.add_argument("--tau", type=float, default=0.5)
    p.add_argument("--t", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_mi_diag)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    _apply_thread_limit(argv)
    parser = build_parser()
    args = parser.parse_args(argv)

    from .errors import ConfigError, DataError, NumericError, ShapeError

    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (NumericError, ShapeError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
