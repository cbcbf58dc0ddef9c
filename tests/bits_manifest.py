"""The bits manifest: a sorted {artifact: sha256} map over a fixed matrix of
training runs and evaluations, so that "no bit moved" is one comparison.

The matrix: every variant, and `two_phase` for each variant that allows it,
trained for 25 epochs on three fixed collections (dense node-level,
node-level with CSR domains, graph-level), each with a domain held out of
training. Per run it hashes the checkpoint bytes and the loss trace; the
`embed` rows of a seen and of the held-out domain, or the pooled rows of
every graph; and the reports that `leda.cli` writes, with their
`timestamp` masked: `eval-fewshot`, `eval-linear` and `mi-diag` involving
the held-out domain, or `eval-graph`.

    PYTHONPATH=src:tests python tests/bits_manifest.py > manifest.json

prints the manifest as JSON. Run it in two checkouts and diff the files to
see which artifacts a change moves. The digests are not stored: numpy and
BLAS builds may round differently on another machine, so
`tests/test_bits_manifest.py` compares two CPU counts on one machine.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

# one BLAS thread, as `leda.cli.main` and the suite's conftest pin it: the
# BLAS pools are sized when numpy loads, which the imports below do
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

from leda.checkpoint import save_checkpoint
from leda.cli import main
from leda.config import VARIANTS
from leda.datasets import GRAPH_LEVEL, NODE_LEVEL, GraphCollection, save_dataset
from leda.evaluate import embed, pooled_graph_embeddings
from leda.trainer import pretrain

from synthetic import bow_collection, graph_level_collection, node_collection, tiny_config

EPOCHS = 25
TWO_PHASE_EPOCHS = 5
RUNS = [(variant, False) for variant in VARIANTS] + [(v, True) for v in VARIANTS if v != "no-dpu"]
# small protocol sizes: the manifest checks bits, not accuracy
FEWSHOT = ["--k", "1", "--repeats", "8"]
LINEAR = ["--train-frac", "0.3", "--runs", "1"]
GRAPH = ["--support", "1", "--repeats", "8"]


def collections() -> dict[str, tuple[GraphCollection, str, str]]:
    """name -> (collection, a trained domain, the held-out domain)."""
    dense = node_collection(seed=3, dims=(9, 12, 10))
    mixed = (replace(node_collection(seed=4, dims=(9,)).graphs[0], domain_id="dense"),
             *(replace(g, domain_id=name) for g, name in zip(bow_collection(seed=4).graphs, ("bow", "bow-held"))))
    return {
        "dense": (dense, "doma", "domc"),
        "csr": (GraphCollection(mixed, NODE_LEVEL), "bow", "bow-held"),
        "graph": (graph_level_collection(), "ga", "gb"),
    }


def _training_part(collection: GraphCollection, held: str) -> GraphCollection:
    return GraphCollection(tuple(g for g in collection.graphs if g.domain_id != held), collection.task_kind)


def manifest(work: Path) -> dict[str, str]:
    """Train and evaluate the matrix under `work`; the digest of each artifact."""
    digests: dict[str, bytes] = {}
    for name, (collection, seen, held) in collections().items():
        data = str(save_dataset(collection, work / name))
        training = _training_part(collection, held)
        for variant, two_phase in RUNS:
            run = f"{name}/{variant}" + ("+two-phase" if two_phase else "")
            config = replace(tiny_config(variant=variant, epochs=EPOCHS), two_phase=two_phase,
                             two_phase_epochs=TWO_PHASE_EPOCHS)
            ckpt_path = work / f"{run.replace('/', '-')}.ckpt"
            ckpt = pretrain(training, config)
            save_checkpoint(ckpt, ckpt_path)
            digests[f"{run}/checkpoint"] = ckpt_path.read_bytes()
            digests[f"{run}/loss_trace"] = json.dumps(ckpt.loss_trace).encode()
            if collection.task_kind == GRAPH_LEVEL:
                digests[f"{run}/pooled_rows"] = pooled_graph_embeddings(collection, ckpt).tobytes()
                commands = {"eval-graph": ["eval-graph", *GRAPH]}
            else:
                for domain in (seen, held):
                    digests[f"{run}/embed/{domain}"] = embed(collection.by_domain(domain)[0], ckpt).E.tobytes()
                commands = {
                    f"eval-fewshot/{held}": ["eval-fewshot", "--domain", held, *FEWSHOT],
                    f"eval-linear/{held}": ["eval-linear", "--domain", held, *LINEAR],
                    "mi-diag": ["mi-diag", "--domains", f"{seen},{held}"],
                }
            out = work / "report.json"
            for artifact, (command, *args) in commands.items():
                argv = [command, "--ckpt", str(ckpt_path), "--manifest", data, "--out", str(out), *args]
                if main(argv) != 0:
                    raise RuntimeError(f"{run}: leda {' '.join(argv)} failed")
                doc = json.loads(out.read_text(encoding="utf-8"))
                doc["timestamp"] = "masked"
                digests[f"{run}/{artifact}"] = json.dumps(doc, sort_keys=True).encode()
    return {key: hashlib.sha256(value).hexdigest() for key, value in sorted(digests.items())}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(manifest(Path(tmp)), sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
