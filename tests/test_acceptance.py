"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s or look at captured output).

Criterion 9 (real citation benchmarks) is optional and skipped unless the
LEDA_REAL_DATA environment variable points at a directory of converted
manifests; see README for the expected layout.
"""

import json
import os
import time

import numpy as np
import pytest

from leda import autodiff as ad
from leda.cli import main as cli_main
from leda.datasets import GraphCollection, generate_sbm, save_dataset
from leda.dpu import trans
from leda.evaluate import (
    EmbeddingSet,
    diagnostics_entropy,
    embed,
    fewshot_eval,
    linear_probe,
    mi_diagnostic,
    mi_from_scores,
)
from leda.lda import kl_to_prior, loss_total_domain
from leda.linalg import gaussian_entropy, normalize_adjacency, truncated_svd
from leda.optim import AdamWState, adamw_step
from leda.trainer import (
    TrainConfig,
    build_epoch_loss,
    init_paramset,
    prepare_domains,
    pretrain,
)

from oracles import best_rank_k_error, gradient_check, svd_product
from synthetic import alignment_loss, draw_dpu_params, draw_lda_params, zero_grads

def check(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# fixed 3-domain suite for criteria 5-7: two train domains and one held-out
SUITE_DIMS = {"doma": 24, "domb": 32, "domc": 40}


def ablation_suite(seed: int) -> GraphCollection:
    graphs = tuple(
        generate_sbm(
            blocks=3,
            nodes_per_block=20,
            p_in=0.4,
            p_out=0.1,
            d=d,
            cluster_sep=3.0,
            seed=seed * 1000 + i,
            domain_id=name,
        )
        for i, (name, d) in enumerate(SUITE_DIMS.items())
    )
    return GraphCollection(graphs=graphs, task_kind="node-level")


def suite_train_config(variant: str = "full", epochs: int = 200) -> TrainConfig:
    return TrainConfig(
        epochs=epochs,
        seed=66666,
        lr=5e-3,
        k=16,
        h=32,
        m=16,
        lam=1.0,
        h_e=32,
        z=16,
        beta_kl=1.0,
        mu_align=1.0,
        variant=variant,
        tau=0.5,
    )


def test_criterion_1_svd_matches_jacobi_oracle():
    started = time.monotonic()
    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(10, 41))
        d = int(rng.integers(9, 21))
        k = int(rng.integers(1, 9))
        x = rng.standard_normal((n, d))
        result = truncated_svd(x, k, seed=1234 + trial)
        err = np.linalg.norm(x - svd_product(result))
        oracle = best_rank_k_error(x, k)
        worst = max(worst, abs(err - oracle) / oracle)
    elapsed = time.monotonic() - started
    check(
        1,
        "svd-oracle-equivalence",
        worst < 1e-6 and elapsed < 10.0,
        f"worst relative gap {worst:.2e} over 50 matrices, {elapsed:.1f}s",
    )


def test_criterion_2_gradient_check_full_joint_loss():
    started = time.monotonic()
    graphs = tuple(
        generate_sbm(2, 4, 0.8, 0.2, d=d, cluster_sep=2.0, seed=50 + i, domain_id=name)
        for i, (name, d) in enumerate((("ga", 5), ("gb", 6)))
    )
    collection = GraphCollection(graphs=graphs, task_kind="node-level")
    config = TrainConfig(epochs=1, seed=66666, k=4, h=4, m=4, h_e=4, z=3)
    prepared = prepare_domains(collection, config)
    params = init_paramset(config)

    def loss_fn(ps):
        # the noise draw is fixed by (seed, epoch, domain, member)
        loss, _ = build_epoch_loss(prepared, ps, config, epoch=0)
        return loss

    worst = gradient_check(loss_fn, params, eps=1e-5)
    elapsed = time.monotonic() - started
    check(
        2,
        "gradient-correctness",
        worst < 1e-4 and elapsed < 30.0,
        f"max relative error {worst:.2e} over {sum(p.value.size for _, p in params.items())} "
        f"entries, {elapsed:.1f}s",
    )


def test_criterion_3_loss_component_identities():
    rng = np.random.default_rng(1)

    # lambda = 0: alignment loss equals its reconstruction term bit-exactly
    paramset = {}
    draw_dpu_params(paramset, rng, k=3, h=4, m=3)
    domains = [(rng.standard_normal((6, 5)), rng.standard_normal((5, 3)))]
    draw_lda_params(paramset, rng, m=3, h_e=4, z=3)
    _, components = alignment_loss(domains, paramset, lam=0.0)
    lam_ok = components["total"] == components["dpu_recon"]

    # beta_kl = 0: domain loss equals its reconstruction term bit-exactly
    adj = generate_sbm(2, 3, 0.9, 0.2, d=3, cluster_sep=1.0, seed=2).adjacency
    s = normalize_adjacency(adj)
    eps = np.random.default_rng(3).standard_normal((6, 3))
    loss, recon_l, _ = loss_total_domain(
        ad.constant(rng.standard_normal((6, 3))), s, paramset, beta_kl=0.0, eps=eps
    )
    beta_ok = loss.value[0, 0] == recon_l.value[0, 0]

    # KL at the prior is exactly zero; KL is nonnegative over random draws
    kl_zero = kl_to_prior(ad.constant(np.zeros((5, 3))), ad.constant(np.zeros((5, 3)))).value[0, 0]
    kl_zero_ok = kl_zero == 0.0
    min_kl = min(
        kl_to_prior(
            ad.constant(rng.standard_normal((1, 3)) * 3),
            ad.constant(rng.standard_normal((1, 3)) * 2),
        ).value[0, 0]
        for _ in range(1000)
    )
    nonneg_ok = min_kl >= 0.0

    check(
        3,
        "loss-component-identities",
        lam_ok and beta_ok and kl_zero_ok and nonneg_ok,
        f"lambda0 exact={lam_ok}, beta0 exact={beta_ok}, kl(0,0)={kl_zero}, "
        f"min kl over 1000 draws={min_kl:.3e}",
    )


def test_criterion_4_orthogonality_optimization_and_entropy():
    started = time.monotonic()
    rng = np.random.default_rng([66666, 101])
    paramset = {}
    draw_dpu_params(paramset, rng, k=8, h=16, m=8)
    basis = np.random.default_rng(66666).standard_normal((50, 8)) / np.sqrt(50.0)
    eye = np.eye(8)

    def max_offdiag(vhat):
        gram = vhat.T @ vhat
        return float(np.max(np.abs(gram - np.diag(np.diag(gram)))))

    entropy_before = gaussian_entropy(trans(basis, paramset, "full").value).value
    state = AdamWState.for_params(paramset, weight_decay=0.0)  # default lr
    for _ in range(2000):
        zero_grads(paramset)
        vhat = trans(basis, paramset, "full")
        gram = ad.matmul(vhat, vhat, transpose_a=True)
        ortho = ad.frobenius_sq(ad.sub(gram, ad.constant(eye)))
        ad.backward(ortho)
        adamw_step(paramset, state)
    final_vhat = trans(basis, paramset, "full").value
    offdiag = max_offdiag(final_vhat)
    entropy_after = gaussian_entropy(final_vhat).value
    elapsed = time.monotonic() - started
    check(
        4,
        "orthogonality-optimization",
        offdiag < 1e-2 and entropy_after > entropy_before and elapsed < 20.0,
        f"max off-diagonal {offdiag:.2e}, entropy {entropy_before:.3f} -> "
        f"{entropy_after:.3f}, {elapsed:.1f}s",
    )


def test_criterion_5_bitwise_determinism_via_cli(tmp_path):
    collection = ablation_suite(0)
    train_graphs = tuple(g for g in collection.graphs if g.domain_id != "domc")
    manifest_fwd = save_dataset(
        GraphCollection(graphs=train_graphs, task_kind="node-level"), tmp_path / "fwd"
    )
    manifest_rev = save_dataset(
        GraphCollection(graphs=tuple(reversed(train_graphs)), task_kind="node-level"),
        tmp_path / "rev",
    )
    config_doc = {
        "model": {"k": 8, "h": 16, "m": 8, "h_e": 16, "z": 8},
        "train": {"epochs": 20, "seed": 66666, "lr": 0.005},
    }
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(config_doc))

    def run(manifest, out):
        code = cli_main(
            [
                "pretrain", "--config", str(config_path), "--manifest", str(manifest),
                "--out", str(out),
                "--report", str(out) + ".json",
            ]
        )
        assert code == 0
        return out.read_bytes()

    first = run(manifest_fwd, tmp_path / "a.ckpt")
    second = run(manifest_fwd, tmp_path / "b.ckpt")
    permuted = run(manifest_rev, tmp_path / "c.ckpt")
    check(
        5,
        "bitwise-determinism",
        first == second and first == permuted,
        f"repeat identical={first == second}, domain-permutation identical={first == permuted}, "
        f"{len(first)} bytes",
    )


def test_criterion_6_ablation_ordering_on_synthetic_suite():
    started = time.monotonic()
    variants = ("full", "no-dpu", "no-lda", "dpu-cl")
    means = {v: [] for v in variants}
    for seed in range(10):
        collection = ablation_suite(seed)
        train = GraphCollection(
            graphs=tuple(g for g in collection.graphs if g.domain_id != "domc"),
            task_kind="node-level",
        )
        held_out = collection.by_domain("domc")[0]
        for variant in variants:
            ckpt = pretrain(train, suite_train_config(variant))
            report = fewshot_eval(embed(held_out, ckpt, t=0), k=1, repeats=500, seed=66666)
            means[variant].append(report.mean_accuracy)
    averages = {v: float(np.mean(means[v])) for v in variants}
    gaps = {v: averages["full"] - averages[v] for v in ("no-dpu", "no-lda", "dpu-cl")}
    elapsed = time.monotonic() - started
    check(
        6,
        "ablation-ordering",
        all(gap >= -1.0 for gap in gaps.values()) and elapsed < 600.0,
        "mean 1-shot accuracy "
        + " ".join(f"{v}={averages[v]:.2f}" for v in variants)
        + f"; full-minus-ablation gaps {gaps}; {elapsed:.0f}s",
    )


def test_criterion_7_chance_level_with_shuffled_labels():
    domain = generate_sbm(4, 25, 0.5, 0.1, d=12, cluster_sep=4.0, seed=11, domain_id="chance")
    train = GraphCollection(
        graphs=(generate_sbm(4, 15, 0.5, 0.1, d=10, cluster_sep=4.0, seed=12, domain_id="t1"),),
        task_kind="node-level",
    )
    ckpt = pretrain(train, TrainConfig(epochs=30, seed=66666, k=6, h=12, m=6, h_e=16, z=8))
    embeddings = embed(domain, ckpt, t=0)
    shuffled = EmbeddingSet(
        domain_id=embeddings.domain_id,
        E=embeddings.E,
        labels=np.random.default_rng(13).permutation(embeddings.labels),
    )
    report = fewshot_eval(shuffled, k=1, repeats=500, seed=66666)
    chance = 100.0 / 4
    check(
        7,
        "chance-level-sanity",
        abs(report.mean_accuracy - chance) <= 3.0,
        f"shuffled-label accuracy {report.mean_accuracy:.2f} vs chance {chance:.2f}",
    )


def test_criterion_8_mi_diagnostic_algebra():
    # uniform similarities: two constant embedding sets
    e_i = EmbeddingSet("a", np.tile([2.0, 1.0], (6, 1)))
    e_j = EmbeddingSet("b", np.tile([-1.0, 3.0], (7, 1)))
    record = mi_diagnostic(e_i, e_j, tau=0.5)
    uniform_gap = abs(record["mi_proxy"] - (-np.log(42.0)))

    rng = np.random.default_rng(14)
    scores = rng.standard_normal(200)
    shift_gap = abs(
        mi_from_scores(scores + 2.5)["mi_proxy"] - mi_from_scores(scores)["mi_proxy"]
    )
    check(
        8,
        "mi-diagnostic-algebra",
        uniform_gap < 1e-9 and shift_gap < 1e-9,
        f"uniform-case gap {uniform_gap:.2e}, shift-invariance gap {shift_gap:.2e}",
    )


@pytest.mark.skipif(
    not os.environ.get("LEDA_REAL_DATA"),
    reason="optional stretch criterion: set LEDA_REAL_DATA to a directory with "
    "converted cora/citeseer/photo manifests",
)
def test_criterion_9_real_citation_stretch():
    started = time.monotonic()
    from leda.datasets import load_dataset

    root = os.environ["LEDA_REAL_DATA"]
    train_graphs = []
    for name in ("citeseer", "photo"):
        train_graphs.extend(load_dataset(os.path.join(root, name, "manifest.json")).graphs)
    held_out = load_dataset(os.path.join(root, "cora", "manifest.json")).graphs[0]
    collection = GraphCollection(graphs=tuple(train_graphs), task_kind="node-level")
    ckpt = pretrain(collection, TrainConfig(epochs=200, seed=66666))
    report = linear_probe(embed(held_out, ckpt, t=0), train_frac=0.1, runs=20, seed=66666)
    elapsed = time.monotonic() - started
    check(
        9,
        "real-data-stretch",
        report.mean_accuracy > 70.0 and elapsed < 900.0,
        f"held-out linear-probe accuracy {report.mean_accuracy:.2f} +- {report.std:.2f}, "
        f"{elapsed:.0f}s",
    )


def test_entropy_diagnostic_rises_during_training():
    # companion to criterion 4: after pretraining with lambda > 0 on the fixed
    # suite, the refined-basis entropy is at least its initialization value
    collection = ablation_suite(0)
    train = GraphCollection(
        graphs=tuple(g for g in collection.graphs if g.domain_id != "domc"),
        task_kind="node-level",
    )
    config = suite_train_config("full", epochs=100)
    before = diagnostics_entropy(pretrain(train, TrainConfig(**{**config.to_dict(), "epochs": 0})), "doma")
    after = diagnostics_entropy(pretrain(train, config), "doma")
    assert after.value > before.value
