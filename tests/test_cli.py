import argparse
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import warnings
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

import leda
from leda import datasets, evaluate, linalg
from leda.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from leda.cli import build_parser, main
from leda.config import VARIANTS, run_config_from_dict
from leda.datasets import (
    DEGREE_FEATURE_DIM,
    GraphCollection,
    _read_features,
    generate_sbm,
    load_dataset,
    save_dataset,
    write_float_tsv,
)

from oracles import join_checkpoint, split_checkpoint
from refusals import argv_of, document_argv, document_cases, refusal_cases
from synthetic import bow_collection, labelled, node_collection, overflow_probe_set

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture(scope="module", autouse=True)
def restore_blas_env():
    """pretrain and ablate pin the BLAS variables of this process, fixtures'
    runs included; put them back so later subprocess tests get the
    environment they were started with."""
    saved = {var: os.environ.get(var) for var in BLAS_VARS}
    yield
    for var, value in saved.items():
        if value is None:
            os.environ.pop(var, None)
        else:
            os.environ[var] = value


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    """Three-domain dataset on disk plus a small run config."""
    root = tmp_path_factory.mktemp("suite")
    graphs = list(node_collection(seed=1, dims=(9, 12)).graphs)
    graphs.append(
        generate_sbm(3, 6, 0.6, 0.1, d=15, cluster_sep=4.0, seed=321, domain_id="domc")
    )
    manifest = save_dataset(
        GraphCollection(graphs=tuple(graphs), task_kind="node-level"), root / "data"
    )
    config = {
        "data": str(manifest),
        "model": {"k": 4, "h": 8, "m": 4, "h_e": 8, "z": 4},
        "train": {"epochs": 10, "seed": 66666, "lr": 0.005},
        "eval": {"k_shot": 1, "repeats": 30, "test_domains": ["domc"]},
    }
    config_path = root / "run.json"
    config_path.write_text(json.dumps(config))
    return {"root": root, "manifest": manifest, "config": config_path, "doc": config}


def read_without_timestamp(path):
    doc = json.loads(path.read_text())
    doc.pop("timestamp")
    return doc


def overflowing_manifest(out):
    """gen-sbm data whose features are finite but whose SVD sketch is not."""
    code = main(
        [
            "gen-sbm", "--blocks", "2", "--nodes", "4", "--pin", "0.5", "--pout", "0.1",
            "--seed", "0", "--sep", "1e200", "--domain-id", "hot", "--out", str(out),
        ]
    )
    assert code == 0
    return out / "manifest.json"


class TestGenSbm:
    def test_generates_loadable_dataset(self, tmp_path, capsys):
        out = tmp_path / "sbm"
        code = main(
            [
                "gen-sbm", "--blocks", "2", "--nodes", "4", "--pin", "0.9",
                "--pout", "0.1", "--seed", "7", "--out", str(out), "--d", "6",
            ]
        )
        assert code == 0
        manifest_path = capsys.readouterr().out.strip()
        collection = load_dataset(manifest_path)
        assert collection.graphs[0].num_nodes == 8

    def test_a_second_run_into_the_same_directory_leaves_none_of_the_firsts_files(self, tmp_path, capsys):
        out = tmp_path / "sbm"
        for domain in ("a", "b"):
            assert main(["gen-sbm", "--blocks", "2", "--nodes", "4", "--pin", "0.9", "--pout", "0.1",
                         "--seed", "7", "--d", "6", "--domain-id", domain, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "g000-b.edges.tsv", "g000-b.features.tsv", "g000-b.labels.tsv", "manifest.json"]
        assert load_dataset(out / "manifest.json").domain_ids() == ["b"]

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        code = main(
            [
                "gen-sbm", "--blocks", "2", "--nodes", "4", "--pin", "0.5", "--pout", "0.1",
                "--seed", "-1", "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == "config error: seed must be an integer >= 0, got -1\n"
        assert not (tmp_path / "x").exists()

    def test_invalid_probabilities_exit_2(self, tmp_path):
        code = main(
            [
                "gen-sbm", "--blocks", "2", "--nodes", "4", "--pin", "0.1",
                "--pout", "0.9", "--seed", "7", "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 2

    def test_domain_id_that_is_no_file_name_exits_3(self, tmp_path, capsys):
        code = main(
            [
                "gen-sbm", "--blocks", "2", "--nodes", "4", "--pin", "0.9", "--pout", "0.1",
                "--seed", "7", "--out", str(tmp_path / "x"), "--domain-id", "a/b",
            ]
        )
        assert code == 3
        assert capsys.readouterr().err.startswith("data error: ")

    @pytest.mark.parametrize("sep", ["nan", "inf", "-inf"])
    def test_non_finite_separation_exits_2(self, tmp_path, capsys, sep):
        code = main(
            [
                "gen-sbm", "--blocks", "2", "--nodes", "4", "--pin", "0.9", "--pout", "0.1",
                "--seed", "7", "--d", "6", f"--sep={sep}", "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: cluster_sep must be finite")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("blocks, nodes, d", [(65536, 65536, 65536), (2, 4, 10 ** 18), (2, 3, 4)])
    def test_a_graph_too_large_to_draw_exits_2_in_one_line(self, tmp_path, capsys, monkeypatch, blocks, nodes, d):
        """The first two are refused before any allocation; the third, small,
        runs out of memory in a draw patched to say so."""
        class Rng:
            def random(self, shape):
                raise MemoryError(f"Unable to allocate an array with shape {shape}")

        monkeypatch.setattr(np.random, "default_rng", lambda seed: Rng())
        argv = ["gen-sbm", "--blocks", str(blocks), "--nodes", str(nodes), "--pin", "0.9", "--pout", "0.1",
                "--seed", "7", "--d", str(d), "--out", str(tmp_path / "x")]
        refused(capsys, argv, 2, f"config error: no memory for a block-model graph of "
                                 f"n={blocks * nodes} nodes and d={d} features\n")
        assert not (tmp_path / "x").exists()


class TestPretrain:
    @pytest.mark.parametrize("out, report", [("m.ckpt", "./m.ckpt"), ("m.ckpt", "m.ckpt"),
                                             ("sub/../m.ckpt", "{root}/m.ckpt")])
    def test_out_and_report_at_one_path_exit_2_before_the_manifest_is_read(
            self, suite, tmp_path, capsys, monkeypatch, out, report):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        monkeypatch.setattr("leda.trainer.pretrain", None)  # nothing may be trained
        report = report.format(root=tmp_path)
        # an absent manifest: reading it would exit 3
        argv = ["pretrain", "--config", str(suite["config"]), "--manifest", str(tmp_path / "absent.json"),
                "--out", out, "--report", report]
        refused(capsys, argv, 2, f"config error: --out and --report name one file: {report}\n")
        assert [path.name for path in tmp_path.iterdir()] == ["sub"] and not any((tmp_path / "sub").iterdir())

    @pytest.mark.parametrize("command", ["pretrain", "ablate"])
    def test_model_dims_whose_parameters_exceed_memory_exit_2_before_the_manifest_is_read(
            self, tmp_path, capsys, monkeypatch, command):
        """At h = 10^11 the parameters, their gradients and AdamW moments need
        28.8 TB of float64, weighed against the machine's memory (patched down
        to 1,000 pages) before any parameter is made: one line, nothing
        written, and the absent manifest never read."""
        sysconf = os.sysconf
        monkeypatch.setattr(os, "sysconf", lambda name: 1000 if name == "SC_PHYS_PAGES" else sysconf(name))
        monkeypatch.setattr("leda.trainer.pretrain", None)  # nothing may be trained
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"model": {"k": 4, "h": 10 ** 11, "m": 4, "h_e": 8, "z": 4}}))
        argv = [command, "--config", str(config), "--manifest", str(tmp_path / "absent.json"),
                "--out", str(tmp_path / "out.json")]
        if command == "pretrain":
            argv += ["--report", str(tmp_path / "report.json")]
        refused(capsys, argv, 2, "config error: no memory for the parameters of model dims "
                                 "k=4, h=100000000000, m=4, h_e=8, z=4\n")
        assert [path.name for path in tmp_path.iterdir()] == ["run.json"]

    @pytest.mark.parametrize("exc, detail", [
        (MemoryError("Unable to allocate 7.45 GiB for an array with shape (1000000000,)"),
         ": Unable to allocate 7.45 GiB for an array with shape (1000000000,)"),
        (MemoryError(), ""),
    ], ids=["numpy", "bare"])
    def test_memory_that_runs_out_exits_3_in_one_line(self, suite, tmp_path, capsys, monkeypatch, exc, detail):
        """The last resort, when no guard weighed the need first: a
        MemoryError from training, patched in, with nothing written."""
        def pretrain(collection, config):
            raise exc

        monkeypatch.setattr("leda.trainer.pretrain", pretrain)
        argv = ["pretrain", "--config", str(suite["config"]), "--out", str(tmp_path / "m.ckpt"),
                "--report", str(tmp_path / "r.json")]
        assert main(argv) == 3
        assert capsys.readouterr().err == f"data error: pretrain ran out of memory{detail}\n"
        assert not any(tmp_path.iterdir())

    def test_missing_manifest_exits_3_and_names_path(self, suite, tmp_path, capsys):
        code = main(
            [
                "pretrain", "--config", str(suite["config"]),
                "--manifest", str(tmp_path / "absent.json"),
                "--out", str(tmp_path / "m.ckpt"),
            ]
        )
        assert code == 3
        assert "absent.json" in capsys.readouterr().err

    def test_bad_adamw_key_exits_2_before_the_manifest_is_read(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"train": {"lr": -1}}))
        code = main(
            [
                "pretrain", "--config", str(config), "--manifest", str(tmp_path / "absent.json"),
                "--out", str(tmp_path / "m.ckpt"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == "config error: lr must be finite and >= 0, got -1\n"
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("flag", ["--out", "--report"])
    def test_output_in_missing_directory_exits_3(self, suite, tmp_path, capsys, flag):
        outputs = {"--out": str(tmp_path / "m.ckpt"), "--report": str(tmp_path / "r.json")}
        outputs[flag] = str(tmp_path / "missing" / "file")
        args = ["pretrain", "--config", str(suite["config"]), "--epochs", "1"]
        assert main(args + [arg for pair in outputs.items() for arg in pair]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "missing" in err

    @pytest.mark.parametrize("flag", ["--out", "--report"])
    def test_missing_output_directory_is_refused_before_training(
        self, suite, tmp_path, capsys, monkeypatch, flag
    ):
        import leda.trainer

        calls = []
        monkeypatch.setattr(leda.trainer, "pretrain", lambda *args: calls.append(args))
        outputs = {"--out": tmp_path / "m.ckpt", "--report": tmp_path / "r.json"}
        outputs[flag] = tmp_path / "missing" / "file"
        args = ["pretrain", "--config", str(suite["config"]), "--epochs", "1"]
        assert main(args + [str(arg) for pair in outputs.items() for arg in pair]) == 3
        assert str(outputs[flag]) in capsys.readouterr().err
        assert not outputs["--out"].exists()
        assert calls == []

    def test_an_output_that_is_a_directory_is_refused_before_training(
        self, suite, tmp_path, capsys, monkeypatch
    ):
        import leda.trainer

        calls = []
        monkeypatch.setattr(leda.trainer, "pretrain", lambda *args: calls.append(args))
        out = tmp_path / "model.ckpt"
        out.mkdir()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["pretrain", "--config", str(suite["config"]), "--epochs", "1",
                         "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == f"data error: cannot write {out}: it is a directory\n"
        assert calls == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]

    def test_zero_node_domain_exits_3_naming_domain_and_position(self, suite, tmp_path, capsys):
        """A node-level entry with no nodes is a data defect, refused at load
        as a graph-level one is, not a k error from training."""
        data = tmp_path / "data"
        data.mkdir()
        (data / "full.tsv").write_text("0\t1\n1\t2\n2\t3\n3\t4\n")
        (data / "empty.tsv").write_text("")
        entries = [{"domain_id": "full", "edges_path": "full.tsv", "num_nodes": 5},
                   {"domain_id": "empty", "edges_path": "empty.tsv", "num_nodes": 0}]
        manifest = data / "manifest.json"
        manifest.write_text(json.dumps({"version": 1, "domains": entries}))
        args = ["pretrain", "--config", str(suite["config"]), "--manifest", str(manifest),
                "--out", str(tmp_path / "m.ckpt")]
        assert main(args) == 3
        assert capsys.readouterr().err == "data error: domain 'empty': node-level entry #1 has no nodes\n"
        assert not (tmp_path / "m.ckpt").exists()

    def test_an_empty_features_file_exits_3_naming_it(self, suite, tmp_path, capsys):
        # refused before it is mapped: mmap cannot map an empty file
        data = tmp_path / "data"
        data.mkdir()
        (data / "e.tsv").write_text("0\t1\n")
        (data / "x.tsv").write_bytes(b"")
        entries = [{"domain_id": "bare", "edges_path": "e.tsv", "features_path": "x.tsv"}]
        manifest = data / "manifest.json"
        manifest.write_text(json.dumps({"version": 1, "domains": entries}))
        args = ["pretrain", "--config", str(suite["config"]), "--manifest", str(manifest),
                "--out", str(tmp_path / "m.ckpt")]
        assert main(args) == 3
        assert capsys.readouterr().err == f"data error: {data / 'x.tsv'}: empty features file\n"
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("token", ["nan", "-inf"])
    def test_non_finite_sparse_features_exit_3(self, suite, tmp_path, capsys, token):
        manifest = save_dataset(bow_collection(seed=2), tmp_path / "bow")
        path = next((tmp_path / "bow").glob("*doma.features.tsv"))
        rows = path.read_text().splitlines()
        rows[3] = "\t".join([token] + rows[3].split("\t")[1:])
        path.write_text("\n".join(rows) + "\n")
        code = main(
            ["pretrain", "--config", str(suite["config"]), "--manifest", str(manifest),
             "--out", str(tmp_path / "m.ckpt")]
        )
        assert code == 3
        assert "non-finite feature" in capsys.readouterr().err

    def test_a_label_short_of_csr_features_exits_3(self, suite, tmp_path, capsys):
        manifest = save_dataset(bow_collection(seed=2), tmp_path / "bow")
        features = next((tmp_path / "bow").glob("*doma.features.tsv"))
        assert isinstance(_read_features(features), linalg.CsrMatrix)
        path = next((tmp_path / "bow").glob("*doma.labels.tsv"))
        labels = path.read_text().splitlines()
        path.write_text("\n".join(labels[:-1]) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["pretrain", "--config", str(suite["config"]), "--manifest", str(manifest),
                         "--out", str(tmp_path / "m.ckpt")])
        assert code == 3
        n = len(labels)
        assert capsys.readouterr().err == f"data error: domain 'doma': {n - 1} labels for {n} nodes\n"
        assert not (tmp_path / "m.ckpt").exists()

    def test_label_outside_int64_exits_3(self, suite, tmp_path, capsys):
        manifest = save_dataset(bow_collection(seed=2), tmp_path / "bow")
        path = next((tmp_path / "bow").glob("*doma.labels.tsv"))
        labels = path.read_text().splitlines()
        labels[3] = "9" * 20
        path.write_text("\n".join(labels) + "\n")
        code = main(
            ["pretrain", "--config", str(suite["config"]), "--manifest", str(manifest),
             "--out", str(tmp_path / "m.ckpt")]
        )
        assert code == 3
        assert capsys.readouterr().err == f"data error: {path}: label outside the 64-bit integer range\n"
        assert not (tmp_path / "m.ckpt").exists()

    def test_unknown_config_key_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"train": {"bogus": 1}}))
        code = main(["pretrain", "--config", str(bad), "--out", str(tmp_path / "m.ckpt")])
        assert code == 2

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("k", 0, "k must be an integer >= 1, got 0"),
            ("h", -1, "h must be an integer >= 1, got -1"),
            ("m", 0, "m must be an integer >= 1, got 0"),
            ("h_e", 0, "h_e must be an integer >= 1, got 0"),
            ("z", -2, "z must be an integer >= 1, got -2"),
        ],
    )
    def test_nonpositive_dim_exits_2(self, suite, tmp_path, capsys, key, value, message):
        doc = dict(suite["doc"], model={**suite["doc"]["model"], key: value})
        config = tmp_path / "run.json"
        config.write_text(json.dumps(doc))
        assert main(["pretrain", "--config", str(config), "--out", str(tmp_path / "m.ckpt")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_two_runs_bit_identical_checkpoints(self, suite, tmp_path, capsys):
        args = [
            "pretrain", "--config", str(suite["config"]), "--seed", "66666", "--epochs", "8",
        ]
        assert main(args + ["--out", str(tmp_path / "a.ckpt")]) == 0
        assert main(args + ["--out", str(tmp_path / "b.ckpt")]) == 0
        capsys.readouterr()
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "utf16.json"
        bad.write_bytes(b"\xff\xfe{\x00}\x00")
        code = main(["pretrain", "--config", str(bad), "--out", str(tmp_path / "m.ckpt")])
        assert code == 2
        assert "not UTF-8" in capsys.readouterr().err

    def test_non_utf8_manifest_exits_3(self, suite, tmp_path, capsys):
        bad = tmp_path / "manifest.json"
        bad.write_bytes(b"\xff\xfe{\x00}\x00")
        code = main(
            [
                "pretrain", "--config", str(suite["config"]), "--manifest", str(bad),
                "--out", str(tmp_path / "m.ckpt"),
            ]
        )
        assert code == 3
        assert "not UTF-8" in capsys.readouterr().err

    def test_features_whose_svd_sketch_overflows_exit_4_without_a_checkpoint(
            self, suite, tmp_path, capsys):
        manifest = overflowing_manifest(tmp_path / "hot")
        capsys.readouterr()
        out = tmp_path / "m.ckpt"
        with warnings.catch_warnings():  # no raw RuntimeWarning before the named failure
            warnings.simplefilter("error")
            code = main(["pretrain", "--config", str(suite["config"]), "--manifest", str(manifest),
                         "--out", str(out)])
        assert code == 4
        assert capsys.readouterr().err.startswith(
            "numeric failure: domain 'hot': svd sketch overflowed")
        assert not out.exists()

    def test_numeric_blowup_exits_4(self, suite, tmp_path, capsys):
        bad = tmp_path / "hot.json"
        doc = dict(suite["doc"])
        doc["train"] = dict(doc["train"], lr=1e15, epochs=6)
        bad.write_text(json.dumps(doc))
        with warnings.catch_warnings():  # no raw RuntimeWarning before the named failure
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["pretrain", "--config", str(bad), "--out", str(tmp_path / "m.ckpt")])
        assert code == 4
        assert "epoch" in capsys.readouterr().err


@pytest.fixture(scope="module")
def ckpt_path(suite, tmp_path_factory, request):
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    code = main(
        [
            "pretrain", "--config", str(suite["config"]), "--epochs", "10",
            "--out", str(path), "--report", str(path.with_suffix(".json")),
        ]
    )
    assert code == 0
    return path


class TestEmbedAndEval:
    def test_embed_writes_tsv(self, suite, ckpt_path, tmp_path):
        out = tmp_path / "emb.tsv"
        code = main(
            [
                "embed", "--ckpt", str(ckpt_path), "--manifest", str(suite["manifest"]),
                "--domain", "domc", "--t", "1", "--out", str(out),
            ]
        )
        assert code == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 18
        assert rows[0].split("\t")[0] == "0"

    def test_eval_fewshot_deterministic_reports(self, suite, ckpt_path, tmp_path):
        args = [
            "eval-fewshot", "--ckpt", str(ckpt_path), "--manifest", str(suite["manifest"]),
            "--domain", "domc", "--k", "1", "--repeats", "25", "--seed", "66666",
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert read_without_timestamp(a) == read_without_timestamp(b)
        doc = json.loads(a.read_text())
        assert doc["task"] == "fewshot"
        assert doc["repeats"] == 25
        assert doc["seed"] == 66666
        assert "timestamp" in doc
        assert doc["config"]["checkpoint_config"]["seed"] == 66666

    def test_eval_linear_report_fields(self, suite, ckpt_path, tmp_path):
        out = tmp_path / "lin.json"
        code = main(
            [
                "eval-linear", "--ckpt", str(ckpt_path), "--manifest", str(suite["manifest"]),
                "--domain", "domc", "--runs", "3", "--out", str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["task"] == "linear-probe"
        assert 0.0 <= doc["mean_accuracy"] <= 100.0
        assert doc["std"] >= 0.0

    def test_eval_linear_non_finite_fit_exits_4(self, suite, ckpt_path, tmp_path, capsys,
                                                monkeypatch):
        grads = evaluate._probe_grads
        calls = []

        def nan_at_first_step(x, theta, grad, *scratch):
            grads(x, theta, grad, *scratch)
            calls.append(None)
            if len(calls) == 1:
                grad[:-1] *= np.nan  # the W rows of the gradient block

        monkeypatch.setattr(evaluate, "_probe_grads", nan_at_first_step)
        out = tmp_path / "lin.json"
        code = main(
            [
                "eval-linear", "--ckpt", str(ckpt_path), "--manifest", str(suite["manifest"]),
                "--domain", "domc", "--runs", "2", "--out", str(out),
            ]
        )
        assert code == 4
        assert capsys.readouterr().err.startswith("numeric failure: linear probe")
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_eval_linear_second_moment_overflow_exits_4(self, suite, ckpt_path, tmp_path, capsys,
                                                        monkeypatch):
        monkeypatch.setattr(evaluate, "_embed", lambda *args: overflow_probe_set(1e160))
        out = tmp_path / "lin.json"
        code = main(
            [
                "eval-linear", "--ckpt", str(ckpt_path), "--manifest", str(suite["manifest"]),
                "--domain", "domc", "--runs", "2", "--out", str(out),
            ]
        )
        assert code == 4
        assert capsys.readouterr().err.startswith("numeric failure: linear probe: AdamW second moment")
        assert not out.exists()

    def test_eval_linear_non_finite_fit_in_a_forked_share_exits_4(self, suite, ckpt_path, tmp_path,
                                                                   capsys, monkeypatch):
        # the runs split into two shares; only the forked child's fits go non-finite
        monkeypatch.setattr(linalg, "_cpus", lambda: 2)
        monkeypatch.setattr(linalg, "REPEAT_MIN_WORK", 1)
        grads, parent = evaluate._probe_grads, os.getpid()

        def nan_in_the_child(x, theta, grad, *scratch):
            grads(x, theta, grad, *scratch)
            if os.getpid() != parent:
                grad[:-1] *= np.nan  # the W rows of the gradient block

        monkeypatch.setattr(evaluate, "_probe_grads", nan_in_the_child)
        out = tmp_path / "lin.json"
        code = main(
            [
                "eval-linear", "--ckpt", str(ckpt_path), "--manifest", str(suite["manifest"]),
                "--domain", "domc", "--runs", "4", "--out", str(out),
            ]
        )
        assert code == 4
        assert capsys.readouterr().err == "numeric failure: linear probe: fitted weights are non-finite\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["embed", "--domain", "domc"],
            ["eval-linear", "--domain", "domc"],
            ["eval-fewshot", "--domain", "domc"],
            ["eval-graph"],
            ["mi-diag", "--domains", "doma,domb"],
        ],
        ids=["embed", "eval-linear", "eval-fewshot", "eval-graph", "mi-diag"],
    )
    def test_missing_output_directory_is_refused_before_any_work(
        self, suite, ckpt_path, tmp_path, capsys, monkeypatch, args
    ):
        calls = []
        monkeypatch.setattr(evaluate, "_embed", lambda *a, **k: calls.append("embed"))
        monkeypatch.setattr(evaluate, "graph_eval", lambda *a, **k: calls.append("graph_eval"))
        out = tmp_path / "missing" / "x.json"
        code = main(args + ["--ckpt", str(ckpt_path), "--manifest", str(suite["manifest"]),
                            "--out", str(out)])
        assert code == 3
        assert str(out) in capsys.readouterr().err
        assert calls == []

    def test_an_output_that_is_a_directory_is_refused_before_the_checkpoint_is_read(
        self, suite, ckpt_path, tmp_path, capsys, monkeypatch
    ):
        import leda.checkpoint

        calls = []
        monkeypatch.setattr(leda.checkpoint, "load_checkpoint", lambda *a: calls.append(a))
        out = tmp_path / "rows.tsv"
        out.mkdir()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["embed", "--domain", "domc", "--ckpt", str(ckpt_path),
                         "--manifest", str(suite["manifest"]), "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == f"data error: cannot write {out}: it is a directory\n"
        assert calls == []

    def test_embed_of_an_unseen_domain_whose_svd_sketch_overflows_exits_4(
            self, ckpt_path, tmp_path, capsys):
        manifest = overflowing_manifest(tmp_path / "hot")
        capsys.readouterr()
        out = tmp_path / "hot.tsv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["embed", "--ckpt", str(ckpt_path), "--manifest", str(manifest),
                         "--domain", "hot", "--out", str(out)])
        assert code == 4
        assert capsys.readouterr().err.startswith(
            "numeric failure: domain 'hot': svd sketch overflowed")
        assert not out.exists()

    def test_eval_fewshot_unknown_domain_exits_3(self, suite, ckpt_path):
        code = main(
            [
                "eval-fewshot", "--ckpt", str(ckpt_path), "--manifest", str(suite["manifest"]),
                "--domain", "nope",
            ]
        )
        assert code == 3

    def test_multi_graph_domain_exits_3(self, ckpt_path, tmp_path, capsys):
        graphs = tuple(
            generate_sbm(2, 4, 0.8, 0.2, d=6, cluster_sep=2.0, seed=60 + i, domain_id="many")
            for i in range(2)
        )
        collection = labelled(graphs, (0, 1))
        manifest = save_dataset(collection, tmp_path / "graphs")
        code = main(
            [
                "embed", "--ckpt", str(ckpt_path), "--manifest", str(manifest),
                "--domain", "many", "--out", str(tmp_path / "emb.tsv"),
            ]
        )
        assert code == 3
        assert "domain 'many' has 2 graphs" in capsys.readouterr().err

    def test_eval_graph_derives_one_basis_per_unseen_domain(self, ckpt_path, tmp_path, monkeypatch):
        """No 2-node graph holds a rank-4 basis; the domain's 16 stacked
        feature rows do, and training derives its bases the same way."""
        graphs = tuple(
            generate_sbm(1, 2, 1.0, 0.0, d=6, cluster_sep=1.0, seed=70 + i, domain_id="pairs")
            for i in range(8)
        )
        labels = (0, 1) * 4
        collection = labelled(graphs, labels)
        manifest = save_dataset(collection, tmp_path / "pairs")
        shapes = []
        init_basis = evaluate.init_basis

        def counted(x, *args, **kwargs):
            shapes.append(x.shape)
            return init_basis(x, *args, **kwargs)

        monkeypatch.setattr(evaluate, "init_basis", counted)
        out = tmp_path / "graph.json"
        code = main(
            [
                "eval-graph", "--ckpt", str(ckpt_path), "--manifest", str(manifest),
                "--repeats", "5", "--out", str(out),
            ]
        )
        assert code == 0
        assert shapes == [(16, 6)]
        assert json.loads(out.read_text())["task"] == "graph-fewshot"

    def test_mi_diag_record(self, suite, ckpt_path, tmp_path):
        out = tmp_path / "mi.json"
        code = main(
            [
                "mi-diag", "--ckpt", str(ckpt_path), "--manifest", str(suite["manifest"]),
                "--domains", "doma,domb", "--tau", "0.5", "--out", str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert {"expected_s", "log_Z", "mi_proxy", "note"} <= set(doc)
        assert doc["domains"] == ["doma", "domb"]

    def test_mi_diag_overflowing_scores_exit_4(self, suite, ckpt_path, tmp_path, capsys):
        # tau = 1e-310 passes the argument rules, but s / tau overflows; the
        # record would hold Infinity and NaN, which are not JSON
        out = tmp_path / "mi.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(
                [
                    "mi-diag", "--ckpt", str(ckpt_path), "--manifest", str(suite["manifest"]),
                    "--domains", "doma,domb", "--tau", "1e-310", "--out", str(out),
                ]
            )
        assert code == 4
        assert "numeric failure: similarity diagnostic is non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_mi_diag_bad_tau_exits_2(self, suite, ckpt_path):
        code = main(
            [
                "mi-diag", "--ckpt", str(ckpt_path), "--manifest", str(suite["manifest"]),
                "--domains", "doma,domb", "--tau", "0",
            ]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["eval-fewshot", "--domain", "domc", "--k", "0"],
            ["eval-fewshot", "--domain", "domc", "--k", "-1"],
            ["eval-linear", "--domain", "domc", "--runs", "0"],
            ["eval-linear", "--domain", "domc", "--train-frac", "0"],
            ["mi-diag", "--domains", "doma,domb", "--tau", "nan"],
            ["eval-fewshot", "--domain", "domc", "--seed", "-3"],
            ["eval-linear", "--domain", "domc", "--seed", "-3"],
            ["eval-graph", "--seed", "-1"],
            ["mi-diag", "--domains", "doma,domb", "--seed", "-1"],
        ],
        ids=["fewshot-k0", "fewshot-k-1", "linear-runs0", "linear-train-frac0", "mi-tau-nan",
             "fewshot-seed-3", "linear-seed-3", "graph-seed-1", "mi-seed-1"],
    )
    def test_bad_protocol_arguments_exit_2(self, suite, ckpt_path, tmp_path, capsys, args):
        out = tmp_path / "report.json"
        code = main(args + ["--ckpt", str(ckpt_path), "--manifest", str(suite["manifest"]),
                            "--out", str(out)])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()


class TestAblate:
    def test_emits_per_domain_results(self, suite, tmp_path):
        out = tmp_path / "ablate.json"
        code = main(
            [
                "ablate", "--config", str(suite["config"]), "--variant", "no-lda",
                "--epochs", "6", "--out", str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["variant"] == "no-lda"
        assert "domc" in doc["results"]
        assert 0.0 <= doc["results"]["domc"]["mean_accuracy"] <= 100.0
        assert doc["config"]["eval"]["test_domains"] == ["domc"]

    @pytest.mark.parametrize(
        "key, value", [("test_domains", "domc"), ("t_propagate", True), ("seed", "x")]
    )
    def test_malformed_eval_value_exits_2(self, suite, tmp_path, capsys, key, value):
        doc = dict(suite["doc"])
        doc["eval"] = dict(doc["eval"], **{key: value})
        cfg = tmp_path / "bad_eval.json"
        cfg.write_text(json.dumps(doc))
        assert main(["ablate", "--config", str(cfg), "--epochs", "1"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and key in err

    def test_without_test_domains_exits_2(self, suite, tmp_path):
        doc = dict(suite["doc"])
        doc["eval"] = {"k_shot": 1, "repeats": 5}
        cfg = tmp_path / "no_test.json"
        cfg.write_text(json.dumps(doc))
        assert main(["ablate", "--config", str(cfg), "--variant", "full"]) == 2


class TestTrainFlags:
    """Each training flag of pretrain and ablate reaches the run, and only
    the flags given change the config's values."""

    @pytest.mark.parametrize(
        "command, flag, section, key, value",
        [
            pytest.param(command, flag, "train", key, value, id=f"{name}-{command}")
            for name, flag, key, value in [
                ("seed", ["--seed", "7"], "seed", 7),
                ("variant", ["--variant", "no-lda"], "variant", "no-lda"),
                ("two-phase", ["--two-phase"], "two_phase", True),
                ("epochs", ["--epochs", "3"], "epochs", 3),
            ]
            for command in ("pretrain", "ablate")
        ]
        + [pytest.param("ablate", ["--test-domain", "domb"], "eval", "test_domains", ["domb"],
                        id="test-domain-ablate")],
    )
    def test_flag_reaches_echoed_config(
        self, suite, tmp_path, monkeypatch, command, flag, section, key, value
    ):
        for var in TestThreadLimit.VARS:
            monkeypatch.setenv(var, "1")  # undone after the test
        epochs = [] if key == "epochs" else ["--epochs", "2"]
        report = tmp_path / "report.json"
        args = [command, "--config", str(suite["config"])] + epochs + flag
        if command == "pretrain":
            args += ["--out", str(tmp_path / "m.ckpt"), "--report", str(report)]
        else:
            args += ["--out", str(report)]
        assert main(args) == 0
        doc = json.loads(report.read_text())
        given = json.loads(json.dumps(suite["doc"]))
        given["train"]["epochs"] = 2
        given[section][key] = value
        expected = run_config_from_dict(given).to_dict()
        assert doc["config"]["train"] == expected["train"]
        assert doc["config"]["eval"] == expected["eval"]
        assert doc["seed"] == expected["train"]["seed"]
        if command == "pretrain":
            assert doc["epochs"] == expected["train"]["epochs"] + (100 if key == "two_phase" else 0)
        else:
            assert doc["variant"] == expected["train"]["variant"]
            assert list(doc["results"]) == expected["eval"]["test_domains"]

    @pytest.mark.parametrize("command", ["pretrain", "ablate"])
    def test_echoed_config_reruns_the_run(self, suite, tmp_path, monkeypatch, command):
        """A report's config, given back as --config with no flags, repeats
        the flagged run: the same checkpoint bytes, or the same results."""
        for var in TestThreadLimit.VARS:
            monkeypatch.setenv(var, "1")  # undone after the test
        flags = ["--variant", "dpu-cl", "--epochs", "3"]
        if command == "ablate":
            flags += ["--test-domain", "domb"]
        outputs = []
        for run, config in enumerate([suite["config"], tmp_path / "echoed.json"]):
            report, ckpt = tmp_path / f"report-{run}.json", tmp_path / f"m-{run}.ckpt"
            args = [command, "--config", str(config)] + (flags if run == 0 else [])
            if command == "pretrain":
                args += ["--out", str(ckpt), "--report", str(report)]
            else:
                args += ["--out", str(report)]
            assert main(args) == 0
            doc = json.loads(report.read_text())
            (tmp_path / "echoed.json").write_text(json.dumps(doc["config"]))
            outputs.append(ckpt.read_bytes() if command == "pretrain" else doc["results"])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command", ["pretrain", "ablate"])
    def test_negative_seed_exits_2(self, suite, tmp_path, capsys, command):
        config = tmp_path / "negative-seed.json"
        config.write_text(json.dumps({**suite["doc"], "train": {"seed": -4}}))
        out = tmp_path / "out"
        for args in (["--config", str(suite["config"]), "--seed", "-1"], ["--config", str(config)]):
            assert main([command, *args, "--out", str(out)]) == 2
            assert "config error: seed must be an integer >= 0, got -" in capsys.readouterr().err
            assert not out.exists()

    def test_two_phase_with_no_dpu_exits_2(self, suite, tmp_path, capsys):
        args = ["pretrain", "--config", str(suite["config"]), "--variant", "no-dpu", "--two-phase",
                "--epochs", "1", "--out", str(tmp_path / "m.ckpt")]
        assert main(args) == 2
        assert "two_phase" in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("command", ["pretrain", "ablate"])
    def test_manifest_flag_is_the_echoed_data(self, suite, tmp_path, command):
        """The report names the data the run was trained on."""
        manifest = Path(suite["manifest"])
        moved = shutil.copytree(manifest.parent, tmp_path / "moved") / manifest.name
        report = tmp_path / "report.json"
        args = [command, "--config", str(suite["config"]), "--epochs", "2", "--manifest", str(moved)]
        if command == "pretrain":
            args += ["--out", str(tmp_path / "m.ckpt"), "--report", str(report)]
        else:
            args += ["--out", str(report)]
        assert main(args) == 0
        assert json.loads(report.read_text())["config"]["data"] == str(moved)


def graph_level_manifest(root: Path, graphs) -> Path:
    """A degree-featurized graph-level manifest: each (domain id, node count,
    graph label) is a path graph, in order."""
    root.mkdir()
    entries = []
    for pos, (domain_id, n, label) in enumerate(graphs):
        (root / f"g{pos}.tsv").write_text("".join(f"{i}\t{i + 1}\n" for i in range(n - 1)))
        entries.append({"domain_id": domain_id, "edges_path": f"g{pos}.tsv", "num_nodes": n,
                        "graph_label": label})
    path = root / "manifest.json"
    path.write_text(json.dumps({"version": 1, "task_kind": "graph-level", "domains": entries}))
    return path


class TestGraphLevel:
    @pytest.mark.parametrize("command", ["pretrain", "eval-graph"])
    def test_zero_node_graph_exits_3_naming_domain_and_position(
        self, suite, ckpt_path, tmp_path, capsys, command
    ):
        manifest = graph_level_manifest(
            tmp_path / "data", [("ga", 5, 0), ("ga", 4, 1), ("gb", 0, 0), ("gb", 6, 1)]
        )
        if command == "pretrain":
            args = ["pretrain", "--config", str(suite["config"]), "--out", str(tmp_path / "m.ckpt")]
        else:
            args = ["eval-graph", "--ckpt", str(ckpt_path), "--repeats", "5"]
        assert main(args + ["--manifest", str(manifest)]) == 3
        assert capsys.readouterr().err == (
            "data error: domain 'gb': graph-level entry #2 has no nodes\n"
        )
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("command", ["pretrain", "eval-graph"])
    @pytest.mark.parametrize("task_kind, label, message", [
        ("graph-level", None, "data error: domain 'gb': graph-level entry needs graph_label\n"),
        ("node-level", 1, "data error: domain 'gb': graph_label is read only in a graph-level manifest\n"),
    ], ids=["graph-level-unlabelled", "node-level-labelled"])
    def test_a_graph_label_where_the_task_kind_says_otherwise_exits_3(
            self, suite, ckpt_path, tmp_path, capsys, command, task_kind, label, message):
        """The second entry breaks the rule: without a label in a
        graph-level manifest, or with one in a node-level manifest."""
        manifest = graph_level_manifest(tmp_path / "data", [("ga", 5, 0 if label is None else None),
                                                            ("gb", 4, label)])
        doc = json.loads(manifest.read_text())
        manifest.write_text(json.dumps({**doc, "task_kind": task_kind}))
        if command == "pretrain":
            args = ["pretrain", "--config", str(suite["config"]), "--out", str(tmp_path / "m.ckpt")]
        else:
            args = ["eval-graph", "--ckpt", str(ckpt_path), "--repeats", "5"]
        assert main(args + ["--manifest", str(manifest)]) == 3
        assert capsys.readouterr().err == message
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("command", ["pretrain", "eval-graph"])
    def test_members_of_different_widths_exit_3(self, suite, ckpt_path, tmp_path, capsys, command):
        """Domain 'm' joins a degree-featurized graph (16 columns) and a graph
        with a 5-column features file."""
        manifest = graph_level_manifest(tmp_path / "data", [("m", 4, 0), ("m", 3, 1)])
        doc = json.loads(manifest.read_text())
        write_float_tsv(manifest.parent / "f1.tsv", np.ones((3, 5)))
        doc["domains"][1]["features_path"] = "f1.tsv"
        manifest.write_text(json.dumps(doc))
        if command == "pretrain":
            args = ["pretrain", "--config", str(suite["config"]), "--out", str(tmp_path / "m.ckpt")]
        else:
            args = ["eval-graph", "--ckpt", str(ckpt_path), "--repeats", "5"]
        assert main(args + ["--manifest", str(manifest)]) == 3
        assert capsys.readouterr().err == "data error: domain 'm': members disagree on feature dim [5, 16]\n"
        assert not (tmp_path / "m.ckpt").exists()

    def test_ablate_refuses_graph_level_data_before_training(
        self, suite, tmp_path, capsys, monkeypatch
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("ablate trained on graph-level data")

        monkeypatch.setattr("leda.trainer.pretrain", no_training)
        manifest = graph_level_manifest(tmp_path / "data", [("ga", 5, 0), ("gb", 4, 1)])
        args = ["ablate", "--config", str(suite["config"]), "--manifest", str(manifest),
                "--test-domain", "gb"]
        assert main(args) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ablate needs node-level data")
        assert "pretrain" in err and "eval-graph" in err
        assert "graph_labels" not in err

    @pytest.mark.parametrize("task_kind", ["node-level", "graph-level"])
    def test_pretrain_k_above_the_stacked_rows_exits_2(self, suite, tmp_path, capsys, task_kind):
        """k=4, and the domain stacks 3 feature rows of width 16."""
        if task_kind == "graph-level":
            manifest = graph_level_manifest(tmp_path / "data", [("few", 1, 0), ("few", 2, 1)])
        else:
            graph = generate_sbm(1, 3, 1.0, 0.0, d=16, cluster_sep=1.0, seed=0, domain_id="few")
            manifest = save_dataset(GraphCollection((graph,), "node-level"), tmp_path / "data")
        code = main(["pretrain", "--config", str(suite["config"]), "--manifest", str(manifest),
                     "--out", str(tmp_path / "m.ckpt")])
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: k=4 exceeds min(n, d)=3 for domain 'few'\n"
        )

    def test_eval_graph_unseen_domain_below_k_rows_exits_3(self, ckpt_path, tmp_path, capsys):
        """The checkpoint's k is 4; the unseen domain stacks 3 rows."""
        manifest = graph_level_manifest(
            tmp_path / "data", [("few", 1, 0), ("few", 1, 1), ("few", 1, 0)]
        )
        code = main(["eval-graph", "--ckpt", str(ckpt_path), "--manifest", str(manifest),
                     "--repeats", "5"])
        assert code == 3
        assert capsys.readouterr().err == (
            "data error: domain 'few': svd rank k=4 out of range for 3x16 input\n"
        )


# Every option of every subcommand: (dest, type, default, required, choices, action).
_STORE, _TRUE, _APPEND = "_StoreAction", "_StoreTrueAction", "_AppendAction"
PARSER_SURFACE = {
    "gen-sbm": {
        "--blocks": ("blocks", int, None, True, None, _STORE),
        "--nodes": ("nodes_per_block", int, None, True, None, _STORE),
        "--pin": ("p_in", float, None, True, None, _STORE),
        "--pout": ("p_out", float, None, True, None, _STORE),
        "--seed": ("seed", int, None, True, None, _STORE),
        "--out": ("out", None, None, True, None, _STORE),
        "--d": ("d", int, 16, False, None, _STORE),
        "--sep": ("cluster_sep", float, 3.0, False, None, _STORE),
        "--domain-id": ("domain_id", None, None, False, None, _STORE),
    },
    "pretrain": {
        "--config": ("config", None, None, True, None, _STORE),
        "--out": ("out", None, None, True, None, _STORE),
        "--manifest": ("manifest", None, None, False, None, _STORE),
        "--report": ("report", None, None, False, None, _STORE),
        "--epochs": ("epochs", int, None, False, None, _STORE),
        "--seed": ("seed", int, None, False, None, _STORE),
        "--variant": ("variant", None, None, False, VARIANTS, _STORE),
        "--two-phase": ("two_phase", None, None, False, None, _TRUE),
    },
    "embed": {
        "--ckpt": ("ckpt", None, None, True, None, _STORE),
        "--manifest": ("manifest", None, None, True, None, _STORE),
        "--domain": ("domain", None, None, True, None, _STORE),
        "--t": ("t", int, 0, False, None, _STORE),
        "--out": ("out", None, None, True, None, _STORE),
    },
    "eval-linear": {
        "--ckpt": ("ckpt", None, None, True, None, _STORE),
        "--manifest": ("manifest", None, None, True, None, _STORE),
        "--domain": ("domain", None, None, True, None, _STORE),
        "--train-frac": ("train_frac", float, 0.1, False, None, _STORE),
        "--runs": ("runs", int, 20, False, None, _STORE),
        "--seed": ("seed", int, 66666, False, None, _STORE),
        "--t": ("t", int, 0, False, None, _STORE),
        "--out": ("out", None, None, False, None, _STORE),
    },
    "eval-fewshot": {
        "--ckpt": ("ckpt", None, None, True, None, _STORE),
        "--manifest": ("manifest", None, None, True, None, _STORE),
        "--domain": ("domain", None, None, True, None, _STORE),
        "--k": ("k", int, 1, False, None, _STORE),
        "--repeats": ("repeats", int, 500, False, None, _STORE),
        "--seed": ("seed", int, 66666, False, None, _STORE),
        "--t": ("t", int, 0, False, None, _STORE),
        "--out": ("out", None, None, False, None, _STORE),
    },
    "eval-graph": {
        "--ckpt": ("ckpt", None, None, True, None, _STORE),
        "--manifest": ("manifest", None, None, True, None, _STORE),
        "--support": ("support_per_class", int, 1, False, None, _STORE),
        "--repeats": ("repeats", int, 500, False, None, _STORE),
        "--seed": ("seed", int, 66666, False, None, _STORE),
        "--t": ("t", int, 0, False, None, _STORE),
        "--out": ("out", None, None, False, None, _STORE),
    },
    "ablate": {
        "--config": ("config", None, None, True, None, _STORE),
        "--variant": ("variant", None, None, False, VARIANTS, _STORE),
        "--manifest": ("manifest", None, None, False, None, _STORE),
        "--test-domain": ("test_domain", None, None, False, None, _APPEND),
        "--epochs": ("epochs", int, None, False, None, _STORE),
        "--seed": ("seed", int, None, False, None, _STORE),
        "--two-phase": ("two_phase", None, None, False, None, _TRUE),
        "--out": ("out", None, None, False, None, _STORE),
    },
    "mi-diag": {
        "--ckpt": ("ckpt", None, None, True, None, _STORE),
        "--manifest": ("manifest", None, None, True, None, _STORE),
        "--domains": ("domains", None, None, True, None, _STORE),
        "--tau": ("tau", float, 0.5, False, None, _STORE),
        "--t": ("t", int, 0, False, None, _STORE),
        "--seed": ("seed", int, 0, False, None, _STORE),
        "--out": ("out", None, None, False, None, _STORE),
    },
}


class TestParser:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_option_surface(self):
        [subparsers] = [
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        surface = {
            command: {
                a.option_strings[0]: (
                    a.dest, a.type, a.default, a.required,
                    tuple(a.choices) if a.choices else None, type(a).__name__,
                )
                for a in parser._actions
                if not isinstance(a, argparse._HelpAction)
            }
            for command, parser in subparsers.choices.items()
        }
        assert surface == PARSER_SURFACE
        for parser in subparsers.choices.values():
            assert all(len(a.option_strings) == 1 for a in parser._actions
                       if not isinstance(a, argparse._HelpAction))


class TestManifestFieldTypes:
    @staticmethod
    def manifest(tmp_path, task_kind="node-level", drop=(), **fields):
        (tmp_path / "e.tsv").write_text("0\t1\n")
        (tmp_path / "f.tsv").write_text("1.0\n2.0\n")
        (tmp_path / "l.tsv").write_text("0\n1\n")
        entry = {"domain_id": "odd", "edges_path": "e.tsv", "features_path": "f.tsv",
                 "labels_path": "l.tsv", "num_classes": 2, "graph_label": 0}
        entry.update(fields)
        for key in drop:
            del entry[key]
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"version": 1, "task_kind": task_kind, "domains": [entry]}))
        return path

    def pretrain_exit(self, suite, tmp_path, capsys, manifest):
        code = main([
            "pretrain", "--config", str(suite["config"]), "--manifest", str(manifest),
            "--out", str(tmp_path / "m.ckpt"),
        ])
        err = capsys.readouterr().err
        assert "domain 'odd'" in err
        return code

    def test_num_nodes_abc(self, suite, tmp_path, capsys):
        manifest = self.manifest(
            tmp_path, drop=("features_path", "labels_path"), num_nodes="abc"
        )
        assert self.pretrain_exit(suite, tmp_path, capsys, manifest) == 3

    @pytest.mark.parametrize("drop", [(), ("features_path",)])
    def test_num_nodes_disagreeing_with_rows(self, suite, tmp_path, capsys, drop):
        manifest = self.manifest(tmp_path, drop=drop, num_nodes=5)
        assert self.pretrain_exit(suite, tmp_path, capsys, manifest) == 3

    def test_graph_label_x(self, suite, tmp_path, capsys):
        manifest = self.manifest(tmp_path, task_kind="graph-level", graph_label="x")
        assert self.pretrain_exit(suite, tmp_path, capsys, manifest) == 3

    @pytest.mark.parametrize("value", ["2", 2.5, True])
    def test_num_classes_not_an_integer(self, suite, tmp_path, capsys, value):
        manifest = self.manifest(tmp_path, num_classes=value)
        assert self.pretrain_exit(suite, tmp_path, capsys, manifest) == 3

    @pytest.mark.parametrize("field", ["edges_path", "features_path", "labels_path"])
    def test_path_not_a_string(self, suite, tmp_path, capsys, field):
        manifest = self.manifest(tmp_path, **{field: 5})
        assert self.pretrain_exit(suite, tmp_path, capsys, manifest) == 3


def refused(capsys, argv, code, message):
    """Run argv, which must exit with `code` and one stderr line starting with `message`."""
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.endswith("\n") and len(err.splitlines()) == 1 and err.startswith(message), err


def duplicate_first_tensor(blob):
    """The checkpoint `blob` with its first tensor listed twice in the header."""
    header, payload = split_checkpoint(blob)
    header["tensors"].append(header["tensors"][0])
    return join_checkpoint(header, payload)


class TestRefusals:
    """Inputs the CLI refuses with an exit code and one line of stderr."""

    @pytest.mark.parametrize(
        "doc, flags, message",
        [
            ({}, ["--epochs", "-1"], "epochs must be an integer >= 0, got -1"),
            ({"train": {"tau": 0}}, ["--variant", "dpu-cl"], "tau must be finite and > 0, got 0"),
            ([], [], "config document must be an object, got []"),
            ({"data": 5}, [], "data must be a string, got 5"),
            ({"model": []}, [], "model must be an object, got []"),
            ({"train": "fast"}, [], "train must be an object, got 'fast'"),
            ({"eval": 1}, [], "eval must be an object, got 1"),
        ],
        ids=["negative-epochs", "dpu-cl-tau-0", "document", "data", "model", "train", "eval"],
    )
    def test_run_config_exits_2(self, suite, tmp_path, capsys, doc, flags, message):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(doc))
        argv = ["pretrain", "--config", str(config), "--manifest", str(suite["manifest"]),
                "--out", str(tmp_path / "m.ckpt"), *flags]
        refused(capsys, argv, 2, f"config error: {message}")
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda blob: MAGIC + struct.pack("<I", len(blob)) + b"{}", "truncated header"),
            (lambda blob: MAGIC + struct.pack("<I", 3) + b"abc", "header: invalid JSON: "),
            (duplicate_first_tensor, "duplicate tensor names in header"),
        ],
        ids=["truncated-header", "header-not-json", "duplicate-tensor"],
    )
    def test_checkpoint_exits_3(self, suite, ckpt_path, tmp_path, capsys, corrupt, message):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(corrupt(ckpt_path.read_bytes()))
        argv = ["embed", "--ckpt", str(bad), "--manifest", str(suite["manifest"]),
                "--domain", "domc", "--out", str(tmp_path / "e.tsv")]
        refused(capsys, argv, 3, f"data error: {bad}: {message}")
        assert not (tmp_path / "e.tsv").exists()

    @pytest.mark.parametrize("text", ["[" * 100_000, "1" * 5_000], ids=["deep-nesting", "long-integer"])
    @pytest.mark.parametrize("document", ["config", "manifest", "header"])
    def test_json_that_python_cannot_parse_is_invalid_json(
            self, suite, ckpt_path, tmp_path, capsys, document, text):
        """Nesting too deep for the parser, or an integer of more digits than
        int() takes, is invalid JSON in each document, not a raw traceback."""
        bad = tmp_path / "bad"
        if document == "header":
            bad.write_bytes(MAGIC + struct.pack("<I", len(text)) + text.encode())
            argv = ["embed", "--ckpt", str(bad), "--manifest", str(suite["manifest"]),
                    "--domain", "domc", "--out", str(tmp_path / "e.tsv")]
            refused(capsys, argv, 3, f"data error: {bad}: header: invalid JSON: ")
            return
        bad.write_text(text)
        config, manifest = (bad, suite["manifest"]) if document == "config" else (suite["config"], bad)
        argv = ["pretrain", "--config", str(config), "--manifest", str(manifest), "--out", str(tmp_path / "m.ckpt")]
        code, prefix = (2, "config error: config") if document == "config" else (3, "data error: manifest")
        refused(capsys, argv, code, f"{prefix} {bad}: invalid JSON: ")

    @pytest.mark.parametrize("held_out, message", [
        (["nope"], "held-out domains not in the dataset: ['nope']"),
        (["doma", "domb", "domc"], "no training domains left after holding out test domains"),
        (["domc", "doma", "domc"], "held-out domains named more than once: ['domc']"),
    ], ids=["unknown", "every-domain", "repeated"])
    def test_ablate_held_out_domains_exit_2(self, suite, tmp_path, capsys, held_out, message):
        argv = ["ablate", "--config", str(suite["config"])]
        for domain_id in held_out:
            argv += ["--test-domain", domain_id]
        refused(capsys, argv, 2, f"config error: {message}")

    @pytest.mark.parametrize("eval_doc, message", [
        ({"test_domains": ["domc", "domc"]}, "held-out domains named more than once: ['domc']"),
        ({"t_propagate": {"typo": 3}}, "eval.t_propagate names domains that are not held out: ['typo']"),
        ({"t_propagate": {"domc": 2, "doma": 1, "nope": 0}},
         "eval.t_propagate names domains that are not held out: ['doma', 'nope']"),
    ], ids=["repeated-test-domain", "unknown-t-domain", "one-unknown-t-domain"])
    def test_ablate_eval_settings_that_cannot_take_effect_exit_2(self, suite, tmp_path, capsys, eval_doc, message):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(dict(suite["doc"], eval=dict(suite["doc"]["eval"], **eval_doc))))
        refused(capsys, ["ablate", "--config", str(cfg)], 2, f"config error: {message}")

    def test_mi_diag_one_domain_exits_2(self, suite, ckpt_path, capsys):
        argv = ["mi-diag", "--ckpt", str(ckpt_path), "--manifest", str(suite["manifest"]),
                "--domains", "a"]
        refused(capsys, argv, 2, "config error: --domains expects two comma-separated ids, got 'a'")

    @staticmethod
    def sbm_manifest(out, labels):
        """gen-sbm's 2 x 8-node domain 'sbm', its labels_path dropped unless `labels`."""
        assert main(["gen-sbm", "--blocks", "2", "--nodes", "8", "--pin", "0.6", "--pout", "0.1",
                     "--seed", "0", "--domain-id", "sbm", "--out", str(out)]) == 0
        manifest = out / "manifest.json"
        if not labels:
            doc = json.loads(manifest.read_text())
            del doc["domains"][0]["labels_path"]
            manifest.write_text(json.dumps(doc))
        return manifest

    @pytest.mark.parametrize("command, flags, message", [
        ("eval-linear", [], "data error: linear probe needs labels"),
        ("eval-fewshot", [], "data error: few-shot evaluation needs labels"),
        ("eval-linear", ["--train-frac", "0.99"], "data error: split left no test nodes; lower train_frac"),
        ("eval-graph", [], "data error: graph_eval needs a graph-level collection"),
    ], ids=["linear-unlabelled", "fewshot-unlabelled", "linear-no-test-nodes", "graph-node-level"])
    def test_a_node_evaluation_with_nothing_to_score_exits_3(
            self, ckpt_path, tmp_path, capsys, command, flags, message):
        """An unlabelled domain has nothing to score; at train_frac 0.99 each
        8-node class puts every node in the training split; a node-level
        collection holds no graphs to classify."""
        manifest = self.sbm_manifest(tmp_path / "sbm", labels=bool(flags))
        report = tmp_path / "report.json"
        domain = [] if command == "eval-graph" else ["--domain", "sbm"]
        argv = [command, "--ckpt", str(ckpt_path), "--manifest", str(manifest), *domain,
                "--out", str(report), *flags]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            refused(capsys, argv, 3, message)
        assert not report.exists()

    @pytest.mark.parametrize("tau, message", [
        (1e-310, "numeric failure: non-finite total loss at epoch 0"),
        (1e-300, "numeric failure: training (dpu-cl): AdamW second moment of 'dpu.W1' is non-finite"),
    ], ids=["loss", "second-moment"])
    def test_a_tiny_infonce_temperature_exits_4(self, suite, tmp_path, capsys, tau, message):
        """At tau 1e-310, 1/tau is beyond the float range and the loss is
        refused before backward; at 1e-300 the loss stays finite and its
        gradient, about 1/tau through the softplus and cosine nodes,
        overflows AdamW's squared gradient."""
        config = tmp_path / "run.json"
        config.write_text(json.dumps(dict(suite["doc"], train=dict(suite["doc"]["train"], tau=tau))))
        out = tmp_path / "m.ckpt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            refused(capsys, ["pretrain", "--config", str(config), "--variant", "dpu-cl", "--out", str(out)],
                    4, message)
        assert not out.exists()

    def test_embed_of_a_seen_domain_of_another_width_exits_3(self, ckpt_path, tmp_path, capsys):
        """domc trained at width 15."""
        graph = generate_sbm(3, 6, 0.6, 0.1, d=6, cluster_sep=4.0, seed=321, domain_id="domc")
        manifest = save_dataset(GraphCollection((graph,), "node-level"), tmp_path / "data")
        argv = ["embed", "--ckpt", str(ckpt_path), "--manifest", str(manifest), "--domain", "domc",
                "--out", str(tmp_path / "e.tsv")]
        refused(capsys, argv, 3,
                "data error: domain 'domc': checkpoint basis expects feature dim 15, graph has 6")

    def test_manifest_exits_3(self, suite, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"version": 2, "domains": []}))
        argv = ["pretrain", "--config", str(suite["config"]), "--manifest", str(manifest),
                "--out", str(tmp_path / "m.ckpt")]
        refused(capsys, argv, 3, f"data error: manifest {manifest}: unsupported version 2")

    @pytest.mark.parametrize("version", [True, 1.0], ids=["true", "float"])
    def test_manifest_and_header_follow_one_version_rule(
            self, suite, ckpt_path, tmp_path, capsys, version):
        """Only the integer 1 is version 1, in a manifest as in a header;
        true and 1.0 equal 1 in Python but are another JSON type."""
        doc = json.loads(Path(suite["manifest"]).read_text())
        manifest = Path(suite["manifest"]).with_name("versioned.json")
        manifest.write_text(json.dumps({**doc, "version": version}))
        header, payload = split_checkpoint(ckpt_path.read_bytes())
        bad = tmp_path / "versioned.ckpt"
        bad.write_bytes(join_checkpoint({**header, "version": version}, payload))
        argv = ["eval-fewshot", "--manifest", str(manifest), "--domain", "domc", "--repeats", "5"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            refused(capsys, [*argv, "--ckpt", str(ckpt_path)], 3,
                    f"data error: manifest {manifest}: unsupported version {version!r}")
            refused(capsys, [*argv[:2], str(suite["manifest"]), *argv[3:], "--ckpt", str(bad)], 3,
                    f"data error: {bad}: version mismatch: file has {version!r}, reader supports 1")

    @pytest.mark.parametrize("domain_id, written", [
        ("a\nb", "a\\nb"),
        ("a\rb", "a\\rb"),
        ("a\r\nb", "a\\r\\nb"),
        ("é\u2028ü", "é\\u2028ü"),
        ("a\x85\x0b\x0c\x1c\x1d\x1e\u2029b", "a\\x85\\x0b\\x0c\\x1c\\x1d\\x1e\\u2029b"),
    ], ids=["LF", "CR", "CRLF", "LS-non-ASCII", "every-other-break"])
    def test_a_refusal_stays_one_line_whatever_the_domain_id_holds(
            self, suite, tmp_path, capsys, domain_id, written):
        """Each character str.splitlines breaks at is written as repr writes
        it; every other character, non-ASCII included, as it is."""
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"version": 1, "domains": [
            {"domain_id": domain_id, "edges_path": "e.tsv", "num_nodes": "x"}]}))
        argv = ["pretrain", "--config", str(suite["config"]), "--manifest", str(manifest),
                "--out", str(tmp_path / "m.ckpt")]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) == 3
        assert capsys.readouterr().err == (
            f"data error: domain '{written}': num_nodes must be an integer, got 'x'\n")

    def test_a_command_line_argparse_refuses_stays_one_line(self, suite, tmp_path, capsys):
        argv = ["pretrain", "--config", str(suite["config"]), "--out", str(tmp_path / "m.ckpt"), "a\u2028b\nc"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err == "config error: unrecognized arguments: a\\u2028b\\nc\n"

    def test_num_nodes_too_large_to_hold_exits_3(self, suite, tmp_path, capsys):
        """10^12 nodes: the first allocation of the graph fails at once."""
        (tmp_path / "e.tsv").write_text("0\t1\n")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"version": 1, "domains": [
            {"domain_id": "huge", "edges_path": "e.tsv", "num_nodes": 10**12}]}))
        argv = ["pretrain", "--config", str(suite["config"]), "--manifest", str(manifest),
                "--out", str(tmp_path / "m.ckpt")]
        refused(capsys, argv, 3,
                "data error: domain 'huge': no memory for a graph of 1000000000000 nodes")

    def test_featureless_num_nodes_whose_degree_features_exceed_memory_exits_3(
            self, suite, tmp_path, capsys, monkeypatch):
        """A featureless domain's float64 n x DEGREE_FEATURE_DIM degree table
        is weighed against the machine's memory, patched down to 1,000 pages,
        before any edge is read: a node more than fits is refused in one line,
        and nothing is written."""
        sysconf, read_edges, read = os.sysconf, datasets._read_edges, []
        monkeypatch.setattr(os, "sysconf", lambda name: 1000 if name == "SC_PHYS_PAGES" else sysconf(name))
        monkeypatch.setattr(datasets, "_read_edges", lambda *args: read.append(args[1]) or read_edges(*args))
        fits = 1000 * sysconf("SC_PAGE_SIZE") // (8 * DEGREE_FEATURE_DIM)
        (tmp_path / "e.tsv").write_text("0\t1\n")
        for n in (fits, fits + 1):
            (tmp_path / f"{n}.json").write_text(json.dumps({"version": 1, "domains": [
                {"domain_id": "huge", "edges_path": "e.tsv", "num_nodes": n}]}))
        assert load_dataset(tmp_path / f"{fits}.json").graphs[0].features.shape == (fits, DEGREE_FEATURE_DIM)
        argv = ["pretrain", "--config", str(suite["config"]), "--manifest", str(tmp_path / f"{fits + 1}.json"),
                "--out", str(tmp_path / "m.ckpt"), "--report", str(tmp_path / "r.json")]
        refused(capsys, argv, 3, f"data error: domain 'huge': no memory for a graph of {fits + 1} nodes")
        assert read == [fits]
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
            ["e.tsv", f"{fits}.json", f"{fits + 1}.json"])

    @pytest.mark.parametrize("num_nodes", [2 ** 62, 2 ** 63 - 1, 2 ** 64])
    def test_num_nodes_whose_edge_keys_overflow_int64_exits_3(self, suite, tmp_path, capsys, num_nodes):
        """These raised a raw ValueError or OverflowError from numpy."""
        (tmp_path / "e.tsv").write_text("0\t1\n")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"version": 1, "domains": [
            {"domain_id": "huge", "edges_path": "e.tsv", "num_nodes": num_nodes}]}))
        argv = ["pretrain", "--config", str(suite["config"]), "--manifest", str(manifest),
                "--out", str(tmp_path / "m.ckpt")]
        refused(capsys, argv, 3, f"data error: domain 'huge': no memory for a graph of {num_nodes} nodes")

    def test_graph_label_beyond_int64_exits_3(self, ckpt_path, tmp_path, capsys):
        manifest = graph_level_manifest(tmp_path / "data", [("ga", 3, 2 ** 63), ("ga", 4, 0)])
        argv = ["eval-graph", "--ckpt", str(ckpt_path), "--manifest", str(manifest), "--repeats", "5"]
        refused(capsys, argv, 3, "data error: graph label outside the 64-bit integer range")

    @pytest.mark.parametrize("variant, message", [
        ("full", "non-finite loss at epoch 0, domain 'hot'"),
        ("no-lda", "training (no-lda): AdamW second moment of 'dpu.W1' is non-finite"),
        ("dpu-cl", "training (dpu-cl): AdamW second moment of 'dpu.W1' is non-finite"),
    ], ids=["full", "no-lda", "dpu-cl"])
    def test_overflowing_epoch_exits_4_without_a_raw_warning(
            self, suite, tmp_path, capsys, variant, message):
        """A first feature row scaled by 1e153 overflows exp in the reparameterization
        of `full`, and a squared gradient in AdamW under the other variants."""
        code = main(["gen-sbm", "--blocks", "2", "--nodes", "8", "--pin", "0.6", "--pout", "0.1",
                     "--seed", "0", "--d", "6", "--domain-id", "hot", "--out", str(tmp_path / "hot")])
        assert code == 0
        [features] = (tmp_path / "hot").glob("*.features.tsv")
        x = np.loadtxt(features, delimiter="\t")
        x[0] *= 1e153
        write_float_tsv(features, x)
        capsys.readouterr()
        # the basis of rank 1 is padded to k=4, as intended; numpy's overflow is silent
        with pytest.warns(UserWarning, match="padding basis"), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["pretrain", "--config", str(suite["config"]),
                         "--manifest", str(tmp_path / "hot" / "manifest.json"),
                         "--variant", variant, "--out", str(tmp_path / "m.ckpt")])
        assert code == 4
        err = capsys.readouterr().err
        assert "RuntimeWarning" not in err
        assert err.splitlines()[-1].startswith(f"numeric failure: {message}")
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("command, flags, message", [
        ("eval-fewshot", ["--repeats", "5"], "norm beyond the float range in "),
        ("eval-linear", ["--runs", "2"], "linear probe: AdamW second moment of 'probe.W' is non-finite"),
    ], ids=["eval-fewshot", "eval-linear"])
    def test_finite_but_huge_parameter_exits_4_in_one_line(
            self, suite, ckpt_path, tmp_path, capsys, command, flags, message):
        """One lda.W_base entry at 1e300 leaves domc's embeddings finite, but
        their row norms overflow: few-shot refuses them by name rather than
        warn and score rows divided to zeros, and the linear probe's squared
        gradients overflow, which it refuses by name with no raw warning."""
        ckpt = load_checkpoint(ckpt_path)
        ckpt.params["lda.W_base"] = ckpt.params["lda.W_base"].copy()
        ckpt.params["lda.W_base"][0, 0] = 1e300
        save_checkpoint(ckpt, tmp_path / "hot.ckpt")
        argv = [command, "--ckpt", str(tmp_path / "hot.ckpt"), "--manifest", str(suite["manifest"]),
                "--domain", "domc", *flags]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            refused(capsys, argv, 4, f"numeric failure: {message}")

    @staticmethod
    def reader_argv(command, ckpt, paths, out):
        """The argv of a checkpoint reader on domc, or on the graph-level ga."""
        if command == "eval-graph":
            return [command, "--ckpt", str(ckpt), "--manifest", str(paths["graphs"]), "--repeats", "5"]
        target = {"embed": ["--domain", "domc", "--out", str(out)], "mi-diag": ["--domains", "domc,domc"]}
        return [command, "--ckpt", str(ckpt), "--manifest", str(paths["manifest"]),
                *target.get(command, ["--domain", "domc", "--out", str(out)])]

    @pytest.mark.parametrize("tensor", ["lda.W_base", "lda.W_mu", "dpu.W1", "dpu.W2"])
    @pytest.mark.parametrize("command", ["embed", "eval-linear", "eval-fewshot", "mi-diag", "eval-graph"])
    def test_overflowing_forward_pass_exits_4_naming_the_domain(
            self, refusal_paths, tmp_path, capsys, command, tensor):
        """Every entry of one tensor at 1.7e308 overflows the forward pass.
        Such a W_base used to embed rows a ReLU had partly zeroed, with exit
        0; the others ended in non-finite embeddings (exit 3). Both printed
        raw overflow warnings first."""
        ckpt = load_checkpoint(refusal_paths["ckpt"])
        ckpt.params[tensor] = np.full_like(ckpt.params[tensor], 1.7e308)
        save_checkpoint(ckpt, tmp_path / "hot.ckpt")
        argv = self.reader_argv(command, tmp_path / "hot.ckpt", refusal_paths, tmp_path / "out")
        domain = "ga" if command == "eval-graph" else "domc"
        # ga's stacked features have rank 2, so its basis is padded to k=4, as intended
        padded = pytest.warns(UserWarning, match="padding basis") if command == "eval-graph" else nullcontext()
        with padded, warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            refused(capsys, argv, 4, f"numeric failure: domain '{domain}': embedding beyond the float range "
                                     "(overflow encountered in matmul)")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_the_overflow_refusal_is_the_same_at_any_cpu_count(
            self, refusal_paths, tmp_path, capsys, monkeypatch, cpus):
        """domc's 18 rows split into blocks of 6, each of which overflows."""
        started, start_thread = [], linalg._start_thread

        def counted(run, lo, hi):
            started.append(lo)
            return start_thread(run, lo, hi)

        monkeypatch.setattr(linalg, "_start_thread", counted)
        monkeypatch.setattr(linalg, "_cpus", lambda: cpus)
        monkeypatch.setattr(linalg, "SPLIT_MIN_ROWS", 4)
        monkeypatch.setattr(linalg, "SPLIT_MIN_WORK", 1)
        ckpt = load_checkpoint(refusal_paths["ckpt"])
        ckpt.params["lda.W_base"] = np.full_like(ckpt.params["lda.W_base"], 1.7e308)
        save_checkpoint(ckpt, tmp_path / "hot.ckpt")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            refused(capsys, self.reader_argv("embed", tmp_path / "hot.ckpt", refusal_paths, tmp_path / "e.tsv"), 4,
                    "numeric failure: domain 'domc': embedding beyond the float range "
                    "(overflow encountered in matmul)")
        assert bool(started) == (cpus > 1)

    @pytest.mark.parametrize("command", ["embed", "eval-fewshot"])
    def test_an_inf_parameter_exits_3_in_one_line(self, refusal_paths, tmp_path, capsys, command):
        """Its NaNs are refused as non-finite embeddings, as before, now
        without a raw `invalid value` warning first."""
        ckpt = load_checkpoint(refusal_paths["ckpt"])
        ckpt.params["lda.W_base"] = ckpt.params["lda.W_base"].copy()
        ckpt.params["lda.W_base"][0, 0] = np.inf
        save_checkpoint(ckpt, tmp_path / "inf.ckpt")
        argv = self.reader_argv(command, tmp_path / "inf.ckpt", refusal_paths, tmp_path / "out")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            refused(capsys, argv, 3, "data error: domain 'domc': non-finite embeddings")


@pytest.fixture(scope="module")
def refusal_paths(suite, ckpt_path, tmp_path_factory):
    root = tmp_path_factory.mktemp("refusals")
    graphs = graph_level_manifest(root / "graphs", [("ga", 5, 0), ("ga", 4, 1), ("ga", 6, 0), ("ga", 3, 1)])
    return {"manifest": suite["manifest"], "graphs": graphs, "ckpt": ckpt_path,
            "config": root / "run.json", "absent": root / "absent.json", "out": root / "out"}


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=refusal_cases())
def test_every_bad_scalar_exits_2_in_one_line_naming_its_key(refusal_paths, capsys, case):
    """Each scalar flag of the eight subcommands and each model / train /
    eval key of a run config, set out of range, non-finite, to a boolean or
    to another type: exit 2 before any file is read or written, with one
    line of stderr that names the key, and no RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = main(argv_of(case, refusal_paths))
        except SystemExit as exc:  # argparse refuses a flag text its type does not parse
            code = exc.code
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.count("\n") == 1 and err.startswith("config error: "), err
    assert re.search(rf"\b{re.escape(case[-1])}\b", err.removeprefix("config error: ")), err
    assert not refusal_paths["out"].exists()


EXIT_PREFIXES = {2: "config error: ", 3: "data error: ", 4: "numeric failure: "}


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=document_cases())
def test_every_mutated_manifest_or_header_exits_by_its_code(refusal_paths, capsys, case):
    """A manifest or checkpoint header with a value of another JSON type, out
    of range or dropped is read or refused by its exit code, with one line
    of stderr, and never with a raw traceback or RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        # a mutation may leave ga's basis padded, which warns as intended; the
        # domain id is any string, a newline too, hence (?s)
        warnings.filterwarnings("ignore", "(?s)domain '.*': feature rank .* padding basis", UserWarning)
        code = main(document_argv(case, refusal_paths))
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4), err
    if code:
        assert err.endswith("\n") and len(err.splitlines()) == 1 and err.startswith(EXIT_PREFIXES[code]), err


class TestThreadLimit:
    """Every subcommand pins the BLAS variables to 1 before it reads its
    arguments, whatever its config holds and whether the run gets far; the
    large products are split across the CPUs instead. The `threads` flag and
    config key are gone and refused with exit 2."""

    VARS = BLAS_VARS

    @pytest.fixture
    def env(self, monkeypatch):
        # recorded by monkeypatch, so whatever the calls below set is undone
        for var in self.VARS:
            monkeypatch.setenv(var, "9")

    def threads_set(self):
        return {os.environ[var] for var in self.VARS}

    def config(self, tmp_path, train):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"train": train}))
        return str(path)

    def pretrain(self, tmp_path, *args):
        return main(["pretrain", "--out", str(tmp_path / "m.ckpt"), *args])

    def test_config_without_threads_pins_one(self, env, tmp_path):
        self.pretrain(tmp_path, "--config", self.config(tmp_path, {}))
        assert self.threads_set() == {"1"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["pretrain", "--config", "absent.json", "--out", "m.ckpt"],
            ["ablate", "--config", "absent.json"],
            ["embed", "--ckpt", "absent.ckpt", "--manifest", "absent.json", "--domain", "a",
             "--out", "e.tsv"],
            ["gen-sbm", "--blocks", "0", "--nodes", "1", "--pin", "0.5", "--pout", "0.1",
             "--seed", "1", "--out", "data"],
        ],
        ids=["pretrain", "ablate", "embed", "gen-sbm"],
    )
    def test_every_subcommand_pins_one_even_when_it_fails(self, env, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) in (2, 3)
        assert self.threads_set() == {"1"}

    def test_threads_key_exits_2_and_is_named(self, env, tmp_path, capsys):
        assert self.pretrain(tmp_path, "--config", self.config(tmp_path, {"threads": 1})) == 2
        err = capsys.readouterr().err
        assert err == "config error: train: unknown keys ['threads']\n"

    @pytest.mark.parametrize("flag", [["--threads", "1"], ["--threads=2"]], ids=["spaced", "joined"])
    def test_threads_flag_exits_2_and_is_named(self, env, tmp_path, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            self.pretrain(tmp_path, "--config", self.config(tmp_path, {}), *flag)
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads" in capsys.readouterr().err

    def test_pin_precedes_numpy_import(self, suite, tmp_path):
        """In a fresh interpreter, every variable is set while numpy is still
        unloaded, so the BLAS pools start at the pinned size."""
        args = ["pretrain", "--config", str(suite["config"]), "--epochs", "1",
                "--out", str(tmp_path / "m.ckpt"), "--report", str(tmp_path / "r.json")]
        code = (
            "import os, sys\n"
            "from leda.cli import main\n"
            "class Watched(type(os.environ)):\n"
            "    def __setitem__(self, key, value):\n"
            f"        if key in {self.VARS!r}:\n"
            "            print(key, value, 'numpy' in sys.modules)\n"
            "        super().__setitem__(key, value)\n"
            "os.environ.__class__ = Watched\n"
            f"sys.exit(main({args!r}))\n"
        )
        src = str(Path(leda.__file__).parents[1])
        env = {k: v for k, v in os.environ.items() if k not in self.VARS}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines() == [f"{var} 1 False" for var in self.VARS]
