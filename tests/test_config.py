import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import leda
from leda.config import EvalConfig, RunConfig, TrainConfig, load_run_config, run_config_from_dict
from leda.errors import ConfigError


@pytest.mark.parametrize(
    "module, unloaded",
    [
        # the CLI parses and checks a run config through leda.config alone
        ("leda.config", ("leda.trainer", "numpy")),
        ("leda.checkpoint", ("leda.trainer",)),
    ],
)
def test_import_leaves_modules_unloaded(module, unloaded):
    src = str(Path(leda.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = f"import sys, {module}; print([name for name in {unloaded!r} if name in sys.modules])"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


class TestRunConfig:
    def test_empty_document_gives_defaults(self):
        cfg = run_config_from_dict({})
        assert cfg.train.seed == 66666
        assert cfg.train.epochs == 500
        assert cfg.train.k == 64
        assert cfg.eval.k_shot == 1
        assert cfg.eval_seed == 66666

    def test_lambda_maps_to_orthogonality_weight(self):
        cfg = run_config_from_dict({"model": {"lambda": 0.25}})
        assert cfg.train.lam == 0.25
        assert cfg.to_dict()["model"]["lambda"] == 0.25

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="top-level"):
            run_config_from_dict({"modle": {}})

    def test_unknown_model_key(self):
        with pytest.raises(ConfigError, match="model"):
            run_config_from_dict({"model": {"width": 3}})

    def test_unknown_eval_key(self):
        with pytest.raises(ConfigError, match="eval"):
            run_config_from_dict({"eval": {"shots": 5}})

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("train", "two_phase_epochs", "abc"),
            ("train", "epochs", 2.5),
            ("train", "seed", True),
            ("train", "variant", 3),
            ("train", "two_phase", 1),
            ("model", "k", "8"),
            ("model", "lambda", None),
            ("eval", "repeats", "abc"),
            ("eval", "k_shot", True),
            ("model", "lambda", float("nan")),
            ("eval", "test_domains", "domc"),
            ("eval", "test_domains", ["domc", 3]),
            ("eval", "t_propagate", True),
            ("eval", "t_propagate", {"domc": False}),
            ("eval", "seed", "x"),
            ("eval", "seed", True),
            ("train", "lr", float("inf")),
            ("train", "tau", float("nan")),
            ("model", "beta_kl", float("inf")),
            ("model", "lambda", -1),
        ],
    )
    def test_wrong_json_type(self, section, key, value):
        with pytest.raises(ConfigError, match="must be") as exc:
            run_config_from_dict({section: {key: value}})
        # named as the document spells it: 'lambda', not the field 'lam'
        assert key in str(exc.value)

    @pytest.mark.parametrize(
        "key, value",
        [("lr", -1.0), ("beta1", 1.0), ("beta1", -0.1), ("beta2", 1.0), ("beta2", -0.1),
         ("adam_eps", 0), ("adam_eps", -1)],
    )
    def test_adamw_key_out_of_range(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key} must be"):
            run_config_from_dict({"train": {key: value}})
        with pytest.raises(ConfigError, match=f"^{key} must be"):
            TrainConfig(**{key: value})

    def test_adamw_keys_at_their_bounds(self):
        train = run_config_from_dict({"train": {"lr": 0, "beta1": 0, "beta2": 0.0, "adam_eps": 1e-300}}).train
        assert (train.lr, train.beta1, train.beta2, train.adam_eps) == (0, 0, 0.0, 1e-300)

    def test_header_documents_name_fields(self):
        # a checkpoint header stores TrainConfig by field name
        with pytest.raises(ConfigError, match="^lam must be >= 0"):
            TrainConfig.from_dict({"lam": -1})
        with pytest.raises(ConfigError, match="key 'lam' must be finite"):
            TrainConfig.from_dict({"lam": float("nan")})

    def test_every_field_has_one_section_and_round_trips(self):
        train = TrainConfig(
            epochs=3, seed=5, lr=0.01, beta1=0.8, beta2=0.99, adam_eps=1e-7,
            weight_decay=1e-4, k=4, h=6, m=4, lam=0.5, h_e=8, z=3, beta_kl=0.5,
            mu_align=2.0, variant="dpu-cl", tau=0.25, two_phase=True,
            two_phase_epochs=7,
        )
        evals = EvalConfig(
            t_propagate={"a": 2}, k_shot=2, repeats=7, seed=9, test_domains=("a", "b"),
        )
        for obj in (train, evals):
            assert all(getattr(obj, f.name) != f.default for f in fields(obj))
        cfg = RunConfig(manifest="data.json", train=train, eval=evals)
        doc = cfg.to_dict()
        # "model" and "train" split TrainConfig's fields; "eval" holds EvalConfig's
        assert not set(doc["model"]) & set(doc["train"])
        assert len(doc["model"]) + len(doc["train"]) == len(fields(TrainConfig))
        assert set(doc["eval"]) == {f.name for f in fields(EvalConfig)}
        for section, other in (("model", "train"), ("train", "model")):
            for key, value in doc[section].items():
                alone = run_config_from_dict({section: {key: value}}).train
                changed = [f.name for f in fields(TrainConfig) if getattr(alone, f.name) != f.default]
                assert len(changed) == 1 and getattr(alone, changed[0]) == value
                with pytest.raises(ConfigError, match="unknown keys"):
                    run_config_from_dict({other: {key: value}})
        assert run_config_from_dict(doc) == cfg

    def test_integer_where_float_expected(self):
        assert run_config_from_dict({"train": {"lr": 1}}).train.lr == 1

    def test_eval_seed_falls_back_to_train_seed(self):
        cfg = run_config_from_dict({"train": {"seed": 42}})
        assert cfg.eval_seed == 42
        assert cfg.to_dict()["eval"]["seed"] == 42
        cfg = run_config_from_dict({"train": {"seed": 42}, "eval": {"seed": 7}})
        assert cfg.eval_seed == 7

    def test_per_domain_propagation_steps(self):
        cfg = run_config_from_dict({"eval": {"t_propagate": {"a": 2}}})
        assert cfg.eval.t_for("a") == 2
        assert cfg.eval.t_for("b") == 0

    def test_bad_train_frac(self):
        # the probe's split is a flag of eval-linear, not a config key
        with pytest.raises(ConfigError, match="train_frac"):
            run_config_from_dict({"eval": {"train_frac": 1.5}})

    def test_effective_config_round_trips(self):
        doc = {
            "data": "manifest.json",
            "model": {"k": 8, "m": 8},
            "train": {"epochs": 10, "variant": "no-lda"},
            "eval": {"k_shot": 3, "test_domains": ["c"]},
        }
        cfg = run_config_from_dict(doc)
        echoed = cfg.to_dict()
        again = run_config_from_dict(echoed)
        assert again.train == cfg.train
        assert again.eval.k_shot == 3
        assert again.eval.test_domains == ("c",)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"train": {"epochs": 1}}))
        assert load_run_config(path).train.epochs == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_run_config(tmp_path / "nope.json")

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{\x00}\x00")
        with pytest.raises(ConfigError, match="not UTF-8"):
            load_run_config(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_run_config(path)
