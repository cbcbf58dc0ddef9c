import json

import pytest

from leda.config import EvalConfig, load_run_config, run_config_from_dict
from leda.errors import ConfigError


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
            ("train", "threads", "abc"),
            ("train", "epochs", 2.5),
            ("train", "seed", True),
            ("train", "variant", 3),
            ("train", "two_phase", 1),
            ("model", "k", "8"),
            ("model", "lambda", None),
            ("eval", "repeats", "abc"),
            ("eval", "k_shot", True),
            ("eval", "train_frac", "0.1"),
        ],
    )
    def test_wrong_json_type(self, section, key, value):
        with pytest.raises(ConfigError, match="must be"):
            run_config_from_dict({section: {key: value}})

    def test_integer_where_float_expected(self):
        assert run_config_from_dict({"train": {"lr": 1}}).train.lr == 1

    def test_eval_seed_falls_back_to_train_seed(self):
        cfg = run_config_from_dict({"train": {"seed": 42}})
        assert cfg.eval_seed == 42
        cfg = run_config_from_dict({"train": {"seed": 42}, "eval": {"seed": 7}})
        assert cfg.eval_seed == 7

    def test_per_domain_propagation_steps(self):
        cfg = run_config_from_dict({"eval": {"t_propagate": {"a": 2}}})
        assert cfg.eval.t_for("a") == 2
        assert cfg.eval.t_for("b") == 0

    def test_bad_train_frac(self):
        with pytest.raises(ConfigError, match="train_frac"):
            EvalConfig(train_frac=1.5)

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

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_run_config(path)
