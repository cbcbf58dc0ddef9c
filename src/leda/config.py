"""Run configuration: one JSON document with data / model / train / eval
sections. Unknown keys are rejected, defaults follow the module defaults,
and the effective (fully defaulted) config is echoed into every output so a
run can be reproduced from its own report.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from numbers import Integral, Real
from pathlib import Path

from .errors import ConfigError
from .trainer import TrainConfig

_MODEL_KEYS = {"k", "h", "m", "lambda", "h_e", "z", "beta_kl", "mu_align"}
_TRAIN_KEYS = {
    "epochs",
    "seed",
    "lr",
    "beta1",
    "beta2",
    "adam_eps",
    "weight_decay",
    "variant",
    "tau",
    "two_phase",
    "two_phase_epochs",
    "threads",
}
_EVAL_KEYS = {
    "t_propagate",
    "k_shot",
    "repeats",
    "train_frac",
    "runs",
    "support_per_class",
    "seed",
    "test_domains",
}
_TOP_KEYS = {"data", "model", "train", "eval"}


def check_protocol_args(**args) -> None:
    """ConfigError unless `train_frac` lies in (0, 1), `tau` is finite and
    > 0, and every other argument is an integer >= 1. The evaluation
    protocols and EvalConfig share these rules."""
    for name, value in args.items():
        if name == "train_frac":
            ok = isinstance(value, Real) and 0.0 < value < 1.0
            rule = "be in (0, 1)"
        elif name == "tau":
            ok = isinstance(value, Real) and math.isfinite(value) and value > 0
            rule = "be finite and > 0"
        else:
            ok = isinstance(value, Integral) and value >= 1
            rule = "be an integer >= 1"
        if isinstance(value, bool) or not ok:
            raise ConfigError(f"{name} must {rule}, got {value!r}")


@dataclass(frozen=True)
class EvalConfig:
    t_propagate: int | dict = 0
    k_shot: int = 1
    repeats: int = 500
    train_frac: float = 0.1
    runs: int = 20
    support_per_class: int = 1
    seed: int | None = None
    test_domains: tuple[str, ...] = ()

    def __post_init__(self):
        check_protocol_args(
            k_shot=self.k_shot,
            repeats=self.repeats,
            runs=self.runs,
            support_per_class=self.support_per_class,
            train_frac=self.train_frac,
        )
        if isinstance(self.t_propagate, dict):
            for domain, steps in self.t_propagate.items():
                if not isinstance(steps, int) or steps < 0:
                    raise ConfigError(f"t_propagate for '{domain}' must be a nonnegative integer")
        elif not isinstance(self.t_propagate, int) or self.t_propagate < 0:
            raise ConfigError("t_propagate must be a nonnegative integer or per-domain map")
        object.__setattr__(self, "test_domains", tuple(self.test_domains))

    def t_for(self, domain_id: str) -> int:
        if isinstance(self.t_propagate, dict):
            return int(self.t_propagate.get(domain_id, 0))
        return int(self.t_propagate)


@dataclass(frozen=True)
class RunConfig:
    manifest: str | None
    train: TrainConfig
    eval: EvalConfig = field(default_factory=EvalConfig)

    @property
    def eval_seed(self) -> int:
        return self.train.seed if self.eval.seed is None else self.eval.seed

    def to_dict(self) -> dict:
        train_doc = self.train.to_dict()
        model_doc = {
            "k": train_doc.pop("k"),
            "h": train_doc.pop("h"),
            "m": train_doc.pop("m"),
            "lambda": train_doc.pop("lam"),
            "h_e": train_doc.pop("h_e"),
            "z": train_doc.pop("z"),
            "beta_kl": train_doc.pop("beta_kl"),
            "mu_align": train_doc.pop("mu_align"),
        }
        eval_doc = {
            "t_propagate": self.eval.t_propagate,
            "k_shot": self.eval.k_shot,
            "repeats": self.eval.repeats,
            "train_frac": self.eval.train_frac,
            "runs": self.eval.runs,
            "support_per_class": self.eval.support_per_class,
            "seed": self.eval_seed,
            "test_domains": list(self.eval.test_domains),
        }
        return {"data": self.manifest, "model": model_doc, "train": train_doc, "eval": eval_doc}


def _check_keys(section: str, doc: dict, allowed: set[str]) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in '{section}' section: {sorted(unknown)}")


def run_config_from_dict(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    _check_keys("top-level", doc, _TOP_KEYS)

    manifest = doc.get("data")
    if manifest is not None and not isinstance(manifest, str):
        raise ConfigError("'data' must be a manifest path string")

    model_doc = doc.get("model", {})
    if not isinstance(model_doc, dict):
        raise ConfigError("'model' must be an object")
    _check_keys("model", model_doc, _MODEL_KEYS)

    train_doc = doc.get("train", {})
    if not isinstance(train_doc, dict):
        raise ConfigError("'train' must be an object")
    _check_keys("train", train_doc, _TRAIN_KEYS)

    merged = dict(train_doc)
    for key, value in model_doc.items():
        merged["lam" if key == "lambda" else key] = value
    train = TrainConfig.from_dict(merged)

    eval_doc = doc.get("eval", {})
    if not isinstance(eval_doc, dict):
        raise ConfigError("'eval' must be an object")
    _check_keys("eval", eval_doc, _EVAL_KEYS)
    eval_config = EvalConfig(**eval_doc)

    return RunConfig(manifest=manifest, train=train, eval=eval_config)


def load_run_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path}: invalid JSON: {exc}") from exc
    return run_config_from_dict(doc)
