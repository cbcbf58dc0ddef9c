"""Run configuration: one JSON document with data / model / train / eval
sections. Unknown keys are rejected, defaults follow the module defaults,
and the effective (fully defaulted) config is echoed into every output so a
run can be reproduced from its own report.

`TrainConfig` (model dims and training settings, also the config stored in
every checkpoint header) lives here too, so this module imports nothing
else of the package but its errors. So do the value rules: `check_values`
is the one implementation of every scalar range rule, read by value name,
for configs, protocols, the generator, training and the CLI flags alike.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from numbers import Integral, Real
from pathlib import Path

from .errors import ConfigError

VARIANTS = ("full", "no-dpu", "no-lda", "dpu-cl")
# JSON value types accepted for each TrainConfig field annotation
_JSON_KINDS = {"int": int, "float": (int, float), "str": str, "bool": bool}

# TrainConfig fields that live in the JSON "model" section, as (field, key);
# every other TrainConfig field is a "train" key.
_MODEL_FIELDS = (
    ("k", "k"), ("h", "h"), ("m", "m"), ("lam", "lambda"),
    ("h_e", "h_e"), ("z", "z"), ("beta_kl", "beta_kl"), ("mu_align", "mu_align"),
)
_TOP_KEYS = {"data", "model", "train", "eval"}


def has_json_type(value, kind) -> bool:
    """Whether `value` has type `kind` (a type or a tuple of types) in the
    JSON sense: a bool is a bool, never a number."""
    kinds = kind if isinstance(kind, tuple) else (kind,)
    return isinstance(value, kinds) and (bool in kinds or not isinstance(value, bool))


def _is_finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


# Each scalar value rule, once: the JSON number kind it takes, its test, and
# the wording of its refusal.
_RULES = {
    "count": (Integral, lambda v: v >= 0, "an integer >= 0"),
    "size": (Integral, lambda v: v >= 1, "an integer >= 1"),
    "finite": (Real, _is_finite, "finite"),
    "weight": (Real, lambda v: _is_finite(v) and v >= 0, "finite and >= 0"),
    "rate": (Real, lambda v: 0 <= v < 1, "in [0, 1)"),
    "fraction": (Real, lambda v: 0 < v < 1, "in (0, 1)"),
    "scale": (Real, lambda v: _is_finite(v) and v > 0, "finite and > 0"),
}
# The rule of each value name, wherever the name is read: TrainConfig and
# EvalConfig fields, protocol and generator arguments, and CLI flags.
RULE_OF = {
    **dict.fromkeys(("seed", "epochs", "two_phase_epochs", "t", "t_propagate"), "count"),
    **dict.fromkeys(("k", "h", "m", "h_e", "z", "repeats", "runs", "support_per_class", "k_shot",
                     "blocks", "nodes_per_block"), "size"),
    **dict.fromkeys(("lr", "lam", "beta_kl", "mu_align", "weight_decay"), "weight"),
    **dict.fromkeys(("beta1", "beta2"), "rate"),
    "train_frac": "fraction",
    **dict.fromkeys(("tau", "adam_eps"), "scale"),
    "cluster_sep": "finite",
}


def _check(rule: str, key: str, value) -> None:
    kind, test, wording = _RULES[rule]
    if not (has_json_type(value, kind) and test(value)):
        raise ConfigError(f"{key} must be {wording}, got {value!r}")


def check_values(key_of: dict[str, str] | None = None, /, **values) -> None:
    """ConfigError unless each value keeps the rule `RULE_OF` gives its name;
    a refusal names a value by its key in `key_of`, else by its name."""
    for name, value in values.items():
        _check(RULE_OF[name], (key_of or {}).get(name, name), value)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 500
    seed: int = 66666
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    weight_decay: float = 1e-5
    k: int = 64
    h: int = 128
    m: int = 64
    lam: float = 1.0
    h_e: int = 256
    z: int = 128
    beta_kl: float = 1.0
    mu_align: float = 1.0
    variant: str = "full"
    tau: float = 0.5
    two_phase: bool = False
    two_phase_epochs: int = 100

    def __post_init__(self):
        _check_train_values(vars(self), {})

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(doc: dict, key_of: dict[str, str] | None = None) -> "TrainConfig":
        """The config of a document of field values. A refusal names a field
        by its key in `key_of`, else by the field name."""
        unknown = set(doc) - {f.name for f in fields(TrainConfig)}
        if unknown:
            raise ConfigError(f"unknown training config keys: {sorted(unknown)}")
        _check_train_values({f.name: doc.get(f.name, f.default) for f in fields(TrainConfig)}, key_of or {})
        return TrainConfig(**doc)


def _check_train_values(c: dict, key_of: dict[str, str]) -> None:
    """ConfigError unless the TrainConfig field values `c` have their JSON
    types, keep their value rules and are consistent; a refusal names a
    field by its key in `key_of`, else by the field name."""
    for f in fields(TrainConfig):
        if not has_json_type(c[f.name], _JSON_KINDS[f.type]):
            raise ConfigError(
                f"training config key '{key_of.get(f.name, f.name)}' must be {f.type}, got {c[f.name]!r}"
            )
    if c["variant"] not in VARIANTS:
        raise ConfigError(f"variant must be one of {VARIANTS}, got {c['variant']!r}")
    ruled = {name: value for name, value in c.items() if name in RULE_OF}
    if c["variant"] != "dpu-cl":  # only dpu-cl reads tau, which elsewhere need only be finite
        _check("finite", "tau", ruled.pop("tau"))
    check_values(key_of, **ruled)
    if c["variant"] == "no-dpu" and c["m"] != c["k"]:
        raise ConfigError("variant no-dpu feeds the raw k-column basis to the encoder; set m == k")
    if c["variant"] == "no-dpu" and c["two_phase"]:
        raise ConfigError("two_phase pre-trains the projection MLP, which variant no-dpu lacks")


@dataclass(frozen=True)
class EvalConfig:
    t_propagate: int | dict = 0
    k_shot: int = 1
    repeats: int = 500
    seed: int | None = None
    test_domains: tuple[str, ...] = ()

    def __post_init__(self):
        check_values(k_shot=self.k_shot, repeats=self.repeats)
        if isinstance(self.t_propagate, dict):
            for domain, steps in self.t_propagate.items():
                check_values({"t_propagate": f"t_propagate for '{domain}'"}, t_propagate=steps)
        else:
            check_values(t_propagate=self.t_propagate)
        if self.seed is not None:
            check_values(seed=self.seed)
        if not isinstance(self.test_domains, (list, tuple)) or not all(
            isinstance(domain, str) for domain in self.test_domains
        ):
            raise ConfigError(
                f"test_domains must be a list of domain id strings, got {self.test_domains!r}"
            )
        object.__setattr__(self, "test_domains", tuple(self.test_domains))

    def t_for(self, domain_id: str) -> int:
        if isinstance(self.t_propagate, dict):
            return int(self.t_propagate.get(domain_id, 0))
        return int(self.t_propagate)


_MODEL_KEYS = {key for _, key in _MODEL_FIELDS}
_TRAIN_KEYS = {f.name for f in fields(TrainConfig)} - {name for name, _ in _MODEL_FIELDS}
_EVAL_KEYS = {f.name for f in fields(EvalConfig)}


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
        model_doc = {key: train_doc.pop(name) for name, key in _MODEL_FIELDS}
        eval_doc = {f.name: getattr(self.eval, f.name) for f in fields(EvalConfig)}
        eval_doc["seed"] = self.eval_seed
        eval_doc["test_domains"] = list(self.eval.test_domains)
        return {"data": self.manifest, "model": model_doc, "train": train_doc, "eval": eval_doc}


def _check_keys(section: str, doc: dict, allowed: set[str]) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in '{section}' section: {sorted(unknown)}")


def _section(doc: dict, name: str, allowed: set[str]) -> dict:
    """The run config's `name` section: an object of `allowed` keys."""
    section = doc.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"'{name}' must be an object")
    _check_keys(name, section, allowed)
    return section


def run_config_from_dict(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    _check_keys("top-level", doc, _TOP_KEYS)

    manifest = doc.get("data")
    if manifest is not None and not isinstance(manifest, str):
        raise ConfigError("'data' must be a manifest path string")

    model_doc = _section(doc, "model", _MODEL_KEYS)
    train_doc = _section(doc, "train", _TRAIN_KEYS)
    field_of = {key: name for name, key in _MODEL_FIELDS}
    merged = dict(train_doc)
    merged.update((field_of[key], value) for key, value in model_doc.items())
    train = TrainConfig.from_dict(merged, key_of=dict(_MODEL_FIELDS))

    eval_config = EvalConfig(**_section(doc, "eval", _EVAL_KEYS))
    return RunConfig(manifest=manifest, train=train, eval=eval_config)


def load_run_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"config {path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path}: invalid JSON: {exc}") from exc
    return run_config_from_dict(doc)
