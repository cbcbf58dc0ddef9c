"""Run configuration: one JSON document with data / model / train / eval
sections. Unknown keys are rejected, defaults follow the module defaults,
and the effective (fully defaulted) config is echoed into every output so a
run can be reproduced from its own report.

`TrainConfig` (model dims and training settings, also the config stored in
every checkpoint header) lives here too, so this module imports nothing
else of the package but its errors.
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
    types and are in range and consistent; a refusal names a field by its
    key in `key_of`, else by the field name."""
    for f in fields(TrainConfig):
        if not has_json_type(c[f.name], _JSON_KINDS[f.type]):
            raise ConfigError(
                f"training config key '{key_of.get(f.name, f.name)}' must be {f.type}, got {c[f.name]!r}"
            )
    if c["variant"] not in VARIANTS:
        raise ConfigError(f"variant must be one of {VARIANTS}, got '{c['variant']}'")
    if c["epochs"] < 0 or c["two_phase_epochs"] < 0:
        raise ConfigError("epoch counts must be >= 0")
    for name in ("seed", "lam", "beta_kl", "mu_align", "weight_decay", "lr"):
        if c[name] < 0:
            raise ConfigError(f"{key_of.get(name, name)} must be >= 0")
    for name in ("beta1", "beta2"):
        if not 0.0 <= c[name] < 1.0:
            raise ConfigError(f"{name} must be in [0, 1), got {c[name]!r}")
    if c["adam_eps"] <= 0:
        raise ConfigError(f"adam_eps must be > 0, got {c['adam_eps']!r}")
    if c["variant"] == "dpu-cl" and c["tau"] <= 0:
        raise ConfigError("InfoNCE temperature tau must be > 0")
    if c["variant"] == "no-dpu" and c["m"] != c["k"]:
        raise ConfigError("variant no-dpu feeds the raw k-column basis to the encoder; set m == k")
    if min(c["k"], c["h"], c["m"]) < 1:
        raise ConfigError("projection dims k, h, m must be positive")
    if c["h_e"] < 1 or c["z"] < 1:
        raise ConfigError("encoder width h_e and latent dim z must be positive")
    if c["variant"] == "no-dpu" and c["two_phase"]:
        raise ConfigError("two_phase pre-trains the projection MLP, which variant no-dpu lacks")
    for f in fields(TrainConfig):
        if f.type == "float" and not math.isfinite(c[f.name]):
            key = key_of.get(f.name, f.name)
            raise ConfigError(f"training config key '{key}' must be finite, got {c[f.name]!r}")


def check_protocol_args(**args) -> None:
    """ConfigError unless `train_frac` lies in (0, 1), `tau` is finite and
    > 0, `seed` is an integer >= 0, and every other argument is an integer
    >= 1. The evaluation protocols and EvalConfig share these rules."""
    for name, value in args.items():
        if name == "train_frac":
            ok = has_json_type(value, Real) and 0.0 < value < 1.0
            rule = "be in (0, 1)"
        elif name == "tau":
            ok = has_json_type(value, Real) and math.isfinite(value) and value > 0
            rule = "be finite and > 0"
        else:
            least = 0 if name == "seed" else 1
            ok = has_json_type(value, Integral) and value >= least
            rule = f"be an integer >= {least}"
        if not ok:
            raise ConfigError(f"{name} must {rule}, got {value!r}")


@dataclass(frozen=True)
class EvalConfig:
    t_propagate: int | dict = 0
    k_shot: int = 1
    repeats: int = 500
    seed: int | None = None
    test_domains: tuple[str, ...] = ()

    def __post_init__(self):
        check_protocol_args(k_shot=self.k_shot, repeats=self.repeats)
        if isinstance(self.t_propagate, dict):
            for domain, steps in self.t_propagate.items():
                if not has_json_type(steps, int) or steps < 0:
                    raise ConfigError(
                        f"t_propagate for '{domain}' must be a nonnegative integer, got {steps!r}"
                    )
        elif not has_json_type(self.t_propagate, int) or self.t_propagate < 0:
            raise ConfigError(
                "t_propagate must be a nonnegative integer or per-domain map, "
                f"got {self.t_propagate!r}"
            )
        if self.seed is not None:
            check_protocol_args(seed=self.seed)
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

    field_of = {key: name for name, key in _MODEL_FIELDS}
    merged = dict(train_doc)
    merged.update((field_of[key], value) for key, value in model_doc.items())
    train = TrainConfig.from_dict(merged, key_of=dict(_MODEL_FIELDS))

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
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"config {path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path}: invalid JSON: {exc}") from exc
    return run_config_from_dict(doc)
