"""Run configuration: one JSON document with data / model / train / eval
sections. Unknown keys are rejected, defaults follow the module defaults,
and the effective (fully defaulted) config is echoed into every output so a
run can be reproduced from its own report.

`TrainConfig` (model dims and training settings, also the config stored in
every checkpoint header) lives here too, so this module imports nothing
else of the package but its errors. So do the value rules: `check_values`
is the one implementation of every scalar range rule, read by value name,
for configs, protocols, the generator, training and the CLI flags alike.
And so do the rules of a JSON document, for the run config, the dataset
manifest and the checkpoint header alike: `parse_json` reads one,
`check_type` checks a value's JSON type and `check_object` an object's
keys, each raising the error class its caller passes. So does the one way
an output reaches disk: `write_file`, which every writer hands its chunks.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import InitVar, asdict, dataclass, field, fields
from numbers import Integral, Real
from pathlib import Path

from .errors import ConfigError, DataError

VARIANTS = ("full", "no-dpu", "no-lda", "dpu-cl")
NUMBER = (int, float)
# JSON value types accepted for each TrainConfig field annotation
_JSON_KINDS = {"int": int, "float": NUMBER, "str": str, "bool": bool}
_KIND_NAMES = {dict: "an object", list: "a list", str: "a string", int: "an integer",
               NUMBER: "a number", bool: "a boolean"}

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


def parse_json(raw: bytes, where: str, error=ConfigError):
    """The JSON value of the UTF-8 bytes `raw`, whatever their line ends;
    `error`, naming `where`, for other text or invalid JSON. Invalid JSON
    includes an integer of more digits than int() takes (a ValueError) and
    nesting too deep to parse (a RecursionError)."""
    try:
        # universal newlines, so that a JSON error's position counts CRLF as one
        return json.loads(raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"))
    except UnicodeDecodeError as exc:
        raise error(f"{where}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    except (ValueError, RecursionError) as exc:
        raise error(f"{where}: invalid JSON: {exc}") from exc


def check_type(value, kind, what: str, error=ConfigError):
    """`value` if it has JSON type `kind` (a key of `_KIND_NAMES`), else
    `error` naming `what`."""
    if not has_json_type(value, kind):
        raise error(f"{what} must be {_KIND_NAMES[kind]}, got {value!r}")
    return value


def check_object(value, allowed, what: str, error=ConfigError) -> dict:
    """`value` if it is a JSON object whose keys are all `allowed`, else
    `error` naming `what`."""
    unknown = set(check_type(value, dict, what, error)) - set(allowed)
    if unknown:
        raise error(f"{what}: unknown keys {sorted(unknown)}")
    return value


def write_file(path: str | Path, chunks) -> None:
    """Write the str (as UTF-8) or bytes `chunks` in order to `<name>.tmp`, then
    rename it over `path`, replacing a symlink there: a failed write leaves the
    old file or none and no temp file, and an OSError is a DataError naming `path`."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        try:
            with open(tmp, "wb") as file:
                for chunk in chunks:
                    file.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
    except OSError as exc:  # name the caller's path, not the temp file
        raise DataError(f"cannot write {path}: {exc.strerror or exc}") from exc


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
    # how the source document spells each field a refusal names; a field it
    # leaves out is named as it is
    key_of: InitVar[dict[str, str] | None] = None

    def __post_init__(self, key_of):
        _check_train_values(vars(self), key_of or {})

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(doc: dict, key_of: dict[str, str] | None = None) -> "TrainConfig":
        """The config of a document of field values, checked once."""
        return TrainConfig(**check_object(doc, _TRAIN_FIELDS, "training config"), key_of=key_of)


_TRAIN_FIELDS = {f.name for f in fields(TrainConfig)}


def _check_train_values(c: dict, key_of: dict[str, str]) -> None:
    """ConfigError unless the TrainConfig field values `c` have their JSON
    types, keep their value rules and are consistent; a refusal names a
    field by its key in `key_of`, else by the field name."""
    for f in fields(TrainConfig):
        check_type(c[f.name], _JSON_KINDS[f.type], key_of.get(f.name, f.name))
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
_TRAIN_KEYS = _TRAIN_FIELDS - {name for name, _ in _MODEL_FIELDS}
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


def run_config_from_dict(doc: dict) -> RunConfig:
    check_object(doc, _TOP_KEYS, "config document")
    manifest = doc.get("data")
    if manifest is not None:
        check_type(manifest, str, "data")
    model_doc, train_doc, eval_doc = (
        check_object(doc.get(name, {}), allowed, name)
        for name, allowed in (("model", _MODEL_KEYS), ("train", _TRAIN_KEYS), ("eval", _EVAL_KEYS))
    )
    field_of = {key: name for name, key in _MODEL_FIELDS}
    merged = dict(train_doc)
    merged.update((field_of[key], value) for key, value in model_doc.items())
    train = TrainConfig.from_dict(merged, key_of=dict(_MODEL_FIELDS))
    return RunConfig(manifest=manifest, train=train, eval=EvalConfig(**eval_doc))


def load_run_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    return run_config_from_dict(parse_json(path.read_bytes(), f"config {path}"))
