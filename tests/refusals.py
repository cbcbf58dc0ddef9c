"""Hypothesis strategies of CLI inputs that must be refused, each with the
key its one line of stderr has to name.

A case is plain data, so one drawn case can be replayed through any build
of `leda.cli.main`:
- ("flag", command, flag, text, key): one scalar flag of a subcommand set
  to `text`, every other argument valid;
- ("config", section, name, value, key): one key of a run config's `model`,
  `train` or `eval` section set to `value` (tau under variant dpu-cl, the
  only variant that reads it).

`refusal_cases()` is the one entry point; a new family of bad inputs is one
more strategy in its `st.one_of`.

`document_cases()` draws the other kind of bad input: a dataset manifest or
a checkpoint header with one or two values mutated (set to another JSON
type or out of range, or dropped), which may still be accepted. A case
("manifest" | "graphs" | "header", mutations) names the document and lists
its mutations as (path, action, value): the keys and indices leading to the
value, "set" or "drop", and the value set. `document_argv` writes the
mutated document and gives the command that reads it.
"""

from __future__ import annotations

import copy
import json
import math
import struct

from hypothesis import strategies as st

FLOAT_MAX_INT = 2 ** 1024  # the least int beyond the float range

# The rules, written out here rather than read from `leda.config`, so that
# the cases hold whatever the code under test says. Each maps to the values
# that break it: out of range, non-finite and of the wrong JSON type.
_OTHER_TYPES = st.one_of(st.none(), st.text(max_size=4), st.lists(st.integers(), max_size=2),
                         st.dictionaries(st.text(max_size=2), st.none(), min_size=1, max_size=1))
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_NEGATIVE = st.one_of(st.integers(max_value=-1),
                      st.floats(max_value=-1e-300, allow_infinity=False, allow_nan=False))
_NON_POSITIVE = st.one_of(_NEGATIVE, st.sampled_from([0, 0.0, -0.0]))


_BELOW = {"count": st.integers(max_value=-1), "size": st.integers(max_value=0)}
_OUT_OF_RANGE = {
    # a JSON float is never an integer, 2.0 included
    "count": st.one_of(_BELOW["count"], st.floats()),
    "size": st.one_of(_BELOW["size"], st.floats()),
    "weight": st.one_of(_NEGATIVE, st.integers(min_value=FLOAT_MAX_INT, max_value=FLOAT_MAX_INT * 4)),
    "rate": st.one_of(_NEGATIVE, st.floats(min_value=1.0, allow_infinity=False), st.integers(min_value=1)),
    "fraction": st.one_of(_NON_POSITIVE, st.floats(min_value=1.0, allow_infinity=False),
                          st.integers(min_value=1)),
    "scale": st.one_of(_NON_POSITIVE, st.integers(min_value=FLOAT_MAX_INT, max_value=FLOAT_MAX_INT * 4)),
    "finite": st.nothing(),
}


def bad_json_values(rule: str):
    """JSON values that break a scalar value rule."""
    return st.one_of(_OUT_OF_RANGE[rule], _NON_FINITE, st.booleans(), _OTHER_TYPES)


def _out_of_range_texts(rule: str):
    """Flag texts that parse as the flag's type and break its rule."""
    if rule in _BELOW:
        return _BELOW[rule].map(repr)
    return st.one_of(_OUT_OF_RANGE[rule], _NON_FINITE).map(repr)


def _unparsed_texts(kind):
    """Flag texts that `kind` (int or float) does not parse, booleans among
    them; argparse refuses these itself."""
    def unparsed(text):
        try:
            kind(text)
        except ValueError:
            return True
        return False

    return st.one_of(st.sampled_from(["True", "false", "1.5", "abc", ""]), st.text(max_size=4)).filter(unparsed)


# (command, flag, rule, key named in the refusal)
FLAGS = [
    ("gen-sbm", "--blocks", "size", "blocks"),
    ("gen-sbm", "--nodes", "size", "nodes_per_block"),
    ("gen-sbm", "--seed", "count", "seed"),
    ("gen-sbm", "--sep", "finite", "cluster_sep"),
    *((command, flag, rule, flag[2:]) for command in ("pretrain", "ablate")
      for flag, rule in (("--epochs", "count"), ("--seed", "count"))),
    ("embed", "--t", "count", "t"),
    ("eval-linear", "--t", "count", "t"),
    ("eval-linear", "--train-frac", "fraction", "train_frac"),
    ("eval-linear", "--runs", "size", "runs"),
    ("eval-linear", "--seed", "count", "seed"),
    ("eval-fewshot", "--t", "count", "t"),
    ("eval-fewshot", "--k", "size", "k"),
    ("eval-fewshot", "--repeats", "size", "repeats"),
    ("eval-fewshot", "--seed", "count", "seed"),
    ("eval-graph", "--t", "count", "t"),
    ("eval-graph", "--support", "size", "support_per_class"),
    ("eval-graph", "--repeats", "size", "repeats"),
    ("eval-graph", "--seed", "count", "seed"),
    ("mi-diag", "--t", "count", "t"),
    ("mi-diag", "--tau", "scale", "tau"),
    ("mi-diag", "--seed", "count", "seed"),
]
# the gen-sbm flags of its cross-field rules, as (flag, kind, out-of-range
# values, key), for a run with --pin 0.5 --pout 0.1 --blocks 2
_CROSS_FLAGS = [
    ("--pin", float, st.one_of(st.floats(max_value=0.1), st.floats(min_value=1.0, exclude_min=True)), "p_in"),
    ("--pout", float, st.one_of(st.floats(max_value=0.0, exclude_max=True), st.floats(min_value=0.5)), "p_out"),
    ("--d", int, st.integers(max_value=1), "d"),
]


# (section, key, rule or None for a non-scalar key)
CONFIG_KEYS = [
    *(("model", key, "size") for key in ("k", "h", "m", "h_e", "z")),
    *(("model", key, "weight") for key in ("lambda", "beta_kl", "mu_align")),
    *(("train", key, "count") for key in ("epochs", "seed", "two_phase_epochs")),
    *(("train", key, "weight") for key in ("lr", "weight_decay")),
    ("train", "beta1", "rate"),
    ("train", "beta2", "rate"),
    ("train", "adam_eps", "scale"),
    ("train", "tau", "scale"),
    ("train", "variant", None),
    ("train", "two_phase", None),
    *(("eval", key, "size") for key in ("k_shot", "repeats")),
    ("eval", "seed", "count"),
    ("eval", "t_propagate", "count"),
    ("eval", "test_domains", None),
]
_NON_SCALAR = {
    "variant": st.one_of(st.text(max_size=6).filter(lambda v: v not in ("full", "no-dpu", "no-lda", "dpu-cl")),
                         st.sampled_from(["full\n", "a\r\nb"]), st.integers(), st.booleans(), st.none()),
    "two_phase": st.one_of(st.integers(), st.floats(), st.text(max_size=4), st.none()),
    "test_domains": st.one_of(st.text(max_size=4), st.integers(), st.booleans(),
                              st.lists(st.one_of(st.integers(), st.none()), min_size=1, max_size=2)),
}


def _flag_cases():
    """A flag's out-of-range text names its key; a text argparse does not
    parse names the flag."""
    entries = [(command, flag, int if rule in _BELOW else float, _out_of_range_texts(rule), key)
               for command, flag, rule, key in FLAGS]
    entries += [("gen-sbm", flag, kind, values.map(repr), key) for flag, kind, values, key in _CROSS_FLAGS]

    def texts(entry):
        _, flag, kind, out_of_range, key = entry
        return st.one_of(out_of_range.map(lambda text: (text, key)),
                         _unparsed_texts(kind).map(lambda text: (text, flag[2:])))

    return st.sampled_from(entries).flatmap(
        lambda e: texts(e).map(lambda drawn: ("flag", e[0], e[1], drawn[0], drawn[1]))
    )


def _config_cases():
    def values(entry):
        section, key, rule = entry
        drawn = _NON_SCALAR[key] if rule is None else bad_json_values(rule)
        if (section, key) == ("eval", "seed"):  # null: the eval seed is the train seed
            drawn = drawn.filter(lambda v: v is not None)
        if key == "t_propagate":  # a per-domain map keeps the rule of each of its values
            drawn = st.one_of(drawn, drawn.map(lambda v: {"domc": v}))
        return drawn.map(lambda value: ("config", section, key, value, key))

    return st.sampled_from(CONFIG_KEYS).flatmap(values)


def refusal_cases():
    """Every family of bad inputs, one case at a time."""
    return st.one_of(_flag_cases(), _config_cases())


def config_text(section: str, key: str, value) -> str:
    """A run config with small dims and one bad `section.key`."""
    doc = {"model": {"k": 4, "h": 8, "m": 4, "h_e": 8, "z": 4}, "train": {"epochs": 1}, "eval": {}}
    if key == "tau":
        doc["train"]["variant"] = "dpu-cl"
    doc[section][key] = value
    return json.dumps(doc)


def argv_of(case, paths: dict) -> list[str]:
    """The argv of a case, given `paths`: a node-level `manifest`, a
    graph-level `graphs` manifest, a checkpoint `ckpt`, a `config` file to
    write, an `absent` manifest path and an `out` path."""
    family, where, name, value, _ = case
    if family == "config":
        paths["config"].write_text(config_text(where, name, value))
        return ["pretrain", "--config", str(paths["config"]), "--manifest", str(paths["absent"]),
                "--out", str(paths["out"])]
    given = [f"{name}={value}", "--out", str(paths["out"])]
    if where == "gen-sbm":
        valid = {"--blocks": "2", "--nodes": "3", "--pin": "0.5", "--pout": "0.1", "--seed": "0"}
        valid.pop(name, None)
        return ["gen-sbm", *given, *(f"{flag}={v}" for flag, v in valid.items())]
    if where in ("pretrain", "ablate"):
        paths["config"].write_text(config_text("eval", "test_domains", ["domc"]))
        return [where, "--config", str(paths["config"]), "--manifest", str(paths["absent"]), *given]
    reader = [where, "--ckpt", str(paths["ckpt"])]
    if where == "eval-graph":  # argparse keeps the last value of a flag given twice
        return [*reader, "--manifest", str(paths["graphs"]), "--repeats=5", *given]
    target = ["--domains", "domc,domc"] if where == "mi-diag" else ["--domain", "domc"]
    return [*reader, "--manifest", str(paths["manifest"]), *target, *given]


# ---------------------------------------------------------------------------
# mutated documents

_JSON_KINDS = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(),
    "float": st.floats(),
    "str": st.text(max_size=4),
    "list": st.lists(st.integers(), max_size=2),
    "object": st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
}


def _other_types(*kinds):
    """JSON values of every type but `kinds`."""
    return st.one_of(*(values for kind, values in _JSON_KINDS.items() if kind not in kinds))


# counts too large to allocate on any machine, or beyond int64
_HUGE = st.sampled_from([2 ** 40, 2 ** 62, 2 ** 63 - 1, 2 ** 63, 2 ** 64, 10 ** 30, 10 ** 400])
# A num_nodes from 2^16 to about 3e9 is a graph the loader builds for real,
# gigabytes at the top of that range; counts from 3.04e9 up are refused
# before any allocation, and _HUGE draws those.
_COUNT = st.one_of(st.integers(min_value=-3, max_value=40), st.integers(max_value=2 ** 16), _HUGE)
# files the fixtures' dataset directories hold, or not
_FILES = st.sampled_from(["", ".", "absent.tsv", "manifest.json", "g0.tsv", "g1.tsv",
                          "g000-doma.features.tsv", "g001-domb.labels.tsv", "g002-domc.edges.tsv",
                          "g002-domc.features.tsv", "g002-domc.labels.tsv"])

# (key, JSON type, out-of-range values) at the top level of a manifest, and
# in a domain entry
_MANIFEST_TOP = [
    ("version", "int", st.one_of(st.integers().filter(lambda v: v != 1), _HUGE)),
    ("task_kind", "str", st.one_of(st.sampled_from(["edge-level", "", "Node-level"]), st.text(max_size=4))),
    ("symmetrize", "bool", st.just(False)),  # the saved edges are one-way
    ("domains", "list", st.one_of(st.just([]), st.lists(_other_types("object"), min_size=1, max_size=2))),
]
_MANIFEST_ENTRY = [
    ("domain_id", "str", st.sampled_from(["", "nope", "doma", "ga", "gb"])),
    ("edges_path", "str", _FILES),
    ("features_path", "str", _FILES),
    ("labels_path", "str", _FILES),
    ("num_classes", "int", _COUNT),
    ("num_nodes", "int", _COUNT),
    ("graph_label", "int", st.one_of(st.integers(), _HUGE)),
]
_ENTRIES = {"manifest": 3, "graphs": 4}  # domain entries of each fixture manifest

_TENSOR_NAMES = st.sampled_from(["", "bonus", "basis/doma", "basis/nope", "dpu.W1", "lda.W_dec"])
_KIND_OF_RULE = {"count": "int", "size": "int", "weight": "float", "rate": "float", "scale": "float", None: None}
# (path, JSON type, out-of-range values) in the header of the fixture
# checkpoint, which holds 11 tensors and 3 bases; a config value may also be
# a valid one that disagrees with the tensors, and a non-scalar one takes
# only the values of `_NON_SCALAR`
_HEADER_KEYS = [
    (("version",), "int", st.one_of(st.integers().filter(lambda v: v != 1), st.just(1.0), _HUGE)),
    (("config",), "object", st.just({})),
    (("tensors",), "list", st.one_of(st.just([]), st.lists(_other_types("object"), min_size=1, max_size=2))),
    (("bases",), "list", st.one_of(st.just([]), st.lists(_other_types("object"), min_size=1, max_size=2))),
    (("epoch",), "int", st.one_of(st.integers(), _HUGE)),
    (("final_loss",), "object", st.just({"total": None})),
    *((("final_loss", key), "float", st.one_of(_NON_FINITE, st.floats()))
      for key in ("dpu_ortho", "dpu_recon", "kl", "lda_recon", "total")),
    *((("tensors", i, "name"), "str", _TENSOR_NAMES) for i in range(11)),
    *((("tensors", i, key), "int", st.one_of(_COUNT, st.integers(min_value=-8, max_value=8)))
      for i in range(11) for key in ("rows", "cols", "offset")),
    *((("bases", i, "domain_id"), "str", st.sampled_from(["", "nope", "doma", "domc"])) for i in range(3)),
    *((("bases", i, "padded"), "bool", st.booleans()) for i in range(3)),
    *((("bases", i, "tensor"), "str", _TENSOR_NAMES) for i in range(3)),
    *((("config", "lam" if key == "lambda" else key), _KIND_OF_RULE[rule],
       _NON_SCALAR[key] if rule is None else st.one_of(bad_json_values(rule), st.integers(1, 9)))
      for section, key, rule in CONFIG_KEYS if section != "eval"),
]


def _mutation(path, kind, out_of_range):
    """Drop the value at `path`, or set it to one of another JSON type than
    `kind` (None: `out_of_range` only) or to one of `out_of_range`."""
    if kind is not None:
        out_of_range = st.one_of(_other_types(kind, *(("int",) if kind == "float" else ())), out_of_range)
    return st.one_of(st.just((path, "drop", None)), out_of_range.map(lambda value: (path, "set", value)))


def _manifest_mutation(base):
    top = st.sampled_from(_MANIFEST_TOP).flatmap(lambda e: _mutation((e[0],), *e[1:]))
    entry = st.tuples(st.integers(0, _ENTRIES[base] - 1), st.sampled_from(_MANIFEST_ENTRY)).flatmap(
        lambda drawn: _mutation(("domains", drawn[0], drawn[1][0]), *drawn[1][1:]))
    return st.one_of(top, entry)


def document_cases():
    """A fixture manifest (node- or graph-level) or checkpoint header with
    one or two mutations."""
    manifests = st.sampled_from(sorted(_ENTRIES)).flatmap(
        lambda base: st.lists(_manifest_mutation(base), min_size=1, max_size=2).map(lambda m: (base, m)))
    headers = st.lists(st.sampled_from(_HEADER_KEYS).flatmap(lambda entry: _mutation(*entry)),
                       min_size=1, max_size=2).map(lambda m: ("header", m))
    return st.one_of(manifests, headers)


def mutate(doc, mutations):
    """A copy of `doc` with each mutation applied whose parent is still
    there (an earlier one may have replaced it)."""
    doc = copy.deepcopy(doc)
    for path, action, value in mutations:
        parent = doc
        try:
            for key in path[:-1]:
                parent = parent[key]
        except (KeyError, IndexError, TypeError):
            continue
        if isinstance(parent, dict) and action == "set":
            parent[path[-1]] = value
        elif isinstance(parent, dict):
            parent.pop(path[-1], None)
    return doc


def document_argv(case, paths: dict) -> list[str]:
    """Write the case's document next to its original, given the `paths` of
    `argv_of`, and return the argv of the command that reads it."""
    document, mutations = case
    if document == "header":
        blob = paths["ckpt"].read_bytes()
        (size,) = struct.unpack("<I", blob[8:12])
        header = json.dumps(mutate(json.loads(blob[12:12 + size]), mutations)).encode("utf-8")
        ckpt = paths["ckpt"].with_name("mutated.ckpt")
        ckpt.write_bytes(blob[:8] + struct.pack("<I", len(header)) + header + blob[12 + size:])
        manifest = paths["manifest"]
    else:
        ckpt = paths["ckpt"]
        manifest = paths[document].with_name("mutated.json")
        manifest.write_text(json.dumps(mutate(json.loads(paths[document].read_text()), mutations)))
    if document == "graphs":
        return ["eval-graph", "--ckpt", str(ckpt), "--manifest", str(manifest), "--repeats", "5"]
    return ["eval-fewshot", "--ckpt", str(ckpt), "--manifest", str(manifest), "--domain", "domc",
            "--repeats", "5"]
