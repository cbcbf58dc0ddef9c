"""Self-describing binary checkpoint format.

Layout: 8 magic bytes `LEDACKPT`, a 32-bit little-endian header length, a
UTF-8 JSON header {version, config, tensors, bases, epoch, final_loss}, then
a payload of row-major little-endian float64 blocks at the offsets stated in
the header (offsets are relative to the payload start). Loading is strict:
unknown or missing tensors are an error that lists the offending names,
every tensor must have the shape the header config gives it, and each basis
entry names a domain no other entry names, stored as `basis/<domain_id>`.

`param_shapes` is the one statement of the model's parameters: their names,
shapes and order. Initialization walks it, and both save and load check
against it.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import NUMBER, TrainConfig, check_type, has_json_type, parse_json
from .dpu import DomainBasis
from .errors import CheckpointFormatError, ConfigError, DataError

MAGIC = b"LEDACKPT"
FORMAT_VERSION = 1


def param_shapes(config: TrainConfig) -> dict[str, tuple[int, int]]:
    """Every parameter tensor and its shape under the config.
    `trainer.init_paramset` creates them in this order: biases (`b*`) at
    zero, and each weight as the next Glorot draw from one stream."""
    c = config
    return {
        "dpu.W1": (c.k, c.h),
        "dpu.b1": (1, c.h),
        "dpu.W2": (c.h, c.m),
        "dpu.b2": (1, c.m),
        "lda.W_base": (c.m, c.h_e),
        "lda.W_mu": (c.h_e, c.z),
        "lda.W_sigma": (c.h_e, c.z),
        "lda.W_dec": (c.z, c.m),
    }


def basis_tensor_name(domain_id: str) -> str:
    return f"basis/{domain_id}"


@dataclass
class Checkpoint:
    """Everything needed to embed new domains: config snapshot, all trained
    parameter matrices, and the frozen per-domain bases."""

    config: TrainConfig
    params: dict[str, np.ndarray]
    bases: list[DomainBasis]
    epoch: int
    final_loss: dict[str, float]
    loss_trace: list[dict[str, float]] = field(default_factory=list, repr=False)

    def basis_for(self, domain_id: str) -> DomainBasis | None:
        for basis in self.bases:
            if basis.domain_id == domain_id:
                return basis
        return None


def _check_shape(name: str, shape: tuple[int, ...], config: TrainConfig, where: str) -> None:
    """Format error unless the tensor has the shape the config gives it; a
    basis is d x k."""
    want = param_shapes(config).get(name, (shape[0] if shape else 0, config.k))
    if tuple(shape) != want:
        raise CheckpointFormatError(
            f"{where}: tensor '{name}' is {'x'.join(map(str, shape))}, but the "
            f"header config expects {want[0]}x{want[1]}"
        )


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    """Atomic write (temp file + rename); matrices round-trip bit-exactly.

    Every tensor is checked against the config before anything is written,
    so a checkpoint that `load_checkpoint` would refuse is never saved."""
    path = Path(path)
    tensors: dict[str, np.ndarray] = {}
    for name in param_shapes(ckpt.config):
        if name not in ckpt.params:
            raise CheckpointFormatError(f"checkpoint is missing parameter tensor '{name}'")
        tensors[name] = ckpt.params[name]
    for basis in ckpt.bases:
        tensors[basis_tensor_name(basis.domain_id)] = basis.V
    for name, arr in tensors.items():
        _check_shape(name, np.shape(arr), ckpt.config, f"cannot save {path}")

    entries = []
    payload = bytearray()
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name], dtype="<f8")
        entries.append(
            {"name": name, "rows": arr.shape[0], "cols": arr.shape[1], "offset": len(payload)}
        )
        payload.extend(arr.tobytes(order="C"))

    header = {
        "version": FORMAT_VERSION,
        "config": ckpt.config.to_dict(),
        "tensors": entries,
        "bases": [
            {"domain_id": b.domain_id, "padded": b.padded, "tensor": basis_tensor_name(b.domain_id)}
            for b in ckpt.bases
        ],
        "epoch": ckpt.epoch,
        "final_loss": ckpt.final_loss,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")

    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", len(header_bytes)))
            fh.write(header_bytes)
            fh.write(bytes(payload))
        os.replace(tmp, path)
    except OSError as exc:  # name the caller's path, not the temp file
        raise DataError(f"cannot write checkpoint {path}: {exc.strerror or exc}") from exc


def _fields(entry, kinds: dict, what: str) -> list:
    """The values of `entry`, a header object, at the keys of `kinds`, each
    of its kind; other keys are ignored."""
    check_type(entry, dict, what, CheckpointFormatError)
    return [check_type(entry.get(key), kind, f"{what}.{key}", CheckpointFormatError)
            for key, kind in kinds.items()]


def load_checkpoint(path: str | Path) -> Checkpoint:
    path = Path(path)
    if not path.is_file():
        raise DataError(f"checkpoint file not found: {path}")
    blob = path.read_bytes()
    if len(blob) < len(MAGIC) + 4 or blob[: len(MAGIC)] != MAGIC:
        raise CheckpointFormatError(f"{path}: bad magic bytes, not a checkpoint file")
    (header_len,) = struct.unpack("<I", blob[len(MAGIC): len(MAGIC) + 4])
    header_start = len(MAGIC) + 4
    if header_start + header_len > len(blob):
        raise CheckpointFormatError(f"{path}: truncated header")
    where = f"{path}: header"
    header = parse_json(blob[header_start: header_start + header_len], where, CheckpointFormatError)
    version = check_type(header, dict, where, CheckpointFormatError).get("version")
    if not has_json_type(version, int) or version != FORMAT_VERSION:
        raise CheckpointFormatError(
            f"{path}: version mismatch: file has {version!r}, reader supports {FORMAT_VERSION}")
    config_doc, entries, basis_entries, epoch, final_loss = _fields(
        header, {"config": dict, "tensors": list, "bases": list, "epoch": int, "final_loss": dict}, where)
    # version-1 files written before the row split carry a `threads` entry,
    # which no longer changes a bit of a run
    config_doc = {key: value for key, value in config_doc.items() if key != "threads"}
    try:
        config = TrainConfig.from_dict(config_doc)
    except ConfigError as exc:
        raise CheckpointFormatError(f"{path}: invalid config in header: {exc}") from exc
    tensors = [_fields(entry, {"name": str, "rows": int, "cols": int, "offset": int}, f"{where}.tensors[{i}]")
               for i, entry in enumerate(entries)]
    basis_meta = [_fields(entry, {"domain_id": str, "padded": bool, "tensor": str}, f"{where}.bases[{i}]")
                  for i, entry in enumerate(basis_entries)]
    domain_ids = [domain_id for domain_id, _, _ in basis_meta]
    for domain_id, _, tensor in basis_meta:
        if domain_ids.count(domain_id) > 1:
            raise CheckpointFormatError(f"{path}: domain '{domain_id}' has more than one basis")
        if tensor != basis_tensor_name(domain_id):
            raise CheckpointFormatError(
                f"{path}: basis of domain '{domain_id}' must be tensor "
                f"'{basis_tensor_name(domain_id)}', not '{tensor}'"
            )
    for key, value in final_loss.items():
        check_type(value, NUMBER, f"{where}.final_loss[{key!r}]", CheckpointFormatError)

    shapes = param_shapes(config)
    expected = set(shapes) | {tensor for _, _, tensor in basis_meta}
    listed = [name for name, _, _, _ in tensors]
    if len(set(listed)) != len(listed):
        raise CheckpointFormatError(f"{path}: duplicate tensor names in header")
    unknown = sorted(set(listed) - expected)
    if unknown:
        raise CheckpointFormatError(f"{path}: unknown tensors in header: {unknown}")
    missing = sorted(expected - set(listed))
    if missing:
        raise CheckpointFormatError(f"{path}: missing tensors: {missing}")
    for name, rows, cols, _ in tensors:
        _check_shape(name, (rows, cols), config, str(path))

    payload = blob[header_start + header_len:]
    arrays: dict[str, np.ndarray] = {}
    for name, rows, cols, offset in tensors:
        nbytes = rows * cols * 8
        if min(rows, cols, offset) < 0 or offset + nbytes > len(payload):
            raise CheckpointFormatError(f"{path}: truncated payload for tensor '{name}'")
        arr = np.frombuffer(payload, dtype="<f8", count=rows * cols, offset=offset)
        arrays[name] = arr.reshape(rows, cols).astype(np.float64)

    bases = [
        DomainBasis(domain_id=domain_id, V=arrays[tensor], padded=padded)
        for domain_id, padded, tensor in basis_meta
    ]
    params = {name: arrays[name] for name in shapes}
    return Checkpoint(
        config=config,
        params=params,
        bases=bases,
        epoch=epoch,
        final_loss=dict(final_loss),
    )
