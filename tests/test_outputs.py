"""Every output is written whole or not at all.

Each file a command writes is made to fail in turn, as a full disk fails
it: as it is opened, or once half of its first chunk is on disk; or else
the finished temp file's rename fails. The command must exit 3 in one stderr
line that names the output as given; the output must be absent, or hold
the bytes it held before; and no `.tmp` file may be left. A dataset saved
over another one and cut part way must not load.
"""

import builtins
import errno
import io
import json
import os
from pathlib import Path

import pytest

from leda.cli import main
from leda.config import write_file
from leda.datasets import save_dataset
from leda.errors import DataError

from synthetic import graph_level_collection, node_collection

FULL = os.strerror(errno.ENOSPC)
REASON = {"open": FULL, "write": FULL, "rename": os.strerror(errno.EIO)}


class FullDisk:
    """A file open for writing whose first write puts half its chunk on
    disk, then fails as a full disk does."""

    def __init__(self, file):
        self.file = file

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.file.close()

    def write(self, chunk):
        self.file.write(chunk[: len(chunk) // 2])
        raise OSError(errno.ENOSPC, FULL)


def fail_at(monkeypatch, target: Path, step: str) -> None:
    """Make the write of `target` fail at `step`, whether it is written in
    place or through a temp file beside it: "open", as that file is opened
    for writing; "write", once half of its first chunk is on disk; or
    "rename", when the temp file is renamed over it. Every other file is
    written as usual."""
    hit = {str(target), f"{target}.tmp"}
    if step in ("open", "write"):
        real_open = builtins.open

        def open_(file, mode="r", *args, **kwargs):
            named = isinstance(file, (str, os.PathLike)) and os.fspath(file) in hit and "w" in mode
            if named and step == "open":
                raise OSError(errno.ENOSPC, FULL)
            handle = real_open(file, mode, *args, **kwargs)
            return FullDisk(handle) if named else handle

        monkeypatch.setattr(builtins, "open", open_)
        monkeypatch.setattr(io, "open", open_)  # Path.open's too, so a writer in place fails alike
    else:
        real_replace = os.replace

        def replace(src, dst, *args, **kwargs):
            if os.fspath(dst) == str(target):
                raise OSError(errno.EIO, REASON["rename"])
            return real_replace(src, dst, *args, **kwargs)

        monkeypatch.setattr(os, "replace", replace)


def temp_files(root: Path) -> list[Path]:
    return sorted(root.rglob("*.tmp"))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A three-domain node-level dataset, a run config holding out `domc`, a
    checkpoint trained on it, and a graph-level dataset."""
    root = tmp_path_factory.mktemp("inputs")
    manifest = save_dataset(node_collection(seed=1, dims=(9, 12, 10)), root / "node")
    config = root / "run.json"
    config.write_text(json.dumps({
        "data": str(manifest),
        "model": {"k": 4, "h": 8, "m": 4, "h_e": 8, "z": 4},
        "train": {"epochs": 3},
        "eval": {"k_shot": 1, "repeats": 5, "test_domains": ["domc"]},
    }))
    ckpt = root / "model.ckpt"
    assert main(["pretrain", "--config", str(config), "--out", str(ckpt)]) == 0
    graphs = save_dataset(graph_level_collection(), root / "graphs")
    return {"manifest": manifest, "config": config, "ckpt": ckpt, "graphs": graphs}


def gen_sbm(out: Path, seed: int) -> list[str]:
    return ["gen-sbm", "--blocks", "2", "--nodes", "6", "--pin", "0.6", "--pout", "0.1", "--d", "4",
            "--seed", str(seed), "--domain-id", "x", "--out", str(out)]


# each write site: (the command line, given the inputs and the output directory; the file it fails)
SITES = {
    "pretrain checkpoint": (lambda i, out: ["pretrain", "--config", str(i["config"]), "--out", str(out / "m.ckpt"),
                                            "--report", str(out / "r.json")], "m.ckpt"),
    "pretrain report": (lambda i, out: ["pretrain", "--config", str(i["config"]), "--out", str(out / "m.ckpt"),
                                        "--report", str(out / "r.json")], "r.json"),
    "embed": (lambda i, out: ["embed", "--ckpt", str(i["ckpt"]), "--manifest", str(i["manifest"]),
                              "--domain", "doma", "--out", str(out / "e.tsv")], "e.tsv"),
    "eval-linear": (lambda i, out: ["eval-linear", "--ckpt", str(i["ckpt"]), "--manifest", str(i["manifest"]),
                                    "--domain", "doma", "--runs", "2", "--out", str(out / "r.json")], "r.json"),
    "eval-fewshot": (lambda i, out: ["eval-fewshot", "--ckpt", str(i["ckpt"]), "--manifest", str(i["manifest"]),
                                     "--domain", "doma", "--repeats", "5", "--out", str(out / "r.json")], "r.json"),
    "eval-graph": (lambda i, out: ["eval-graph", "--ckpt", str(i["ckpt"]), "--manifest", str(i["graphs"]),
                                   "--repeats", "5", "--out", str(out / "r.json")], "r.json"),
    "mi-diag": (lambda i, out: ["mi-diag", "--ckpt", str(i["ckpt"]), "--manifest", str(i["manifest"]),
                                "--domains", "doma,domb", "--out", str(out / "r.json")], "r.json"),
    "ablate": (lambda i, out: ["ablate", "--config", str(i["config"]), "--out", str(out / "r.json")], "r.json"),
    "gen-sbm edges": (lambda i, out: gen_sbm(out, 7), "g000-x.edges.tsv"),
    "gen-sbm features": (lambda i, out: gen_sbm(out, 7), "g000-x.features.tsv"),
    "gen-sbm labels": (lambda i, out: gen_sbm(out, 7), "g000-x.labels.tsv"),
    "gen-sbm manifest": (lambda i, out: gen_sbm(out, 7), "manifest.json"),
}


@pytest.mark.parametrize("step", ["open", "write", "rename"])
@pytest.mark.parametrize("before", ["absent", "present"])
@pytest.mark.parametrize("site", sorted(SITES))
def test_a_failed_write_exits_3_naming_its_output_and_leaves_the_old_bytes(
        inputs, tmp_path, monkeypatch, capsys, site, before, step):
    argv, name = SITES[site]
    out = tmp_path / "out"
    target = out / name
    if before == "present" and site.startswith("gen-sbm"):
        assert main(gen_sbm(out, 8)) == 0  # an older dataset in the same directory
    else:
        out.mkdir()
        if before == "present":
            target.write_bytes(b"the previous bytes\n")
    previous = target.read_bytes() if target.exists() else None
    capsys.readouterr()

    fail_at(monkeypatch, target, step)
    assert main(argv(inputs, out)) == 3
    assert capsys.readouterr().err == f"data error: cannot write {target}: {REASON[step]}\n"
    monkeypatch.undo()
    # a dataset's manifest is removed before any of its files is written
    expected = None if name == "manifest.json" else previous
    assert (target.read_bytes() if target.exists() else None) == expected
    assert temp_files(tmp_path) == []
    if site.startswith("gen-sbm"):  # the dataset cut part way has no manifest, and does not load
        assert not (out / "manifest.json").exists()
        assert main(["pretrain", "--config", str(inputs["config"]), "--manifest", str(out / "manifest.json"),
                     "--out", str(tmp_path / "m.ckpt")]) == 3
        assert capsys.readouterr().err == f"data error: manifest file not found: {out / 'manifest.json'}\n"


def test_a_dataset_saved_over_another_and_cut_part_way_does_not_load(inputs, tmp_path, monkeypatch, capsys):
    """The second domain's edges file cannot be opened once the first
    domain's files are saved: the older dataset's manifest, which would load
    the first domain from the new save and the second from the old one, is
    gone."""
    out = tmp_path / "data"
    save_dataset(node_collection(seed=1), out)
    fail_at(monkeypatch, out / "g001-domb.edges.tsv", "open")
    with pytest.raises((DataError, OSError), match=FULL):
        save_dataset(node_collection(seed=2), out)
    monkeypatch.undo()
    manifest = out / "manifest.json"
    assert main(["pretrain", "--config", str(inputs["config"]), "--manifest", str(manifest),
                 "--out", str(tmp_path / "m.ckpt")]) == 3
    assert capsys.readouterr().err == f"data error: manifest file not found: {manifest}\n"
    assert temp_files(tmp_path) == [] and not (tmp_path / "m.ckpt").exists()


class TestWriteFile:
    def test_writes_its_chunks_in_order_as_utf8_and_bytes(self, tmp_path):
        path = tmp_path / "f"
        write_file(path, iter(["a\tβ\n", b"\x00\xff", bytearray(b"z")]))
        assert path.read_bytes() == "a\tβ\n".encode("utf-8") + b"\x00\xffz"
        assert [p.name for p in tmp_path.iterdir()] == ["f"]

    def test_no_chunks_write_an_empty_file(self, tmp_path):
        write_file(tmp_path / "f", [])
        assert (tmp_path / "f").read_bytes() == b""

    def test_an_error_in_the_chunks_leaves_the_old_file_and_no_temp_file(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"old")

        def chunks():
            yield "new"
            raise MemoryError("no room for the next chunk")

        with pytest.raises(MemoryError, match="^no room for the next chunk$"):
            write_file(path, chunks())
        assert path.read_bytes() == b"old" and [p.name for p in tmp_path.iterdir()] == ["f"]

    def test_a_symlink_is_replaced_not_written_through(self, tmp_path):
        target, link = tmp_path / "target", tmp_path / "link"
        target.write_bytes(b"kept")
        link.symlink_to(target)
        write_file(link, ["new"])
        assert not link.is_symlink() and link.read_bytes() == b"new"
        assert target.read_bytes() == b"kept"

    def test_a_directory_in_the_temp_files_place_is_refused_naming_the_target(self, tmp_path):
        path = tmp_path / "f"
        (tmp_path / "f.tmp").mkdir()
        with pytest.raises(DataError) as info:
            write_file(path, ["x"])
        assert str(info.value) == f"cannot write {path}: {os.strerror(errno.EISDIR)}"
        assert not path.exists()
