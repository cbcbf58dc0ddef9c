import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from leda import config
from leda.checkpoint import Checkpoint, check_param_memory, load_checkpoint, param_shapes, save_checkpoint
from leda.config import TrainConfig
from leda.dpu import DomainBasis
from leda.cli import main
from leda.errors import CheckpointFormatError, ConfigError, DataError
from leda.trainer import init_paramset, pretrain

from oracles import join_checkpoint, split_checkpoint, write_unchecked_checkpoint
from synthetic import node_collection, tiny_config


@pytest.fixture(scope="module")
def trained():
    return pretrain(node_collection(), tiny_config(epochs=5))


class TestRoundTrip:
    def test_bit_exact(self, trained, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(trained, path)
        loaded = load_checkpoint(path)
        assert loaded.config == trained.config
        assert loaded.epoch == trained.epoch
        for name, arr in trained.params.items():
            assert np.array_equal(loaded.params[name], arr), name
        assert [b.domain_id for b in loaded.bases] == [b.domain_id for b in trained.bases]
        for a, b in zip(trained.bases, loaded.bases):
            assert np.array_equal(a.V, b.V)
            assert a.padded == b.padded
        assert loaded.final_loss == pytest.approx(trained.final_loss)

    def test_header_config_is_checked_once(self, trained, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        save_checkpoint(trained, path)
        calls = []
        check = config._check_train_values
        monkeypatch.setattr(config, "_check_train_values", lambda *a: calls.append(a) or check(*a))
        load_checkpoint(path)
        assert len(calls) == 1

    def test_version_1_header_with_threads_loads(self, trained, tmp_path):
        # files written while `threads` was a training setting carry it
        path = tmp_path / "model.ckpt"
        save_checkpoint(trained, path)
        header, payload = split_checkpoint(path.read_bytes())
        assert header["version"] == 1 and "threads" not in header["config"]
        header["config"]["threads"] = 1
        path.write_bytes(join_checkpoint(header, payload))
        loaded = load_checkpoint(path)
        assert loaded.config == trained.config
        for name, arr in trained.params.items():
            assert loaded.params[name].tobytes() == arr.tobytes(), name
        for a, b in zip(trained.bases, loaded.bases):
            assert a.V.tobytes() == b.V.tobytes()

    def test_no_temp_file_left_behind(self, trained, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(trained, path)
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    def test_unwritable_path_is_named_as_given(self, trained, tmp_path):
        path = tmp_path / "missing" / "m.ckpt"
        with pytest.raises(DataError) as info:
            save_checkpoint(trained, path)
        assert str(path) in str(info.value) and ".tmp" not in str(info.value)

    def test_saving_onto_a_directory_leaves_no_temp_file(self, trained, tmp_path):
        path = tmp_path / "model.ckpt"
        path.mkdir()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError) as info:
                save_checkpoint(trained, path)
        assert str(info.value).startswith(f"cannot write {path}: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]
        assert not any(path.iterdir())

    def test_save_is_deterministic(self, trained, tmp_path):
        save_checkpoint(trained, tmp_path / "a.ckpt")
        save_checkpoint(trained, tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


class TestFormatErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_checkpoint(tmp_path / "nope.ckpt")

    def test_corrupt_magic(self, trained, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(trained, path)
        blob = bytearray(path.read_bytes())
        blob[:8] = b"NOTACKPT"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointFormatError, match="magic"):
            load_checkpoint(path)

    def test_truncated_payload(self, trained, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(trained, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(CheckpointFormatError, match="truncated"):
            load_checkpoint(path)

    def test_version_mismatch(self, trained, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(trained, path)
        blob = path.read_bytes()
        assert b'"version": 1' in blob
        path.write_bytes(blob.replace(b'"version": 1', b'"version": 9', 1))
        with pytest.raises(CheckpointFormatError, match="version mismatch"):
            load_checkpoint(path)

    def test_unknown_tensor_listed_by_name(self, trained, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(trained, path)
        blob = path.read_bytes()
        # rename one stored tensor (same byte length) so the header advertises
        # a tensor the reader does not expect
        assert blob.count(b"basis/doma") >= 1
        patched = blob.replace(b'"name": "basis/doma"', b'"name": "bonus/doma"', 1)
        path.write_bytes(patched)
        with pytest.raises(CheckpointFormatError, match="bonus/doma"):
            load_checkpoint(path)


class TestShapesFollowConfig:
    """A tensor whose shape disagrees with the header config must neither
    save nor load: it would only fail later, deep inside training or
    embedding. The files below are written without the save-time check."""

    @pytest.mark.parametrize("dims", [{}, dict(k=3, h=5, m=7, h_e=2, z=6)])
    def test_table_matches_initialization(self, dims):
        config = tiny_config(**dims)
        made = {name: node.shape for name, node in init_paramset(config).items()}
        assert param_shapes(config) == made

    def test_parameters_are_weighed_against_memory_four_times_over(self, monkeypatch):
        """Value, gradient and two AdamW moments, float64: memory patched to
        one page of exactly that many bytes holds them, one byte less does not."""
        config = tiny_config(k=3, h=5, m=7, h_e=2, z=6)
        need = 4 * 8 * sum(rows * cols for rows, cols in param_shapes(config).values())
        monkeypatch.setattr(os, "sysconf", lambda name: 1 if name == "SC_PHYS_PAGES" else need)
        check_param_memory(config)
        monkeypatch.setattr(os, "sysconf", lambda name: 1 if name == "SC_PHYS_PAGES" else need - 1)
        with pytest.raises(ConfigError, match=r"^no memory for the parameters of model dims "
                                              r"k=3, h=5, m=7, h_e=2, z=6$"):
            check_param_memory(config)

    def test_transposed_parameter_rejected(self, trained, tmp_path):
        w1 = trained.params["dpu.W1"]
        assert w1.shape == (4, 8)  # k=4, h=8
        bad = Checkpoint(
            config=trained.config,
            params={**trained.params, "dpu.W1": w1.T.copy()},
            bases=trained.bases,
            epoch=trained.epoch,
            final_loss=trained.final_loss,
        )
        write_unchecked_checkpoint(bad, tmp_path / "bad.ckpt")
        with pytest.raises(CheckpointFormatError, match=r"'dpu.W1' is 8x4.*expects 4x8"):
            load_checkpoint(tmp_path / "bad.ckpt")

    @pytest.mark.parametrize("name", ["dpu.b2", "lda.W_base", "lda.W_mu", "lda.W_dec"])
    def test_every_parameter_is_checked(self, trained, tmp_path, name):
        arr = trained.params[name]
        bad = Checkpoint(
            config=trained.config,
            params={**trained.params, name: np.zeros((arr.shape[0], arr.shape[1] + 1))},
            bases=trained.bases,
            epoch=trained.epoch,
            final_loss=trained.final_loss,
        )
        write_unchecked_checkpoint(bad, tmp_path / "bad.ckpt")
        with pytest.raises(CheckpointFormatError, match=name):
            load_checkpoint(tmp_path / "bad.ckpt")

    def test_basis_needs_k_columns(self, trained, tmp_path):
        first = trained.bases[0]
        narrow = DomainBasis(domain_id=first.domain_id, V=first.V[:, :2])
        bad = Checkpoint(
            config=trained.config,
            params=trained.params,
            bases=[narrow] + trained.bases[1:],
            epoch=trained.epoch,
            final_loss=trained.final_loss,
        )
        write_unchecked_checkpoint(bad, tmp_path / "bad.ckpt")
        with pytest.raises(CheckpointFormatError, match=r"basis/doma' is \d+x2.*expects \d+x4"):
            load_checkpoint(tmp_path / "bad.ckpt")

    def test_save_refuses_transposed_parameter(self, trained, tmp_path):
        bad = Checkpoint(
            config=trained.config,
            params={**trained.params, "dpu.W1": trained.params["dpu.W1"].T.copy()},
            bases=trained.bases,
            epoch=trained.epoch,
            final_loss=trained.final_loss,
        )
        with pytest.raises(CheckpointFormatError, match=r"'dpu.W1' is 8x4.*expects 4x8"):
            save_checkpoint(bad, tmp_path / "bad.ckpt")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", ["dpu.W1", "lda.W_dec"])
    def test_save_refuses_a_missing_parameter(self, trained, tmp_path, name):
        bad = Checkpoint(
            config=trained.config,
            params={key: arr for key, arr in trained.params.items() if key != name},
            bases=trained.bases,
            epoch=trained.epoch,
            final_loss=trained.final_loss,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CheckpointFormatError, match=f"^checkpoint is missing parameter tensor '{name}'$"):
                save_checkpoint(bad, tmp_path / "bad.ckpt")
        assert list(tmp_path.iterdir()) == []

    def test_save_refuses_narrow_basis(self, trained, tmp_path):
        first = trained.bases[0]
        bad = Checkpoint(
            config=trained.config,
            params=trained.params,
            bases=[DomainBasis(domain_id=first.domain_id, V=first.V[:, :2])] + trained.bases[1:],
            epoch=trained.epoch,
            final_loss=trained.final_loss,
        )
        with pytest.raises(CheckpointFormatError, match=r"basis/doma' is \d+x2.*expects \d+x4"):
            save_checkpoint(bad, tmp_path / "bad.ckpt")
        assert list(tmp_path.iterdir()) == []

    def test_unchecked_writer_matches_save_on_a_valid_checkpoint(self, trained, tmp_path):
        save_checkpoint(trained, tmp_path / "saved.ckpt")
        write_unchecked_checkpoint(trained, tmp_path / "raw.ckpt")
        saved = split_checkpoint((tmp_path / "saved.ckpt").read_bytes())
        assert split_checkpoint((tmp_path / "raw.ckpt").read_bytes()) == saved

    def test_header_dims_changed_under_the_tensors(self, saved, tmp_path):
        header, payload = split_checkpoint(saved)
        header["config"]["h"] = 6
        target = tmp_path / "bad.ckpt"
        target.write_bytes(join_checkpoint(header, payload))
        with pytest.raises(CheckpointFormatError, match="dpu.W1"):
            load_checkpoint(target)


# ---------------------------------------------------------------------------
# malformed headers and payloads


def header_paths(doc, prefix=()):
    """Every key/index path into the header, parents before children."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from header_paths(value, prefix + (key,))


def json_kind(value):
    if isinstance(value, bool) or value is None:
        return type(value)
    return (int, float) if isinstance(value, (int, float)) else type(value)


def transpose_entry(header, name):
    entry = next(t for t in header["tensors"] if t["name"] == name)
    entry["rows"], entry["cols"] = entry["cols"], entry["rows"]


def repeat_first_domain(header):
    # the file still lists every tensor the bases name, so only the id is wrong
    header["bases"][1].update(domain_id="doma", tensor="basis/domb")


def swap_basis_tensors(header):
    first, second = header["bases"][:2]
    first["tensor"], second["tensor"] = second["tensor"], first["tensor"]


SWAPS = ["abc", 1.5, 7, True, None, [], {"x": 1}]


@pytest.fixture(scope="module")
def saved(trained, tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    save_checkpoint(trained, path)
    return path.read_bytes()


class TestMalformedCheckpoints:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_header_deletion_or_type_swap(self, saved, tmp_path, data):
        header, payload = split_checkpoint(saved)
        path = data.draw(st.sampled_from(list(header_paths(header))))
        parent = header
        for key in path[:-1]:
            parent = parent[key]
        old = parent[path[-1]]
        swap = data.draw(st.sampled_from([None] + [s for s in SWAPS
                                               if json_kind(s) != json_kind(old)]))
        if swap is None:
            del parent[path[-1]]
        else:
            parent[path[-1]] = swap
        target = tmp_path / "mutated.ckpt"
        target.write_bytes(join_checkpoint(header, payload))
        # a config key may be dropped (its default applies) and a loss entry
        # may be dropped; every other deletion or type swap is an error
        optional = swap is None and len(path) == 2 and path[0] in ("config", "final_loss")
        try:
            load_checkpoint(target)
        except CheckpointFormatError:
            return
        assert optional, f"loaded despite {'deleting' if swap is None else 'swapping'} {path}"

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_payload_truncation(self, saved, tmp_path, data):
        header, payload = split_checkpoint(saved)
        cut = data.draw(st.integers(0, len(payload) - 1))
        target = tmp_path / "cut.ckpt"
        target.write_bytes(join_checkpoint(header, payload[:cut]))
        with pytest.raises(CheckpointFormatError, match="truncated payload"):
            load_checkpoint(target)

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (repeat_first_domain, "domain 'doma' has more than one basis"),
            (swap_basis_tensors, "basis of domain 'doma' must be tensor 'basis/doma', not 'basis/domb'"),
        ],
        ids=["domain-with-two-bases", "bases-swapped"],
    )
    def test_basis_entry_must_name_its_own_domain_once(self, saved, tmp_path, mutate, message):
        header, payload = split_checkpoint(saved)
        mutate(header)
        target = tmp_path / "bad.ckpt"
        target.write_bytes(join_checkpoint(header, payload))
        with pytest.raises(CheckpointFormatError) as info:
            load_checkpoint(target)
        assert message in str(info.value)

    def test_header_dims_too_large_to_hold_are_refused_unallocated(self, saved, tmp_path, capsys):
        """A header config with h = 10^11, and its tensor entries resized to
        match, lists a dpu.W1 of 3.2 TB that the payload does not hold: the
        reader refuses it in one line (exit 3) before making any array."""
        header, payload = split_checkpoint(saved)
        header["config"]["h"] = 10 ** 11
        shapes = param_shapes(TrainConfig.from_dict(header["config"]))
        for entry in header["tensors"]:
            entry["rows"], entry["cols"] = shapes.get(entry["name"], (entry["rows"], entry["cols"]))
        target = tmp_path / "huge.ckpt"
        target.write_bytes(join_checkpoint(header, payload))
        argv = ["embed", "--ckpt", str(target), "--manifest", str(tmp_path / "unused.json"),
                "--domain", "doma", "--out", str(tmp_path / "emb.tsv")]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert capsys.readouterr().err == f"data error: {target}: truncated payload for tensor 'dpu.W1'\n"
        assert peak < 1 << 24, peak
        assert not (tmp_path / "emb.tsv").exists()

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda h: h["bases"][0].pop("tensor"),
            lambda h: h["tensors"][0].pop("rows"),
            lambda h: h.pop("config"),
            lambda h: h.update(epoch="abc"),
            lambda h: h["config"].update(k="abc"),
            lambda h: transpose_entry(h, "dpu.W1"),
            lambda h: h["config"].update(k=3),
            lambda h: h["config"].update(k=10**9, h=10**9, m=10**9),
            lambda h: h["config"].update(lr=-1),
            repeat_first_domain,
            swap_basis_tensors,
        ],
        ids=["basis-without-tensor", "tensor-without-rows", "no-config", "epoch-abc", "k-abc",
             "w1-transposed", "k-disagrees-with-tensors", "huge-dims", "lr-negative",
             "domain-with-two-bases", "bases-swapped"],
    )
    def test_cli_exits_3(self, saved, tmp_path, capsys, mutate):
        header, payload = split_checkpoint(saved)
        mutate(header)
        target = tmp_path / "bad.ckpt"
        target.write_bytes(join_checkpoint(header, payload))
        code = main([
            "embed", "--ckpt", str(target), "--manifest", str(tmp_path / "unused.json"),
            "--domain", "doma", "--out", str(tmp_path / "emb.tsv"),
        ])
        assert code == 3
        assert "bad.ckpt" in capsys.readouterr().err
