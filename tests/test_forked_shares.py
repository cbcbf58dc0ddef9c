"""The forked split of the protocols' independent repeats: the shares
cover the repeats in order, the parent runs the first one, an error comes
back as a serial run raises it, and no child outlives a call.

The CPU count is patched to 1, 2 and 3 and REPEAT_MIN_WORK to 1, and each
repeat counts one multiply-add, so that these small calls fork.
"""

import multiprocessing
import os
import time

import numpy as np
import pytest

from leda import linalg
from leda.errors import DataError, NumericError
from leda.linalg import matmul_rows, shared_empty, split_repeats

CPU_COUNTS = (1, 2, 3)


@pytest.fixture
def use_cpus(monkeypatch):
    """use_cpus(n): from now on split repeats for n CPUs, at any work."""

    def use(n):
        monkeypatch.setattr(linalg, "_cpus", lambda: n)
        monkeypatch.setattr(linalg, "REPEAT_MIN_WORK", 1)

    return use


def logged(log, fail=None):
    """run(lo, hi) that appends "lo hi pid" to `log`, then raises the error
    type `fail` maps its lo to, or returns its repeats."""
    fail = fail or {}

    def run(lo, hi):
        with open(log, "a") as f:
            f.write(f"{lo} {hi} {os.getpid()}\n")
        if lo in fail:
            raise fail[lo](f"share at {lo} failed")
        return list(range(lo, hi))

    return run


def shares_in(log):
    """The (lo, hi, pid) of each share that ran, sorted by lo."""
    return sorted(tuple(map(int, line.split())) for line in log.read_text().splitlines())


def assert_no_child_left(shares):
    assert multiprocessing.active_children() == []
    for _, _, pid in shares[1:]:
        with pytest.raises(ChildProcessError):  # reaped: no longer this process's child
            os.waitpid(pid, os.WNOHANG)


class TestSplitRepeats:
    @pytest.mark.parametrize("cpus", CPU_COUNTS)
    @pytest.mark.parametrize("count", [0, 1, 2, 5, 7, 29])
    def test_shares_cover_the_repeats_in_order(self, use_cpus, tmp_path, cpus, count):
        use_cpus(cpus)
        log = tmp_path / "log"
        assert split_repeats(count, count, logged(log)) == list(range(count))
        shares = shares_in(log)
        assert len(shares) == max(1, min(cpus, count))  # count < CPUs: one share per repeat
        assert shares[0][0] == 0 and shares[-1][1] == count
        assert all(a[1] == b[0] for a, b in zip(shares, shares[1:]))
        pids = [pid for _, _, pid in shares]
        assert pids[0] == os.getpid()  # the caller runs the first share itself
        assert os.getpid() not in pids[1:] and len(set(pids)) == len(pids)
        assert_no_child_left(shares)

    def test_each_share_gets_the_break_even_work(self, monkeypatch, tmp_path):
        monkeypatch.setattr(linalg, "_cpus", lambda: 3)
        per_share = linalg.REPEAT_MIN_WORK
        for work, want in [(per_share - 1, 1), (2 * per_share - 1, 1), (2 * per_share, 2),
                           (3 * per_share, 3), (100 * per_share, 3)]:
            log = tmp_path / f"{work}"
            assert split_repeats(10, work, logged(log)) == list(range(10))
            assert len(shares_in(log)) == want, work

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_a_childs_error_comes_back_with_its_type_and_message(self, use_cpus, tmp_path, cpus):
        # every child share fails, the later ones with another type: the
        # lowest one's error is what a serial run would raise first
        use_cpus(cpus)
        log = tmp_path / "log"
        first_child = 6 // cpus
        fail = {lo: DataError if lo == first_child else NumericError for lo in range(1, 6)}
        with pytest.raises(DataError, match=f"^share at {first_child} failed$"):
            split_repeats(6, 6, logged(log, fail))
        fail = {lo: NumericError for lo in range(1, 6)}
        with pytest.raises(NumericError, match=f"^share at {first_child} failed$"):
            split_repeats(6, 6, logged(log, fail))
        assert_no_child_left(shares_in(log))

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_the_first_shares_error_wins_over_running_children(self, use_cpus, tmp_path, cpus):
        use_cpus(cpus)
        log = tmp_path / "log"
        fail = {0: DataError, **{lo: NumericError for lo in range(1, 6)}}
        run = logged(log, fail)

        def slow_children(lo, hi):
            time.sleep(0.0 if lo == 0 else 0.2)  # share 0 fails while the children run
            return run(lo, hi)

        with pytest.raises(DataError, match="^share at 0 failed$"):
            split_repeats(6, 6, slow_children)
        shares = shares_in(log)
        assert len(shares) == cpus  # every child ran to its end before the call returned
        assert_no_child_left(shares)

    def test_a_child_that_ends_without_a_result_is_an_error(self, use_cpus, tmp_path):
        use_cpus(2)
        log = tmp_path / "log"
        run = logged(log)

        def dies(lo, hi):
            run(lo, hi)
            if lo:
                os._exit(3)
            return list(range(lo, hi))

        with pytest.raises(RuntimeError, match="exit status 3"):
            split_repeats(4, 4, dies)
        assert_no_child_left(shares_in(log))

    def test_a_failed_fork_closes_its_pipe_and_joins_the_children_before_it(
            self, use_cpus, monkeypatch, tmp_path):
        use_cpus(3)
        fork, forked = os.fork, []

        def fork_once():
            if forked:
                raise BlockingIOError("no process left")
            forked.append(None)
            return fork()

        monkeypatch.setattr(linalg.os, "fork", fork_once)
        log = tmp_path / "log"
        open_fds = sorted(os.listdir("/proc/self/fd"))
        with pytest.raises(BlockingIOError, match="no process left"):
            split_repeats(6, 6, logged(log))
        assert sorted(os.listdir("/proc/self/fd")) == open_fds
        [(lo, hi, pid)] = shares_in(log)  # the first child's share ran; the caller's did not
        assert (lo, hi) == (2, 4)
        assert_no_child_left([None, (lo, hi, pid)])

    @pytest.mark.parametrize("cpus", CPU_COUNTS)
    @pytest.mark.parametrize("shape", [(0, 3), (1, 1), (7, 3)])
    def test_rows_the_children_write_into_a_shared_output_reach_the_caller(
            self, use_cpus, cpus, shape):
        use_cpus(cpus)
        out = shared_empty(shape, np.int64)
        assert out.shape == shape and out.dtype == np.int64

        def share(lo, hi):
            out[lo:hi] = np.arange(lo, hi)[:, None] * 10 + os.getpid() % 7
            return [os.getpid()]

        pids = split_repeats(shape[0], shape[0], share)
        owner = np.repeat(pids, np.diff([shape[0] * i // len(pids) for i in range(len(pids) + 1)]))
        expected = np.arange(shape[0])[:, None] * 10 + owner[:, None] % 7
        assert np.array_equal(out, np.broadcast_to(expected, shape))
        assert len(set(pids)) == max(1, min(cpus, shape[0]))

    def test_a_child_forked_after_a_split_product_makes_its_own_pool(self, use_cpus, monkeypatch):
        # the parent's pool has a live worker thread when the children fork;
        # each child must split its own products on a pool of its own
        use_cpus(2)
        monkeypatch.setattr(linalg, "_POOL", None)
        monkeypatch.setattr(linalg, "SPLIT_MIN_ROWS", 4)
        monkeypatch.setattr(linalg, "SPLIT_MIN_WORK", 1)
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((29, 7)), rng.standard_normal((7, 5))
        assert matmul_rows(a, b).tobytes() == (a @ b).tobytes()
        parent_pool = linalg._executor()[1]
        try:
            def share(lo, hi):
                return [(os.getpid(), linalg._executor()[1] is parent_pool,
                         matmul_rows(a, b).tobytes())]

            results = split_repeats(2, 2, share)
        finally:
            parent_pool.shutdown()
        assert [pid == os.getpid() for pid, _, _ in results] == [True, False]
        assert [same_pool for _, same_pool, _ in results] == [True, False]
        assert all(got == (a @ b).tobytes() for _, _, got in results)
        assert multiprocessing.active_children() == []
