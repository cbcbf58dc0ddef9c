"""Dense/sparse matrix primitives: symmetric adjacency normalization, the
dense-or-CSR feature rule, seeded truncated SVD, a Gaussian-entropy diagnostic,
the row split of the large products, and the forked split of independent
repeats with the shared output its shares may write into.

All numerics are float64. Every operation here is a pure function and all
returned containers are frozen, so values can be shared freely across tasks.

BLAS runs on one thread (the CLI pins it), so that a product's bits never
depend on the CPU count. A large sparse or dense product is instead split
into contiguous blocks of whole output rows, one per CPU this process may
use, each written by one kernel call into its own slice of the output. An
output row is computed by the same kernel in the same order whichever block
holds it, so the result is bitwise that of one call. The caller runs the
first block, and a thread started for the product each other one. A CSR's
transpose product is one kernel call on the CSR's own arrays, whose output
rows are the CSR's columns, which those arrays do not hold apart; a
matrix bitwise its own transpose by construction (a normalized adjacency,
or `from_edges`'s) uses its split product.

Threads gain little on work made of many small numpy calls, as each call
holds the GIL between them. `split_repeats` therefore runs shares of a
protocol's independent repeats in forked child processes, which inherit
the arrays rather than copying them and send back only their results. A
repeat computes the same bits in whichever process runs it. Where those
results are large, as the rows of a parsed table are, the shares write
them in place into one `shared_empty` output made before the fork, and
send back only where they wrote. Both splits join every share before they
return or raise, and raise the lowest failing share's error, so errors do
not depend on the CPU count either.
"""

from __future__ import annotations

import contextvars
import math
import mmap
import os
import pickle
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.sparse import _sparsetools

from .errors import DataError, NumericError

SVD_OVERSAMPLE = 8
# 4 power iterations leave a worst-case relative gap near 5e-6 against the
# exact rank-k optimum on small dense matrices; 8 brings it below 1e-8.
SVD_POWER_ITERS = 8

# Features with at most this share of nonzeros are held as a CsrMatrix. On
# random binary 3000 x 1500 features (k=64, one BLAS thread), CSR wins the
# basis SVD plus X Vhat below about 12% density; 5% leaves margin. Bag-of-words
# (0.5-2.4%) falls below; degree (3/16) and Gaussian do not.
SPARSE_FEATURE_DENSITY = 0.05

ENTROPY_DIAG_REG = 1e-9
ORTHONORMAL_TOL = 1e-8

# A product is split only where every block gets at least SPLIT_MIN_ROWS
# output rows and the whole costs at least SPLIT_MIN_WORK dense
# multiply-adds; a smaller one is one call, as handing a block to a thread
# costs more than it saves. A sparse multiply-add, which gathers a row of
# the dense factor, counts as SPARSE_MADD_COST dense ones. On a 2-core VM
# with one BLAS thread, 2 blocks of a product timed alone broke even near
# 3-4M dense multiply-adds and 0.8M sparse ones; inside a training epoch,
# where the worker's core starts with cold caches, products below about
# 16M gained nothing, and no-lda (whose products are the smallest) slowed.
SPLIT_MIN_ROWS = 1024
SPLIT_MIN_WORK = 1 << 24
SPARSE_MADD_COST = 4

# A protocol's independent repeats are split into forked shares only where
# each share gets at least REPEAT_MIN_WORK of their multiply-adds; below
# that, a fork and join (4-6 ms for a 150-350 MB process) costs more than
# the share saves. On the same VM, in a 300 MB process, 2 shares timed
# alone broke even near 0.3M per share for a probe run, which is bound by
# its 300 small steps. The few-shot product broke even only near 150M per
# share at the bench shape, as two BLAS products at once ran no faster than
# one there; below that a split cost it 6-12 ms (best of 7).
REPEAT_MIN_WORK = 1 << 23

# A whole-table pass that builds a temporary as large as the table (a byte
# grid's decode, `CsrMatrix.from_dense`'s nonzero mask) runs over blocks of
# rows of about _BLOCK_BYTES, so that its temporaries are reused in cache
# rather than written to memory once per pass. On a 2-core VM the 49 MB
# citeseer-like grid (3,327 lines of 14.8 KB) decoded in 60-63 ms by
# whole-table columns and, by blocks of 64 KB, 256 KB, 1 MB and 4 MB, in
# 39-43, 33-34, 34-36 and 38 ms (medians of 15).
_BLOCK_BYTES = 1 << 18


def as_dense(values, name: str = "matrix") -> np.ndarray:
    """Validate and return a 2-D float64 array (row-major)."""
    x = np.ascontiguousarray(values, dtype=np.float64)
    if x.ndim != 2:
        raise DataError(f"{name} must be 2-D, got ndim={x.ndim}")
    if not np.all(np.isfinite(x)):
        raise NumericError(f"{name} contains non-finite entries")
    return x


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        return os.cpu_count() or 1


def physical_memory() -> int:
    """The machine's memory in bytes, the figure every size check weighs a
    declared size against."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _index_dtype(rows: int, cols: int, nnz: int):
    """scipy's index dtype for a CSR of this shape and nnz: int32 while all
    three fit, else int64."""
    return np.int32 if max(rows, cols, nnz) <= np.iinfo(np.int32).max else np.int64


def _outcome(run, lo: int, hi: int) -> tuple[bool, object]:
    """(True, run(lo, hi)), or (False, the error it raised)."""
    try:
        return True, run(lo, hi)
    except Exception as exc:
        return False, exc


def _run_shares(count: int, shares: int, run, start) -> list:
    """[run(lo, hi), ...] over `shares` contiguous shares [lo, hi) that cover
    [0, count). The caller runs the first; start(run, lo, hi) starts each
    other one and gives a join() that waits for it and returns its
    `_outcome`. Every share ends before this returns or raises, and the
    lowest failing share's error is raised, as one serial run would."""
    bounds = [count * i // shares for i in range(shares + 1)]
    joins = []
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            joins.append(start(run, lo, hi))
        outcomes = [_outcome(run, bounds[0], bounds[1])]
    finally:
        joined = [join() for join in joins]
    for ok, value in outcomes + joined:
        if not ok:
            raise value
    return [value for _, value in outcomes + joined]


def _start_thread(run, lo: int, hi: int):
    """Start run(lo, hi) on a new thread in a copy of the caller's context,
    so under its `np.errstate`; its join()."""
    outcome, context = [], contextvars.copy_context()
    thread = threading.Thread(target=lambda: outcome.append(context.run(_outcome, run, lo, hi)))
    thread.start()
    return lambda: thread.join() or outcome[0]


def split_rows(rows: int, work: int, kernel) -> None:
    """Call kernel(lo, hi) on contiguous blocks [lo, hi) that cover [0, rows),
    one per CPU but each at least SPLIT_MIN_ROWS rows, and one block in all
    when `work` is below SPLIT_MIN_WORK, by `_run_shares` with a thread per
    other block. Each kernel call must write only its own rows of the
    output."""
    blocks = max(1, min(_cpus(), rows // SPLIT_MIN_ROWS)) if work >= SPLIT_MIN_WORK else 1
    _run_shares(rows, blocks, kernel, _start_thread)


def _fork_share(run, lo: int, hi: int):
    """Fork a child that sends the pickled `_outcome` of run(lo, hi) through
    a pipe and ends by os._exit, so that no atexit handler or inherited
    buffer runs twice; its join() reads the outcome, then reaps the child."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read)
            data = pickle.dumps(_outcome(run, lo, hi))
            with os.fdopen(write, "wb") as pipe:
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write)

    def join():
        with os.fdopen(read, "rb") as pipe:
            data = pipe.read()
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if status != 0:
            return False, RuntimeError(f"a forked share ended without a result (exit status {status})")
        return pickle.loads(data)

    return join


def repeat_shares(count: int, work: int) -> int:
    """How many shares `split_repeats` cuts `count` repeats of `work`
    multiply-adds in all into: one per CPU, but each with at least one
    repeat and REPEAT_MIN_WORK of the work, and one in all below that."""
    return max(1, min(_cpus(), count, work // REPEAT_MIN_WORK))


def shared_empty(shape: tuple[int, ...], dtype) -> np.ndarray:
    """An uninitialized array in an anonymous shared mapping: what a forked
    child writes into it, its parent reads, so the child need not send it
    back. A page takes memory only once it is written."""
    dtype = np.dtype(dtype)
    count = math.prod(shape)
    buffer = mmap.mmap(-1, max(1, count * dtype.itemsize))
    return np.frombuffer(buffer, dtype, count).reshape(shape)


def split_repeats(count: int, work: int, run) -> list:
    """run(lo, hi), a list, over contiguous shares [lo, hi) that cover
    [0, count), concatenated in share order; `repeat_shares` gives their
    number, and `_run_shares` runs them with a forked child per other
    share, which runs on the arrays it inherits."""
    shares = _run_shares(count, repeat_shares(count, work), run, _fork_share)
    return [item for share in shares for item in share]


def row_blocks(rows: int, row_bytes: int) -> list[tuple[int, int]]:
    """Contiguous blocks [lo, hi) that cover [0, rows), each of at least one
    row of `row_bytes` and at most _BLOCK_BYTES where a row fits."""
    step = max(1, _BLOCK_BYTES // max(1, row_bytes))
    return [(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def matmul_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b with its output rows split by `split_rows`, bitwise one call.
    Two kinds stay one call, as their row blocks would be other kernels or
    other bits: operands that may share memory, since numpy forms an array
    times its own transpose by SYRK, and a single column, which numpy forms
    by GEMV (OpenBLAS 0.3.31's GEMV gave other low bits on blocks of rows)."""
    rows, inner = a.shape
    cols = b.shape[1]
    out = np.empty((rows, cols))
    work = 0 if cols == 1 or np.may_share_memory(a, b) else rows * inner * cols
    split_rows(rows, work, lambda lo, hi: np.matmul(a[lo:hi], b, out=out[lo:hi]))
    return out


@dataclass(frozen=True)
class CsrMatrix:
    """Immutable CSR sparse matrix with float64 values.

    row_offsets has length rows+1 and is nondecreasing; within each row the
    column indices are strictly increasing. Both are stored in scipy's index
    dtype (int32 while rows, cols and nnz fit), so that the scipy kernels
    every operation here calls on the three arrays read them uncopied.
    """

    rows: int
    cols: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        # an integer array is checked in its own dtype, with no copy; anything else as int64
        offsets, indices = (
            a if isinstance(a, np.ndarray) and a.dtype.kind in "iu" else np.asarray(a, dtype=np.int64)
            for a in (self.row_offsets, self.col_indices)
        )
        values = np.asarray(self.values, dtype=np.float64)
        if offsets.shape != (self.rows + 1,):
            raise DataError("row_offsets must have length rows+1")
        if offsets[0] != 0 or offsets[-1] != len(indices):
            raise DataError("row_offsets must start at 0 and end at nnz")
        if np.any(offsets[1:] < offsets[:-1]):
            raise DataError("row_offsets must be nondecreasing")
        if len(indices) != len(values):
            raise DataError("col_indices and values must have equal length")
        if len(indices) and (indices.min() < 0 or indices.max() >= self.cols):
            raise DataError("column index out of range")
        if len(indices) > 1:
            # steps across a row boundary are exempt; any other step must rise
            bad = indices[1:] <= indices[:-1]
            starts = offsets[1:-1]
            bad[starts[(starts > 0) & (starts < len(indices))] - 1] = False
            bad = np.flatnonzero(bad)
            if len(bad):
                r = int(np.searchsorted(offsets, bad[0] + 1, side="right")) - 1
                raise DataError(f"column indices not strictly increasing in row {r}")
        if not np.all(np.isfinite(values)):
            raise NumericError("sparse values contain non-finite entries")
        index = _index_dtype(self.rows, self.cols, len(indices))
        offsets, indices = (np.asarray(a, dtype=index, order="C") for a in (offsets, indices))
        for name, arr in (("row_offsets", offsets), ("col_indices", indices), ("values", values)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def nnz(self) -> int:
        return len(self.values)

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows, self.cols

    @staticmethod
    def from_scipy(mat) -> CsrMatrix:
        m = mat.tocsr(copy=True)  # the caller's arrays are neither sorted nor frozen
        m.sum_duplicates()
        m.sort_indices()
        return CsrMatrix(
            rows=m.shape[0],
            cols=m.shape[1],
            row_offsets=m.indptr,
            col_indices=m.indices,
            values=m.data,
        )

    @staticmethod
    def block_diag(blocks) -> CsrMatrix:
        """The blocks' arrays concatenated, each shifted past those before it."""
        entries = np.cumsum([0] + [b.nnz for b in blocks])
        columns = np.cumsum([0] + [b.cols for b in blocks])
        offsets = np.concatenate([[0]] + [b.row_offsets[1:] + e for b, e in zip(blocks, entries)])
        indices = np.concatenate([b.col_indices + c for b, c in zip(blocks, columns)])
        values = np.concatenate([b.values for b in blocks])
        return CsrMatrix(sum(b.rows for b in blocks), int(columns[-1]), offsets, indices, values)

    @staticmethod
    def from_dense(dense, divisor: float | None = None) -> CsrMatrix:
        """The nonzeros of a 2-D real table, each over `divisor` if given. An
        integer table is converted to float64 at its nonzeros alone. They
        are found by `row_blocks`, in row-major order, the CSR order, so no
        mask as large as the table is ever held beside it."""
        # np.flatnonzero finds positions 3x as fast on the mask x != 0 as on
        # a uint8 or float64 table, and the mask keeps NaN and drops -0.0 as
        # the table's truth value does
        x = np.ascontiguousarray(dense)
        rows, width = x.shape
        index = _index_dtype(rows, width, x.size)
        ends, cols, values = [np.zeros(1, np.int64)], [np.zeros(0, index)], [np.zeros(0, x.dtype)]
        for lo, hi in row_blocks(rows, width * x.itemsize):
            block = x[lo:hi]
            flat = np.flatnonzero(block != 0)
            # where each row's entries end, counted on from the blocks before
            ends.append(np.searchsorted(flat, np.arange(1, hi - lo + 1) * width) + ends[-1][-1])
            cols.append((flat % width).astype(index))
            values.append(block.ravel()[flat])
        values = np.concatenate(values)
        return CsrMatrix(rows, width, np.concatenate(ends), np.concatenate(cols),
                         values if divisor is None else np.divide(values, divisor))

    @staticmethod
    def from_edges(n: int, edges: np.ndarray) -> CsrMatrix:
        """Symmetric binary adjacency from an (m, 2) integer array of (i, j)
        pairs: each pair sets both (i, j) and (j, i); duplicates collapse.
        Its arrays are their own transpose's, so it is a `_SymmetricCsr`."""
        pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
            raise DataError(f"edge node index outside [0, {n})")
        # sorted unique row-major keys i * n + j are exactly the CSR order; an
        # in-place sort and one mask rather than np.unique, whose hash table is
        # far slower on 1M keys
        keys = np.multiply(pairs.T, n, order="C")
        keys += pairs.T[::-1]  # i * n + j, then j * n + i
        keys = keys.ravel()
        keys.sort()
        first = np.ones(len(keys), dtype=bool)  # the first key of each run of equal ones
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        keys = keys[first]
        # row r's entries are the keys in [r * n, (r + 1) * n); a key mod n is its column
        offsets = np.searchsorted(keys, np.arange(n + 1) * n)
        keys %= n
        cols = keys.astype(_index_dtype(n, n, len(keys)))
        del keys
        return _SymmetricCsr(rows=n, cols=n, row_offsets=offsets, col_indices=cols, values=np.ones(len(cols)))

    def matmul_dense(self, x: np.ndarray) -> np.ndarray:
        """self @ x by scipy's own multi-vector kernel, which adds each output
        row's terms in column order, with the rows split by `split_rows`. The
        kernel reads x unchecked, so its shape is checked here."""
        if x.shape[0] != self.cols:
            raise DataError(f"sparse ({self.rows}x{self.cols}) @ dense {x.shape}: inner dims differ")
        width = x.shape[1]
        x = np.ascontiguousarray(x, dtype=np.float64).ravel()
        out = np.zeros((self.rows, width))

        def kernel(lo, hi):
            _sparsetools.csr_matvecs(hi - lo, self.cols, width, self.row_offsets[lo:hi + 1],
                                     self.col_indices, self.values, x, out[lo:hi].ravel())

        split_rows(self.rows, SPARSE_MADD_COST * self.nnz * width, kernel)
        return out

    def t_matmul_dense(self, x: np.ndarray) -> np.ndarray:
        """self.T @ x by one call of scipy's CSC multi-vector kernel on this
        matrix's own arrays, the CSC form of its transpose, so bitwise the
        product of scipy's CSR matrix on these arrays, `m.T @ x`. The kernel
        reads x unchecked, so its shape is checked here."""
        if x.shape[0] != self.rows:
            raise DataError(f"sparse ({self.rows}x{self.cols}).T @ dense {x.shape}: inner dims differ")
        out = np.zeros((self.cols, x.shape[1]))
        _sparsetools.csc_matvecs(self.cols, self.rows, x.shape[1], self.row_offsets, self.col_indices,
                                 self.values, np.ascontiguousarray(x, dtype=np.float64).ravel(), out.ravel())
        return out

    def is_symmetric(self) -> bool:
        """Whether the transpose, as scipy's `csr_tocsc` writes it, has equal arrays."""
        if self.rows != self.cols:  # the kernel writes cols + 1 offsets
            return False
        mine = (self.row_offsets, self.col_indices, self.values)
        transpose = [np.empty_like(a) for a in mine]
        _sparsetools.csr_tocsc(self.rows, self.cols, *mine, *transpose)
        return all(map(np.array_equal, mine, transpose))

    def to_dense(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Rows [lo, hi) of the matrix, all by default, as a dense array."""
        offsets = self.row_offsets[lo:None if hi is None else hi + 1]
        out = np.zeros((len(offsets) - 1, self.cols))
        _sparsetools.csr_todense(len(out), self.cols, offsets, self.col_indices, self.values, out.ravel())
        return out


def feature_operand(x: np.ndarray | CsrMatrix, divisor: float | None = None) -> np.ndarray | CsrMatrix:
    """x, or a table x over `divisor`, as a CsrMatrix when at most
    SPARSE_FEATURE_DENSITY of its entries are nonzero, else as a dense array
    (x itself when no divisor is given). A CsrMatrix x is kept when it is that
    sparse and stores no zero, and is otherwise ruled on as its dense table."""
    if isinstance(x, CsrMatrix):
        if x.nnz <= SPARSE_FEATURE_DENSITY * x.rows * x.cols and np.all(x.values):
            return x
        x = x.to_dense()
    if np.count_nonzero(x) > SPARSE_FEATURE_DENSITY * x.size:
        return x if divisor is None else np.divide(x, divisor)
    return CsrMatrix.from_dense(x, divisor)


class _SymmetricCsr(CsrMatrix):
    """A CsrMatrix bitwise its own transpose, whose transpose product is its
    own row-split product: a type, as a method bound onto the instance would
    make a cycle that only the garbage collector frees."""

    t_matmul_dense = CsrMatrix.matmul_dense


def normalize_adjacency(adj: CsrMatrix) -> CsrMatrix:
    """Symmetric normalization, with self-loops added, of a `DomainGraph`'s
    adjacency (square, symmetric, binary, loop-free: the graph checks that).

    Returns S with S[i, j] = (A + I)[i, j] / sqrt(deg_i * deg_j), where the
    degrees count the self-loop. It is built from A's arrays, each diagonal
    entry at its sorted place, with scipy's D (A + I) D bits. S[i, j] is
    inv_sqrt[i] * inv_sqrt[j], which IEEE rounds alike in either order, so
    S of a symmetric A is bitwise its own transpose: a `_SymmetricCsr`.
    """
    n, offsets, cols = adj.rows, adj.row_offsets, adj.col_indices
    lengths = np.diff(offsets)
    rows = np.repeat(np.arange(n, dtype=cols.dtype), lengths)
    below = np.bincount(rows[cols < rows], minlength=n)  # entries left of each diagonal
    del rows
    cols = np.insert(cols, offsets[:-1] + below, np.arange(n, dtype=cols.dtype))
    inv_sqrt = 1.0 / np.sqrt(lengths + 1.0)
    values = np.repeat(inv_sqrt, lengths + 1)  # row i's entries, the diagonal's included
    values *= inv_sqrt[cols]
    return _SymmetricCsr(n, n, offsets + np.arange(n + 1), cols, values)


@dataclass(frozen=True)
class SvdResult:
    """Rank-k factorization X ~ U diag(s) V^T with orthonormal V columns."""

    U: np.ndarray
    singular_values: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.singular_values, dtype=np.float64)
        if np.any(np.diff(s) > 0):
            raise NumericError("singular values must be nonincreasing")
        if np.any(s < 0):
            raise NumericError("singular values must be nonnegative")
        gram = self.V.T @ self.V
        if np.max(np.abs(gram - np.eye(gram.shape[0]))) > ORTHONORMAL_TOL:
            raise NumericError("V columns are not orthonormal")


def basis_signs(v: np.ndarray) -> np.ndarray:
    """The basis sign convention: per column of v, the factor (+1 or -1) that
    makes its largest-magnitude entry nonnegative, ties going to the lowest
    row. Multiply v (and U of the same SVD) by it; negation is exact."""
    lead = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    return np.where(lead < 0, -1.0, 1.0)


def _finite_sketch(product: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(product)):
        raise NumericError("svd sketch overflowed: the features are too large to factor")
    return product


def truncated_svd(x: np.ndarray | CsrMatrix, k: int, seed: int) -> SvdResult:
    """Best rank-k factorization via a seeded randomized range finder.

    A Gaussian sketch Z (d x ell, ell = k + SVD_OVERSAMPLE) is refined by
    SVD_POWER_ITERS subspace iterations Z <- qr(x^T (x Z)); then Q = qr(x Z)
    and the small matrix Q^T x is factored exactly. Only the d side is
    orthonormalized per step (Halko, Martinsson & Tropp 2011), so a single
    n x ell QR is taken. A step costs O(n d ell), or O(nnz ell) when x is a
    CsrMatrix, and nothing d x d is formed. Deterministic for a fixed seed.
    A sketch product that overflows raises NumericError.
    """
    # a dense x keeps numpy's products as written: (x^T Q)^T is not bitwise Q^T x
    if isinstance(x, CsrMatrix):
        times, t_times, q_t_times = x.matmul_dense, x.t_matmul_dense, lambda q: x.t_matmul_dense(q).T
    else:
        x = as_dense(x, "svd input")
        times, t_times, q_t_times = (lambda z: x @ z), (lambda y: x.T @ y), (lambda q: q.T @ x)
    n, d = x.shape
    if not 1 <= k <= min(n, d):
        raise DataError(f"svd rank k={k} out of range for {n}x{d} input")
    ell = min(k + SVD_OVERSAMPLE, min(n, d))
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((d, ell))
    # a sketch product that overflows is named by _finite_sketch; qr and svd
    # set their own error state
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(SVD_POWER_ITERS):
            z, _ = np.linalg.qr(_finite_sketch(t_times(times(z))))
        q, _ = np.linalg.qr(_finite_sketch(times(z)))
        u_small, s, vt = np.linalg.svd(_finite_sketch(q_t_times(q)), full_matrices=False)
    v = vt[:k].T.copy()
    signs = basis_signs(v)
    v *= signs
    return SvdResult(U=(q @ u_small[:, :k]) * signs, singular_values=s[:k].copy(), V=v)


class EntropyResult(NamedTuple):
    """Differential-entropy estimate in nats; degenerate when the row
    covariance is singular (entropy then reported as -inf)."""

    value: float
    degenerate: bool


def gaussian_entropy(vhat: np.ndarray) -> EntropyResult:
    """Entropy of a Gaussian fitted to the rows of a d x m matrix.

    Uses the sample covariance of the rows (ddof=1), regularized by
    ENTROPY_DIAG_REG on the diagonal before taking the determinant:
    0.5 * log((2*pi*e)^m * det(Sigma)). Diagnostic only, never trained on.
    """
    vhat = as_dense(vhat, "entropy input")
    d, m = vhat.shape
    if d <= m:
        return EntropyResult(value=-math.inf, degenerate=True)
    cov = np.cov(vhat, rowvar=False, ddof=1)
    cov = np.atleast_2d(cov)
    eigs = np.linalg.eigvalsh(cov)
    if eigs[0] < 1e-12 * max(1.0, eigs[-1]):
        return EntropyResult(value=-math.inf, degenerate=True)
    cov_reg = cov + ENTROPY_DIAG_REG * np.eye(m)
    sign, logdet = np.linalg.slogdet(cov_reg)
    if sign <= 0:
        return EntropyResult(value=-math.inf, degenerate=True)
    value = 0.5 * (m * math.log(2.0 * math.pi * math.e) + logdet)
    return EntropyResult(value=float(value), degenerate=False)
