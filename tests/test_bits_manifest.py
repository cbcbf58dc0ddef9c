"""The bits manifest (`bits_manifest.py`) depends neither on the CPU count
nor on the size of `linalg.row_blocks`'s blocks.

The row split's thresholds are patched low, so that products over the
collections' few dozen rows split into blocks of at least 8 rows: into 3
where a graph has 24 rows or more and the CPU count is 3. A third run at 1
CPU makes every `row_blocks` block one row, so that every pass that blocks
its rows works many blocks: the byte-grid decode, `CsrMatrix.from_dense`,
the fused primitives, and the writers of `save_dataset` (features, edges,
labels) and of `leda embed --out`, which the manifest runs through the CLI.
"""

import sys

from leda import autodiff, datasets, linalg

import bits_manifest

# per node-level run: checkpoint, loss trace, two embeds, three reports;
# per graph-level run: checkpoint, loss trace, pooled rows, one report
ARTIFACTS = len(bits_manifest.RUNS) * (7 + 7 + 4)
# (CPU count, _BLOCK_BYTES); a block of 1 byte holds one row of any width
CONFIGS = [(1, linalg._BLOCK_BYTES), (3, linalg._BLOCK_BYTES), (1, 1)]
BLOCKED = (autodiff, datasets, linalg)  # the modules that call row_blocks
# its callers, as module.function: the fused primitives, the byte-grid decode,
# `from_dense`, `write_float_tsv`'s share runner (features and `embed` rows),
# and the edges and labels writers
CALLERS = {"autodiff._row_blocks", "datasets._load_fixed_width", "linalg.from_dense", "datasets.run",
           "datasets._edge_lines", "datasets.save_dataset"}


def test_one_and_three_cpus_and_one_row_blocks_give_one_manifest(monkeypatch, tmp_path):
    monkeypatch.setattr(linalg, "SPLIT_MIN_ROWS", 8)
    monkeypatch.setattr(linalg, "SPLIT_MIN_WORK", 1 << 12)
    most_splits, most_blocks = [], []
    split_rows, row_blocks = linalg.split_rows, linalg.row_blocks

    def spy(rows, work, kernel):
        starts = []

        def recorded(lo, hi):
            starts.append(lo)
            kernel(lo, hi)

        split_rows(rows, work, recorded)
        most_splits[-1] = max(most_splits[-1], len(starts))

    def block_spy(module):
        def spied(rows, row_bytes):
            blocks = row_blocks(rows, row_bytes)
            caller = f"{module.__name__.removeprefix('leda.')}.{sys._getframe(1).f_code.co_name}"
            most_blocks[-1][caller] = max(most_blocks[-1].get(caller, 0), len(blocks))
            return blocks
        return spied

    monkeypatch.setattr(linalg, "split_rows", spy)
    for module in BLOCKED:
        monkeypatch.setattr(module, "row_blocks", block_spy(module))
    manifests = []
    for cpus, block_bytes in CONFIGS:
        monkeypatch.setattr(linalg, "_cpus", lambda: cpus)
        monkeypatch.setattr(linalg, "_BLOCK_BYTES", block_bytes)
        most_splits.append(0)
        most_blocks.append({})
        manifests.append(bits_manifest.manifest(tmp_path / f"{cpus}-{block_bytes}"))
    assert most_splits == [1, 3, 1]
    # the collections fit one default block, but for the 60 x 100 `bow`
    # features, which are written 4,096 values a block; one-row blocks make many
    assert most_blocks[0] == most_blocks[1] == {**dict.fromkeys(CALLERS, 1), "datasets.run": 2}
    assert most_blocks[2].keys() == CALLERS and min(most_blocks[2].values()) > 1, most_blocks[2]
    assert len(manifests[0]) == ARTIFACTS
    assert manifests[0] == manifests[1] == manifests[2]
