"""The bits manifest (`bits_manifest.py`) depends neither on the CPU count
nor on the size of `linalg.row_blocks`'s blocks.

The row split's thresholds are patched low, so that products over the
collections' few dozen rows split into blocks of at least 8 rows: into 3
where a graph has 24 rows or more and the CPU count is 3. A third run at 1
CPU makes every `row_blocks` block one row, so that the byte-grid decode,
`CsrMatrix.from_dense` and the fused primitives each work many blocks.
"""

from leda import autodiff, datasets, linalg

import bits_manifest

# per node-level run: checkpoint, loss trace, two embeds, three reports;
# per graph-level run: checkpoint, loss trace, pooled rows, one report
ARTIFACTS = len(bits_manifest.RUNS) * (7 + 7 + 4)
# (CPU count, _BLOCK_BYTES); a block of 1 byte holds one row of any width
CONFIGS = [(1, linalg._BLOCK_BYTES), (3, linalg._BLOCK_BYTES), (1, 1)]
BLOCKED = (autodiff, datasets, linalg)  # the modules that call row_blocks


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
            most_blocks[-1][module.__name__] = max(most_blocks[-1][module.__name__], len(blocks))
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
        most_blocks.append(dict.fromkeys((module.__name__ for module in BLOCKED), 0))
        manifests.append(bits_manifest.manifest(tmp_path / f"{cpus}-{block_bytes}"))
    assert most_splits == [1, 3, 1]
    # the collections fit one default block; one-row blocks make many
    assert [max(most.values()) for most in most_blocks[:2]] == [1, 1]
    assert min(most_blocks[2].values()) > 1, most_blocks[2]
    assert len(manifests[0]) == ARTIFACTS
    assert manifests[0] == manifests[1] == manifests[2]
