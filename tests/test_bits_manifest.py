"""The bits manifest (`bits_manifest.py`) does not depend on the CPU count.

The row split's thresholds are patched low, so that products over the
collections' few dozen rows split into blocks of at least 8 rows: into 3
where a graph has 24 rows or more and the CPU count is 3.
"""

from leda import linalg

import bits_manifest

# per node-level run: checkpoint, loss trace, two embeds, three reports;
# per graph-level run: checkpoint, loss trace, pooled rows, one report
ARTIFACTS = len(bits_manifest.RUNS) * (7 + 7 + 4)


def test_one_and_three_cpus_give_one_manifest(monkeypatch, tmp_path):
    monkeypatch.setattr(linalg, "SPLIT_MIN_ROWS", 8)
    monkeypatch.setattr(linalg, "SPLIT_MIN_WORK", 1 << 12)
    most_blocks = []
    split_rows = linalg.split_rows

    def spy(rows, work, kernel):
        starts = []

        def recorded(lo, hi):
            starts.append(lo)
            kernel(lo, hi)

        split_rows(rows, work, recorded)
        most_blocks[-1] = max(most_blocks[-1], len(starts))

    monkeypatch.setattr(linalg, "split_rows", spy)
    manifests = []
    for cpus in (1, 3):
        monkeypatch.setattr(linalg, "_cpus", lambda: cpus)
        most_blocks.append(0)
        manifests.append(bits_manifest.manifest(tmp_path / str(cpus)))
    assert most_blocks == [1, 3]
    assert len(manifests[0]) == ARTIFACTS
    assert manifests[0] == manifests[1]
