"""Golden corpus: CLI output bytes and exit codes stay fixed.

The configurations and the snapshot format live in
scripts/snapshot_corpus.py; regenerate the snapshots with that script
only for an intended behaviour change, and name the change in CHANGES.md.
"""

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "snapshot_corpus.py"
_spec = importlib.util.spec_from_file_location("snapshot_corpus", _SCRIPT)
corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus)


@pytest.mark.parametrize(
    "name, argv, env", corpus.CONFIGS, ids=[name for name, _, _ in corpus.CONFIGS]
)
def test_snapshot_bytes(name, argv, env):
    expected = corpus.snapshot_path(name).read_bytes()
    assert corpus.render(argv, env) == expected
