"""A full run never loads scipy, in either mode, and no thread outlives it.
Every exported name resolves."""

from __future__ import annotations

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kgalign

SRC = Path(__file__).resolve().parents[1] / "src"

# A small pair written as a dataset, loaded, aligned by one full loop
# round and fused; prints whether scipy is loaded afterwards and how
# many threads are alive.
SCRIPT = """
import sys
import tempfile
import threading
from pathlib import Path

import kgalign.cli
from kgalign import data, em
from kgalign.embedder import Hyperparams
from kgalign.graph import AlignmentSeed

with tempfile.TemporaryDirectory() as tmp:
    root = Path(tmp)
    for name, prefix in zip(data.TRIPLE_FILES, "ab"):
        rows = [f"{{prefix}}{{i}}\\t{{'r' if i % 2 else 's'}}\\t{{prefix}}{{(i + 1) % 8}}\\n" for i in range(8)]
        (root / name).write_text("".join(rows), encoding="utf-8")
    (root / data.LINKS_FILE).write_text("".join(f"a{{i}}\\tb{{i}}\\n" for i in range(8)), encoding="utf-8")
    bundle = data.load_dataset(root)

train = AlignmentSeed(pairs=bundle.links[:2])
config = em.EmConfig(
    iterations=1, symbolic_only={symbolic_only}, neural=Hyperparams(dim=4, epochs=2)
)
state = em.run_em(bundle.pair, train, config)
em.fuse_predictions(state, config)
print("scipy" in sys.modules, threading.active_count())
"""


@functools.lru_cache(maxsize=None)
def after_run(symbolic_only: bool) -> tuple[bool, int]:
    """Whether scipy is loaded after the run, and the live thread count."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(symbolic_only=symbolic_only)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    loaded, threads = done.stdout.strip().splitlines()[-1].split()
    return loaded == "True", int(threads)


@pytest.mark.parametrize("symbolic_only", [True, False])
def test_scipy_never_loads(symbolic_only):
    assert after_run(symbolic_only)[0] is False


@pytest.mark.parametrize("symbolic_only", [True, False])
def test_no_thread_outlives_a_run(symbolic_only):
    assert after_run(symbolic_only)[1] == 1


def test_every_exported_name_resolves():
    missing = [name for name in kgalign.__all__ if not hasattr(kgalign, name)]
    assert missing == []
    assert len(set(kgalign.__all__)) == len(kgalign.__all__)
