"""scipy loads with the first training call and never before it."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# A small pair aligned by one full loop round and fused; prints whether
# scipy is loaded afterwards.
SCRIPT = """
import sys

import kgalign.cli
from kgalign import em
from kgalign.embedder import Hyperparams
from kgalign.graph import AlignmentSeed, KnowledgeGraphPair, SeedRole, load_graph

def ring(prefix):
    return load_graph(
        [(f"{{prefix}}{{i}}", "r" if i % 2 else "s", f"{{prefix}}{{(i + 1) % 8}}") for i in range(8)]
    )

pair = KnowledgeGraphPair(source=ring("a"), target=ring("b"))
train = AlignmentSeed(pairs=((0, 0), (1, 1)), role=SeedRole.TRAIN)
config = em.EmConfig(
    iterations=1, symbolic_only={symbolic_only}, neural=Hyperparams(dim=4, epochs=2, negatives=2)
)
state = em.run_em(pair, train, config)
em.fuse_predictions(state, config)
print("scipy" in sys.modules)
"""


def scipy_loaded_after_run(symbolic_only: bool) -> bool:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(symbolic_only=symbolic_only)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout.strip().splitlines()[-1] == "True"


@pytest.mark.parametrize("symbolic_only, loaded", [(True, False), (False, True)])
def test_scipy_loads_only_for_training(symbolic_only, loaded):
    assert scipy_loaded_after_run(symbolic_only) is loaded
