"""Benchmark entry point for kgalign.

Run from the repository root:

    python3 bench/run.py --workload sym-noisy-10k --seed 407 --seconds 45 --trace 0
    python3 bench/run.py --workload all            # every workload, one process each

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` additionally
makes one traced pass and prints the per-layer metrics instead.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Full results, including the
environment record and the prediction digest, go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
# The keys of workloads.WORKLOADS, listed here because importing that
# module imports numpy, which must wait until the BLAS threads are capped.
WORKLOAD_NAMES = ("sym-noisy-10k", "joint-iso500", "joint-iso5000-rank")
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cap_blas_threads(nproc: int) -> None:
    """Limit every BLAS pool to ``nproc`` threads; must run before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)


def git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    """sha256 over the library's source files, so results name the code they ran."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "kgalign").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed: int, nproc: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "seed": seed,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "platform": platform.platform(),
    }


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process of its own, one after another."""
    correct, attempted, failed, merged = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload",
            name,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            "--trace",
            str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit code {proc.returncode})")
            correct = False
            attempted += 1
            failed += 1
            continue
        correct = correct and result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        merged.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": merged}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=407, help="workload seed (inputs and split)")
    parser.add_argument(
        "--seconds", type=float, default=45.0, help="measuring time: align repetitions, then explain passes"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = available_cpus()
    cap_blas_threads(nproc)
    if not (SRC / "kgalign" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    import kgalign

    if Path(kgalign.__file__).resolve().parent != SRC / "kgalign":
        print(f"error: imported kgalign from {kgalign.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    result = workloads.run(workload, args.seed, args.seconds, bool(args.trace), OUT_DIR)

    env = environment(args.seed, nproc)
    record = {
        "environment": env,
        "trace": args.trace,
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
        **result.details,
    }
    out_file = OUT_DIR / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"# workload {workload.name}: {workload.why}")
    print(f"# environment {json.dumps(env, sort_keys=True)}")
    print(f"# prediction sha256 {','.join(result.details['prediction_sha256'])}")
    for problem in result.details["problems"]:
        print(f"# check failed: {problem}")
    print(f"{workload.name}\tfailed_share\t{result.details['failed_share']:.6f}\tratio")
    for name, (value, unit) in result.metrics.items():
        print(f"{workload.name}\t{name}\t{value:.6g}\t{unit}")
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
