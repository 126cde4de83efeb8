"""Hash every output of the benchmark's command-line pipeline in two source trees.

    python3 tools/compare_outputs.py PARENT_TREE CHANGE_TREE

For every workload of ``bench/workloads.py`` and the seeds 0-4, the inputs
are generated once, by the benchmark's own generator. Each tree then runs
the steps that ``bench/run.py`` ``build_steps`` lists, on the same paths and
with the CLI seed 4 * seed that ``bench/run.py`` uses:

    counts --top-k 1000 -> fit-ols -> fit-bayes (hmc) -> fit-bayes --sampler rwm
    -> plot -> evidence (default model against slope prior Normal(0, 0.1))

The modules under ``bench/`` of this checkout are only imported. Every step
runs as ``python -m bayesline.cli`` with the tree's ``src/`` on PYTHONPATH;
``fit-ols`` reads the ``counts`` output of the same tree. For each step the
script prints, once per tree, the sha256 of its exit code, of its stderr,
and ``gate.digest`` of its stdout and output files, and whether they agree.
It exits 0 when every hash matches and 1 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import gate  # noqa: E402  (found through the path set above)
import run  # noqa: E402
import workloads  # noqa: E402

SEEDS = range(5)


class _NoChecks:
    """Stands in for bench/run.py's Runner, which build_steps asks only for
    the fit checks; no check is run here."""

    def fit_check(self, *_args):
        return lambda _stdout: []


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_tree(tree: Path, steps: list[run.Step], work: Path) -> dict[str, str]:
    """Run the steps with ``tree``'s package; returns item name -> sha256."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env.pop("BAYESLINE_OUT", None)
    counts_tsv = Path(next(step.argv[1] for step in steps if step.key == "fit_ols"))
    shutil.rmtree(work / "out", ignore_errors=True)
    counts_tsv.unlink(missing_ok=True)
    hashes = {}
    for step in steps:
        proc = subprocess.run(
            [sys.executable, "-m", "bayesline.cli", *step.argv],
            cwd=work,
            env=env,
            capture_output=True,
            encoding="utf-8",
        )
        if step.key == "counts":
            counts_tsv.write_text(proc.stdout, encoding="utf-8")
        hashes[f"{step.key} exit"] = _sha(str(proc.returncode))
        hashes[f"{step.key} stderr"] = _sha(proc.stderr)
        hashes[f"{step.key} outputs"] = gate.digest(step.out, step.argv[0], proc.stdout)
    return hashes


def compare(parent: Path, change: Path, workload: str, seed: int, work: Path) -> int:
    """Print one line per output item; returns the number of items that differ."""
    w = workloads.WORKLOADS[workload]
    corpus = workloads.Corpus(w, seed, workloads.read_stopwords(ROOT))
    inputs = workloads.write_inputs(w, seed, work / "inputs", corpus)
    steps = run.build_steps(w, inputs, work, 4 * seed, _NoChecks(), refs={})
    before = run_tree(parent, steps, work)
    after = run_tree(change, steps, work)
    differ = 0
    for item in before:
        a, b = before[item], after[item]
        differ += a != b
        print(f"{workload} seed={seed} {item:<24} {a[:16]} {b[:16]} {'same' if a == b else 'DIFFERS'}")
    return differ


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, help="source tree of the parent commit")
    p.add_argument("change", type=Path, help="source tree of the change")
    p.add_argument("--work", type=Path, default=None, help="scratch directory (default: a temporary one)")
    args = p.parse_args()
    for tree in (args.parent, args.change):
        if not (tree / "src" / "bayesline" / "cli.py").is_file():
            p.error(f"{tree} is not a bayesline source tree")
    differ = 0
    with tempfile.TemporaryDirectory(dir=args.work) as tmp:
        for workload in sorted(workloads.WORKLOADS):
            for seed in SEEDS:
                work = Path(tmp) / f"{workload}-{seed}"
                differ += compare(args.parent.resolve(), args.change.resolve(), workload, seed, work)
                shutil.rmtree(work)
    print(f"{differ} item(s) differ" if differ else "every output is identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
