#!/usr/bin/env python3
"""Report digests of every benchmark job, against a committed manifest.

    python3 tools/bench_digests.py --check    # name every job that moved
    python3 tools/bench_digests.py --write    # rewrite the manifest

Each job of the three benchmark workloads, for seeds 41-43, runs once
through ``zml.cli.main`` exactly as ``perfbench/run.py`` runs it (its
``Runner`` writes the config and spells the arguments), and the sha256 of
its report files plus what it printed (``run.report_digest``) is compared
with ``bench_digests.json`` beside this script.  The job's own report check
(``workloads.check``) must pass too.  Run it from any directory; it imports
zml from ``src/`` and the benchmark modules from ``perfbench/``, and writes
nothing outside a temporary directory unless ``--write`` is given.

A change that moves report bytes on purpose regenerates the manifest with
``--write`` and names the moved jobs and why in its change log.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).resolve().parent / "bench_digests.json"
SEEDS = (41, 42, 43)

# run.py pins BLAS to one thread before NumPy is first imported
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
import run  # noqa: E402
import workloads  # noqa: E402
import zml.cli  # noqa: E402


def job_key(index, job):
    """The job's name in the manifest: its place in the pass and its label,
    as ``run.Runner`` names its directory."""
    return f"job{index:02d}-{job.label}"


def digests():
    """{workload: {seed: {job: digest}}} and the jobs whose run failed."""
    out, failed = {}, []
    with tempfile.TemporaryDirectory() as tmp:
        for workload in workloads.WORKLOADS:
            out[workload] = {}
            for seed in SEEDS:
                jobs = workloads.generate(workload, seed)
                runner = run.Runner(zml.cli.main,
                                    jobs, Path(tmp) / f"{workload}-{seed}")
                runner.run_pass(traced=False)
                out[workload][str(seed)] = {
                    job_key(i, job): digest
                    for i, (job, digest) in enumerate(
                        zip(jobs, runner.first_digest))}
                failed += [f"{workload} seed {seed} {p['job']}: "
                           + "; ".join(p["problems"])
                           for p in runner.problems]
    return out, failed


def moved(expected, got):
    """Every job whose digest differs from the manifest, or that only one
    of the two lists."""
    names = []
    for workload in sorted(set(expected) | set(got)):
        for seed in sorted(set(expected.get(workload, {}))
                           | set(got.get(workload, {}))):
            want = expected.get(workload, {}).get(seed, {})
            have = got.get(workload, {}).get(seed, {})
            for job in sorted(set(want) | set(have)):
                if want.get(job) != have.get(job):
                    names.append(f"{workload} seed {seed} {job}")
    return names


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="exit 1 naming every job whose digest moved")
    mode.add_argument("--write", action="store_true",
                      help=f"rewrite {MANIFEST.name}")
    args = parser.parse_args(argv)

    got, failed = digests()
    for line in failed:
        print(f"FAILED {line}", file=sys.stderr)
    if args.write:
        if failed:
            print("not written: some jobs failed", file=sys.stderr)
            return 1
        MANIFEST.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        return 0
    names = moved(json.loads(MANIFEST.read_text()), got)
    for name in names:
        print(f"MOVED {name}")
    count = sum(len(jobs) for seeds in got.values() for jobs in seeds.values())
    print(f"{count} jobs, {len(names)} moved, {len(failed)} failed")
    return 1 if names or failed else 0


if __name__ == "__main__":
    sys.exit(main())
