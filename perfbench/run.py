#!/usr/bin/env python3
"""End-to-end benchmark of the zml command line, with a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports zml from ``src/`` and needs no
build.  One process runs one workload.  The seed generates every input (see
``workloads.py``).  Jobs run in a closed loop, one at a time, each through
``zml.cli.main(argv)`` with a generated config, exactly as ``zml <cmd>
--config cfg.json --out DIR`` would.  A pass runs every job of the workload
once; passes repeat until ``--seconds`` is used up (at least two).  BLAS is
pinned to one thread: this is the single-threaded baseline, and it keeps
BLAS threads from competing with other processes on the machine.

Every job is checked: a nonzero exit code, a report that fails the
workload's check, or report files that differ from the job's first pass
count as a failed job.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of five
fresh interpreters importing zml and generating the inputs), ``wall_ref``
and ``peak_rss_mb``.  ``wall_s`` is the mean time of one pass (time spent in
jobs over passes completed, the inverse of the closed loop's throughput);
``wall_ref`` sums each job's mean time divided by the mean time of a fixed
reference computation of the same kind of work, run before every job
(``reference_times``), which keeps it steady while the machine's speed
drifts.  ``wall_s``, each stage's summed
mean job time (``potential_s``, ``verify1_s``, ...) and ``fail_frac`` are
printed above the result line.

``--trace 1`` alternates untraced and traced passes.  Traced passes wrap
zml's public functions (``spans.py``) and give per-layer busy time, self
time and counts; ``trace.overhead_s`` is the traced minus the untraced
pass time.  The spans are kept in memory and written out at the end.

Outputs go to ``.bench_out/`` under the repository root.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import os

# must precede the first numpy import, here and in the setup probes
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy.linalg  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 5
MIN_PASSES = 2            # per kind: untraced, and traced with --trace 1
MAX_RUN_SECONDS = 150.0   # stop starting passes well before the 180 s limit
ACCOUNTING_TOLERANCE = 0.05

END_TO_END = (("setup_s", "s"), ("wall_ref", "ref"), ("peak_rss_mb", "MB"))

REF_LOOP = 40000
REF_BAND = np.arange(1800.0).reshape(3, 600) / 1800.0 + 1.0
# spectral jobs spend their time in LAPACK, the others in interpreted code
LAPACK_COMMANDS = ("spectrum", "verify")

PROBE = """
import sys, time
sys.path[:0] = [{src!r}, {bench!r}]
t0 = time.perf_counter()
import zml.cli
t1 = time.perf_counter()
import workloads
workloads.generate({workload!r}, {seed!r})
t2 = time.perf_counter()
print(t1 - t0, t2 - t1)
"""


def setup_probe(workload, seed):
    """Import and input-generation time of one fresh interpreter."""
    code = PROBE.format(src=str(SRC), bench=str(BENCH), workload=workload,
                        seed=seed)
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    import_s, gen_s = (float(v) for v in done.stdout.split())
    return import_s, gen_s


def reference_times():
    """Times of two fixed computations that are not zml's code: a pure-Python
    loop and a banded LAPACK eigensolve.

    On a shared machine the speed of interpreted code drifts by 20-40% over
    tens of seconds, and LAPACK's speed drifts less and differently.  Each
    job's mean time is divided by the mean time of the reference that does
    its kind of work, measured next to every job; that takes most of the
    drift out of ``wall_ref``.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(REF_LOOP):
        acc += math.sin(k * 1e-3)
    t1 = time.perf_counter()
    scipy.linalg.eig_banded(REF_BAND, lower=True, eigvals_only=True)
    return t1 - t0, time.perf_counter() - t1


def git_sha(root):
    """HEAD of the checkout if it is a git repository, else None."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(zml, seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        blas = {}
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "git_sha": git_sha(ROOT),
        "seed": seed,
    }
    if hasattr(zml, "KERNEL_BACKEND"):
        env["kernel_backend"] = zml.KERNEL_BACKEND
    return env


def report_digest(out_dir, stdout):
    """Hash of every report file of a job plus what it printed."""
    h = hashlib.sha256(stdout.encode())
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Runner:
    """Runs the passes of one workload and keeps what each job did."""

    def __init__(self, cli_main, jobs, run_dir):
        self.cli_main = cli_main
        self.jobs = jobs
        self.argvs = []
        self.out_dirs = []
        for i, job in enumerate(jobs):
            job_dir = run_dir / f"job{i:02d}-{job.label}"
            job_dir.mkdir(parents=True)
            cfg = job_dir / "config.json"
            cfg.write_text(json.dumps(job.config))
            out = job_dir / "out"
            self.argvs.append([job.command, "--config", str(cfg),
                               "--out", str(out)]
                              + (["--plots"] if job.plots else []))
            self.out_dirs.append(out)
        self.first_digest = [None] * len(jobs)
        self.first_problems = [None] * len(jobs)
        self.facts = [{} for _ in jobs]
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.ref_times = []

    def run_job(self, i, tracer):
        self.ref_times.append(reference_times())
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            if tracer is None:
                code = self.cli_main(self.argvs[i])
            else:
                tracer.job = i
                span = tracer.open("cli.main")
                try:
                    code = self.cli_main(self.argvs[i])
                finally:
                    tracer.close(span)
            wall = time.perf_counter() - t0
        self.attempted += 1
        problems = self.judge(i, code, out.getvalue(), err.getvalue())
        if problems:
            self.failed += 1
            self.problems.append({"job": self.jobs[i].label,
                                  "problems": problems})
        return wall

    def judge(self, i, code, stdout, stderr):
        if code != 0:
            return [f"exit code {code}: {stderr.strip()}"]
        digest = report_digest(self.out_dirs[i], stdout)
        if self.first_digest[i] is None:
            self.first_digest[i] = digest
            try:
                problems, self.facts[i] = workloads.check(self.jobs[i],
                                                          self.out_dirs[i])
            except (OSError, KeyError, ValueError, TypeError,
                    IndexError) as exc:
                problems = [f"unreadable report: {exc!r}"]
            self.first_problems[i] = problems
            return problems
        if digest != self.first_digest[i]:
            return ["report files differ from the first pass"]
        return self.first_problems[i]

    def run_pass(self, traced):
        tracer = spans.Tracer() if traced else None
        undo = spans.install(tracer) if traced else []
        gc.collect()
        try:
            t0 = time.perf_counter()
            job_walls = [self.run_job(i, tracer) for i in range(len(self.jobs))]
            wall = time.perf_counter() - t0
        finally:
            spans.uninstall(undo)
        return {"traced": traced, "wall": wall, "job_walls": job_walls,
                "spans": tracer.spans if traced else None}


def job_means(passes):
    """Mean time of each job over the given passes.

    The mean, not the median: the machine's speed switches between a fast
    and a slow state many times a run, and the share of slow time a run
    sees varies.  The mean follows that share smoothly, where the median of
    a few passes jumps between the two states.
    """
    return [statistics.fmean(w)
            for w in zip(*(p["job_walls"] for p in passes))]


def stage_times(jobs, means):
    """Each stage's summed mean job time, for the stages the jobs run."""
    out = {}
    for stage in workloads.STAGES:
        idx = [i for i, job in enumerate(jobs) if job.stage == stage]
        if idx:
            out[f"{stage}_s"] = sum(means[i] for i in idx)
    return out


def run_passes(runner, seconds, trace):
    """Passes until the time is used up; with tracing, untraced and traced
    passes alternate."""
    kinds = (False, True) if trace else (False,)
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(runner.run_pass(bool(trace) and len(passes) % 2 == 1))
        done = min(sum(p["traced"] == k for p in passes) for k in kinds)
        elapsed = time.perf_counter() - start
        next_wall = statistics.median(p["wall"] for p in passes)
        if done >= MIN_PASSES and (elapsed + next_wall > seconds
                                   or elapsed > MAX_RUN_SECONDS):
            return passes


def layer_results(jobs, passes, setup):
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    per_pass = [spans.layer_metrics(p["spans"]) for p in traced]
    metrics = {name: statistics.median(m[name] for m in per_pass)
               for name, _ in spans.LAYER_METRICS}
    metrics["setup.import_s"] = statistics.median(s[0] for s in setup)
    untraced_means = job_means(untraced)
    metrics["trace.overhead_s"] = (sum(job_means(traced))
                                   - sum(untraced_means))
    metrics["trace.unaccounted_frac_max"] = max(
        max(spans.unaccounted_fracs(p["spans"], p["job_walls"]))
        for p in traced)
    stages = stage_times(jobs, untraced_means)
    for stage in workloads.STAGES:
        metrics[f"stage.{stage}_s"] = stages.get(f"{stage}_s", 0.0)
    return metrics


LAYER_UNITS = dict(spans.LAYER_METRICS, **{
    "setup.import_s": "s", "trace.overhead_s": "s",
    "trace.unaccounted_frac_max": "ratio", "run.wall_s": "s",
    "run.ref_python_s": "s", "run.ref_lapack_s": "s",
    **{f"stage.{s}_s": "s" for s in workloads.STAGES}})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "zml" / "__init__.py").is_file():
        print(f"zml sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import zml
    import zml.cli
    if Path(zml.__file__).resolve().parent != SRC / "zml":
        print(f"imported zml from {zml.__file__}, not {SRC}", file=sys.stderr)
        return 2

    jobs = workloads.generate(args.workload, args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = OUT / tag
    shutil.rmtree(run_dir, ignore_errors=True)
    runner = Runner(zml.cli.main, jobs, run_dir)
    setup = [setup_probe(args.workload, args.seed)
             for _ in range(SETUP_REPEATS)]

    passes = run_passes(runner, args.seconds, args.trace)
    untraced = [p for p in passes if not p["traced"]]
    means = job_means(untraced)
    wall_s = sum(means)
    ref_python_s, ref_lapack_s = (statistics.fmean(r)
                                  for r in zip(*runner.ref_times))
    e2e = {
        "setup_s": statistics.median(a + b for a, b in setup),
        "wall_ref": sum(t / (ref_lapack_s if job.command in LAPACK_COMMANDS
                             else ref_python_s)
                        for t, job in zip(means, jobs)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    stages = stage_times(jobs, means)
    fail_frac = runner.failed / runner.attempted

    print(f"workload {args.workload}  seed {args.seed}  jobs/pass "
          f"{len(jobs)}  passes {len(untraced)} untraced"
          + (f", {len(passes) - len(untraced)} traced" if args.trace else ""))
    for name, unit in END_TO_END:
        print(f"  {name:16s} {e2e[name]:12.4f} {unit}")
    print(f"  {'wall_s':16s} {wall_s:12.4f} s")
    print(f"  {'ref_python_s':16s} {ref_python_s:12.6f} s   "
          f"(mean of {len(runner.ref_times)})")
    print(f"  {'ref_lapack_s':16s} {ref_lapack_s:12.6f} s")
    for name, value in stages.items():
        print(f"  {name:16s} {value:12.4f} s")
    print(f"  {'fail_frac':16s} {fail_frac:12.4f}    "
          f"({runner.failed}/{runner.attempted})")
    for p in runner.problems[:10]:
        print(f"  FAILED {p['job']}: {'; '.join(p['problems'])}")
    env = environment(zml, args.seed)
    print("env " + json.dumps(env, sort_keys=True))

    if args.trace:
        layer = layer_results(jobs, passes, setup)
        layer.update({"run.wall_s": wall_s, "run.ref_python_s": ref_python_s,
                      "run.ref_lapack_s": ref_lapack_s})
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k]}
                   for k, v in layer.items()}
        for name, value in layer.items():
            print(f"  {name:50s} {value:14.6g} {LAYER_UNITS[name]}")
        if layer["trace.unaccounted_frac_max"] > ACCOUNTING_TOLERANCE:
            print("  WARNING: spans miss more than 5% of a job's wall time")
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END}

    result = {
        "workload": args.workload, "env": env,
        "end_to_end": {**e2e, "wall_s": wall_s, "ref_python_s": ref_python_s,
                       "ref_lapack_s": ref_lapack_s, **stages,
                       "fail_frac": fail_frac},
        "metrics": metrics,
        "passes": [{"traced": p["traced"], "wall": p["wall"],
                    "job_walls": p["job_walls"]} for p in passes],
        "jobs": [{"label": j.label, "command": j.command, "stage": j.stage,
                  "facts": f} for j, f in zip(jobs, runner.facts)],
        "problems": runner.problems,
        "setup": [list(s) for s in setup],
        "ref_times": runner.ref_times,
        "spans": [[i, s.name, s.start, s.end, s.parent, s.job, s.counts]
                  for i, p in enumerate(passes) if p["traced"]
                  for s in p["spans"]],
    }
    (OUT / f"{tag}.json").write_text(json.dumps(result, default=str) + "\n")
    shutil.rmtree(run_dir, ignore_errors=True)
    print(f"results in {OUT / (tag + '.json')}")
    print(json.dumps({"correct": runner.failed == 0,
                      "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
