"""Census benchmark: drives ``blowup_census`` from the outside and prints one
JSON result line.

    python3 perfbench/run.py --workload c4-verify --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/``.  Load comes from this one process, one job at a time (a closed
loop with one client): each job is a fresh interpreter running
``worker.py``, with ``--workers 1`` (the package default) and BLAS threads
capped at the number of usable cores.  A new job starts only while it is
expected to finish within ``--seconds``.

With ``--trace 0`` the result carries the end-to-end metrics named in
BENCHMARK.json: durations in reference-loop units and set-up time in
seconds at the loop's nominal speed (see reference.py), since a shared
machine's speed can swing more than any change worth measuring.  With ``--trace 1`` the per-layer metrics, from jobs that
alternate untraced and traced so that the tracing overhead is measured in
the same run.  Details (environment, every job, every span) go to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from reference import NOMINAL_S, reference_s

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = ROOT / ".perfbench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_SETUP_SPAWNS = 7
# Every run must end within 180 s; no job may start or run past this.
RUN_LIMIT_S = 170.0

ENV_PROBE = """
import json, platform, numpy, blowup_census
deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
blas = deps.get("blas", {})
print(json.dumps({
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "blas": {"name": blas.get("name"), "version": blas.get("version")},
}))
"""


def job_env(nproc: int) -> tuple[dict[str, str], dict[str, str]]:
    """Environment for every child, and the BLAS thread settings it pins."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    pinned = {}
    for var in BLAS_THREAD_VARS:
        try:
            value = min(int(env.get(var, nproc)), nproc)
        except ValueError:
            value = nproc
        env[var] = pinned[var] = str(max(value, 1))
    return env, pinned


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def setup_seconds(env: dict[str, str]) -> tuple[float, float]:
    """A fresh interpreter up to ``import blowup_census`` done (and exited):
    raw seconds, and seconds at the reference loop's nominal speed.

    ``wait`` blocks without a timeout because a wait with one polls at up to
    50 ms intervals, which would quantise the measurement; a timer kills a
    hung child instead.
    """
    ref_before = reference_s()
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", "import blowup_census"], env=env, cwd=ROOT)
    killer = threading.Timer(60, proc.kill)
    killer.start()
    try:
        code = proc.wait()
    finally:
        killer.cancel()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"import blowup_census exited with code {code}")
    ref = (ref_before + reference_s()) / 2
    return elapsed, elapsed * NOMINAL_S / ref


def run_job(args, job: int, traced: bool, env: dict[str, str], timeout: float) -> dict:
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload, "--seed", str(args.seed), "--job", str(job),
        "--trace", str(int(traced)), "--size", args.size,
        "--work-dir", str(OUT / f"work-{os.getpid()}-{job}"),
    ]
    if args.wrong_expected:
        cmd.append("--wrong-expected")
    try:
        done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"traced": traced, "crashed": f"job {job} timed out after {timeout:.0f} s"}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"traced": traced, "crashed": f"job {job} exited with code {done.returncode}"}
    return {"traced": traced, **json.loads(lines[-1])}


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between samples (inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: the smallest size of each workload")
    parser.add_argument("--wrong-expected", action="store_true",
                        help="shift every expected count by one, to show failures are counted")
    args = parser.parse_args()

    started = time.perf_counter()
    if not (ROOT / "src" / "blowup_census" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    OUT.mkdir(exist_ok=True)

    nproc = len(os.sched_getaffinity(0))
    env, pinned = job_env(nproc)
    environment = {
        "nproc": nproc,
        "os_cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "blas_threads": pinned,
        "workers": 1,
        "git_revision": git_revision(),
        "loadavg_start": loadavg(),
    }
    # The probe also compiles the package's bytecode, which users pay once,
    # before set-up is timed.
    probe = subprocess.run([sys.executable, "-c", ENV_PROBE], env=env, cwd=ROOT,
                           stdout=subprocess.PIPE, text=True, check=True, timeout=60)
    environment.update(json.loads(probe.stdout.splitlines()[-1]))
    # Set-up is sampled before every job, so that it sees the same machine
    # as the jobs do over the whole run.
    setups: list[tuple[float, float]] = []
    jobs: list[dict] = []
    loop_start = time.perf_counter()
    last = 0.0
    while True:
        elapsed = time.perf_counter() - loop_start
        kinds = {j["traced"] for j in jobs}
        need_both = args.trace and len(kinds) < 2
        if jobs and not need_both and elapsed + last > args.seconds:
            break
        remaining = RUN_LIMIT_S - (time.perf_counter() - started)
        if remaining < 5:
            break
        traced = bool(args.trace) and len(jobs) % 2 == 1
        t0 = time.perf_counter()
        setups.append(setup_seconds(env))
        jobs.append(run_job(args, len(jobs), traced, env, remaining))
        last = time.perf_counter() - t0
        if "crashed" in jobs[-1]:
            break
    while len(setups) < MIN_SETUP_SPAWNS:
        setups.append(setup_seconds(env))
    environment["loadavg_end"] = loadavg()

    done = [j for j in jobs if "crashed" not in j]
    attempted = sum(j["attempted"] for j in done) + len(jobs) - len(done)
    failed = sum(j["failed"] for j in done) + len(jobs) - len(done)
    for j in jobs:
        for err in j.get("errors", []) + ([j["crashed"]] if "crashed" in j else []):
            print(f"FAILED: {err}", file=sys.stderr)

    untraced = [j for j in done if not j["traced"]]
    traced = [j for j in done if j["traced"]]
    ref_s = statistics.median(j["ref_s"] for j in done) if done else 0.0
    samples: dict[str, tuple[float, int]] = {}
    # Raw times and the reference loop, printed for reading only: they move
    # with the machine's speed.
    info = {"ref_ms": (ref_s * 1000, len(done), "ms")}
    if args.trace:
        for name in traced[0]["metrics"] if traced else ():
            values = [j["metrics"][name] for j in traced]
            samples[name] = (statistics.median(values), len(values))
        if traced and untraced:
            extra_ref = statistics.median(j["wall_ref"] for j in traced) - statistics.median(
                j["wall_ref"] for j in untraced
            )
            samples["trace.overhead_s"] = (extra_ref * ref_s, min(len(traced), len(untraced)))
    elif untraced:
        cases_ref = [c for j in untraced for c in j["case_ref"]]
        cases_ms = [c * 1000 for j in untraced for c in j["case_s"]]
        samples = {
            "setup_s": (statistics.median(s for _, s in setups), len(setups)),
            "wall_ref": (statistics.median(j["wall_ref"] for j in untraced), len(untraced)),
            "peak_rss_mb": (statistics.median(j["rss_mb"] for j in untraced), len(untraced)),
            "case_ref_p50": (quantile(cases_ref, 50), len(cases_ref)),
            "case_ref_p90": (quantile(cases_ref, 90), len(cases_ref)),
        }
        info |= {
            "setup_raw_s": (statistics.median(s for s, _ in setups), len(setups), "s"),
            "wall_s": (statistics.median(j["wall_s"] for j in untraced), len(untraced), "s"),
            "case_ms_p50": (quantile(cases_ms, 50), len(cases_ms), "ms"),
            "case_ms_p90": (quantile(cases_ms, 90), len(cases_ms), "ms"),
        }

    missing = [m["name"] for m in wanted if m["name"] not in samples]
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": samples[m["name"]][0], "unit": m["unit"]} for m in wanted}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  size {args.size}  "
          f"jobs {len(jobs)}  loop {time.perf_counter() - loop_start:.1f} s")
    print("environment " + json.dumps(environment))
    ratio = failed / attempted if attempted else 1.0
    print(f"  {'fail_ratio':34} {ratio:<14.6g} {'ratio':8} n={attempted} (failed {failed})")
    for m in wanted:
        value, n = samples[m["name"]]
        print(f"  {m['name']:34} {value:<14.6g} {m['unit']:8} n={n}")
    for name, (value, n, unit) in info.items():
        print(f"  {name:34} {value:<14.6g} {unit:8} n={n}  (unbounded)")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = [s for j in traced for s in j.pop("spans")]
    if spans:
        with open(OUT / f"{tag}-spans.jsonl", "w") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in spans)
    detail = {"args": vars(args), "environment": environment, "setup_s": setups, "jobs": jobs,
              "fail_ratio": ratio, "metrics": metrics}
    (OUT / f"{tag}.json").write_text(json.dumps(detail, indent=1))

    result = {"correct": failed == 0, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
