"""One benchmark job, run in a fresh interpreter by ``run.py``.

A job drives the package the way its users do (the ``blowup-census`` CLI
entry point, called in-process, and the edge-list functions), times the
program's calls only, then checks every output against ground truth that
does not come from the code under test.  The last line of stdout is one
JSON object describing the job.

    python3 perfbench/worker.py --workload c4-verify --seed 1 --job 0 --trace 0 \
        --work-dir .perfbench_out/work
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import random
import resource
import shutil
import statistics
import sys
import time
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from blowup_census import cli, formulas, graphs  # noqa: E402

import spans  # noqa: E402
from reference import reference_s  # noqa: E402

# Frozen ground truth from README.md: (vertices, edges, non-edges, induced C4).
TRUTH = {
    "c4": [
        (4, 4, 2, 1),
        (16, 80, 40, 404),
        (64, 1344, 672, 114512),
        (256, 21760, 10880, 30051648),
    ],
    "theta222": [
        (5, 6, 4, 3),
        (25, 180, 120, 2886),
        (125, 4650, 3100, 1947705),
        (625, 117000, 78000, 1235757900),
    ],
}
C4_EDGES = [(0, 1), (1, 2), (2, 3), (0, 3)]
SKIPPED_CAP = "skipped: cap"

# Workload sizes.  "smoke" is the smallest size of each, for smoke.py.
SIZES = {
    "full": {"verify_level": 3, "io_level": 4, "bases_per_n": 10},
    "smoke": {"verify_level": 1, "io_level": 1, "bases_per_n": 1},
}
CUSTOM_ORDERS = range(4, 11)


# A call's time divided by the reference loop's time around it is its
# duration in reference units ("ref").  The loop is re-timed before any call
# that starts more than this long after the last timing.
REF_EVERY_S = 0.5


class Job:
    """Timed calls of one job grouped into cases, failed operations, and
    (when traced) spans."""

    def __init__(self, job_id: int, traced: bool, offset: int):
        self.job_id = job_id
        self.offset = offset
        self.rec = spans.Recorder() if traced else None
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.reports: list[dict] = []
        self.cases: list[list[tuple[float, float, float]]] = []
        self.refs: list[tuple[float, float]] = []
        self._case: list[tuple[float, float, float]] | None = None

    def _sample_reference(self) -> None:
        duration = reference_s()
        self.refs.append((time.perf_counter(), duration))

    @contextlib.contextmanager
    def case(self):
        """One latency sample: every timed call made inside it."""
        self._case = []
        try:
            yield
        finally:
            if self._case:
                self.cases.append(self._case)
            self._case = None

    def timed(self, op: str, fn):
        """Run one program call inside a case and return its result.  Only
        these calls count towards the job's time; probes are excluded."""
        if not self.refs or time.perf_counter() - self.refs[-1][0] > REF_EVERY_S:
            self._sample_reference()
        start = time.perf_counter()
        if self.rec is None:
            out = fn()
            probes = 0.0
        else:
            self.rec.op = f"{self.job_id}.{self.attempted}.{op}"
            before = self.rec.probe_total()
            with self.rec.span(op):
                out = fn()
            probes = self.rec.probe_total() - before
        end = time.perf_counter()
        self._case.append((start, end, end - start - probes))
        return out

    def operation(self, name: str, body) -> None:
        """One operation: any exception or failed check counts as a failure."""
        self.attempted += 1
        try:
            problems = body()
        except Exception as exc:  # the benchmark must report, not crash
            problems = [f"{type(exc).__name__}: {exc}"]
        self.failed += bool(problems)
        for p in problems:
            self.errors.append(f"{name}: {p}")

    def timings(self) -> dict:
        """Per-case seconds and reference units, after a last reference
        sample.  A call is divided by the mean of the samples just before
        and just after it."""
        self._sample_reference()
        stamps = [t for t, _ in self.refs]

        def in_ref(start: float, end: float, seconds: float) -> float:
            before = self.refs[bisect.bisect_right(stamps, start) - 1][1]
            after = self.refs[bisect.bisect_left(stamps, end)][1]
            return seconds / ((before + after) / 2)

        case_s = [sum(c[2] for c in calls) for calls in self.cases]
        case_ref = [sum(in_ref(*c) for c in calls) for calls in self.cases]
        return {
            "wall_s": sum(case_s),
            "case_s": case_s,
            "wall_ref": sum(case_ref),
            "case_ref": case_ref,
            "ref_s": statistics.median(d for _, d in self.refs),
        }


def cli_call(job: Job, argv: list[str], buf: io.StringIO) -> int:
    """``blowup-census <argv>`` in-process, stdout captured in ``buf``."""
    with contextlib.redirect_stdout(buf):
        if job.rec is None:
            return cli.main(argv)
        with job.rec.span("cli.main"):
            return cli.main(argv)


def run_cli(job: Job, op: str, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    rc = job.timed(op, lambda: cli_call(job, argv, buf))
    return rc, buf.getvalue()


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def report_failures(report: dict) -> list[str]:
    """Oracle-backed comparisons that failed (stated-variant findings excepted)."""
    return [
        f"level {rec['N']}: {key} is false"
        for rec in report["levels"]
        for key, flag in rec["match_flags"].items()
        if flag is False and not key.startswith("closed_stated")
    ]


def check_verify(report: dict, family: str, max_level: int, offset: int) -> list[str]:
    problems = report_failures(report)
    if [rec["N"] for rec in report["levels"]] != list(range(max_level + 1)):
        problems.append("levels missing from the report")
    for rec in report["levels"]:
        vertices, edges, non_edges, t = TRUTH[family][rec["N"]]
        t += offset
        got = (rec["vertices"], rec["edges"], rec["non_edges_graph"], rec["T_diagonal"])
        if got != (vertices, edges, non_edges, t):
            problems.append(f"level {rec['N']}: {got} != README {(vertices, edges, non_edges, t)}")
        # theta level 3 is confirmed by the diagonal counter only: the subset
        # scan is refused by the default cap.
        enum_may_skip = family == "theta222" and rec["N"] == 3
        if rec["T_enum"] != t and not (enum_may_skip and rec["T_enum"] == SKIPPED_CAP):
            problems.append(f"level {rec['N']}: enum {rec['T_enum']} != {t}")
        if isinstance(rec["T_enum"], int) and rec["T_enum"] != rec["T_diagonal"]:
            problems.append(f"level {rec['N']}: enum {rec['T_enum']} != diagonal {rec['T_diagonal']}")
    return problems


def blowup_rows(base_n: int, base_edges, level: int) -> list[int]:
    """Adjacency rows of the nested blow-up, built digit by digit.

    Vertex ids are base-n numbers with level+1 digits, most significant
    first.  Two vertices are adjacent iff the base vertices at the first
    digit where they differ are adjacent.  This shares no code with
    ``compose``, so it is an independent oracle for the built graph.
    """
    adj = [[] for _ in range(base_n)]
    for u, v in base_edges:
        adj[u].append(v)
        adj[v].append(u)
    order = base_n ** (level + 1)
    rows = []
    for v in range(order):
        row = 0
        for k in range(level + 1):
            block = base_n ** (level - k)
            prefix, digit = divmod(v // block, base_n)
            for j in adj[digit]:
                row |= ((1 << block) - 1) << ((prefix * base_n + j) * block)
        rows.append(row)
    return rows


def check_sizes(family: str, level: int, n: int, edges: int, offset: int) -> list[str]:
    """L-level sizes against the package's closed forms."""
    bundle = formulas.FORMULAS[family]
    want = (
        bundle.base_order ** (level + 1),
        bundle.edges_closed(level) + offset,
        bundle.nonedges_closed(level),
    )
    got = (n, edges, comb(n, 2) - edges)
    return [] if got == want else [f"(vertices, edges, non-edges) {got} != closed forms {want}"]


def check_edge_file(path: Path, family: str, level: int, offset: int) -> list[str]:
    data = path.read_bytes()
    lines = data.count(b"\n")
    n = int(data[: data.index(b"\n")])
    return check_sizes(family, level, n, lines - 1, offset)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def verify_workload(job: Job, family: str, size: dict) -> None:
    level = size["verify_level"]

    def body():
        argv = ["verify", "--family", family, "--max-level", str(level), "--format", "json"]
        rc, out = run_cli(job, "verify", argv)
        if rc != 0:
            return [f"exit code {rc}"]
        report = json.loads(out)
        job.reports.append(report)
        return check_verify(report, family, level, job.offset)

    with job.case():
        job.operation(f"verify {family} L{level}", body)


def blowup_io_workload(job: Job, size: dict, work: Path) -> None:
    level = size["io_level"]

    def generate(family: str, path: Path):
        argv = ["generate", "--family", family, "--level", str(level), "--out", str(path)]
        rc, _ = run_cli(job, "generate", argv)
        if rc != 0:
            return [f"exit code {rc}"]
        return check_edge_file(path, family, level, job.offset)

    def read_back(path: Path):
        g = job.timed("read", lambda: graphs.read_edge_list(path.read_text("ascii")))
        problems = check_sizes("c4", level, g.n, g.edge_count, job.offset)
        if list(g.rows) != blowup_rows(4, C4_EDGES, level):
            problems.append("read-back graph differs from the nested blow-up")
        return problems

    theta_path, c4_path = work / "theta222.edges", work / "c4.edges"
    with job.case():
        job.operation(f"generate theta222 L{level}", lambda: generate("theta222", theta_path))
        job.operation(f"generate c4 L{level}", lambda: generate("c4", c4_path))
        job.operation(f"read-back c4 L{level}", lambda: read_back(c4_path))


def random_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    density = rng.uniform(0.1, 0.9)
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]


def custom_workload(job: Job, size: dict, work: Path, seed: int) -> None:
    """Seeded random bases, one operation and one case each: edge-list text
    written, then ``verify --family custom --max-level 1`` on the file."""
    rng = random.Random(f"custom-census:{seed}:{job.job_id}")
    bases = [(n, random_edges(rng, n)) for _ in range(size["bases_per_n"]) for n in CUSTOM_ORDERS]
    path = work / "base.edges"
    argv = ["verify", "--family", "custom", "--input", str(path), "--max-level", "1", "--format", "json"]

    def body(n: int, edges: list[tuple[int, int]]):
        base = graphs.Graph.from_edges(n, edges)
        buf = io.StringIO()

        def call():
            path.write_text(graphs.write_edge_list(base), "ascii")
            return cli_call(job, argv, buf)

        rc = job.timed("custom", call)
        if rc != 0:
            return [f"exit code {rc}"]
        report = json.loads(buf.getvalue())
        job.reports.append(report)
        return check_custom(report, n, len(edges), job.offset)

    for n, edges in bases:
        with job.case():
            job.operation(f"custom n={n} m={len(edges)}", lambda: body(n, edges))


def check_custom(report: dict, n: int, m: int, offset: int) -> list[str]:
    problems = report_failures(report)
    # m(H[H]) = n*m + m*n^2: every blob keeps its copy of H, and each base
    # edge joins two whole blobs.
    want = [(n, m + offset), (n * n, n * m + m * n * n + offset)]
    got = [(rec["vertices"], rec["edges"]) for rec in report["levels"]]
    if got != want:
        problems.append(f"(vertices, edges) per level {got} != {want}")
    for rec in report["levels"]:
        if not isinstance(rec["T_enum"], int) or rec["T_enum"] != rec["T_diagonal"]:
            problems.append(f"level {rec['N']}: enum {rec['T_enum']} != diagonal {rec['T_diagonal']}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--job", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--wrong-expected", action="store_true")
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args()

    job = Job(args.job, bool(args.trace), 1 if args.wrong_expected else 0)
    if job.rec is not None:
        spans.install(job.rec)
    size = SIZES[args.size]
    work = Path(args.work_dir)
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "c4-verify":
            verify_workload(job, "c4", size)
        elif args.workload == "theta-verify":
            verify_workload(job, "theta222", size)
        elif args.workload == "blowup-io":
            blowup_io_workload(job, size, work)
        elif args.workload == "custom-census":
            custom_workload(job, size, work, args.seed)
        else:
            parser.error(f"unknown workload {args.workload!r}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if job.rec is not None:
        job.operation("span nesting", lambda: spans.check_nesting(job.rec.spans))
    # ru_maxrss is the process peak; the checks allocate far less than the
    # timed calls, so it is the job's peak.
    result = {
        **job.timings(),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": job.attempted,
        "failed": job.failed,
        "errors": job.errors,
    }
    if job.rec is not None:
        result["metrics"] = spans.derive(job.rec.spans, job.reports)
        result["spans"] = job.rec.spans
        result["levels"] = [
            {"family": r["family"], "N": rec["N"], "timings": rec["timings"]}
            for r in job.reports[:1]
            for rec in r["levels"]
        ]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
