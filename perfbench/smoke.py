"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at its smallest size, traced and untraced, and checks
that every metric named in BENCHMARK.json is emitted with its unit, that the
seed code passes every correctness check, that a deliberately wrong
expected count is counted as a failure (not a crash, not a pass), and that
a directory holding only the benchmark's own files makes it exit nonzero
without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*extra: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    cmd = [sys.executable, "perfbench/run.py", "--seed", "7", "--seconds", "1", *extra]
    done = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)
    return done.returncode, done.stdout.strip().splitlines()


def check(condition: bool, message: str, problems: list[str]) -> None:
    if not condition:
        problems.append(message)
        print(f"FAIL {message}")


def main() -> int:
    problems: list[str] = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = bench("--workload", workload, "--trace", str(trace), "--size", "smoke")
            label = f"{workload} trace {trace}"
            check(code == 0 and bool(lines), f"{label}: exit code {code}", problems)
            if code != 0 or not lines:
                continue
            result = json.loads(lines[-1])
            check(any(line.split()[:1] == ["fail_ratio"] for line in lines),
                  f"{label}: fail_ratio not printed", problems)
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                  f"{label}: result keys {sorted(result)}", problems)
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{label}: seed code not correct ({result['failed']}/{result['attempted']} failed)",
                  problems)
            want = {m["name"]: m["unit"] for m in SPEC[group]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == want, f"{label}: metrics differ from BENCHMARK.json {group}", problems)
            check(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
                  f"{label}: a metric value is not a number", problems)
            print(f"ok   {label}: {len(got)} metrics, {result['attempted']} operations")

        code, lines = bench("--workload", workload, "--trace", "0", "--size", "smoke",
                            "--wrong-expected")
        result = json.loads(lines[-1]) if code == 0 and lines else None
        check(result is not None and result["failed"] > 0 and not result["correct"],
              f"{workload}: a wrong expected count was not reported as a failure", problems)
        if result is not None:
            print(f"ok   {workload} wrong expected: fail_ratio "
                  f"{result['failed']}/{result['attempted']}")

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, lines = bench("--workload", "c4-verify", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    refused = code != 0 and not any(line.startswith("{") for line in lines)
    check(refused, f"benchmark files alone: exit code {code}, expected nonzero and no result",
          problems)
    if refused:
        print("ok   benchmark files alone: nonzero exit, no result")

    print(f"{'FAILED' if problems else 'PASSED'}: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
