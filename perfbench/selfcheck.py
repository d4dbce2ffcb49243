"""Self-check: every workload at tiny size, untraced and traced, output validated.

    python3 perfbench/selfcheck.py

Checks that BENCHMARK.json keeps to the benchmark contract, that each run
ends with one JSON line whose metric names and units match BENCHMARK.json,
that times are non-negative, that counts are integers, that end-to-end
metrics are never zero, that every correctness gate passes, and that the
benchmark refuses to run in a directory without fedkit's sources.  Exits 1
on the first list of problems it finds, 0 otherwise.
"""
from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
TIME_UNITS = ("s", "ms")
COUNT_UNITS = ("count", "B")


def check_benchmark_file(bench: dict) -> list[str]:
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(bench) != keys:
        problems.append(f"BENCHMARK.json keys {sorted(bench)} != {sorted(keys)}")
    cmd = bench.get("command", [])
    if not (1 <= len(cmd) <= 32 and all(isinstance(c, str) and len(c) <= 200 for c in cmd)):
        problems.append("command must be 1..32 strings of at most 200 characters")
    if any(c.startswith("/") or ".." in Path(c).parts for c in cmd):
        problems.append("command must not name absolute paths or leave the repo")
    paths = bench.get("paths", [])
    if not 1 <= len(paths) <= 16:
        problems.append("paths must list 1..16 directories")
    for p in paths:
        if not PATH.match(p) or p.startswith("/") or ".." in Path(p).parts or not (ROOT / p).is_dir():
            problems.append(f"bad path {p!r}")
    if not (isinstance(bench.get("run_seconds"), int) and 1 <= bench["run_seconds"] <= 60):
        problems.append("run_seconds must be a whole number from 1 to 60")
    names = []
    if not 2 <= len(bench.get("workloads", [])) <= 8:
        problems.append("need 2..8 workloads")
    for w in bench.get("workloads", []):
        names.append(w.get("name", ""))
        if set(w) != {"name", "why"} or "\n" in w["why"] or len(w["why"]) > 200:
            problems.append(f"workload {w} needs exactly a name and a one-line why")
    for section, limit, bounded in (("end_to_end", 16, True), ("per_layer", 128, False)):
        metrics = bench.get(section, [])
        if not 1 <= len(metrics) <= limit:
            problems.append(f"{section} must hold 1..{limit} metrics")
        for m in metrics:
            want = {"name", "unit", "better", "bound"} if bounded else {"name", "unit", "better"}
            if set(m) != want:
                problems.append(f"{section} metric {m} needs exactly {sorted(want)}")
                continue
            names.append(m["name"])
            if not UNIT.match(m["unit"]) or m["better"] not in ("lower", "higher"):
                problems.append(f"{section} metric {m['name']}: bad unit or better")
            if bounded and not 0 < m["bound"] <= 0.25:
                problems.append(f"{m['name']}: bound must be in (0, 0.25]")
    for name in names:
        if not NAME.match(name):
            problems.append(f"bad name {name!r}")
    if len(set(names)) != len(names):
        problems.append("names must be used once")
    setup = [m for m in bench.get("end_to_end", []) if m.get("name") == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("end_to_end needs setup_s in s, lower is better")
    elif setup[0]["bound"] < max(m["bound"] for m in bench["end_to_end"]):
        problems.append("setup_s must have the largest bound")
    return problems


def check_result(line: str, expected: dict, nonzero: bool) -> list[str]:
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        return [f"last line is not JSON: {e}"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys {sorted(result)}"]
    if result["correct"] is not True:
        problems.append("correct is not true")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append(f"{key} is not an integer")
    if result["attempted"] < 1 or result["failed"] != 0:
        problems.append(f"attempted {result['attempted']}, failed {result['failed']}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append(f"metric names differ from BENCHMARK.json: "
                        f"missing {sorted(set(expected) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(expected))}")
    for name, entry in metrics.items():
        value, unit = entry.get("value"), entry.get("unit")
        if name in expected and unit != expected[name]:
            problems.append(f"{name}: unit {unit!r}, BENCHMARK.json says {expected[name]!r}")
        if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
            continue
        if unit in TIME_UNITS and value < 0:
            problems.append(f"{name}: negative time {value}")
        if unit in COUNT_UNITS and not isinstance(value, int):
            problems.append(f"{name}: count {value!r} is not an integer")
        if nonzero and value <= 0:
            problems.append(f"{name}: end-to-end metric is {value}, must be positive")
    return problems


def run(cmd, cwd) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = [f"BENCHMARK.json: {p}" for p in check_benchmark_file(bench)]
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in bench[section]}
        for w in bench["workloads"]:
            cmd = [sys.executable, "perfbench/run.py", "--workload", w["name"], "--seed", "3",
                   "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = run(cmd, ROOT)
            lines = proc.stdout.strip().splitlines()
            problems = [] if proc.returncode == 0 else [f"exit code {proc.returncode}: {proc.stderr[-500:]}"]
            if lines:
                problems += check_result(lines[-1], expected, nonzero=(trace == 0))
            else:
                problems.append("no output")
            status = "ok" if not problems else "FAIL"
            print(f"selfcheck {w['name']} trace={trace}: {status}")
            failures += [f"{w['name']} trace={trace}: {p}" for p in problems]

    # without fedkit's sources the benchmark must refuse, quickly and without a result
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="selfcheck-bare-", dir=out))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for p in bench["paths"]:
            shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run([sys.executable, "perfbench/run.py", "--workload", bench["workloads"][0]["name"],
                    "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
        refused = proc.returncode != 0 and not proc.stdout.strip()
        print(f"selfcheck no-sources refusal: {'ok' if refused else 'FAIL'}")
        if not refused:
            failures.append(f"ran without sources: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for f in failures:
        print(f"selfcheck problem: {f}")
    print(f"selfcheck: {'FAILED' if failures else 'passed'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
