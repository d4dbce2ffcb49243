"""fedkit benchmark: one workload per call, or every workload with no --workload.

    python3 perfbench/run.py --workload sim-drift --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py                 # every workload, untraced then traced
    python3 perfbench/selfcheck.py           # every workload at tiny size, output validated

Run from the root of a fedkit checkout; the package is imported from
``src/`` of that checkout and nowhere else.  With ``--trace 0`` the last
line of standard output is a JSON object holding every end-to-end metric of
BENCHMARK.json; with ``--trace 1`` it holds every per-layer metric, taken
from spans the tracer records around fedkit's layers.  Lines before it are
for people: the environment, the secondary figures with units and sample
counts, and for a traced run the layers with the most self time.  A failed
operation or a correctness gate miss sets ``correct`` to false and the exit
code to 1.  Outputs (result records, spans, spool directories) go to
``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import fedkit.config, fedkit.runner, fedkit.sim, fedkit.transport; "
    "print(time.perf_counter() - t)"
)


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _bootstrap() -> None:
    """Import fedkit from this checkout's sources, never from an installed copy."""
    if not (SRC / "fedkit" / "sim.py").is_file():
        _fail(f"no fedkit sources under {SRC}; run from the root of a fedkit checkout")
    sys.path.insert(0, str(SRC))
    import fedkit.sim

    if not Path(fedkit.sim.__file__).resolve().is_relative_to(SRC.resolve()):
        _fail(f"fedkit was imported from {fedkit.sim.__file__}, not from {SRC}")


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args) -> dict:
    import numpy

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "loadavg": list(os.getloadavg()),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def import_seconds() -> list[float]:
    """Time ``import fedkit`` in fresh interpreters, each waited for."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            _fail(f"import probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip()))
    return times


def _per_layer(bench: dict, tracer, outcome, wall: float) -> dict:
    from tracer import LAYERS

    totals = tracer.layer_totals()
    # counts the workload did not produce are zero: no staging, no simulator
    derived = {
        "sim.mean_utilization": 0.0,
        "wire.spool_files_left": 0,
        "wire.spool_bytes_left": 0,
        "params.tensor_copies": totals["params.ParameterSet"]["tensors"],
        "aggregators.updates_per_apply": (
            totals["aggregators.apply"]["updates"] / totals["aggregators.apply"]["calls"]
            if totals["aggregators.apply"]["calls"] else 0.0
        ),
        "sim.trained_used_ratio": (
            outcome.counts.get("sim.updates_used", 0) / totals["client.local_train@sim"]["calls"]
            if totals["client.local_train@sim"]["calls"] else 0.0
        ),
        "sim.traced_share": (
            1.0 - totals["sim.run_simulation"]["self_s"] / totals["sim.run_simulation"]["busy_s"]
            if totals["sim.run_simulation"]["busy_s"] else 0.0
        ),
        "runner.local_train.busy_s": totals["client.local_train@runner"]["busy_s"],
        "traced.updates_per_s": outcome.updates / outcome.busy if outcome.busy else 0.0,
        "traced.update_p10_ms": outcome.fast_ms() if outcome.samples_ms else 0.0,
        "traced.wall_s": wall,
        "trace.spans": len(tracer.spans),
    }
    derived.update(outcome.counts)
    values = {}
    for m in bench["per_layer"]:
        name = m["name"]
        if name in derived:
            value = derived[name]
        else:
            layer, _, stat = name.rpartition(".")
            if layer not in LAYERS:
                raise KeyError(f"per-layer metric {name} has no source")
            value = totals[layer]["failed" if stat == "failures" else stat]
        if m["unit"] in ("count", "B"):
            value = int(round(value))
        values[name] = {"value": value, "unit": m["unit"]}
    return values


# layers whose self time is mostly waiting, not work
_WAITING = {
    "wire.read_frame": "mostly socket wait",
    "runner.run_local": "mostly waiting for its client threads",
}


def _trace_summary(workload: str, tracer, wall: float) -> list[str]:
    totals = tracer.layer_totals()
    layers = sorted(
        ((row["self_s"], name) for name, row in totals.items() if "@" not in name),
        reverse=True,
    )
    lines = [f"trace {workload}: base = traced wall {wall:.3f} s (setup and timed region), "
             f"{len(tracer.spans)} spans; self time by layer, thread-seconds, "
             f"threads overlap on socket workloads"]
    for self_s, name in layers[:10]:
        note = f"  ({_WAITING[name]})" if name in _WAITING else ""
        lines.append(f"trace {workload}:   {name:32s} {self_s:9.3f} s  {100 * self_s / wall:6.1f}%{note}")
    return lines


def run_one(bench: dict, args) -> int:
    t_start = time.perf_counter()
    _bootstrap()
    import workloads
    from tracer import Tracer

    OUT.mkdir(exist_ok=True)
    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    imports = import_seconds()
    wl = workloads.make(args.workload, args.seed, args.tiny, OUT)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    t_traced = time.perf_counter()
    setups, ctx = [], None
    for i in range(SETUP_REPEATS):
        if ctx is not None:
            wl.close(ctx)
        t0 = time.perf_counter()
        ctx = wl.setup()
        setups.append(time.perf_counter() - t0)
    outcome = wl.run(ctx, args.seconds, tracer)
    wall = time.perf_counter() - t_traced
    if tracer is not None:
        tracer.uninstall()
    wl.verify(ctx, outcome)
    wl.close(ctx)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = statistics.median(imports) + statistics.median(setups)
    samples = outcome.pooled
    n = len(samples)
    end_to_end = {
        "setup_s": (setup_s, "s", SETUP_REPEATS),
        "update_p10_ms": (outcome.fast_ms() if n else 0.0, "ms", n),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }
    failed_frac = outcome.failed / max(outcome.attempted, 1)
    report = dict(end_to_end)
    report["updates_per_s"] = (outcome.updates / outcome.busy if outcome.busy else 0.0, "1/s", outcome.updates)
    report["update_p50_ms"] = (statistics.median(samples) if n else 0.0, "ms", n)
    report.update(outcome.report)
    report["failed_frac"] = (failed_frac, "1", outcome.attempted)
    print(f"setup {args.workload}: import {statistics.median(imports):.4f} s (n={len(imports)}), "
          f"workload setup {statistics.median(setups):.4f} s (n={len(setups)})")
    tag = "traced" if args.trace else "metric"  # traced figures carry the tracer's cost
    for name, (value, unit, count) in report.items():
        print(f"{tag} {args.workload} {name} {value:.6g} {unit} n={count}")
    for problem in outcome.problems:
        print(f"problem {args.workload}: {problem}")

    if tracer is not None:
        metrics = _per_layer(bench, tracer, outcome, wall)
        for line in _trace_summary(args.workload, tracer, wall):
            print(line)
        tracer.write(OUT / f"spans-{args.workload}.npz")
    else:
        metrics = {}
        for m in bench["end_to_end"]:
            value, unit, _ = end_to_end[m["name"]]
            metrics[m["name"]] = {"value": value, "unit": unit}
    correct = outcome.failed == 0 and outcome.attempted > 0
    result = {"correct": correct, "attempted": outcome.attempted, "failed": outcome.failed,
              "metrics": metrics}
    record = dict(result, env=env, report={k: list(v) for k, v in report.items()},
                  problems=outcome.problems, samples_ms=outcome.samples_ms,
                  elapsed_s=time.perf_counter() - t_start)
    (OUT / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def run_all(bench: dict, args) -> int:
    """Every workload untraced, then traced, each in its own interpreter."""
    _bootstrap()
    workloads = [w["name"] for w in bench["workloads"]]
    status = 0
    records = {}
    for workload in workloads:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.tiny:
                cmd.append("--tiny")
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            shown = ("metric ", "problem ") if trace == 0 else ("trace ", "problem ")
            print("\n".join(line for line in lines[:-1] if line.startswith(shown)))
            if proc.returncode != 0:
                print(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                status = 1
                continue
            records[workload, trace] = json.loads(lines[-1])
    for workload in workloads:
        if (workload, 0) in records and (workload, 1) in records:
            untraced = records[workload, 0]["metrics"]["update_p10_ms"]["value"]
            traced = records[workload, 1]["metrics"]["traced.update_p10_ms"]["value"]
            print(f"overhead {workload}: traced update_p10_ms {traced:.6g} vs untraced "
                  f"{untraced:.6g}, tracing costs {100 * (traced / untraced - 1):.1f}%")
    return status


def main(argv=None) -> int:
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        _fail(f"cannot read BENCHMARK.json at {ROOT}: {e}")
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the self-check only")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(bench, args)
    return run_one(bench, args)


if __name__ == "__main__":
    sys.exit(main())
