"""visblock benchmark.

    python3 perfbench/run.py --workload census --seed 1 --trace 0

runs one workload in this process and prints, as its last line, one JSON
object with `correct`, `attempted`, `failed` and `metrics`.  With
`--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json,
with `--trace 1` its per-layer metrics.  Without `--workload` every
workload runs in a fresh process of its own and the last line holds
`<workload>.<metric>` for all of them.  A run measures for
`run_seconds` of BENCHMARK.json unless `--seconds` says otherwise.
`--smoke` swaps in small op lists and a short fixed run length.

The program is imported from `src/` next to this directory; the
benchmark refuses to run without it.  Run records, traces and the
harness' temporary run directories go to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("census", "lines", "block", "harness")
DEFAULT_SEED = 1
SETUP_PROBES = 9
SMOKE_SECONDS = 1.0
# Host-speed correction: `reference_loop` takes REFERENCE_LOOP_S on the
# reference host; it is timed every CALIBRATE_EVERY_S between ops.
REFERENCE_LOOP_S = 0.010
CALIBRATE_EVERY_S = 0.25
MAX_FAILURES_SHOWN = 5


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, help="one workload; default: all, one process each")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, help="measuring time per run; default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="small op lists, for the benchmark's own tests")
    ap.add_argument("--reference", type=Path, default=HERE / "reference.json")
    ap.add_argument("--out", type=Path, default=HERE / "out")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def load_program():
    """Put src/ first on the import path and import the workloads, which
    import visblock.  Exits non-zero when the source tree is missing."""
    if not (SRC / "visblock" / "__init__.py").is_file():
        sys.exit(f"error: no visblock source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: E402  (imports visblock)

    origin = Path(workloads.visblock.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        sys.exit(f"error: visblock imported from {origin}, not from {SRC}")
    return workloads


def _commit() -> str:
    git = ROOT / ".git"
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
    return "unknown (not a git checkout)"


def _source_sha256() -> str:
    """Identifies the program where there is no git metadata."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "visblock").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def _mpmath_version() -> str:
    from importlib.metadata import PackageNotFoundError, version

    try:
        return version("mpmath")
    except PackageNotFoundError:
        return "absent"


def environment(args) -> dict:
    return {
        "commit": _commit(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "mpmath": _mpmath_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg_start": _loadavg(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
    }


def reference_loop() -> float:
    """Seconds for a fixed piece of pure-Python exact arithmetic, the kind
    of work the program does.  The host is shared and its speed drifts by
    up to 2x within minutes; timed next to the program, this loop tells
    how fast the host runs at that moment."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    seen = {}
    for i in range(1, 4000):
        acc += Fraction(i % 97, i % 89 + 1)
        seen[(i % 100, i % 7)] = acc.numerator & 255
    return time.perf_counter() - t0


def host_factor(loop_times: list[float]) -> float:
    """How much slower than the reference host the host ran."""
    return statistics.fmean(loop_times) / REFERENCE_LOOP_S


def setup_probe(args) -> None:
    """Time import plus input generation, as a fresh process pays it,
    with the reference loop timed just before and after."""
    loops = [reference_loop() for _ in range(3)]
    t0 = time.perf_counter()
    wl_mod = load_program()
    reference = json.loads(args.reference.read_text())
    wl = wl_mod.make_workload(args.workload, args.seed, args.smoke, reference, args.out)
    ops = wl.make_ops()
    setup_s = time.perf_counter() - t0
    loops += [reference_loop() for _ in range(3)]
    print(json.dumps({"setup_s": setup_s, "host_factor": host_factor(loops), "ops": len(ops)}))


def _probe_setup(args) -> list[dict]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--reference", str(args.reference), "--out", str(args.out)]
    if args.smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return times


class PassResult:
    def __init__(self):
        self.wall_s = 0.0               # without the reference loops
        self.host_factor = 1.0
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.solved = 0
        self.failures: list[str] = []


def run_pass(wl, ops, wl_mod, tracer=None) -> PassResult:
    res = PassResult()
    if tracer is not None:
        tracer.start_op(-1, "pass")
    t_pass = time.perf_counter()
    wl.begin_pass()
    if tracer is not None:
        tracer.start_pass()
    loops = [reference_loop()]
    last_loop = time.perf_counter()
    for i, op in enumerate(ops):
        if time.perf_counter() - last_loop >= CALIBRATE_EVERY_S:
            loops.append(reference_loop())
            last_loop = time.perf_counter()
        if tracer is not None:
            tracer.start_op(i, op.group)
        t0 = time.perf_counter()
        try:
            solved = wl.run_op(op)
        except wl_mod.CheckFailed as exc:
            res.failed += 1
            res.failures.append(f"{op.label}: {exc}")
        except Exception:  # an op that raises is a failed op; the pass goes on
            res.failed += 1
            res.failures.append(f"{op.label}: {traceback.format_exc(limit=4)}")
        else:
            res.solved += bool(solved)
        res.latencies.append(time.perf_counter() - t0)
        res.attempted += 1
    if tracer is not None:
        tracer.start_op(-1, "pass")
    for msg in wl.end_pass():
        res.failed += 1
        res.failures.append(f"pass check: {msg}")
    loops.append(reference_loop())
    res.wall_s = time.perf_counter() - t_pass - sum(loops)
    res.host_factor = host_factor(loops)
    wl.cleanup()
    return res


def run_passes(wl, ops, wl_mod, seconds: float, tracer=None) -> list[PassResult]:
    """At least one pass; another only while it is expected to end within
    `seconds` of the first pass's start."""
    passes: list[PassResult] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(wl, ops, wl_mod, tracer))
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def _per_layer(setup_stats: dict, stats: dict, passes: int, setup_s: float, pass_s: float,
               overhead: float) -> dict:
    """Per-layer figures for one unit of work: the traced set-up plus one
    traced pass (the mean of the traced passes).  Seconds are self time."""
    from tracer import LAYERS

    values: dict[str, float] = {}
    module_self = dict.fromkeys(LAYERS, 0.0)
    module_calls = dict.fromkeys(LAYERS, 0.0)
    for name, st in stats.items():
        before = setup_stats[name]
        unit = {key: before[key] + (val - before[key]) / passes for key, val in st.items()}
        module = name.split(".", 1)[0]
        module_self[module] += unit["self_s"]
        module_calls[module] += unit["calls"]
        for key, val in unit.items():
            values[f"{name}.{key}"] = val
    for m in LAYERS:
        values[f"{m}.calls"] = module_calls[m]
        values[f"{m}.self_s"] = module_self[m]
    values["trace.wall_s"] = setup_s + pass_s
    values["trace.unattributed_s"] = values["trace.wall_s"] - sum(module_self.values())
    values["trace.overhead_ratio"] = overhead
    return values


def _budget_summary(budget_use: dict) -> str:
    """The budgeted call that came back in time with the largest share of
    its budget used, and which budgeted calls ran out."""
    solved = [(u["used_s"] / u["budget_s"], label) for label, u in budget_use.items() if u["solved"]]
    unsolved = sorted(label for label, u in budget_use.items() if not u["solved"])
    worst = f"{max(solved)[0]:.1%} ({max(solved)[1]})" if solved else "none"
    return (f"{len(solved)} came back within budget, the slowest using {worst} of its budget; "
            f"{len(unsolved)} ran out: {', '.join(unsolved) or 'none'}")


def run_workload(args, bench: dict) -> int:
    env = environment(args)
    t0 = time.perf_counter()
    wl_mod = load_program()
    reference = json.loads(args.reference.read_text())
    wl = wl_mod.make_workload(args.workload, args.seed, args.smoke, reference, args.out)

    tracer = None
    traced_setup_s = 0.0
    setup_stats: dict = {}
    if args.trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()
        t_setup = time.perf_counter()
    ops = wl.make_ops()
    if tracer is not None:
        traced_setup_s = time.perf_counter() - t_setup
        tracer.uninstall()
        setup_stats = {name: dict(st) for name, st in tracer.stats.items()}
    in_process_setup_s = time.perf_counter() - t0

    setup_times = _probe_setup(args) if not args.trace else []

    if args.trace:
        plain = run_passes(wl, ops, wl_mod, args.seconds / 2)
        tracer.install()
        traced = run_passes(wl, ops, wl_mod, args.seconds / 2, tracer)
        tracer.uninstall()
    else:
        plain = run_passes(wl, ops, wl_mod, args.seconds)
        traced = []
    passes = plain + traced
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    solved = sum(p.solved for p in passes)
    latencies = [t for p in plain for t in p.latencies]
    op_p50_ms = 1000.0 * statistics.median(latencies)
    op_p90_ms = 1000.0 * statistics.quantiles(latencies, n=10)[-1] if len(latencies) >= 100 else None
    wall_s = statistics.median(p.wall_s / p.host_factor for p in plain)
    if args.trace:
        overhead = statistics.median(p.wall_s / p.host_factor for p in traced) / wall_s - 1.0
        values = _per_layer(setup_stats, tracer.stats, len(traced), traced_setup_s,
                            statistics.fmean(p.wall_s for p in traced), overhead)
        wanted = bench["per_layer"]
    else:
        values = {
            "wall_s": wall_s,
            "setup_s": statistics.median(t["setup_s"] / t["host_factor"] for t in setup_times),
            "peak_rss_mib": peak_rss_mib,
            "solved_ratio": solved / attempted,
        }
        wanted = bench["end_to_end"]

    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    env["loadavg_end"] = _loadavg()
    ops_per_pass = len(ops)
    record = {
        "workload": args.workload,
        "environment": env,
        "ops_per_pass": ops_per_pass,
        "passes": len(plain),
        "pass_wall_s": [p.wall_s for p in plain],
        "pass_host_factor": [p.host_factor for p in plain],
        "op_samples": len(latencies),
        "op_p50_ms": op_p50_ms,
        "op_p90_ms": op_p90_ms,
        "setup_probe_s": setup_times,
        "setup_in_process_s": in_process_setup_s,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "solved": solved,
        "failures": [f for p in passes for f in p.failures][:50],
        "budget_use": wl.budget_use,
        "metrics": metrics,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    if tracer is not None:
        dump = tracer.dump()
        record["traced_passes"] = len(traced)
        record["traced_pass_wall_s"] = [p.wall_s for p in traced]
        record["traced_pass_host_factor"] = [p.host_factor for p in traced]
        record["hot_functions"] = dump["hot_functions"]
        record["layer_self_pct"] = {
            m: 100.0 * values[f"{m}.self_s"] / values["trace.wall_s"] for m in tracer_mod.LAYERS}
        record["missing_functions"] = sorted(
            m["name"] for m in wanted if m["name"] not in values)
        (args.out / f"spans-{stem}.json").write_text(json.dumps(dump))
    (args.out / f"{stem}.json").write_text(json.dumps(record, indent=1))

    print(f"# environment {json.dumps(env)}")
    print(f"# {args.workload}: {ops_per_pass} ops per pass, {len(plain)} pass(es), "
          f"{len(latencies)} op samples, attempted {attempted}, failed {failed}, solved {solved}")
    p90 = "" if op_p90_ms is None else f", op_p90_ms = {op_p90_ms:.6g} ms"
    print(f"# op latency (in the record, not gated; see README): op_p50_ms = {op_p50_ms:.6g} ms{p90}"
          f" over {len(latencies)} samples")
    if wl.budget_use:
        print(f"# budgeted calls (largest use over all passes): {_budget_summary(wl.budget_use)}")
    print(f"# measured pass seconds {[round(p.wall_s, 4) for p in plain]}, host factors "
          f"{[round(p.host_factor, 4) for p in plain]}: wall_s is their quotient's median")
    for f in record["failures"][:MAX_FAILURES_SHOWN]:
        print(f"# FAILED {f}", file=sys.stderr)
    if tracer is not None:
        print(f"# hot functions, aggregated per (function, parent) past "
              f"{tracer_mod.HOT_CALLS} calls a pass: {', '.join(dump['hot_functions']) or 'none'}")
        print("# single-threaded, no queues: no layer has a wait time")
        print(f"# per-layer figures: traced set-up plus one traced pass (mean of {len(traced)})")
    for m in wanted:
        print(f"# {m['name']} = {metrics[m['name']]['value']:.6g} {m['unit']} ({m['better']} is better)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in a fresh process; one combined result line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--reference", str(args.reference), "--out", str(args.out)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: workload {name} gave no result (exit {proc.returncode})", file=sys.stderr)
            return 2
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, val in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = val
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    args = _parse(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.smoke:
        args.seconds = SMOKE_SECONDS
    elif args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    if args.setup_probe:
        setup_probe(args)
        return 0
    if args.workload is None:
        return run_all(args)
    return run_workload(args, bench)


if __name__ == "__main__":
    sys.exit(main())
