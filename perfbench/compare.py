"""Compare benchmark records of two commits.

    python3 perfbench/compare.py OLD_OUT_DIR NEW_OUT_DIR

Each directory holds the `<workload>-seed<n>-trace0.json` records that
`run.py` wrote.  For every workload and end-to-end metric this prints
both sides' median and quartiles, the change of the medians, the share
of seed-paired runs the new side wins, and a verdict against the bound
in BENCHMARK.json.  A metric whose run-to-run spread (quartile distance
over median) on either side exceeds its bound is unresolved, unless
every new run reads better than every old run.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(out_dir: Path) -> dict:
    """{workload: {seed: record}} for untraced, non-smoke runs."""
    runs: dict = {}
    for path in sorted(out_dir.glob("*-trace0.json")):
        rec = json.loads(path.read_text())
        env = rec["environment"]
        if not env["smoke"]:
            runs.setdefault(rec["workload"], {})[env["seed"]] = rec
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    old, new = load(Path(argv[0])), load(Path(argv[1]))
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    for workload in sorted(set(old) & set(new)):
        seeds = sorted(set(old[workload]) & set(new[workload]))
        print(f"{workload}: {len(old[workload])} old runs, {len(new[workload])} new runs, {len(seeds)} paired")
        for m in metrics:
            name, sign = m["name"], (1 if m["better"] == "lower" else -1)
            a = [r["metrics"][name]["value"] for r in old[workload].values()]
            b = [r["metrics"][name]["value"] for r in new[workload].values()]
            qa, qb = quartiles(a), quartiles(b)
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            wins = sum(sign * (new[workload][s]["metrics"][name]["value"]
                               - old[workload][s]["metrics"][name]["value"]) < 0 for s in seeds)
            spread = (qa[2] - qa[0]) / qa[1] if qa[1] else 0.0
            new_spread = (qb[2] - qb[0]) / qb[1] if qb[1] else 0.0
            all_better = all(sign * (y - x) < 0 for x in a for y in b)
            if max(spread, new_spread) > m["bound"] and not all_better:
                verdict = "unresolved (spread above bound)"
            elif sign * change > m["bound"]:
                verdict = "WORSE than bound"
            elif seeds and wins >= 0.9 * len(seeds) and -sign * change > spread:
                verdict = "gain"
            else:
                verdict = "within bound"
            print(f"  {name:14s} old {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  new {qb[1]:.6g} "
                  f"[{qb[0]:.6g}, {qb[2]:.6g}] {m['unit']}  change {change:+.1%}  "
                  f"new wins {wins}/{len(seeds)}  bound {m['bound']:.0%}: {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
