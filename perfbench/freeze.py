"""Regenerate perfbench/reference.json from the current program.

    python3 perfbench/freeze.py

The reference holds values frozen from a trusted commit; the benchmark
compares every run against it.  Re-freeze only in a change that is meant
to alter results, and say so.  Takes about a minute and a half, most
of it in the n=9 frontier scan, which gives each candidate three times the frontier
budget and keeps the seeds still unsolved after it.
"""

from __future__ import annotations

import json
import random
import tempfile
from pathlib import Path

import run

wl = run.load_program()
from visblock import cli  # noqa: E402
from visblock.blocking import min_blocking_set  # noqa: E402
from visblock.crossing import regular_ngon_multiplicity  # noqa: E402
from visblock.generators import convex_parabola_set, random_general_position_set  # noqa: E402


def lines_totals(smoke: bool) -> dict:
    w = wl.Lines(0, smoke, {"lines": {"full": None, "smoke": None}}, None)
    ops = w.make_ops()
    w.begin_pass()
    for op in ops:
        w.run_op(op)
    return {"subsets": w.subsets, "orbits": len(w.orbits), "colourings": w.colourings}


def optimum(ps) -> int:
    bs = min_blocking_set(ps)
    assert bs.optimal
    return bs.size


def frontier_9(size: int = 12) -> list[int]:
    """The first `size` random n=9 seeds whose search is not optimal after
    FRONTIER_MARGIN times the frontier budget."""
    seeds = []
    budget = wl.FRONTIER_MARGIN * wl.FRONTIER_BUDGET_MS
    for s in range(1000):
        if not min_blocking_set(random_general_position_set(9, None, s), budget).optimal:
            seeds.append(s)
            if len(seeds) == size:
                return seeds
    raise RuntimeError(f"only {len(seeds)} frontier seeds")


def harness_reference() -> dict:
    configs = {}
    for k in range(20):
        for name, obj, _ in wl.harness_configs(random.Random(k), smoke=False):
            configs.setdefault(name, obj)
    configs.pop("random-8")
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, obj in sorted(configs.items()):
            run_dir = cli.run(cli.ExperimentConfig.from_obj(obj | {"output_dir": tmp}))
            manifest = json.loads((run_dir / "manifest.json").read_text())
            out[name] = {}
            for task, entry in manifest["tasks"].items():
                if entry["status"] == "ok":
                    res = json.loads((run_dir / "results" / f"{task}.json").read_text())
                    out[name][task] = wl.summarize(task, res)
    return out


def main() -> None:
    census = {}
    for n in range(4, 31):
        c = regular_ngon_multiplicity(n)
        assert c.certified
        census[str(n)] = [c.center_multiplicity, c.max_multiplicity_excluding_center]
    reference = {
        "census": census,
        "lines": {"full": lines_totals(False), "smoke": lines_totals(True)},
        "block": {
            "random": {
                str(n): {str(s): optimum(random_general_position_set(n, None, s)) for s in seeds}
                for n, seeds in ((7, range(wl.POOL)), (8, wl.PANEL_8))
            },
            "frontier_9": frontier_9(),
            "convex": {str(n): optimum(convex_parabola_set(n)) for n in (7, 8)},
        },
        "harness": harness_reference(),
    }
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(path)


if __name__ == "__main__":
    main()
