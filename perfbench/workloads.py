"""The four benchmark workloads.

A workload turns a seed into a list of ops (its input generation, which
counts as set-up), runs one op at a time, and checks every result
against a reference.  A failed check raises `CheckFailed`.  `run_op`
returns True when the op came back optimal, exact or certified.

Importing this module imports `visblock`.
"""

from __future__ import annotations

import json
import logging
import random
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import visblock
from visblock import blocking, cli, crossing, generators, geometry, visibility

# Program functions are looked up on their modules at call time, so the
# tracer's wrappers see the benchmark's own calls too.

# The reference file holds the optimal blocking numbers of
# random_general_position_set(n, None, seed) for n = 7, seeds 0..POOL-1,
# and for n = 8, the seeds of PANEL_8.
POOL = 300
PANEL_8 = range(8)      # the fixed n=8 instances of `block`
HARNESS_8 = 0           # the n=8 instance of `harness`, one of PANEL_8
# Wall-clock budgets.  Every call that comes back in time stays far below
# its budget (on a 2-core VM the largest were convex n=8 in `block`, 3.5 s
# of 30 s, and the grid 16x16 visgraph in `harness`, 4 s of 60 s), and the
# reference's frontier pool holds only n=9 seeds still unsolved after
# FRONTIER_MARGIN times FRONTIER_BUDGET_MS, so solved_ratio does not hinge
# on host speed.  Each run records the share of its budget every call used.
EASY_BUDGET_MS = 30_000
FRONTIER_BUDGET_MS = 1_000
FRONTIER_MARGIN = 3
LARGE_BUDGET_MS = 60_000


class CheckFailed(Exception):
    pass


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Op:
    label: str
    group: str
    payload: object


# taken before any tracing wraps it, so the cache can still be cleared
_CYCLOTOMIC = getattr(crossing, "cyclotomic", None)


def reset_program_state() -> None:
    """Undo process-wide state the program leaves behind, so every pass
    starts as the first pass of a fresh process would."""
    mpmath = sys.modules.get("mpmath")
    if mpmath is not None:
        mpmath.mp.prec = 53
    clear = getattr(_CYCLOTOMIC, "cache_clear", None)
    if clear is not None:
        clear()
    logging.getLogger("visblock").setLevel(logging.NOTSET)


class Workload:
    name = ""

    def __init__(self, seed: int, smoke: bool, reference: dict, out_root: Path):
        self.smoke = smoke
        self.ref = reference
        self.out_root = out_root
        self.rng = random.Random(f"{self.name}/{seed}")
        # "<op>/<call>" -> budget_s, the largest used_s over all passes, solved
        self.budget_use: dict[str, dict] = {}

    def make_ops(self) -> list[Op]:
        raise NotImplementedError

    def begin_pass(self) -> None:
        reset_program_state()

    def run_op(self, op: Op) -> bool:
        raise NotImplementedError

    def end_pass(self) -> list[str]:
        """Pass-level checks; returns the failures."""
        return []

    def note_budget(self, label: str, budget_ms: int, used_s: float, solved: bool) -> None:
        """Record how much of its wall-clock budget a call used, so the
        record shows how far each call that came back in time (`solved`)
        stays from running out."""
        prev = self.budget_use.get(label)
        self.budget_use[label] = {
            "budget_s": budget_ms / 1000.0,
            "used_s": used_s if prev is None else max(used_s, prev["used_s"]),
            "solved": solved if prev is None else solved and prev["solved"],
        }

    def cleanup(self) -> None:
        pass


class Census(Workload):
    """regular_ngon_multiplicity(n) for n = 4..30, in that order; the
    input has nothing random."""

    name = "census"

    def make_ops(self) -> list[Op]:
        return [Op(f"ngon-{n}", "ngon", n) for n in range(4, (12 if self.smoke else 30) + 1)]

    def run_op(self, op: Op) -> bool:
        n = op.payload
        c = crossing.regular_ngon_multiplicity(n)
        got = [c.center_multiplicity, c.max_multiplicity_excluding_center]
        expect(c.certified, f"n={n} not certified")
        expect(c.max_multiplicity_excluding_center <= 7, f"n={n}: off-centre multiplicity {got[1]} > 7")
        if n == 6:
            expect(got == [3, 2], f"n=6 gives {got}, not [3, 2]")
        expect(got == self.ref["census"][str(n)], f"n={n} gives {got}, reference {self.ref['census'][str(n)]}")
        return c.certified


def _all_collinear(coords) -> bool:
    (x0, y0), (x1, y1) = coords[0], coords[1]
    return all((x1 - x0) * (y - y0) == (y1 - y0) * (x - x0) for x, y in coords[2:])


class Lines(Workload):
    """Every non-collinear subset of the 4x4 grid with 3..6 points; each
    new symmetry orbit has all its 2-colourings checked for a
    monochromatic line."""

    name = "lines"

    def make_ops(self) -> list[Op]:
        grid = [(x, y) for x in range(4) for y in range(4)]
        sizes = (3, 4) if self.smoke else (3, 4, 5, 6)
        subsets = [s for k in sizes for s in combinations(grid, k) if not _all_collinear(s)]
        self.rng.shuffle(subsets)
        self.expected = self.ref["lines"]["smoke" if self.smoke else "full"]
        return [Op(str(s), f"size-{len(s)}", s) for s in subsets]

    def begin_pass(self) -> None:
        super().begin_pass()
        self.orbits: set = set()
        self.subsets = 0
        self.colourings = 0

    def run_op(self, op: Op) -> bool:
        ps = geometry.PointSet.build(op.payload)
        n = len(ps)
        mc = geometry.max_collinear(ps)
        expect(2 <= mc < n, f"max_collinear {mc} for a non-collinear set of {n}")
        self.subsets += 1
        key = generators.symmetry_key(ps)
        if key in self.orbits:
            return True
        self.orbits.add(key)
        # colour swaps map monochromatic lines to monochromatic lines, so
        # point 0 keeps colour 1
        for bits in range(1 << (n - 1)):
            colours = (1,) + tuple(1 + (bits >> i & 1) for i in range(n - 1))
            rec = visibility.monochromatic_line_check(ps, visibility.Colouring(2, colours))
            expect(rec is not None, f"no monochromatic line for colouring {colours}")
            expect(len({colours[i] for i in rec.member_indices}) == 1,
                   f"line {rec.member_indices} is not monochromatic under {colours}")
            self.colourings += 1
        return True

    def end_pass(self) -> list[str]:
        got = {"subsets": self.subsets, "orbits": len(self.orbits), "colourings": self.colourings}
        return [] if got == self.expected else [f"totals {got}, reference {self.expected}"]


def _coords(ps) -> tuple:
    return tuple((int(p.x), int(p.y)) for p in ps)


class Block(Workload):
    """Exact blocking sets with certificates and crossing-family partitions.

    Per seed: 3 random n=7 instances drawn from the frozen pool, a fixed
    panel of random n=8 instances, convex parabola sets at n = 7, 8, and
    frontier ops under a small budget: 2 random n=9 instances drawn from
    the reference's frontier pool and the convex n=9 set.  The n=8 panel is fixed because n=8
    solve times have a heavy tail (0.06 s to 12 s) that would swamp the
    seed-to-seed spread of `wall_s`.  Four ops fall below the panel and
    four above it, so the median op is the middle of the panel."""

    name = "block"

    def make_ops(self) -> list[Op]:
        k7, panel8, k9 = (3, 2, 1) if self.smoke else (3, len(PANEL_8), 2)
        specs = [("random", 7, s, EASY_BUDGET_MS) for s in self.rng.sample(range(POOL), k7)]
        specs += [("random", 8, s, EASY_BUDGET_MS) for s in PANEL_8[:panel8]]
        frontier = self.rng.sample(self.ref["block"]["frontier_9"], k9)
        specs += [("random", 9, s, FRONTIER_BUDGET_MS) for s in frontier]
        specs += [("convex", 7, None, EASY_BUDGET_MS)]
        if not self.smoke:
            specs += [("convex", 8, None, EASY_BUDGET_MS), ("convex", 9, None, FRONTIER_BUDGET_MS)]
        frozen = self.ref["block"]
        ops = []
        for kind, n, s, budget in specs:
            if kind == "random":
                ps = generators.random_general_position_set(n, None, s)
                want = frozen["random"].get(str(n), {}).get(str(s))
                label = f"random-{n}-s{s}"
            else:
                ps = generators.convex_parabola_set(n)
                want = frozen["convex"].get(str(n))
                label = f"convex-{n}"
            ops.append(Op(label, f"{kind}-{n}", (_coords(ps), budget, want)))
        return ops

    def run_op(self, op: Op) -> bool:
        coords, budget, want = op.payload
        ps = geometry.PointSet.build(coords)
        t0 = time.perf_counter()
        bs = blocking.min_blocking_set(ps, budget)
        self.note_budget(f"{op.label}/blocking", budget, time.perf_counter() - t0, bs.optimal)
        chk = blocking.is_blocking_set(ps, bs.points)
        expect(chk.ok, f"certificate fails: {chk.to_obj()}")
        lb = blocking.triangulation_lower_bound(ps)
        expect(bs.size >= lb, f"size {bs.size} below the triangulation bound {lb}")
        expect(bs.lower_bound <= bs.size, f"lower bound {bs.lower_bound} above size {bs.size}")
        if want is not None:
            if bs.optimal:
                expect(bs.size == want, f"optimal size {bs.size}, reference {want}")
            else:
                expect(bs.lower_bound <= want <= bs.size,
                       f"bounds [{bs.lower_bound}, {bs.size}] exclude the reference {want}")
        t0 = time.perf_counter()
        part = crossing.crossing_family_partition(ps, budget)
        self.note_budget(f"{op.label}/partition", budget, time.perf_counter() - t0, part.exact)
        if part.exact:
            expect(part.size <= bs.size, f"partition {part.size} > blocking set {bs.size}")
        cover = crossing.cover_from_blockers(ps, bs.points)
        expect(cover.size <= bs.size, f"blocker cover {cover.size} > blocking set {bs.size}")
        return bs.optimal and part.exact


ALL_TASKS = ("visgraph", "block", "midpoints", "crossing", "drawing", "ramsey")
POINT_TASKS = {"visgraph", "block", "midpoints", "crossing"}  # tasks that give a summary row


def summarize(task: str, res: dict) -> dict:
    """The result values a config's reference freezes, per task."""
    if task == "visgraph":
        keys = {"n": res["n"], "edge_count": res["edge_count"], "diameter": res["diameter"],
                "omega": res["clique"]["omega"], "chi": res["chromatic"]["chi"]}
    elif task == "block" and res.get("input") == "drawing-bundle":
        keys = {"check_ok": res["check"]["ok"], "size": res.get("solver", {}).get("size")}
    elif task == "block":
        keys = {"size": res["blocking"]["size"], "check_ok": res["check"]["ok"]}
    elif task == "midpoints":
        keys = {"midpoints": res["midpoints"], "sumset": res["sumset"]}
    elif task == "crossing":
        keys = {"segments": res["segment_count"], "crossing_pairs": res["crossing_pairs"],
                "partition_size": res["partition_size"]}
    elif task == "drawing":
        keys = {"blockers": res["blocker_count"], "blocking_ok": res["blocking"]["ok"],
                "simple_ok": res["simplicity"]["ok"]}
    else:
        mono = res["mono_line_two_colourings"]
        keys = {"line_or_clique": res.get("line_or_clique", {}).get("kind"),
                "mono_all_present": None if mono is None else mono["all_present"],
                "class_blocked": res.get("largest_class_certificate", {}).get("is_blocked")}
    return keys


def harness_configs(rng: random.Random, smoke: bool) -> list[tuple[str, dict, dict]]:
    """(name, config object, expected task statuses).  A status set of
    several values means any of them is correct; 'budget_exhausted' is an
    honest outcome for the random blocking solve.  The n=8 instance is
    fixed, because n=8 solve times have a heavy tail; the seed draws the
    arc-20 point set and the knn bundle size."""
    ok = {"ok"}
    rand8 = ("random-8", {
        "generator": {"kind": "random_general_position", "params": {"n": 8, "seed": HARNESS_8}},
        "tasks": list(ALL_TASKS),
        "budgets_ms": {t: 3000 for t in ALL_TASKS},
    }, {t: ok for t in ALL_TASKS} | {"block": {"ok", "budget_exhausted"}})
    knn_n = rng.choice((2, 3))
    knn = (f"knn-parabola-{knn_n}", {
        "generator": {"kind": "knn_parabola", "params": {"n": knn_n}},
        "tasks": ["block", "drawing"],
    }, {"block": ok, "drawing": ok})
    if smoke:
        return [rand8, knn]
    return [
        rand8,
        ("grid-3x4", {
            "generator": {"kind": "grid", "params": {"w": 3, "h": 4}},
            "tasks": list(ALL_TASKS),
            "budgets_ms": {t: LARGE_BUDGET_MS for t in ALL_TASKS},
        }, {t: ok for t in ALL_TASKS} | {"crossing": {"error"}}),
        ("grid-16x16", {
            "generator": {"kind": "grid", "params": {"w": 16, "h": 16}},
            "tasks": ["visgraph", "midpoints"],
            "budgets_ms": {"visgraph": LARGE_BUDGET_MS},
        }, {"visgraph": ok, "midpoints": ok}),
        ("ngon-10", {
            "generator": {"kind": "regular_ngon", "params": {"n": 10}},
            "tasks": ["crossing"],
            "budgets_ms": {"crossing": LARGE_BUDGET_MS},
        }, {"crossing": ok}),
        ("arc-20", {
            "generator": {"kind": "random_general_position", "params": {"n": 20, "seed": rng.randrange(10**6)}},
            "tasks": ["drawing"],
        }, {"drawing": ok}),
        knn,
    ]


def _exit_code(statuses) -> int:
    if "error" in statuses:
        return cli.EXIT_INPUT
    if "verification_failed" in statuses:
        return cli.EXIT_VERIFICATION
    if "budget_exhausted" in statuses:
        return cli.EXIT_BUDGET
    return cli.EXIT_OK


def _tree_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class Harness(Workload):
    """`cli.run` twice per config into fresh directories, then `cli.report`."""

    name = "harness"

    tmp = None

    def make_ops(self) -> list[Op]:
        ops = []
        self.config_tasks = {}
        for name, obj, statuses in harness_configs(self.rng, self.smoke):
            self.config_tasks[name] = obj["tasks"]
            cli.ExperimentConfig.from_obj(obj)  # a bad config fails at set-up
            params = obj["generator"]["params"]
            tag = f"{name}-s{params['seed']}" if "seed" in params else name
            ops.append(Op(f"{tag}-a", name, (name, obj, statuses, "a")))
            ops.append(Op(f"{tag}-b", name, (name, obj, statuses, "b")))
        ops.append(Op("report", "report", None))
        return ops

    def begin_pass(self) -> None:
        super().begin_pass()
        self.cleanup()
        self.out_root.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="harness-", dir=self.out_root))
        self.first_runs: dict[str, Path] = {}

    def cleanup(self) -> None:
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)
            self.tmp = None

    def run_op(self, op: Op) -> bool:
        if op.payload is None:
            return self._report()
        name, obj, statuses, side = op.payload
        config = cli.ExperimentConfig.from_obj(
            obj | {"output_dir": str(self.tmp / side / name)})
        run_dir = cli.run(config)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        got = {t: e["status"] for t, e in manifest["tasks"].items()}
        for task, budget in obj.get("budgets_ms", {}).items():
            entry = manifest["tasks"].get(task, {})
            if "wall_ms" in entry:
                self.note_budget(f"{op.label}/{task}", budget, entry["wall_ms"] / 1000.0,
                                 entry["status"] != "budget_exhausted")
        expect(set(got) == set(statuses), f"tasks {sorted(got)}, expected {sorted(statuses)}")
        for task, status in got.items():
            expect(status in statuses[task], f"task {task} status {status!r}, expected {sorted(statuses[task])}")
        expect(cli.exit_code_from_manifest(manifest) == _exit_code(got.values()),
               f"exit code {cli.exit_code_from_manifest(manifest)} for statuses {got}")
        expect(all(v is True for v in manifest["cross_checks"].values()),
               f"cross checks {manifest['cross_checks']}")
        block_file = run_dir / "results" / "block.json"
        block = json.loads(block_file.read_text()) if block_file.is_file() else None
        if got.get("crossing") == "ok" and got.get("block") == "ok" and block["input"] == "point-set":
            expect("partition_at_most_blocking" in manifest["cross_checks"], "block x crossing cross-check missing")
        self._check_values(name, obj, run_dir, got, block)
        if side == "a":
            self.first_runs[name] = run_dir
        else:
            a = _tree_bytes(self.first_runs[name] / "results")
            b = _tree_bytes(run_dir / "results")
            expect(a == b, f"results differ between two runs: {sorted(set(a) ^ set(b)) or 'content'}")
            expect(_tree_bytes(self.first_runs[name] / "inputs") == _tree_bytes(run_dir / "inputs"),
                   "inputs differ between two runs")
        return all(s != "budget_exhausted" for s in got.values())

    def _check_values(self, name, obj, run_dir, got, block) -> None:
        if name == "random-8":
            want = self.ref["block"]["random"]["8"][str(obj["generator"]["params"]["seed"])]
            if got["block"] == "ok":
                expect(block["blocking"]["size"] == want, f"block size {block['blocking']['size']}, reference {want}")
            return
        frozen = self.ref["harness"].get(name)
        expect(frozen is not None, f"no reference for config {name}")
        for task, status in got.items():
            if status != "ok":
                continue
            res = json.loads((run_dir / "results" / f"{task}.json").read_text())
            summary = summarize(task, res)
            expect(summary == frozen[task], f"{task}: {summary}, reference {frozen[task]}")

    def _report(self) -> bool:
        dirs = [self.first_runs[name] for name in sorted(self.first_runs)]
        written = cli.report(dirs, self.tmp / "report")
        expect({"summary", "drawing_table"} <= set(written), f"report wrote {sorted(written)}")
        rows = (self.tmp / "report" / "summary.csv").read_text().splitlines()
        point_runs = [n for n, tasks in self.config_tasks.items() if set(tasks) & POINT_TASKS]
        expect(len(rows) == 1 + len(point_runs), f"summary has {len(rows) - 1} rows for {len(point_runs)} runs")
        return True


WORKLOADS = {"census": Census, "lines": Lines, "block": Block, "harness": Harness}


def make_workload(name: str, seed: int, smoke: bool, reference: dict, out_root: Path) -> Workload:
    return WORKLOADS[name](seed, smoke, reference, out_root)
