"""Command line front end: generators, per-task analysis commands, and the
reproducible run/report harness.

A run directory is addressed by a hash of its normalized config, holds
inputs/, results/, logs/, and a manifest with hashes of every artifact.
Result files carry no timestamps, so re-running the same config rewrites
byte-identical results; wall times live only in the manifest.

Exit codes: 0 success, 2 a verified property failed, 3 every shortfall was
budget exhaustion, 4 bad input.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Optional, Union

from . import __version__
from .blocking import (
    _BUNDLE_KEYS,
    BipartiteDrawing,
    is_blocking_set,
    midpoint_blocking_set,
    min_blocking_set,
    triangulation_lower_bound,
)
from .cliques import _deadline
from .crossing import (
    cover_from_blockers,
    crossing_family_partition,
    crossing_graph,
    partition_size_floor,
)
from .drawings import construct_kn_arc_drawing, verify_drawing_blocking, verify_simplicity
from .errors import GeometryError, _expect, _json_int
from .generators import _PARAMS, KINDS, GeneratorSpec, _read_json, generate
from .geometry import Point, PointSet, Record, is_general_position, max_collinear
from .midpoints import _pair_sums
from .visibility import (
    big_line_big_clique_check,
    chromatic_number,
    clique_number,
    diameter,
    proposition1_check,
    visibility_graph,
)

log = logging.getLogger("visblock")

EXIT_OK = 0
EXIT_VERIFICATION = 2
EXIT_BUDGET = 3
EXIT_INPUT = 4

# task statuses, worst first, with the exit code of each: the worst status
# of a run or a task command decides its exit code
STATUS_EXIT = {
    "error": EXIT_INPUT,
    "verification_failed": EXIT_VERIFICATION,
    "budget_exhausted": EXIT_BUDGET,
    "ok": EXIT_OK,
}

TASKS = ("visgraph", "block", "midpoints", "crossing", "drawing", "ramsey")

MONO_LINE_CAP = 12  # 2^(n-1) colourings checked exhaustively up to here


def _dumps(obj) -> str:
    """The text of json.dumps(obj, sort_keys=True, indent=2) and a newline,
    byte for byte; every dict key must be a string. An indent sends
    json.dumps to its pure-Python encoder; this writer joins the same parts
    itself, and writes a pair of plain ints, an edge, with one format
    string."""
    parts: list[str] = []
    _encode(obj, "\n", parts)
    parts.append("\n")
    return "".join(parts)


def _encode(obj, nl: str, parts: list[str]) -> None:
    """Append the JSON text of obj to parts; nl is a newline and the indent
    of the line obj starts on."""
    if isinstance(obj, str):
        parts.append(encode_basestring_ascii(obj))
    elif obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, int):
        parts.append(int.__repr__(obj))
    elif isinstance(obj, float):
        if math.isfinite(obj):
            parts.append(float.__repr__(obj))
        else:
            parts.append("NaN" if obj != obj else "Infinity" if obj > 0 else "-Infinity")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        inner = nl + "  "
        pair = f"[{inner}  %d,{inner}  %d{inner}]"
        sep = "[" + inner
        for item in obj:
            parts.append(sep)
            sep = "," + inner
            # type, not isinstance: %d would print True as 1
            if (type(item) in (list, tuple) and len(item) == 2
                    and type(item[0]) is int and type(item[1]) is int):
                parts.append(pair % (item[0], item[1]))
            else:
                _encode(item, inner, parts)
        parts.append(nl + "]")
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            parts.append(sep)
            sep = "," + inner
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            parts.append(encode_basestring_ascii(key))
            parts.append(": ")
            _encode(value, inner, parts)
        parts.append(nl + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _worst(statuses) -> str:
    return next((s for s in STATUS_EXIT if s in statuses), "ok")


@dataclass
class TaskOutcome:
    result: dict
    verification_failed: bool = False
    budget_exhausted: bool = False

    @property
    def status(self) -> str:
        flags = {
            "verification_failed": self.verification_failed,
            "budget_exhausted": self.budget_exhausted,
        }
        return _worst([s for s, raised in flags.items() if raised])


def _as_pointset(obj) -> PointSet:
    if not isinstance(obj, PointSet):
        raise GeometryError("this task needs a point set, not a drawing bundle")
    return obj


def task_visgraph(obj, budget_ms: Optional[int]) -> TaskOutcome:
    deadline = _deadline(budget_ms)
    ps = _as_pointset(obj)
    g = visibility_graph(ps)
    dia = diameter(g)
    om = clique_number(g, deadline)
    ch = chromatic_number(g, om, deadline)
    n = len(ps)
    # None where a check does not apply
    checks = {
        "diameter_at_most_two": dia <= 2 if n >= 2 and max_collinear(ps) < n else None,
        "clique_at_most_chromatic": om.omega <= ch.chi if om.exact and ch.exact else None,
    }
    result = {
        "n": n,
        "edge_count": g.edge_count(),
        "edges": g.edges(),
        "diameter": dia,
        "clique": om.to_obj(),
        "chromatic": ch.to_obj(),
        "checks": checks,
    }
    return TaskOutcome(result, False in checks.values(), not (om.exact and ch.exact))


def task_block(obj, budget_ms: Optional[int]) -> TaskOutcome:
    if isinstance(obj, BipartiteDrawing):
        chk = obj.check()
        result = {
            "input": "drawing-bundle",
            "name": obj.name,
            "n": obj.n,
            "edge_count": len(obj.edges),
            "stated_blockers": len(obj.blockers),
            "check": chk.to_obj(),
        }
        bs = min_blocking_set(list(obj.edges), budget_ms)
        result["solver"] = bs.to_obj()
        return TaskOutcome(result, not chk.ok, not bs.optimal)
    ps = _as_pointset(obj)
    bs = min_blocking_set(ps, budget_ms)
    chk = is_blocking_set(ps, bs.points)
    lb = triangulation_lower_bound(ps) if len(ps) >= 3 and is_general_position(ps) else None
    result = {
        "input": "point-set",
        "n": len(ps),
        "blocking": bs.to_obj(),
        "check": chk.to_obj(),
        "lower_bound_triangulation": lb,
    }
    failed = not chk.ok or bs.optimal and lb is not None and bs.size < lb
    return TaskOutcome(result, failed, not bs.optimal)


def task_midpoints(obj, budget_ms: Optional[int]) -> TaskOutcome:
    ps = _as_pointset(obj)
    n = len(ps)
    if n < 2:
        raise GeometryError("midpoint analysis needs at least two points")
    # counted on the integer view: a midpoint (p + q) / 2 is a point r of
    # the set exactly when p + q = 2r
    _, pairs, doubles = _pair_sums(ps)
    sums = set(pairs)
    m, s = len(sums), len(sums | doubles)
    general = is_general_position(ps)
    # None where a check does not apply
    checks = {
        "sandwich": m <= s <= m + n,
        "midpoints_avoid_set": sums.isdisjoint(doubles) if general else None,
    }
    result = {"n": n, "midpoints": m, "sumset": s, "checks": checks}
    failed = False in checks.values()
    if general and n >= 3:
        mbs = midpoint_blocking_set(ps)
        mchk = is_blocking_set(ps, mbs.points)
        failed |= not mchk.ok
        result["midpoint_blocking"] = {"size": mbs.size, "check": mchk.to_obj()}
    return TaskOutcome(result, failed)


def task_crossing(obj, budget_ms: Optional[int]) -> TaskOutcome:
    ps = _as_pointset(obj)
    part = crossing_family_partition(ps, budget_ms)
    g = crossing_graph(ps)  # after the search, which builds its own under the budget
    floor = partition_size_floor(len(ps))
    result = {
        "n": len(ps),
        "segment_count": g.m,
        "crossing_pairs": len(g.crossing_pairs()),
        "partition": part.to_obj(),
        "partition_size": part.size,
        "size_floor": floor,
    }
    return TaskOutcome(result, part.size < floor, not part.exact)


def task_drawing(obj, budget_ms: Optional[int]) -> TaskOutcome:
    n = obj.n if isinstance(obj, BipartiteDrawing) else len(_as_pointset(obj))
    if n < 2:
        raise GeometryError("arc drawing needs n >= 2")
    d = construct_kn_arc_drawing(n)
    blocking = verify_drawing_blocking(d)
    simplicity = verify_simplicity(d)
    result = {
        "n": n,
        "edge_count": len(d.edges),
        "blocker_count": len(d.blockers),
        "blocking": blocking.to_obj(),
        "simplicity": simplicity.to_obj(),
        "drawing": d.to_obj(),
    }
    return TaskOutcome(result, not (blocking.ok and simplicity.ok))


def task_ramsey(obj, budget_ms: Optional[int]) -> TaskOutcome:
    deadline = _deadline(budget_ms)
    ps = _as_pointset(obj)
    n = len(ps)
    result: dict = {"n": n}
    failed = False
    budget_hit = False
    g = visibility_graph(ps)
    om = clique_number(g, deadline)
    if n >= 3:
        verdict = big_line_big_clique_check(g, 3, 3, om)
        result["line_or_clique"] = verdict.to_obj()
        failed |= verdict.kind == "neither"
        budget_hit = verdict.kind == "unknown"
    ch = chromatic_number(g, om, deadline)
    if ch.exact:
        rep = proposition1_check(g, ch.colouring)
        result["largest_class_certificate"] = rep.to_obj()
        failed |= not (rep.proper and rep.s >= rep.s_lower and rep.is_blocked)
    else:
        budget_hit = True
    if n >= 2 and max_collinear(ps) < n and n <= MONO_LINE_CAP:
        # c holds the points of colour 2, point 0 keeping colour 1 by
        # symmetry; a line is monochromatic when c meets none or all of it
        lines = [sum(1 << i for i in rec.member_indices) for rec in ps.lines]
        checked = 1 << (n - 1)
        missing = sum(
            all(0 < line & c < line for line in lines) for c in range(0, 2 * checked, 2)
        )
        result["mono_line_two_colourings"] = {
            "checked": checked,
            "missing": missing,
            "all_present": missing == 0,
        }
        failed |= missing > 0
    else:
        result["mono_line_two_colourings"] = None
    return TaskOutcome(result, failed, budget_hit)


TASK_FNS = {
    "visgraph": task_visgraph,
    "block": task_block,
    "midpoints": task_midpoints,
    "crossing": task_crossing,
    "drawing": task_drawing,
    "ramsey": task_ramsey,
}


def _check_budget(what: str, budget) -> None:
    # the one budget rule, for config entries and the --budget-ms flag alike
    if not _json_int(budget) or budget < 0:
        raise GeometryError(f"{what} must be a non-negative integer")
    if budget > sys.float_info.max:  # a deadline is a float
        raise GeometryError(f"{what} is too large for a float")


@dataclass(frozen=True)
class ExperimentConfig(Record):
    generator: GeneratorSpec
    tasks: tuple[str, ...]
    budgets_ms: dict = field(default_factory=dict)
    output_dir: str = "runs"

    def __post_init__(self):
        if not self.tasks:
            raise GeometryError("config needs at least one task")
        for k, t in enumerate(self.tasks):
            if t not in TASKS:
                raise GeometryError(f"unknown task {t!r}; pick from {TASKS}")
            if t in self.tasks[:k]:
                raise GeometryError(f"task {t!r} is listed twice")
        for t, b in self.budgets_ms.items():
            if t not in TASKS:
                raise GeometryError(f"budget for unknown task {t!r}")
            if t not in self.tasks:
                raise GeometryError(f"budget for task {t!r}, which the config does not run")
            _check_budget(f"budget for {t!r}", b)

    @classmethod
    def from_obj(cls, obj: dict) -> "ExperimentConfig":
        if not isinstance(obj, dict):
            raise GeometryError("config must be a JSON object")
        unknown = set(obj) - {f.name for f in fields(cls)}
        if unknown:
            raise GeometryError(f"config has unknown keys {sorted(unknown)}")
        try:
            gen = GeneratorSpec.from_obj(obj["generator"])
            tasks = obj["tasks"]
        except KeyError as exc:
            raise GeometryError(f"config missing {exc}") from exc
        return cls(
            gen,
            tuple(_expect(tasks, list, "config 'tasks'")),
            dict(_expect(obj.get("budgets_ms", {}), dict, "config 'budgets_ms'")),
            _expect(obj.get("output_dir", "runs"), str, "config 'output_dir'"),
        )


def _config_hash(config: ExperimentConfig) -> str:
    blob = json.dumps(config.to_obj(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def run(config: ExperimentConfig) -> Path:
    """Execute all tasks; always returns the run directory. Failures are
    recorded in the manifest, never swallowed silently."""
    run_dir = Path(config.output_dir) / f"run-{_config_hash(config)}"
    for sub in ("inputs", "results", "logs"):
        _make_dir(run_dir / sub)
        for f in (run_dir / sub).glob("*.json"):  # a step that fails now leaves no old artifact
            with _writing(f):
                f.unlink()
    log_path = run_dir / "logs" / "run.log"
    with _writing(log_path):
        handler = logging.FileHandler(log_path, mode="w")
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    log.addHandler(handler)
    prev_level = log.level
    log.setLevel(logging.INFO)
    manifest: dict = {
        "run_id": run_dir.name,
        "package_version": __version__,
        "python_version": sys.version.split()[0],
        "generator": config.generator.to_obj(),
        "budgets_ms": config.budgets_ms,
        "tasks": {},
        "cross_checks": {},
    }
    outcomes: dict[str, TaskOutcome] = {}
    hashes: dict[str, str] = {}

    def artifact(rel: str, text: str) -> None:
        _write(run_dir / rel, text)  # ASCII: its bytes are the file's
        hashes[rel] = hashlib.sha256(text.encode()).hexdigest()

    try:
        _write(run_dir / "config.json", _dumps(config.to_obj()))
        try:
            subject = generate(config.generator)
            text = _dumps(subject.to_obj())
        except Exception as exc:
            manifest["generation"] = _error_entry("generation", exc)
            subject = None
        else:
            manifest["generation"] = {"status": "ok"}
            artifact(f"inputs/{_input_name(subject)}", text)
        for task in config.tasks:
            entry: dict = {"budget_ms": config.budgets_ms.get(task)}
            if subject is None:
                entry["status"] = "skipped"
                manifest["tasks"][task] = entry
                continue
            t0 = time.perf_counter()
            try:
                outcome = TASK_FNS[task](subject, config.budgets_ms.get(task))
                text = _dumps(outcome.result)  # a result it cannot encode fails the task
            except Exception as exc:
                entry.update(_error_entry(f"task {task}", exc))
            else:
                outcomes[task] = outcome
                entry["status"] = outcome.status
                artifact(f"results/{task}.json", text)
            entry["wall_ms"] = round((time.perf_counter() - t0) * 1000, 3)
            manifest["tasks"][task] = entry
        _cross_checks(subject, outcomes, manifest)
        manifest["artifact_hashes"] = hashes
        _write(run_dir / "manifest.json", _dumps(manifest))
    finally:
        log.removeHandler(handler)
        handler.close()
        log.setLevel(prev_level)
    return run_dir


def _error_entry(what: str, exc: Exception) -> dict:
    """Log a failed step and return its manifest status. A GeometryError is
    bad input; any other exception is a bug, logged with its traceback, and
    the run goes on so the manifest is still written."""
    if isinstance(exc, GeometryError):
        log.error("%s failed: %s", what, exc)
    else:
        log.exception("%s crashed", what)
    return {"status": "error", "error_type": type(exc).__name__, "message": str(exc)}


def _cross_checks(subject, outcomes: dict[str, TaskOutcome], manifest: dict) -> None:
    block = outcomes.get("block")
    cross = outcomes.get("crossing")
    if (
        isinstance(subject, PointSet)
        and block is not None
        and cross is not None
        and block.result.get("input") == "point-set"
        and block.result["blocking"]["optimal"]
        and cross.result["partition"]["exact"]
    ):
        t = cross.result["partition_size"]
        b = block.result["blocking"]["size"]
        ok = t <= b
        try:
            blockers = [Point.from_obj(p) for p in block.result["blocking"]["blockers"]]
            witness = cover_from_blockers(subject, blockers)
            ok = ok and witness.size <= b
        except Exception as exc:  # a crash fails the check, and the manifest is still written
            _error_entry("blocker-induced cover", exc)
            ok = False
        manifest["cross_checks"]["partition_at_most_blocking"] = ok
        if not ok:
            for name in ("block", "crossing"):
                manifest["tasks"][name]["status"] = "verification_failed"


def exit_code_from_manifest(manifest: dict) -> int:
    statuses = {t["status"] for t in manifest.get("tasks", {}).values()}
    statuses.add(manifest.get("generation", {}).get("status"))  # a generation error is an error
    return STATUS_EXIT[_worst(statuses)]


# reporting

REPORT_COLUMNS = ("n", "bound_3n_3_t", "b", "m", "t", "n2_over_14", "n_ln_n")
# (column, task, dotted path in the task's result) of each count in the
# summary; a block result counts only on a point set, and a null bound
# leaves its cell blank
REPORT_CELLS = (
    ("b", "block", "blocking.size"),
    ("bound_3n_3_t", "block", "lower_bound_triangulation"),
    ("m", "midpoints", "midpoints"),
    ("t", "crossing", "partition_size"),
)


def _load_run(run_dir: Path) -> dict:
    _read_json(run_dir / "manifest.json", "run manifest")  # a run without one is no run
    results = {
        f.stem: _expect(_read_json(f, "run result"), dict, f"run {run_dir}: {f.stem} result")
        for f in sorted((run_dir / "results").glob("*.json"))
    }
    return {"dir": run_dir, "results": results}


def _read(r: dict, task: str, path: str, kind: type = int):
    """The value at the dotted path of a task's result in run r, if it has
    the JSON type kind and is no negative integer; else the run's results
    are malformed."""
    where = f"run {r['dir']}: {task} result"
    value = r["results"][task]
    keys = path.split(".")
    for k, key in enumerate(keys, 1):
        sub = ".".join(keys[:k])
        if key not in value:
            raise GeometryError(f"{where} missing {sub!r}")
        value = _expect(value[key], kind if k == len(keys) else dict, f"{where} {sub!r}")
    if kind is int and value < 0:
        raise GeometryError(f"{where} {path!r} must not be negative, got {value}")
    return value


def report(run_dirs: list[Path], out_dir: Path) -> dict[str, Path]:
    if not run_dirs:
        raise GeometryError("report needs at least one run directory")
    runs = [_load_run(Path(d)) for d in run_dirs]
    rows = []
    drawing_rows = []
    for r in runs:
        res = r["results"]
        ns = {_read(r, task, "n") for task, v in res.items() if "n" in v}
        if len(ns) > 1:
            raise GeometryError(f"run {r['dir']}: results disagree on n: {sorted(ns)}")
        if "drawing" in res:
            # both checks are read, so a malformed second one is found too
            ok = [_read(r, "drawing", f"{key}.ok", bool) for key in ("blocking", "simplicity")]
            count = _read(r, "drawing", "blocker_count")
            drawing_rows.append((_read(r, "drawing", "n"), count, all(ok)))
        if not any(t in res for t in ("visgraph", "block", "midpoints", "crossing")):
            continue
        if not ns:
            raise GeometryError(f"run {r['dir']}: no result reports n")
        n = ns.pop()
        row: dict = {"n": n}
        for col, task, path in REPORT_CELLS:
            if task not in res or (task == "block" and res[task].get("input") != "point-set"):
                continue
            if col != "bound_3n_3_t" or res[task].get(path) is not None:
                row[col] = _read(r, task, path)
        try:
            row["n2_over_14"] = n * n / 14
            row["n_ln_n"] = n * math.log(n) if n >= 1 else 0.0
        except OverflowError:
            raise GeometryError(f"run {r['dir']}: n is too large for a float") from None
        rows.append(row)
    out_dir = Path(out_dir)
    _make_dir(out_dir)
    written: dict[str, Path] = {}
    rows.sort(key=lambda r: r["n"])
    lines = [",".join(REPORT_COLUMNS)]
    for row in rows:
        cells = (row.get(col, "") for col in REPORT_COLUMNS)
        lines.append(",".join(f"{v:.4f}" if isinstance(v, float) else str(v) for v in cells))
    written["summary"] = out_dir / "summary.csv"
    _write(written["summary"], "\n".join(lines) + "\n")
    for col in ("b", "m", "t"):
        pts = [(row["n"], row[col]) for row in rows if col in row]
        if not pts:
            continue
        p = out_dir / f"plot_{col}.txt"
        _write(p, "".join(f"{n} {v}\n" for n, v in pts))
        written[f"plot_{col}"] = p
    if drawing_rows:
        drawing_rows.sort()
        p = out_dir / "drawing_table.csv"
        _write(p, "n,blockers,verified\n" + "".join(f"{n},{b},{ok}\n" for n, b, ok in drawing_rows))
        written["drawing_table"] = p
    return written


# argument parsing

def _input_name(subject: Union[PointSet, BipartiteDrawing]) -> str:
    return "drawing.json" if isinstance(subject, BipartiteDrawing) else "points.json"


def _load_subject(path: str):
    obj = _read_json(path, "input")
    if isinstance(obj, dict) and "points" in obj and "left" not in obj:
        return PointSet.from_obj(obj)
    if isinstance(obj, dict) and not obj.keys().isdisjoint(_BUNDLE_KEYS):
        return BipartiteDrawing.from_obj(obj)
    raise GeometryError(f"input {path} holds neither a point set nor a drawing bundle")


# the generator parameters that generate takes as flags of their own; a
# progression's come as one JSON flag
_FLAG_PARAMS = tuple(dict.fromkeys(
    key for kind, keys in _PARAMS.items() if kind != "progression" for key in keys
))


def _spec_from_args(args) -> GeneratorSpec:
    params = {k: getattr(args, k) for k in _FLAG_PARAMS if getattr(args, k) is not None}
    if args.progression:
        try:
            progression = json.loads(args.progression)
        except json.JSONDecodeError as exc:
            raise GeometryError(f"--progression is not valid JSON: {exc}") from exc
        if not isinstance(progression, dict):
            raise GeometryError("--progression must be a JSON object")
        params.update(progression)
    return GeneratorSpec(args.kind, params, args.max_collinear, args.dedupe_symmetry)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="visblock",
        description="Exact experiments on visibility, blocking sets, midpoints, "
        "crossings, and drawings of planar point sets.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="emit a point set or drawing bundle")
    gen.add_argument("--kind", required=True, choices=list(KINDS))
    for key in _FLAG_PARAMS:
        gen.add_argument(f"--{key}", type=str if key == "path" else int)
    gen.add_argument("--progression", help="JSON with v0, generators, extents")
    gen.add_argument("--max-collinear", type=int, dest="max_collinear")
    gen.add_argument("--dedupe-symmetry", action="store_true", dest="dedupe_symmetry")
    gen.add_argument("--output-dir")

    for name, blurb in (
        ("visgraph", "visibility graph, diameter, clique and colouring"),
        ("block", "minimum blocking set or bundle verification"),
        ("midpoints", "midpoint and sumset arithmetic"),
        ("crossing", "crossing graph and family partition"),
        ("drawing", "arc drawing construction and verification"),
        ("ramsey", "line-or-clique and colouring certificates"),
    ):
        p = sub.add_parser(name, help=blurb)
        if name == "drawing":
            p.add_argument("--input", help="point set JSON (its size sets n)")
            p.add_argument("--n", type=int, help="number of vertices, instead of --input")
        else:
            p.add_argument("--input", required=True)
        p.add_argument("--budget-ms", type=int, dest="budget_ms")
        p.add_argument("--output-dir")

    rn = sub.add_parser("run", help="execute an experiment config")
    rn.add_argument("--config", required=True)
    rn.add_argument("--output-dir")
    rn.add_argument("--budget-ms", type=int, dest="budget_ms",
                    help="default budget for tasks without one")

    rp = sub.add_parser("report", help="aggregate run directories into tables")
    rp.add_argument("dirs", nargs="+")
    rp.add_argument("--output-dir")
    return parser


@contextmanager
def _writing(path: Path):
    # a path that cannot be written is bad input, not a crash
    try:
        yield
    except OSError as exc:
        raise GeometryError(f"cannot write {path}: {exc.strerror or exc}") from None


def _make_dir(path: Path) -> None:
    with _writing(path):
        path.mkdir(parents=True, exist_ok=True)


def _write(path: Path, text: str) -> None:
    with _writing(path):
        path.write_text(text)


def _emit(payload: dict, output_dir: Optional[str], filename: str) -> None:
    text = _dumps(payload)
    if output_dir:
        path = Path(output_dir) / filename
        _make_dir(path.parent)
        _write(path, text)
        print(path)
    else:
        sys.stdout.write(text)


def main(argv: Optional[list[str]] = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def _dispatch(args) -> int:
    output_dir = getattr(args, "output_dir", None) or os.environ.get("VISBLOCK_OUTPUT_DIR")
    budget = getattr(args, "budget_ms", None)
    if budget is not None:
        _check_budget("--budget-ms", budget)

    if args.command == "generate":
        subject = generate(_spec_from_args(args))
        _emit(subject.to_obj(), output_dir, _input_name(subject))
        return EXIT_OK

    if args.command in TASKS:
        if args.command == "drawing" and (args.input is None) == (args.n is None):
            raise GeometryError("drawing needs exactly one of --input and --n")
        if args.command == "drawing" and args.input is None:
            subject: Union[PointSet, BipartiteDrawing] = PointSet.build(
                [(i, 0) for i in range(1, args.n + 1)], name=f"path-{args.n}"
            )
        else:
            subject = _load_subject(args.input)
        outcome = TASK_FNS[args.command](subject, budget)
        _emit(outcome.result, output_dir, f"{args.command}.json")
        return STATUS_EXIT[outcome.status]

    if args.command == "run":
        config = ExperimentConfig.from_obj(_read_json(args.config, "config"))
        if output_dir:
            config = replace(config, output_dir=output_dir)
        if budget is not None:
            budgets = {t: config.budgets_ms.get(t, budget) for t in config.tasks}
            config = replace(config, budgets_ms=budgets)
        run_dir = run(config)
        print(run_dir)
        return exit_code_from_manifest(_read_json(run_dir / "manifest.json", "run manifest"))

    if args.command == "report":
        written = report([Path(d) for d in args.dirs], Path(output_dir or "."))
        for p in sorted(written.values()):
            print(p)
        return EXIT_OK

    raise GeometryError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
