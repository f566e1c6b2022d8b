"""Point-set and drawing generators behind the command line.

Every generator is deterministic for a fixed spec; the random kind carries
its seed explicitly and resamples any point that would create three
collinear, logging how often that happened. Progressions, the lattice-like
sets behind few-midpoint constructions, are summed on the integer view of
their base point and generators, and log how many sums coincided.
"""

from __future__ import annotations

import json
import logging
import math
import random
from dataclasses import dataclass, field, fields
from typing import Optional, Union

from .blocking import BipartiteDrawing, construct_knn_grid, construct_knn_parabola
from .errors import GeometryError, _expect, _json_int
from .geometry import (
    Point,
    PointSet,
    Record,
    _scale,
    _unscaled,
    convex_hull_size,
    is_general_position,
    max_collinear,
    orientation,
)

log = logging.getLogger("visblock")

# every kind with the parameters it reads
_PARAMS = {
    "grid": ("w", "h"),
    "convex_parabola": ("n",),
    "knn_grid": ("n",),
    "knn_parabola": ("n",),
    "regular_ngon": ("n",),
    "random_general_position": ("n", "seed", "bound"),
    "progression": ("v0", "generators", "extents"),
    "file": ("path",),
}
KINDS = tuple(_PARAMS)

POINT_SET_KINDS = tuple(k for k in KINDS if k not in ("knn_grid", "knn_parabola"))


@dataclass(frozen=True)
class GeneratorSpec(Record):
    kind: str
    params: dict = field(default_factory=dict)
    max_collinear_bound: Optional[int] = None
    dedupe_symmetry: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise GeometryError(f"unknown generator kind {self.kind!r}; pick one of {KINDS}")
        unknown = set(self.params) - set(_PARAMS[self.kind])
        if unknown:
            raise GeometryError(
                f"generator kind {self.kind!r} has unknown parameters {sorted(unknown)}"
            )
        if self.kind not in POINT_SET_KINDS and (
            self.max_collinear_bound is not None or self.dedupe_symmetry
        ):
            raise GeometryError("filters apply to point-set kinds only")
        if self.max_collinear_bound is not None and self.max_collinear_bound < 2:
            raise GeometryError("max_collinear bound below 2 admits nothing")
        if self.kind == "random_general_position" and "seed" not in self.params:
            raise GeometryError("random generation needs an explicit seed")

    @classmethod
    def from_obj(cls, obj: dict) -> "GeneratorSpec":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise GeometryError("generator spec needs a 'kind'")
        unknown = set(obj) - {f.name for f in fields(cls)}
        if unknown:
            raise GeometryError(f"generator spec has unknown keys {sorted(unknown)}")
        bound = obj.get("max_collinear_bound")
        return cls(
            obj["kind"],
            dict(_expect(obj.get("params", {}), dict, "generator 'params'")),
            None if bound is None else _expect(bound, int, "'max_collinear_bound'"),
            _expect(obj.get("dedupe_symmetry", False), bool, "'dedupe_symmetry'"),
        )


def _positive(v, what: str) -> int:
    if not _json_int(v) or v < 1:
        raise GeometryError(f"{what} must be a positive integer, got {v!r}")
    return v


def _positive_int(params: dict, key: str) -> int:
    if key not in params:
        raise GeometryError(f"generator needs parameter {key!r}")
    return _positive(params[key], f"parameter {key!r}")


def grid_set(w: int, h: int) -> PointSet:
    return PointSet.build(
        [(x, y) for x in range(w) for y in range(h)], name=f"grid-{w}x{h}"
    )


def convex_parabola_set(n: int) -> PointSet:
    return PointSet.build(
        [(2 ** i, 2 ** (2 * i)) for i in range(1, n + 1)], name=f"convex-parabola-{n}"
    )


_NGON_SCALES = (1 << 20, 1 << 24, 1 << 28)


def regular_ngon_set(n: int) -> PointSet:
    """Integer snap of the regular polygon with n vertices. The snapped set
    must come out strictly convex and in general position, otherwise the
    scale is increased; exactness downstream works on the snapped integers."""
    if n < 3:
        raise GeometryError("polygon needs n >= 3")
    for scale in _NGON_SCALES:
        coords = []
        for k in range(n):
            a = 2 * math.pi * k / n
            coords.append((round(math.cos(a) * scale), round(math.sin(a) * scale)))
        if len(set(coords)) != n:
            continue
        ps = PointSet.build(coords, name=f"ngon-{n}")
        if is_general_position(ps) and convex_hull_size(ps) == n:
            return ps
    raise GeometryError(f"could not snap a convex general-position {n}-gon to a grid")


def random_general_position_set(n: int, bound: Optional[int], seed: int) -> PointSet:
    if n < 1:
        raise GeometryError("need n >= 1")
    if bound is None:
        bound = max(4, 10 * n * n)
    if bound < 2:
        raise GeometryError("coordinate bound too small")
    rng = random.Random(seed)
    pts: list[tuple[int, int]] = []
    resamples = 0
    limit = 500 * n + 100
    while len(pts) < n:
        if resamples > limit:
            raise GeometryError(
                f"gave up after {resamples} resamples; bound {bound} is too tight for n={n}"
            )
        cand = (rng.randrange(bound + 1), rng.randrange(bound + 1))
        if cand in pts or any(
            orientation(a, b, cand) == 0 for i, a in enumerate(pts) for b in pts[i + 1:]
        ):
            resamples += 1
            continue
        pts.append(cand)
    log.info("random_general_position(n=%d, seed=%d): %d resamples", n, seed, resamples)
    out = PointSet.build(sorted(pts), name=f"random-{n}-seed{seed}")
    # whole-set recheck, not trusting the incremental rejection above
    if n >= 3 and not is_general_position(out):
        raise GeometryError("random generator produced a collinear triple")
    return out


def progression_set(params: dict) -> PointSet:
    """v0 plus every k_1 g_1 + ... + k_d g_d with each k_t in 1..n_t, summed
    on the integer view of v0 and the generators g_t; coinciding sums
    collapse to one point, sorted, and are counted in the log."""
    try:
        v0 = Point.from_obj(params["v0"])
        gens = tuple(Point.from_obj(g) for g in params["generators"])
        extents = list(params["extents"])
    except (KeyError, TypeError, ValueError) as exc:
        raise GeometryError(f"malformed progression parameters: {exc}") from exc
    extents = tuple(_positive(e, "progression extent") for e in extents)
    if len(gens) != len(extents):
        raise GeometryError("one extent per generator")
    if not gens:
        raise GeometryError("need at least one generator")
    den, (base, *steps) = _scale([v0, *gens])
    sums = [base]
    for (gx, gy), n in zip(steps, extents):
        sums = [(x + k * gx, y + k * gy) for x, y in sums for k in range(1, n + 1)]
    distinct = sorted(set(sums))
    if len(sums) > len(distinct):
        log.info("progression generator: %d collisions collapsed", len(sums) - len(distinct))
    return PointSet(tuple(_unscaled(distinct, den)), "progression")


def _read_json(path, what: str):
    """The parsed contents of a JSON file; a file that cannot be read or
    parsed is bad input."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise GeometryError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or bytes that are not text
        raise GeometryError(f"{what} {path} is not valid JSON: {exc}") from exc


def file_set(path: str) -> PointSet:
    return PointSet.from_obj(_read_json(path, "point file"))


_SYMMETRIES = (
    lambda x, y: (x, y),
    lambda x, y: (-x, y),
    lambda x, y: (x, -y),
    lambda x, y: (-x, -y),
    lambda x, y: (y, x),
    lambda x, y: (-y, x),
    lambda x, y: (y, -x),
    lambda x, y: (-y, -x),
)


def symmetry_key(ps: PointSet | list[Point]) -> tuple:
    """Canonical coordinate tuple under the 8 axis symmetries and translation."""
    best = None
    pts = list(ps)
    for f in _SYMMETRIES:
        mapped = [f(p.x, p.y) for p in pts]
        mx = min(x for x, _ in mapped)
        my = min(y for _, y in mapped)
        norm = tuple(sorted((x - mx, y - my) for x, y in mapped))
        if best is None or norm < best:
            best = norm
    return best


def canonical_form(ps: PointSet) -> PointSet:
    return PointSet(
        tuple(sorted(Point(x, y) for x, y in symmetry_key(ps))), name=ps.name
    )


def generate(spec: GeneratorSpec) -> Union[PointSet, BipartiteDrawing]:
    p = spec.params
    if spec.kind == "grid":
        out = grid_set(_positive_int(p, "w"), _positive_int(p, "h"))
    elif spec.kind == "convex_parabola":
        out = convex_parabola_set(_positive_int(p, "n"))
    elif spec.kind in ("knn_grid", "knn_parabola"):
        build = construct_knn_grid if spec.kind == "knn_grid" else construct_knn_parabola
        d = build(_positive_int(p, "n"))
        chk = d.check()  # bundles must verify before anyone writes them out
        if not chk.ok:
            raise GeometryError(f"generated bundle {d.name} fails verification")
        return d
    elif spec.kind == "regular_ngon":
        out = regular_ngon_set(_positive_int(p, "n"))
    elif spec.kind == "random_general_position":
        seed = p.get("seed")
        if not _json_int(seed):
            raise GeometryError("seed must be an integer")
        bound = None if p.get("bound") is None else _positive_int(p, "bound")
        out = random_general_position_set(_positive_int(p, "n"), bound, seed)
    elif spec.kind == "progression":
        out = progression_set(p)
    else:
        path = p.get("path")
        if not isinstance(path, str) or not path:
            raise GeometryError("file generator needs a 'path'")
        out = file_set(path)
    if spec.max_collinear_bound is not None:
        got = max_collinear(out)
        if got > spec.max_collinear_bound:
            raise GeometryError(
                f"generated set has {got} collinear points, over the "
                f"bound {spec.max_collinear_bound}"
            )
    if spec.dedupe_symmetry:
        out = canonical_form(out)
    return out
