import json

import pytest

from visblock.blocking import BipartiteDrawing
from visblock.errors import GeometryError
from visblock.generators import (
    KINDS,
    POINT_SET_KINDS,
    GeneratorSpec,
    canonical_form,
    convex_parabola_set,
    generate,
    grid_set,
    random_general_position_set,
    regular_ngon_set,
    symmetry_key,
)
from visblock.geometry import (
    Point,
    PointSet,
    convex_hull_size,
    is_general_position,
    max_collinear,
)


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(GeometryError, match="unknown generator kind"):
            GeneratorSpec("voronoi", {})

    def test_filters_rejected_on_bundle_kinds(self):
        with pytest.raises(GeometryError, match="point-set kinds"):
            GeneratorSpec("knn_grid", {"n": 3}, max_collinear_bound=2)
        with pytest.raises(GeometryError, match="point-set kinds"):
            GeneratorSpec("knn_parabola", {"n": 3}, dedupe_symmetry=True)

    def test_bound_below_two(self):
        with pytest.raises(GeometryError, match="below 2"):
            GeneratorSpec("grid", {"w": 2, "h": 2}, max_collinear_bound=1)

    @pytest.mark.parametrize("kind", KINDS)
    def test_unknown_params_rejected(self, kind):
        with pytest.raises(GeometryError, match=r"unknown parameters \['bund', 'zz'\]"):
            GeneratorSpec(kind, {"zz": 1, "bund": 9})

    def test_random_needs_seed(self):
        with pytest.raises(GeometryError, match="seed"):
            GeneratorSpec("random_general_position", {"n": 4})

    def test_roundtrip(self):
        spec = GeneratorSpec("grid", {"w": 3, "h": 2}, max_collinear_bound=3)
        assert GeneratorSpec.from_obj(spec.to_obj()) == spec

    def test_from_obj_needs_kind(self):
        with pytest.raises(GeometryError, match="kind"):
            GeneratorSpec.from_obj({"params": {}})

    def test_every_kind_listed_once(self):
        assert len(set(KINDS)) == len(KINDS)
        assert set(POINT_SET_KINDS) == set(KINDS) - {"knn_grid", "knn_parabola"}


class TestGridAndParabola:
    def test_grid_3x3(self):
        ps = grid_set(3, 3)
        assert len(ps) == 9
        assert ps.name == "grid-3x3"
        assert max_collinear(ps) == 3
        assert set(ps) == {Point(x, y) for x in range(3) for y in range(3)}

    def test_grid_1x1(self):
        assert len(grid_set(1, 1)) == 1

    def test_parabola_coordinates(self):
        ps = convex_parabola_set(4)
        assert list(ps) == [Point(2, 4), Point(4, 16), Point(8, 64), Point(16, 256)]

    @pytest.mark.parametrize("n", [3, 4, 5, 7])
    def test_parabola_convex_general_position(self, n):
        ps = convex_parabola_set(n)
        assert is_general_position(ps)
        assert convex_hull_size(ps) == n

    def test_parameter_validation(self):
        with pytest.raises(GeometryError, match="'w'"):
            generate(GeneratorSpec("grid", {"h": 2}))
        with pytest.raises(GeometryError, match="positive integer"):
            generate(GeneratorSpec("grid", {"w": 0, "h": 2}))
        with pytest.raises(GeometryError, match="positive integer"):
            generate(GeneratorSpec("convex_parabola", {"n": True}))


class TestBundleKinds:
    def test_knn_grid(self):
        d = generate(GeneratorSpec("knn_grid", {"n": 2}))
        assert isinstance(d, BipartiteDrawing)
        assert len(d.blockers) == 3
        assert d.check().ok

    def test_knn_parabola(self):
        d = generate(GeneratorSpec("knn_parabola", {"n": 3}))
        assert len(d.blockers) == 5
        assert len(d.edges) == 9
        assert d.check().ok


class TestRegularNgon:
    @pytest.mark.parametrize("n", range(3, 13))
    def test_snapped_polygon_is_clean(self, n):
        ps = regular_ngon_set(n)
        assert len(ps) == n
        assert is_general_position(ps)
        assert convex_hull_size(ps) == n

    def test_too_small(self):
        with pytest.raises(GeometryError, match="n >= 3"):
            regular_ngon_set(2)

    @pytest.mark.parametrize("n", [3, 6, 8])
    def test_via_generate(self, n):
        assert generate(GeneratorSpec("regular_ngon", {"n": n})) == regular_ngon_set(n)


class TestRandom:
    def test_deterministic_for_seed(self):
        a = random_general_position_set(8, None, 42)
        b = random_general_position_set(8, None, 42)
        assert list(a) == list(b)
        assert a.name == "random-8-seed42"

    def test_seeds_differ(self):
        a = random_general_position_set(8, None, 1)
        b = random_general_position_set(8, None, 2)
        assert list(a) != list(b)

    def test_general_position_and_bound(self):
        bound = 50
        ps = random_general_position_set(7, bound, 5)
        assert is_general_position(ps)
        assert all(0 <= p.x <= bound and 0 <= p.y <= bound for p in ps)

    def test_bad_n_rejected(self):
        with pytest.raises(GeometryError, match="n >= 1"):
            random_general_position_set(0, None, 0)

    def test_infeasible_bound_gives_up(self):
        # a 3x3 grid holds at most six points with no three in line
        with pytest.raises(GeometryError, match="resamples"):
            random_general_position_set(7, 2, 0)

    def test_via_generate(self):
        spec = GeneratorSpec("random_general_position", {"n": 5, "seed": 9})
        assert list(generate(spec)) == list(generate(spec))


class TestProgressionAndFile:
    def test_progression_kind(self):
        # steps are 1-based, so extents [3, 3] span offsets {1,2,3} x {1,2,3}
        spec = GeneratorSpec(
            "progression",
            {"v0": ["1", "1"], "generators": [["1", "0"], ["0", "1"]], "extents": [3, 3]},
        )
        ps = generate(spec)
        assert len(ps) == 9
        assert Point(2, 2) in set(ps) and Point(4, 4) in set(ps)

    def test_progression_extent_not_truncated(self):
        spec = {"v0": [0, 0], "generators": [[1, 0]], "extents": [2.7]}
        with pytest.raises(GeometryError, match="extent must be a positive integer, got 2.7"):
            generate(GeneratorSpec("progression", spec))

    def test_progression_malformed(self):
        with pytest.raises(GeometryError, match="progression"):
            generate(GeneratorSpec("progression", {"v0": ["1", "1"]}))

    def test_file_roundtrip(self, tmp_path):
        src = grid_set(2, 3)
        path = tmp_path / "pts.json"
        path.write_text(json.dumps(src.to_obj()))
        out = generate(GeneratorSpec("file", {"path": str(path)}))
        assert list(out) == list(src)

    def test_file_missing(self, tmp_path):
        with pytest.raises(GeometryError, match="cannot read"):
            generate(GeneratorSpec("file", {"path": str(tmp_path / "nope.json")}))

    def test_file_needs_path(self):
        with pytest.raises(GeometryError, match="path"):
            generate(GeneratorSpec("file", {}))


class TestFilters:
    def test_max_collinear_filter_rejects(self):
        spec = GeneratorSpec("grid", {"w": 3, "h": 3}, max_collinear_bound=2)
        with pytest.raises(GeometryError, match="collinear"):
            generate(spec)

    def test_max_collinear_filter_passes(self):
        spec = GeneratorSpec("grid", {"w": 3, "h": 3}, max_collinear_bound=3)
        assert len(generate(spec)) == 9

    def test_dedupe_produces_canonical_form(self):
        spec = GeneratorSpec("convex_parabola", {"n": 4}, dedupe_symmetry=True)
        out = generate(spec)
        plain = convex_parabola_set(4)
        assert symmetry_key(out) == symmetry_key(plain)
        assert list(out) == list(canonical_form(plain))


class TestSymmetry:
    def test_key_invariant_under_reflection(self):
        ps = PointSet.build([(0, 0), (3, 1), (1, 4)])
        mirrored = PointSet.build([(-0, 0), (-3, 1), (-1, 4)])
        assert symmetry_key(ps) == symmetry_key(mirrored)

    def test_key_invariant_under_translation(self):
        ps = PointSet.build([(0, 0), (3, 1), (1, 4)])
        shifted = PointSet.build([(7, -2), (10, -1), (8, 2)])
        assert symmetry_key(ps) == symmetry_key(shifted)

    def test_key_invariant_under_transpose(self):
        ps = PointSet.build([(0, 0), (3, 1), (1, 4)])
        swapped = PointSet.build([(0, 0), (1, 3), (4, 1)])
        assert symmetry_key(ps) == symmetry_key(swapped)

    def test_canonical_form_idempotent(self):
        ps = PointSet.build([(2, 5), (9, 0), (4, 4), (0, 7)])
        once = canonical_form(ps)
        assert list(canonical_form(once)) == list(once)

    def test_distinct_shapes_get_distinct_keys(self):
        a = PointSet.build([(0, 0), (1, 0), (0, 1)])
        b = PointSet.build([(0, 0), (2, 0), (0, 1)])
        assert symmetry_key(a) != symmetry_key(b)
