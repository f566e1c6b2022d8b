import cProfile
import enum
import hashlib
import inspect
import json
import logging
import os
import pstats
import random
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visblock import __version__, blocking, cli, cliques, crossing
from visblock.blocking import construct_knn_grid, construct_knn_parabola
from visblock.cli import (
    EXIT_BUDGET,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_VERIFICATION,
    ExperimentConfig,
    TaskOutcome,
    exit_code_from_manifest,
    main,
    report,
    run,
)
from visblock.errors import GeometryError
from visblock.generators import (
    GeneratorSpec,
    convex_parabola_set,
    grid_set,
    random_general_position_set,
)
from visblock.geometry import PointSet
from visblock.visibility import Colouring, monochromatic_line_check


GRID_2X2 = {"kind": "grid", "params": {"w": 2, "h": 2}}


def write_config(tmp_path, generator, tasks, budgets=None, name="cfg.json"):
    obj = {
        "generator": generator,
        "tasks": tasks,
        "budgets_ms": budgets or {},
        "output_dir": str(tmp_path / "runs"),
    }
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


def read_result(run_dir, task):
    return json.loads((run_dir / "results" / f"{task}.json").read_text())


def write_points(path, ps):
    path.write_text(json.dumps(ps.to_obj()))
    return path


def run_visblock(*args):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "visblock", *args], env=env,
                          capture_output=True, text=True, timeout=60)


class TestConfig:
    def test_roundtrip(self):
        cfg = ExperimentConfig(
            GeneratorSpec("grid", {"w": 2, "h": 2}), ("visgraph",), {"visgraph": 500}
        )
        assert ExperimentConfig.from_obj(cfg.to_obj()) == cfg

    def test_needs_tasks(self):
        with pytest.raises(GeometryError, match="at least one task"):
            ExperimentConfig(GeneratorSpec("grid", {"w": 2, "h": 2}), ())

    def test_unknown_task(self):
        with pytest.raises(GeometryError, match="unknown task"):
            ExperimentConfig(GeneratorSpec("grid", {"w": 2, "h": 2}), ("tsp",))

    def test_repeated_task(self):
        with pytest.raises(GeometryError, match="'midpoints' is listed twice"):
            ExperimentConfig(
                GeneratorSpec("grid", {"w": 2, "h": 2}), ("midpoints", "visgraph", "midpoints")
            )

    def test_budget_for_unknown_task(self):
        with pytest.raises(GeometryError, match="unknown task"):
            ExperimentConfig(
                GeneratorSpec("grid", {"w": 2, "h": 2}), ("visgraph",), {"tsp": 5}
            )

    def test_budget_for_task_not_run(self):
        with pytest.raises(GeometryError, match="'crossing', which the config does not run"):
            ExperimentConfig(
                GeneratorSpec("grid", {"w": 2, "h": 2}), ("visgraph",), {"crossing": 5}
            )

    def test_negative_budget(self):
        with pytest.raises(GeometryError, match="non-negative"):
            ExperimentConfig(
                GeneratorSpec("grid", {"w": 2, "h": 2}), ("visgraph",), {"visgraph": -1}
            )

    def test_from_obj_missing_generator(self):
        with pytest.raises(GeometryError, match="missing"):
            ExperimentConfig.from_obj({"tasks": ["visgraph"]})

    @pytest.mark.parametrize("key,value", [("budget_ms", {"visgraph": 5}), ("formats", ["json"])])
    def test_from_obj_unknown_key(self, key, value):
        obj = {"generator": {"kind": "grid", "params": {"w": 2, "h": 2}}, "tasks": ["visgraph"]}
        with pytest.raises(GeometryError, match=f"unknown keys.*{key}"):
            ExperimentConfig.from_obj(obj | {key: value})


class TestRunHarness:
    def test_grid_visgraph_example(self, tmp_path):
        cfg = ExperimentConfig(
            GeneratorSpec("grid", {"w": 3, "h": 3}), ("visgraph",),
            output_dir=str(tmp_path),
        )
        run_dir = run(cfg)
        res = read_result(run_dir, "visgraph")
        assert res["edge_count"] == 28
        assert res["diameter"] == 2
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["tasks"]["visgraph"]["status"] == "ok"
        assert exit_code_from_manifest(manifest) == EXIT_OK

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = ExperimentConfig(
            GeneratorSpec("convex_parabola", {"n": 4}),
            ("visgraph", "block", "midpoints", "crossing"),
            output_dir=str(tmp_path),
        )
        first = run(cfg)
        digests = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(first.glob("results/*.json"))
        }
        second = run(cfg)
        assert second == first
        for p in sorted(second.glob("results/*.json")):
            assert hashlib.sha256(p.read_bytes()).hexdigest() == digests[p.name]

    def test_distinct_configs_get_distinct_dirs(self, tmp_path):
        a = ExperimentConfig(
            GeneratorSpec("grid", {"w": 2, "h": 2}), ("visgraph",),
            output_dir=str(tmp_path),
        )
        b = ExperimentConfig(
            GeneratorSpec("grid", {"w": 2, "h": 3}), ("visgraph",),
            output_dir=str(tmp_path),
        )
        assert run(a) != run(b)

    def test_partition_blocking_cross_check(self, tmp_path):
        cfg = ExperimentConfig(
            GeneratorSpec("convex_parabola", {"n": 5}), ("block", "crossing"),
            output_dir=str(tmp_path),
        )
        run_dir = run(cfg)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["cross_checks"]["partition_at_most_blocking"] is True
        t = read_result(run_dir, "crossing")["partition_size"]
        b = read_result(run_dir, "block")["blocking"]["size"]
        assert t <= b

    @staticmethod
    def count_builds(monkeypatch, tmp_path, tasks):
        builds = []
        build = crossing.crossing_graph

        def counted(ps):
            builds.append(ps)
            return build(ps)

        monkeypatch.setattr(crossing, "crossing_graph", counted)
        monkeypatch.setattr(cli, "crossing_graph", counted)
        cfg = ExperimentConfig(
            GeneratorSpec("convex_parabola", {"n": 5}), tasks, output_dir=str(tmp_path),
        )
        return json.loads((run(cfg) / "manifest.json").read_text()), builds

    def test_block_and_crossing_build_the_crossing_graph_twice(self, tmp_path, monkeypatch):
        manifest, builds = self.count_builds(monkeypatch, tmp_path, ("block", "crossing"))
        assert manifest["cross_checks"]["partition_at_most_blocking"] is True
        # the crossing task's, under its budget; the blocker-induced cover's
        assert len(builds) == 2

    def test_crossing_alone_builds_the_crossing_graph_once(self, tmp_path, monkeypatch):
        manifest, builds = self.count_builds(monkeypatch, tmp_path, ("crossing",))
        assert manifest["tasks"]["crossing"]["status"] == "ok"
        assert len(builds) == 1

    @pytest.mark.parametrize("task,budget,searches", [
        ("visgraph", None, 1), ("ramsey", None, 1), ("crossing", None, 0),
        ("visgraph", 0, 1), ("ramsey", 0, 1),
    ], ids=["visgraph-1", "ramsey-1", "crossing-0", "visgraph-budget0-1", "ramsey-budget0-1"])
    def test_clique_searched_at_most_once(self, tmp_path, monkeypatch, task, budget, searches):
        # chromatic_number starts from the clique of clique_number, cut by
        # the budget or not, and the crossing partition from the
        # triangulation size 3n - 3 - h
        calls = []
        search = cliques.max_clique

        def counted(*args):
            calls.append(args[0])
            return search(*args)

        monkeypatch.setattr(cliques, "max_clique", counted)
        cfg = ExperimentConfig(
            GeneratorSpec("convex_parabola", {"n": 6}), (task,),
            {} if budget is None else {task: budget}, str(tmp_path),
        )
        manifest = json.loads((run(cfg) / "manifest.json").read_text())
        want = "ok" if budget is None else "budget_exhausted"
        assert manifest["tasks"][task]["status"] == want
        assert len(calls) == searches

    @pytest.mark.parametrize("exc,logged", [
        (GeometryError("segment (0, 1) is not blocked; cover impossible"),
         "ERROR visblock: blocker-induced cover failed: segment (0, 1) is not blocked"),
        (ZeroDivisionError("division by zero"),
         "ERROR visblock: blocker-induced cover crashed\nTraceback"),
        (None, None),
    ], ids=["cover-raises", "cover-crashes", "cover-too-large"])
    def test_failed_cross_check_fails_both_tasks(self, tmp_path, capsys, monkeypatch, exc,
                                                 logged):
        def bad_cover(ps, blockers):
            if exc is not None:
                raise exc
            return crossing.CrossingFamilyPartition(tuple((s,) for s in range(len(blockers) + 1)),
                                                    False)

        monkeypatch.setattr(cli, "cover_from_blockers", bad_cover)
        cfg = write_config(tmp_path, {"kind": "convex_parabola", "params": {"n": 5}},
                           ["block", "crossing"])
        assert main(["run", "--config", str(cfg)]) == EXIT_VERIFICATION
        run_dir = Path(capsys.readouterr().out.strip())
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["cross_checks"] == {"partition_at_most_blocking": False}
        assert manifest["tasks"]["block"]["status"] == "verification_failed"
        assert manifest["tasks"]["crossing"]["status"] == "verification_failed"
        log_text = (run_dir / "logs" / "run.log").read_text()
        if logged is None:
            assert "blocker-induced cover" not in log_text
        else:
            assert logged in log_text

    def test_knn_parabola_bundle(self, tmp_path):
        cfg = ExperimentConfig(
            GeneratorSpec("knn_parabola", {"n": 7}), ("block",),
            output_dir=str(tmp_path),
        )
        run_dir = run(cfg)
        res = read_result(run_dir, "block")
        assert res["input"] == "drawing-bundle"
        assert res["stated_blockers"] == 13
        assert res["edge_count"] == 49
        assert res["check"]["ok"] is True
        assert res["solver"]["size"] == 13 and res["solver"]["optimal"] is True
        assert (run_dir / "inputs" / "drawing.json").is_file()

    def test_knn_bundles_solved_under_the_budget(self):
        for build in (construct_knn_grid, construct_knn_parabola):
            for n in range(1, 9):
                outcome = cli.task_block(build(n), 10_000)
                solver = outcome.result["solver"]
                assert (solver["size"], solver["optimal"]) == (2 * n - 1, True)
                assert outcome.status == "ok"

    def test_task_error_recorded_and_run_continues(self, tmp_path):
        # grid has collinear triples, so the crossing task must error out
        cfg = ExperimentConfig(
            GeneratorSpec("grid", {"w": 3, "h": 3}), ("crossing", "visgraph"),
            output_dir=str(tmp_path),
        )
        run_dir = run(cfg)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["tasks"]["crossing"]["status"] == "error"
        assert manifest["tasks"]["crossing"]["error_type"] == "NotGeneralPosition"
        assert manifest["tasks"]["visgraph"]["status"] == "ok"
        assert exit_code_from_manifest(manifest) == EXIT_INPUT
        assert not (run_dir / "results" / "crossing.json").exists()

    def test_generation_error_skips_tasks(self, tmp_path):
        cfg = ExperimentConfig(
            GeneratorSpec("grid", {"w": 3, "h": 3}, max_collinear_bound=2),
            ("visgraph",),
            output_dir=str(tmp_path),
        )
        run_dir = run(cfg)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["generation"]["status"] == "error"
        assert manifest["tasks"]["visgraph"]["status"] == "skipped"
        assert exit_code_from_manifest(manifest) == EXIT_INPUT

    def test_task_crash_recorded_and_run_continues(self, tmp_path, monkeypatch):
        def crash(obj, budget_ms):
            return 1 / 0

        monkeypatch.setitem(cli.TASK_FNS, "visgraph", crash)
        cfg = ExperimentConfig(
            GeneratorSpec("grid", {"w": 2, "h": 2}), ("visgraph", "midpoints"),
            output_dir=str(tmp_path),
        )
        run_dir = run(cfg)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        entry = manifest["tasks"]["visgraph"]
        assert entry["status"] == "error"
        assert entry["error_type"] == "ZeroDivisionError"
        assert entry["message"] == "division by zero"
        assert manifest["tasks"]["midpoints"]["status"] == "ok"
        assert exit_code_from_manifest(manifest) == EXIT_INPUT
        assert not (run_dir / "results" / "visgraph.json").exists()
        assert "Traceback" in (run_dir / "logs" / "run.log").read_text()
        summary = report([run_dir], tmp_path / "rpt")["summary"].read_text()
        assert len(summary.splitlines()) == 2

    def test_result_it_cannot_encode_fails_only_its_task(self, tmp_path, capsys, monkeypatch):
        block = cli.TASK_FNS["block"]

        def unencodable(obj, budget_ms):
            outcome = block(obj, budget_ms)
            outcome.result["x"] = Fraction(1, 2)
            return outcome

        monkeypatch.setitem(cli.TASK_FNS, "block", unencodable)
        cfg = write_config(tmp_path, {"kind": "convex_parabola", "params": {"n": 5}},
                           ["block", "crossing", "midpoints"])
        assert main(["run", "--config", str(cfg)]) == EXIT_INPUT
        run_dir = Path(capsys.readouterr().out.strip())
        manifest = json.loads((run_dir / "manifest.json").read_text())
        entry = manifest["tasks"]["block"]
        assert (entry["status"], entry["error_type"]) == ("error", "TypeError")
        assert manifest["tasks"]["crossing"]["status"] == "ok"
        assert manifest["tasks"]["midpoints"]["status"] == "ok"
        assert manifest["cross_checks"] == {}  # the failed block is left out
        assert sorted(manifest["artifact_hashes"]) == [
            "inputs/points.json", "results/crossing.json", "results/midpoints.json"]
        assert not (run_dir / "results" / "block.json").exists()
        assert "task block crashed\nTraceback" in (run_dir / "logs" / "run.log").read_text()

    def test_input_it_cannot_encode_fails_generation(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "generate",
                            lambda spec: types.SimpleNamespace(to_obj=lambda: {"x": Fraction(1, 2)}))
        cfg = write_config(tmp_path, GRID_2X2, ["visgraph"])
        assert main(["run", "--config", str(cfg)]) == EXIT_INPUT
        run_dir = Path(capsys.readouterr().out.strip())
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["generation"]["error_type"] == "TypeError"
        assert manifest["tasks"]["visgraph"]["status"] == "skipped"
        assert manifest["artifact_hashes"] == {}
        assert not any((run_dir / "inputs").iterdir())

    def test_non_ascii_name_is_written_as_ascii(self, tmp_path, capsys):
        pts = write_points(tmp_path / "é.json", PointSet.build([(0, 0), (1, 0), (0, 1)], "é"))
        cfg = write_config(tmp_path, {"kind": "file", "params": {"path": str(pts)}},
                           ["visgraph", "drawing"])
        assert main(["run", "--config", str(cfg)]) == EXIT_OK
        run_dir = Path(capsys.readouterr().out.strip())
        assert all(f.read_bytes().isascii() for f in run_dir.rglob("*.json"))
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert len(manifest["artifact_hashes"]) == 3
        for rel, digest in manifest["artifact_hashes"].items():
            assert hashlib.sha256((run_dir / rel).read_bytes()).hexdigest() == digest
        assert json.loads((run_dir / "inputs" / "points.json").read_text())["name"] == "é"
        assert "\\u00e9" in (run_dir / "inputs" / "points.json").read_text()

    def test_rerun_drops_stale_results(self, tmp_path, monkeypatch):
        cfg = ExperimentConfig(
            GeneratorSpec("grid", {"w": 2, "h": 2}), ("visgraph", "midpoints"),
            output_dir=str(tmp_path),
        )
        run_dir = run(cfg)
        assert (run_dir / "results" / "visgraph.json").exists()

        def crash(obj, budget_ms):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli.TASK_FNS, "visgraph", crash)
        assert run(cfg) == run_dir
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["tasks"]["visgraph"]["status"] == "error"
        assert not (run_dir / "results" / "visgraph.json").exists()
        assert "results/visgraph.json" not in manifest["artifact_hashes"]
        assert "results/midpoints.json" in manifest["artifact_hashes"]

    def test_generation_crash_recorded(self, tmp_path, monkeypatch):
        def crash(spec):
            raise KeyError("boom")

        monkeypatch.setattr(cli, "generate", crash)
        cfg = ExperimentConfig(
            GeneratorSpec("grid", {"w": 2, "h": 2}), ("visgraph",),
            output_dir=str(tmp_path),
        )
        run_dir = run(cfg)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["generation"]["status"] == "error"
        assert manifest["generation"]["error_type"] == "KeyError"
        assert manifest["tasks"]["visgraph"]["status"] == "skipped"
        assert exit_code_from_manifest(manifest) == EXIT_INPUT

    def test_logger_state_restored(self, tmp_path):
        logger = logging.getLogger("visblock")
        before = logger.level
        logger.setLevel(logging.WARNING)
        try:
            cfg = ExperimentConfig(
                GeneratorSpec("grid", {"w": 2, "h": 2}), ("visgraph",),
                output_dir=str(tmp_path),
            )
            run(cfg)
            assert logger.level == logging.WARNING
            assert not any(isinstance(h, logging.FileHandler) for h in logger.handlers)
        finally:
            logger.setLevel(before)

    def test_budget_exhaustion_status(self, tmp_path):
        cfg = ExperimentConfig(
            GeneratorSpec("random_general_position", {"n": 13, "seed": 3}),
            ("visgraph",),
            {"visgraph": 0},
            output_dir=str(tmp_path),
        )
        run_dir = run(cfg)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["tasks"]["visgraph"]["status"] == "budget_exhausted"
        assert exit_code_from_manifest(manifest) == EXIT_BUDGET

    def test_cut_clique_search_bounds_the_colouring(self, tmp_path, monkeypatch):
        # a clique search cut at size 2 still bounds chi from below; the
        # colouring search climbs from there and proves chi = 4 on its own
        monkeypatch.setattr(cliques, "max_clique", lambda adj, deadline=None: (2, [0, 1], False))
        cfg = ExperimentConfig(
            GeneratorSpec("grid", {"w": 3, "h": 3}), ("visgraph", "ramsey"),
            output_dir=str(tmp_path),
        )
        run_dir = run(cfg)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        vis = read_result(run_dir, "visgraph")
        assert vis["clique"] == {"omega": 2, "witness": [0, 1], "exact": False}
        assert vis["chromatic"]["exact"] is True
        assert vis["chromatic"]["lower"] == vis["chromatic"]["upper"] == vis["chromatic"]["chi"] == 4
        assert vis["checks"]["clique_at_most_chromatic"] is None
        assert manifest["tasks"]["visgraph"]["status"] == "budget_exhausted"
        # ramsey needs no clique on a grid, which has a line of 3
        assert "largest_class_certificate" in read_result(run_dir, "ramsey")
        assert manifest["tasks"]["ramsey"]["status"] == "ok"

    @pytest.mark.parametrize("generator, tasks", [
        (GeneratorSpec("convex_parabola", {"n": 4}), ("midpoints",)),
        (GeneratorSpec("convex_parabola", {"n": 5}), cli.TASKS),
        (GeneratorSpec("grid", {"w": 3, "h": 3}), cli.TASKS),  # crossing fails: no file
        (GeneratorSpec("knn_parabola", {"n": 2}), ("block", "drawing")),
    ])
    def test_manifest_hashes_match_files(self, tmp_path, generator, tasks):
        run_dir = run(ExperimentConfig(generator, tasks, output_dir=str(tmp_path)))
        manifest = json.loads((run_dir / "manifest.json").read_text())
        files = [f"{sub}/{f.name}" for sub in ("inputs", "results")
                 for f in sorted((run_dir / sub).iterdir())]
        assert sorted(manifest["artifact_hashes"]) == files
        for rel, digest in manifest["artifact_hashes"].items():
            assert hashlib.sha256((run_dir / rel).read_bytes()).hexdigest() == digest

    def test_log_has_no_timestamps(self, tmp_path):
        cfg = ExperimentConfig(
            GeneratorSpec("random_general_position", {"n": 6, "seed": 1}),
            ("visgraph",),
            output_dir=str(tmp_path),
        )
        run_dir = run(cfg)
        text = (run_dir / "logs" / "run.log").read_text()
        assert "random_general_position" in text
        for line in text.splitlines():
            assert line.split(" ", 1)[0] in ("INFO", "WARNING", "ERROR")


class TestExitPriorities:
    def test_error_beats_everything(self):
        manifest = {
            "generation": {"status": "ok"},
            "tasks": {
                "a": {"status": "error"},
                "b": {"status": "verification_failed"},
                "c": {"status": "budget_exhausted"},
            },
        }
        assert exit_code_from_manifest(manifest) == EXIT_INPUT

    def test_verification_beats_budget(self):
        manifest = {
            "generation": {"status": "ok"},
            "tasks": {
                "b": {"status": "verification_failed"},
                "c": {"status": "budget_exhausted"},
            },
        }
        assert exit_code_from_manifest(manifest) == EXIT_VERIFICATION

    def test_all_ok(self):
        manifest = {"generation": {"status": "ok"}, "tasks": {"a": {"status": "ok"}}}
        assert exit_code_from_manifest(manifest) == EXIT_OK

    @pytest.mark.parametrize("failed,budget_hit,status", [
        (False, False, "ok"),
        (False, True, "budget_exhausted"),
        (True, False, "verification_failed"),
        (True, True, "verification_failed"),
    ])
    def test_outcome_status(self, failed, budget_hit, status):
        assert TaskOutcome({}, failed, budget_hit).status == status


class TestSubcommandMatchesRun:
    """A task command prints the bytes `run` writes to results/<task>.json
    for the same subject, and exits as `exit_code_from_manifest` does."""

    def agree(self, tmp_path, capsys, generator, task, budget=None, input_file=None):
        budgets = {} if budget is None else {task: budget}
        cfg = ExperimentConfig(GeneratorSpec.from_obj(generator), (task,), budgets,
                               output_dir=str(tmp_path / "runs"))
        run_dir = run(cfg)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        if input_file is None:
            (input_file,) = (run_dir / "inputs").glob("*.json")
        args = [task, "--input", str(input_file)]
        if budget is not None:
            args += ["--budget-ms", str(budget)]
        rc = main(args)
        result = run_dir / "results" / f"{task}.json"
        assert capsys.readouterr().out == (result.read_text() if result.is_file() else "")
        assert rc == exit_code_from_manifest(manifest)
        return rc

    @pytest.mark.parametrize("task", cli.TASKS)
    @pytest.mark.parametrize("ps", [convex_parabola_set(5), grid_set(3, 3)],
                             ids=["convex-5", "grid-3x3"])
    def test_point_file(self, tmp_path, capsys, ps, task):
        path = write_points(tmp_path / "points.json", ps)
        generator = {"kind": "file", "params": {"path": str(path)}}
        rc = self.agree(tmp_path, capsys, generator, task, input_file=path)
        assert rc == (EXIT_INPUT if (task, ps.name) == ("crossing", "grid-3x3") else EXIT_OK)

    @pytest.mark.parametrize("task", cli.TASKS)
    def test_bundle(self, tmp_path, capsys, task):
        generator = {"kind": "knn_parabola", "params": {"n": 3}}
        rc = self.agree(tmp_path, capsys, generator, task)
        assert rc == (EXIT_OK if task in ("block", "drawing") else EXIT_INPUT)

    def test_budget_exhausted(self, tmp_path, capsys):
        path = write_points(tmp_path / "points.json", random_general_position_set(13, None, 3))
        generator = {"kind": "file", "params": {"path": str(path)}}
        rc = self.agree(tmp_path, capsys, generator, "visgraph", budget=0, input_file=path)
        assert rc == EXIT_BUDGET

    def test_partition_below_the_floor_fails_verification(self, tmp_path, capsys, monkeypatch):
        # the task's verdict is the one floor check: a partition below it
        # is a failed verification, not bad input
        monkeypatch.setattr(crossing, "partition_size_floor", lambda n: 10**9)
        monkeypatch.setattr(cli, "partition_size_floor", lambda n: 10**9)
        path = write_points(tmp_path / "points.json", convex_parabola_set(7))
        generator = {"kind": "file", "params": {"path": str(path)}}
        rc = self.agree(tmp_path, capsys, generator, "crossing", input_file=path)
        assert rc == EXIT_VERIFICATION
        (manifest,) = (tmp_path / "runs").glob("*/manifest.json")
        status = json.loads(manifest.read_text())["tasks"]["crossing"]["status"]
        assert status == "verification_failed"

    def test_verification_failed(self, tmp_path, capsys, monkeypatch):
        def failing(obj, budget_ms):
            return TaskOutcome({"n": len(obj)}, verification_failed=True, budget_exhausted=True)

        monkeypatch.setitem(cli.TASK_FNS, "midpoints", failing)
        path = write_points(tmp_path / "points.json", convex_parabola_set(4))
        generator = {"kind": "file", "params": {"path": str(path)}}
        rc = self.agree(tmp_path, capsys, generator, "midpoints", input_file=path)
        assert rc == EXIT_VERIFICATION


class TestReport:
    def make_runs(self, tmp_path, sizes=(4, 5)):
        dirs = []
        for n in sizes:
            cfg = ExperimentConfig(
                GeneratorSpec("convex_parabola", {"n": n}),
                ("visgraph", "block", "midpoints", "crossing", "drawing"),
                output_dir=str(tmp_path / "runs"),
            )
            dirs.append(run(cfg))
        return dirs

    def test_summary_and_plots(self, tmp_path):
        dirs = self.make_runs(tmp_path)
        written = report(dirs, tmp_path / "rpt")
        header, *lines = written["summary"].read_text().splitlines()
        assert header == "n,bound_3n_3_t,b,m,t,n2_over_14,n_ln_n"
        assert len(lines) == 2
        first = lines[0].split(",")
        assert first[0] == "4"
        assert first[1] == "5" and first[2] == "5"  # bound 3n-3-t vs exact b
        assert first[3] == "6" and first[4] == "5"
        plot_b = written["plot_b"].read_text().splitlines()
        assert plot_b == ["4 5", "5 8"]
        table = written["drawing_table"].read_text().splitlines()
        assert table[0] == "n,blockers,verified"
        assert table[1] == "4,5,True"
        assert table[2] == "5,7,True"

    def test_drawing_only_run(self, tmp_path, capsys):
        cfg = ExperimentConfig(
            GeneratorSpec("grid", {"w": 2, "h": 2}), ("drawing",),
            output_dir=str(tmp_path / "runs"),
        )
        out = tmp_path / "rpt"
        assert main(["report", str(run(cfg)), "--output-dir", str(out)]) == EXIT_OK
        assert capsys.readouterr() == (f"{out / 'drawing_table.csv'}\n{out / 'summary.csv'}\n", "")
        assert (out / "summary.csv").read_text() == "n,bound_3n_3_t,b,m,t,n2_over_14,n_ln_n\n"
        assert (out / "drawing_table.csv").read_text() == "n,blockers,verified\n4,5,True\n"

    def test_partial_rows_leave_blanks(self, tmp_path):
        cfg = ExperimentConfig(
            GeneratorSpec("convex_parabola", {"n": 4}), ("midpoints",),
            output_dir=str(tmp_path / "runs"),
        )
        written = report([run(cfg)], tmp_path / "rpt")
        line = written["summary"].read_text().splitlines()[1]
        n, bound, b, m, t, _, _ = line.split(",")
        assert (n, m) == ("4", "6")
        assert bound == b == t == ""
        assert "plot_b" not in written

    def test_empty_input_rejected(self, tmp_path):
        with pytest.raises(GeometryError, match="at least one run"):
            report([], tmp_path / "rpt")

    def test_missing_manifest_rejected(self, tmp_path):
        bogus = tmp_path / "run-dead"
        bogus.mkdir()
        with pytest.raises(GeometryError, match="manifest"):
            report([bogus], tmp_path / "rpt")

    def test_corrupt_result_rejected(self, tmp_path):
        (d,) = self.make_runs(tmp_path, sizes=(4,))
        (d / "results" / "block.json").write_text("{nope")
        with pytest.raises(GeometryError, match="block.json"):
            report([d], tmp_path / "rpt")

    @pytest.mark.parametrize("task, result, complaint", [
        ("drawing", {"n": 5, "blocker_count": 3, "blocking": [], "simplicity": {}},
         "drawing result 'blocking' must be an object"),
        ("midpoints", {"n": "x", "midpoints": 3}, "midpoints result 'n' must be an integer"),
        ("block", {"n": 4, "input": "point-set", "blocking": 5},
         "block result 'blocking' must be an object"),
        ("block", {"n": True, "input": "point-set", "blocking": {"size": 5}},
         "block result 'n' must be an integer"),
        ("crossing", [4], "crossing result must be an object"),
        ("midpoints", {"n": 10**400, "midpoints": 3}, "n is too large for a float"),
        ("midpoints", {"n": -3, "midpoints": 2},
         "midpoints result 'n' must not be negative, got -3"),
        ("midpoints", {"n": 4, "midpoints": -1},
         "midpoints result 'midpoints' must not be negative, got -1"),
        ("block", {"n": 4, "input": "point-set", "blocking": {"size": -1}},
         "block result 'blocking.size' must not be negative, got -1"),
        ("block", {"n": 4, "input": "point-set", "blocking": {"size": 5},
                   "lower_bound_triangulation": -7},
         "block result 'lower_bound_triangulation' must not be negative, got -7"),
        ("crossing", {"n": 4, "partition_size": -1},
         "crossing result 'partition_size' must not be negative, got -1"),
        ("drawing", {"n": 5, "blocker_count": -2, "blocking": {"ok": True},
                     "simplicity": {"ok": True}},
         "drawing result 'blocker_count' must not be negative, got -2"),
        ("drawing", {"n": 5, "blocker_count": 3, "blocking": {"ok": False},
                     "simplicity": {"ok": "yes"}},
         "drawing result 'simplicity.ok' must be a boolean, got 'yes'"),
    ], ids=["drawing-blocking-list", "midpoints-n-string", "block-blocking-int",
            "block-n-bool", "crossing-list", "midpoints-n-huge", "midpoints-n-negative",
            "midpoints-count-negative", "block-size-negative", "block-bound-negative",
            "crossing-size-negative", "drawing-blockers-negative",
            "drawing-unverified-simplicity-str"])
    def test_result_of_the_wrong_shape_rejected(self, tmp_path, capsys, task, result, complaint):
        (d,) = self.make_runs(tmp_path, sizes=(4,))
        for f in (d / "results").glob("*.json"):
            f.unlink()
        (d / "results" / f"{task}.json").write_text(json.dumps(result))
        assert main(["report", str(d), "--output-dir", str(tmp_path / "rpt")]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"error: run {d}: {complaint}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "rpt").exists()

    @pytest.mark.parametrize("results, complaint", [
        ({"visgraph": {"n": 4}, "block": {"n": 5, "input": "point-set"}},
         "results disagree on n: [4, 5]"),
        ({"drawing": {"n": 5, "blocker_count": 3, "blocking": {"ok": True}}},
         "drawing result missing 'simplicity'"),
        ({"midpoints": {"midpoints": 6}}, "no result reports n"),
        ({"block": {"n": 4, "input": "point-set"}}, "block result missing 'blocking'"),
        ({"midpoints": {"n": 4}}, "midpoints result missing 'midpoints'"),
        ({"crossing": {"n": 4}}, "crossing result missing 'partition_size'"),
        ({"block": {"n": 4, "input": "point-set", "blocking": {}}},
         "block result missing 'blocking.size'"),
        ({"drawing": {"n": 5, "blocker_count": 3, "blocking": {"ok": True}, "simplicity": {}}},
         "drawing result missing 'simplicity.ok'"),
    ], ids=["n-disagrees", "drawing-missing-key", "no-n", "block-missing-blocking",
            "midpoints-missing-count", "crossing-missing-size", "block-missing-size",
            "drawing-missing-simplicity-ok"])
    def test_result_missing_a_field_rejected(self, tmp_path, capsys, results, complaint):
        (d,) = self.make_runs(tmp_path, sizes=(4,))
        for f in (d / "results").glob("*.json"):
            f.unlink()
        for task, result in results.items():
            (d / "results" / f"{task}.json").write_text(json.dumps(result))
        assert main(["report", str(d), "--output-dir", str(tmp_path / "rpt")]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"error: run {d}: {complaint}" in err
        assert "Traceback" not in err


class TestMainEntry:
    def test_python_m_visblock(self):
        proc = run_visblock("--help")
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert "report" in proc.stdout

    def test_python_m_visblock_version(self):
        proc = run_visblock("--version")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{__version__}\n", "")

    def test_generate_to_stdout(self, capsys):
        assert main(["generate", "--kind", "grid", "--w", "2", "--h", "2"]) == EXIT_OK
        obj = json.loads(capsys.readouterr().out)
        assert len(obj["points"]) == 4

    def test_generate_to_dir(self, tmp_path, capsys):
        rc = main([
            "generate", "--kind", "knn_grid", "--n", "3",
            "--output-dir", str(tmp_path),
        ])
        assert rc == EXIT_OK
        assert (tmp_path / "drawing.json").is_file()

    def test_visgraph_subcommand(self, tmp_path, capsys):
        pts = tmp_path / "p.json"
        main(["generate", "--kind", "grid", "--w", "3", "--h", "3",
              "--output-dir", str(tmp_path)])
        capsys.readouterr()
        assert main(["visgraph", "--input", str(tmp_path / "points.json")]) == EXIT_OK
        obj = json.loads(capsys.readouterr().out)
        assert obj["edge_count"] == 28

    def test_drawing_by_n(self, capsys):
        assert main(["drawing", "--n", "5"]) == EXIT_OK
        obj = json.loads(capsys.readouterr().out)
        assert obj["blocker_count"] == 7
        assert obj["blocking"]["ok"] and obj["simplicity"]["ok"]

    def test_drawing_needs_input_or_n(self, capsys):
        assert main(["drawing"]) == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_drawing_input_and_n_rejected(self, tmp_path, capsys):
        # --n would be silently ignored next to --input
        pts = write_points(tmp_path / "points.json", grid_set(3, 3))
        assert main(["drawing", "--input", str(pts), "--n", "5"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--input" in captured.err and "--n" in captured.err

    @pytest.mark.parametrize("command", ["generate", "visgraph", "env", "run", "report"])
    def test_output_dir_that_is_a_file(self, tmp_path, capsys, monkeypatch, command):
        afile = tmp_path / "afile"
        afile.write_text("")
        pts = write_points(tmp_path / "points.json", grid_set(2, 2))
        cfg = write_config(tmp_path, GRID_2X2, ["visgraph"])
        if command == "report":
            assert main(["run", "--config", str(cfg)]) == EXIT_OK
            argv = ["report", capsys.readouterr().out.strip()]
        else:
            argv = {
                "generate": ["generate", "--kind", "grid", "--w", "2", "--h", "2"],
                "visgraph": ["visgraph", "--input", str(pts)],
                "env": ["visgraph", "--input", str(pts)],
                "run": ["run", "--config", str(cfg)],
            }[command]
        if command == "env":
            monkeypatch.setenv("VISBLOCK_OUTPUT_DIR", str(afile))
        else:
            argv += ["--output-dir", str(afile)]
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"error: cannot write {afile}")
        assert afile.read_text() == ""

    @pytest.mark.parametrize("command", ["generate", "visgraph", "report"])
    def test_output_file_that_is_a_directory(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        pts = write_points(tmp_path / "points.json", grid_set(2, 2))
        if command == "report":
            cfg = write_config(tmp_path, GRID_2X2, ["visgraph"])
            assert main(["run", "--config", str(cfg)]) == EXIT_OK
            argv = ["report", capsys.readouterr().out.strip()]
            target = out / "summary.csv"
        else:
            argv = {
                "generate": ["generate", "--kind", "grid", "--w", "2", "--h", "2"],
                "visgraph": ["visgraph", "--input", str(pts)],
            }[command]
            target = out / ("points.json" if command == "generate" else "visgraph.json")
        target.mkdir(parents=True)
        assert main(argv + ["--output-dir", str(out)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {target}")
        assert target.is_dir() and not any(target.iterdir())

    @pytest.mark.parametrize("target", ["results/visgraph.json", "inputs/points.json",
                                        "config.json", "logs/run.log", "manifest.json"])
    def test_run_file_that_is_a_directory(self, tmp_path, capsys, target):
        cfg = write_config(tmp_path, GRID_2X2, ["visgraph"])
        assert main(["run", "--config", str(cfg)]) == EXIT_OK
        path = Path(capsys.readouterr().out.strip()) / target
        path.unlink()
        path.mkdir()
        level = logging.getLogger("visblock").level
        assert main(["run", "--config", str(cfg)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {path}")
        assert path.is_dir() and not any(path.iterdir())
        assert logging.getLogger("visblock").level == level

    def test_generate_from_file(self, tmp_path, capsys):
        ps = grid_set(2, 2)
        pts = write_points(tmp_path / "set.json", ps)
        assert main(["generate", "--kind", "file", "--path", str(pts)]) == EXIT_OK
        assert capsys.readouterr() == (json.dumps(ps.to_obj(), sort_keys=True, indent=2) + "\n", "")

    @pytest.mark.parametrize("args, message", [
        (["generate", "--kind", "progression", "--progression", "{bad"],
         "--progression is not valid JSON: Expecting property name enclosed in double quotes: "
         "line 1 column 2 (char 1)"),
        (["run", "--config", "LIST"], "config must be a JSON object"),
        (["visgraph", "--input", "NEITHER"], "input NEITHER holds neither a point set nor a "
         "drawing bundle"),
        (["midpoints", "--input", "ONE"], "midpoint analysis needs at least two points"),
        (["block", "--input", "ONE"], "need at least 2 points"),
        (["generate", "--kind", "random_general_position", "--n", "3", "--seed", "1",
          "--bound", "1"], "coordinate bound too small"),
        (["drawing", "--n", "1"], "arc drawing needs n >= 2"),
        (["generate", "--kind", "grid", "--w", "2", "--h", "2", "--path", ""],
         "generator kind 'grid' has unknown parameters ['path']"),
    ], ids=["progression-not-json", "config-list", "input-neither", "midpoints-one-point",
            "block-one-point", "bound-too-small", "drawing-n-1", "grid-empty-path"])
    def test_bad_input_message(self, tmp_path, capsys, args, message):
        files = {"LIST": "[1, 2]", "NEITHER": '{"foo": 1}', "ONE": '{"points": [[0, 0]]}'}
        for name, text in files.items():
            path = tmp_path / f"{name.lower()}.json"
            path.write_text(text)
            args = [str(path) if a == name else a for a in args]
            message = message.replace(name, str(path))
        assert main(args) == EXIT_INPUT
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_bad_input_path(self, tmp_path, capsys):
        rc = main(["block", "--input", str(tmp_path / "missing.json")])
        assert rc == EXIT_INPUT

    def test_unreadable_json_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2")
        assert main(["midpoints", "--input", str(bad)]) == EXIT_INPUT

    def test_input_that_is_not_text(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        assert main(["midpoints", "--input", str(bad)]) == EXIT_INPUT
        assert "is not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("coord,literal", [
        ("1e400", "inf"), ("Infinity", "inf"), ("-Infinity", "-inf"),
    ], ids=["1e400", "Infinity", "minus-Infinity"])
    def test_infinite_coordinate_in_point_file(self, tmp_path, capsys, coord, literal):
        path = tmp_path / "points.json"
        path.write_text(f'{{"points": [[{coord}, 0], [1, 1]]}}')
        assert main(["visgraph", "--input", str(path)]) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: bad rational literal {literal}\n"

    def test_infinite_coordinate_in_bundle(self, tmp_path, capsys):
        obj = construct_knn_parabola(2).to_obj()
        obj["blockers"][0] = [float("inf"), 0]
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(obj))
        assert main(["block", "--input", str(path)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bad rational literal inf" in err
        assert "Traceback" not in err

    def test_infinite_coordinate_in_progression(self, capsys):
        prog = '{"v0": [Infinity, 0], "generators": [[1, 0]], "extents": [2]}'
        assert main(["generate", "--kind", "progression", "--progression", prog]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bad rational literal inf" in err
        assert "Traceback" not in err

    def test_infinite_coordinate_in_run_file_generator(self, tmp_path, capsys):
        path = tmp_path / "points.json"
        path.write_text('{"points": [[1e400, 0], [1, 1]]}')
        cfg = write_config(tmp_path, {"kind": "file", "params": {"path": str(path)}},
                           ["visgraph"])
        assert main(["run", "--config", str(cfg)]) == EXIT_INPUT
        run_dir = Path(capsys.readouterr().out.strip())
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["generation"]["error_type"] == "GeometryError"
        assert manifest["generation"]["message"] == "bad rational literal inf"

    def test_tampered_bundle_fails_verification(self, tmp_path, capsys):
        main(["generate", "--kind", "knn_grid", "--n", "4",
              "--output-dir", str(tmp_path)])
        capsys.readouterr()
        obj = json.loads((tmp_path / "drawing.json").read_text())
        obj["blockers"] = obj["blockers"][1:]
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(obj))
        assert main(["block", "--input", str(tampered)]) == EXIT_VERIFICATION
        res = json.loads(capsys.readouterr().out)
        assert res["check"]["ok"] is False

    def test_budget_exit(self, tmp_path, capsys):
        main(["generate", "--kind", "random_general_position", "--n", "13",
              "--seed", "3", "--output-dir", str(tmp_path)])
        capsys.readouterr()
        rc = main(["visgraph", "--input", str(tmp_path / "points.json"),
                   "--budget-ms", "0"])
        assert rc == EXIT_BUDGET

    def test_run_and_report_commands(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"kind": "convex_parabola", "params": {"n": 4}},
            ["block", "crossing", "drawing"],
        )
        assert main(["run", "--config", str(cfg)]) == EXIT_OK
        run_dir = capsys.readouterr().out.strip()
        rc = main(["report", run_dir, "--output-dir", str(tmp_path / "rpt")])
        assert rc == EXIT_OK
        assert (tmp_path / "rpt" / "summary.csv").is_file()
        assert (tmp_path / "rpt" / "drawing_table.csv").is_file()

    def test_run_output_dir_override(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"kind": "grid", "params": {"w": 2, "h": 2}}, ["visgraph"]
        )
        rc = main(["run", "--config", str(cfg), "--output-dir", str(tmp_path / "elsewhere")])
        assert rc == EXIT_OK
        out = capsys.readouterr().out.strip()
        assert out.startswith(str(tmp_path / "elsewhere"))

    def test_run_config_with_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "generator": {"kind": "grid", "params": {"w": 2, "h": 2}},
            "tasks": ["visgraph"],
            "budget_ms": {"visgraph": 5},
        }))
        assert main(["run", "--config", str(cfg)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "unknown keys ['budget_ms']" in err
        assert "Traceback" not in err

    def test_run_config_with_repeated_task(self, tmp_path, capsys):
        cfg = write_config(tmp_path, GRID_2X2, ["midpoints", "midpoints"])
        assert main(["run", "--config", str(cfg)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "error: task 'midpoints' is listed twice" in err
        assert "Traceback" not in err
        assert not (tmp_path / "runs").exists()

    def test_run_config_with_budget_for_task_not_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path, GRID_2X2, ["visgraph"], {"crossing": 5})
        assert main(["run", "--config", str(cfg)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "error: budget for task 'crossing', which the config does not run" in err
        assert "Traceback" not in err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("key,value", [
        ("generator", GRID_2X2 | {"max_colinear_bound": 2}),
        ("generator", GRID_2X2 | {"max_collinear_bound": "3"}),
        ("generator", GRID_2X2 | {"dedupe_symmetry": "false"}),
        ("generator", {"kind": "grid", "params": [1, 2]}),
        ("tasks", 5),
        ("budgets_ms", 5),
        ("budgets_ms", {"visgraph": True}),
        ("output_dir", 5),
    ], ids=["generator-typo", "collinear-bound-str", "dedupe-str", "params-list",
            "tasks-int", "budgets-int", "budget-bool", "output-dir-int"])
    def test_run_malformed_config(self, tmp_path, capsys, monkeypatch, key, value):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, GRID_2X2, ["visgraph"])
        cfg.write_text(json.dumps(json.loads(cfg.read_text()) | {key: value}))
        assert main(["run", "--config", str(cfg)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("generator,unknown", [
        ({"kind": "grid", "params": {"w": 2, "h": 2, "n": 50}}, "['n']"),
        ({"kind": "random_general_position", "params": {"n": 5, "seed": 0, "bund": 9}}, "['bund']"),
        ({"kind": "convex_parabola", "params": {"n": 4, "w": 1, "h": 1}}, "['h', 'w']"),
    ], ids=["grid-n", "random-bund", "convex-w-h"])
    def test_run_unknown_generator_param(self, tmp_path, capsys, generator, unknown):
        cfg = write_config(tmp_path, generator, ["visgraph"])
        assert main(["run", "--config", str(cfg)]) == EXIT_INPUT
        err = capsys.readouterr().err
        kind = generator["kind"]
        assert f"error: generator kind {kind!r} has unknown parameters {unknown}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("extent", [2.7, "3", 0, True], ids=["float", "str", "zero", "bool"])
    def test_generate_bad_progression_extent(self, capsys, extent):
        prog = {"v0": [0, 0], "generators": [[1, 0]], "extents": [extent]}
        args = ["generate", "--kind", "progression", "--progression", json.dumps(prog)]
        assert main(args) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "error: progression extent must be a positive integer" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("prog", ["[1, 2]", '"x"', "3"], ids=["list", "string", "number"])
    def test_generate_progression_not_an_object(self, capsys, prog):
        assert main(["generate", "--kind", "progression", "--progression", prog]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "error: --progression must be a JSON object" in err
        assert "Traceback" not in err

    def test_run_bound_is_validated_like_n(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "kind": "random_general_position", "params": {"n": 5, "seed": 0, "bound": "9"},
        }, ["visgraph"])
        assert main(["run", "--config", str(cfg)]) == EXIT_INPUT
        run_dir = Path(capsys.readouterr().out.strip())
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["generation"]["error_type"] == "GeometryError"
        assert "'bound'" in manifest["generation"]["message"]

    @pytest.mark.parametrize("seed", ["3", True, 2.0], ids=["str", "bool", "float"])
    def test_run_seed_must_be_an_integer(self, tmp_path, capsys, seed):
        cfg = write_config(tmp_path, {
            "kind": "random_general_position", "params": {"n": 5, "seed": seed},
        }, ["visgraph"])
        assert main(["run", "--config", str(cfg)]) == EXIT_INPUT
        run_dir = Path(capsys.readouterr().out.strip())
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["generation"]["error_type"] == "GeometryError"
        assert manifest["generation"]["message"] == "seed must be an integer"
        assert manifest["tasks"]["visgraph"]["status"] == "skipped"

    def test_budget_flag_on_run_fills_missing_budgets(self, tmp_path, capsys):
        cfg = write_config(tmp_path, GRID_2X2, ["visgraph", "crossing"], {"crossing": 7000})
        assert main(["run", "--config", str(cfg), "--budget-ms", "5000"]) == EXIT_OK
        run_dir = Path(capsys.readouterr().out.strip())
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["budgets_ms"] == {"visgraph": 5000, "crossing": 7000}
        assert manifest["tasks"]["visgraph"]["budget_ms"] == 5000
        assert manifest["tasks"]["crossing"]["budget_ms"] == 7000
        config = json.loads((run_dir / "config.json").read_text())
        assert config["budgets_ms"] == {"visgraph": 5000, "crossing": 7000}

    def test_run_missing_config(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "none.json")]) == EXIT_INPUT

    def test_report_bad_dir(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "run-nope")]) == EXIT_INPUT

    def test_env_output_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("VISBLOCK_OUTPUT_DIR", str(tmp_path / "envout"))
        assert main(["generate", "--kind", "grid", "--w", "2", "--h", "2"]) == EXIT_OK
        assert (tmp_path / "envout" / "points.json").is_file()

    def test_env_budget(self, tmp_path, capsys, monkeypatch):
        # VISBLOCK_BUDGET_MS is not read: a zero budget there changes nothing.
        pts = write_points(tmp_path / "points.json", random_general_position_set(13, None, 3))
        monkeypatch.delenv("VISBLOCK_BUDGET_MS", raising=False)
        assert main(["visgraph", "--input", str(pts)]) == EXIT_OK
        unset = capsys.readouterr().out
        monkeypatch.setenv("VISBLOCK_BUDGET_MS", "0")
        assert main(["visgraph", "--input", str(pts)]) == EXIT_OK
        assert capsys.readouterr().out == unset

    def test_env_seed(self, capsys, monkeypatch):
        # VISBLOCK_SEED is not read: a random generator still needs --seed.
        args = ["generate", "--kind", "random_general_position", "--n", "5"]
        monkeypatch.setenv("VISBLOCK_SEED", "7")
        assert main(args) == EXIT_INPUT
        assert "explicit seed" in capsys.readouterr().err
        assert main(args + ["--seed", "7"]) == EXIT_OK

    def test_env_bad_value(self, tmp_path, capsys, monkeypatch):
        # A malformed VISBLOCK_BUDGET_MS is ignored rather than rejected.
        pts = tmp_path / "p.json"
        pts.write_text(json.dumps({"name": "", "points": [["0", "0"], ["1", "0"]]}))
        monkeypatch.setenv("VISBLOCK_BUDGET_MS", "soon")
        assert main(["visgraph", "--input", str(pts)]) == EXIT_OK

    def test_degenerate_bundle_edge_exits(self, tmp_path):
        origin = ["0/1", "0/1"]
        bundle = {"name": "", "n": 1, "left": [origin], "right": [origin],
                  "edges": [[origin, origin]], "blockers": []}
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(bundle))
        proc = run_visblock("block", "--input", str(path))  # looped forever once
        assert proc.returncode == EXIT_INPUT
        assert proc.stderr.startswith("error: segment 0 has both endpoints at")
        assert proc.stdout == ""

    @pytest.mark.parametrize("key,value", [
        ("n", 2.7), ("n", "3"), ("n", True), ("name", 5),
        ("n", None), ("left", None), ("right", None), ("edges", None), ("blockers", None),
    ], ids=["n-float", "n-str", "n-bool", "name-int",
            "missing-n", "missing-left", "missing-right", "missing-edges", "missing-blockers"])
    def test_bundle_field_types(self, tmp_path, capsys, key, value):
        # a value of None stands for a bundle without the key
        obj = construct_knn_parabola(2).to_obj() | {key: value}
        if value is None:
            del obj[key]
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(obj))
        assert main(["block", "--input", str(path)]) == EXIT_INPUT
        err = capsys.readouterr().err
        complaint = f"missing {key!r}" if value is None else f"{key!r} must be"
        assert f"error: drawing bundle {complaint}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("task", ["block", "drawing"])
    @pytest.mark.parametrize("edit", [{"n": 7}, {"n": 1}, "drop-edge", "swap-edge"],
                             ids=["n-7", "n-1", "drop-edge", "swap-edge"])
    def test_bundle_size_mismatch(self, tmp_path, capsys, task, edit):
        obj = construct_knn_parabola(2).to_obj()
        if edit == "drop-edge":
            obj["edges"] = obj["edges"][1:]
        elif edit == "swap-edge":
            obj["edges"][0] = obj["edges"][0][::-1]
        else:
            obj |= edit
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(obj))
        assert main([task, "--input", str(path)]) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: drawing bundle with n = ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("task", ["block", "drawing"])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_bundle_repeated_point(self, tmp_path, capsys, task, side):
        sides = {"left": [[0, 0], [1, 0]], "right": [[1, 2], [2, 2]]}
        sides[side][1] = sides[side][0]
        obj = {"n": 2, **sides, "blockers": [[1, 1]],
               "edges": [[a, b] for a in sides["left"] for b in sides["right"]]}
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(obj))
        assert main([task, "--input", str(path)]) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: drawing bundle {side!r} repeats a point")
        assert "Traceback" not in err

    @pytest.mark.parametrize("task", cli.TASKS)
    def test_negative_budget_flag(self, tmp_path, capsys, task):
        pts = write_points(tmp_path / "points.json", random_general_position_set(6, None, 1))
        assert main([task, "--input", str(pts), "--budget-ms", "-5"]) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --budget-ms must be a non-negative integer\n"

    def test_negative_budget_flag_on_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"kind": "convex_parabola", "params": {"n": 4}}, ["block"])
        assert main(["run", "--config", str(cfg), "--budget-ms", "-5"]) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --budget-ms must be a non-negative integer\n"

    @pytest.mark.parametrize("task", cli.TASKS)
    def test_budget_flag_too_large_for_a_float(self, tmp_path, capsys, task):
        pts = write_points(tmp_path / "points.json", random_general_position_set(6, None, 1))
        assert main([task, "--input", str(pts), "--budget-ms", str(10**400)]) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --budget-ms is too large for a float\n"

    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_run_budget_too_large_for_a_float(self, tmp_path, capsys, where):
        budgets = {"visgraph": 10**400} if where == "config" else None
        cfg = write_config(tmp_path, {"kind": "convex_parabola", "params": {"n": 4}},
                           ["visgraph"], budgets)
        flag = ["--budget-ms", str(10**400)] if where == "flag" else []
        assert main(["run", "--config", str(cfg), *flag]) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == ""
        what = "budget for 'visgraph'" if where == "config" else "--budget-ms"
        assert err == f"error: {what} is too large for a float\n"
        assert not (tmp_path / "runs").exists()

    def test_ramsey_budget_exhausted_verdict(self, tmp_path, capsys):
        pts = write_points(tmp_path / "points.json", random_general_position_set(9, None, 3))
        assert main(["ramsey", "--input", str(pts), "--budget-ms", "0"]) == EXIT_BUDGET
        obj = json.loads(capsys.readouterr().out)
        assert obj["line_or_clique"] == {
            "kind": "unknown",
            "message": "clique search budget exhausted before a verdict",
        }

    def test_ramsey_subcommand(self, tmp_path, capsys):
        main(["generate", "--kind", "convex_parabola", "--n", "4",
              "--output-dir", str(tmp_path)])
        capsys.readouterr()
        assert main(["ramsey", "--input", str(tmp_path / "points.json")]) == EXIT_OK
        obj = json.loads(capsys.readouterr().out)
        assert obj["line_or_clique"]["kind"] == "clique"
        assert obj["largest_class_certificate"]["is_blocked"] is True
        assert obj["mono_line_two_colourings"]["all_present"] is True
        assert obj["mono_line_two_colourings"]["checked"] == 8

    def test_ramsey_collinear_set_picks_line(self, tmp_path, capsys):
        pts = tmp_path / "line.json"
        pts.write_text(json.dumps(
            {"name": "", "points": [["0", "0"], ["1", "0"], ["2", "0"], ["3", "0"]]}
        ))
        assert main(["ramsey", "--input", str(pts)]) == EXIT_OK
        obj = json.loads(capsys.readouterr().out)
        assert obj["line_or_clique"]["kind"] == "line"
        assert obj["mono_line_two_colourings"] is None


class TestRamseyCensus:
    @pytest.mark.parametrize("w, h, missing", [(3, 3, 16), (3, 4, 88)])
    def test_counts_colourings_without_a_monochromatic_line(self, w, h, missing):
        # every real set has a monochromatic line in each 2-colouring, so the
        # census is only tested by hiding the lines of two points: then some
        # colourings have none, and the task must count what the line check
        # finds, point 0 keeping colour 1
        ps = grid_set(w, h)
        ps.__dict__["lines"] = tuple(rec for rec in ps.lines if len(rec) >= 3)
        n = len(ps)
        want = sum(
            monochromatic_line_check(ps, Colouring(2, (1, *(1 + (c >> i & 1) for i in range(1, n)))))
            is None
            for c in range(0, 1 << n, 2)
        )
        assert want == missing
        census = cli.task_ramsey(ps, None).result["mono_line_two_colourings"]
        assert census == {"checked": 1 << n - 1, "missing": missing, "all_present": False}


# SHA-256 of every results/ and inputs/ file of some runs, with the exit
# code of each, frozen from a release whose JSON shapes and values are known
# good: renaming, dropping or reshaping any field of a written record, or a
# speed-up that moves any byte, changes a digest here. The grid and n-gon
# runs take the search, line and midpoint paths of large inputs.
class Watch:
    """A clock for cliques that moves one tick per reading, and a log of the
    clique and colouring searches, each with the deadline it was given, the
    readings it made and whether the deadline cut it."""

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch
        self.readings: list[int] = []
        self.searches: list[tuple[str, object, list[int], bool]] = []
        self.order: list[str] = []  # "clock" and "build", as they happen
        monkeypatch.setattr(cliques, "time", types.SimpleNamespace(monotonic=self.monotonic))
        for name in ("max_clique", "k_colourable"):
            monkeypatch.setattr(cliques, name, self.search(getattr(cliques, name)))

    def monotonic(self):
        self.readings.append(len(self.readings) + 1)
        self.order.append("clock")
        return self.readings[-1]

    def search(self, fn):
        def call(*args):
            deadline = inspect.signature(fn).bind(*args).arguments.get("deadline")
            start = len(self.readings)
            out = fn(*args)
            # max_clique returns (size, witness, exact), k_colourable (colours, budget_hit)
            cut = not out[2] if fn.__name__ == "max_clique" else out[1]
            self.searches.append((fn.__name__, deadline, self.readings[start:], cut))
            return out

        return call

    def builds(self, module, name):
        fn = getattr(module, name)

        def call(*args):
            self.order.append("build")
            return fn(*args)

        self.monkeypatch.setattr(module, name, call)


def grid_subset():
    # 27 points of the 6x6 grid: the clique search takes 15 nodes, and the
    # colouring search, as omega = 8 lies below the greedy colouring, 100
    rng = random.Random(2)
    return PointSet.build([(x, y) for x in range(6) for y in range(6) if rng.random() < 0.7])


class TestOneDeadlinePerTask:
    """A budget starts when the call that takes it starts, and every search
    under it stops at that one deadline. Budgets are given in ticks of the
    fake clock, one second each, so the deadline is the first reading plus
    the budget."""

    @pytest.mark.parametrize("task", ["visgraph", "ramsey"])
    def test_both_searches_get_one_deadline(self, monkeypatch, task):
        watch = Watch(monkeypatch)
        watch.builds(cli, "visibility_graph")
        outcome = cli.TASK_FNS[task](grid_subset(), 10**9)
        assert watch.order[:2] == ["clock", "build"]
        given = [(name, d) for name, d, _, _ in watch.searches if d is not None]
        assert {name for name, _ in given} == {"max_clique", "k_colourable"}
        assert {d for _, d in given} == {1 + 10**6}
        assert not outcome.budget_exhausted

    @pytest.mark.parametrize("task", ["visgraph", "ramsey"])
    def test_cut_task_ends_at_its_deadline(self, monkeypatch, task):
        for budget in range(120):
            with monkeypatch.context() as mp:
                watch = Watch(mp)
                outcome = cli.TASK_FNS[task](grid_subset(), budget * 1000)
            deadline = 1 + budget
            for name, d, readings, cut in watch.searches:
                if d is None:  # the greedy colouring, which reads no clock
                    assert not readings
                    continue
                assert d == deadline
                # no search opens a node past the deadline: a reading past it
                # is the last of its search, and cuts it
                assert [r for r in readings if r > deadline] == (readings[-1:] if cut else [])
            # the first node due after the deadline reads the clock past it
            # and is not opened; a colouring search after a cut clique
            # search reads it once more
            past = [r for r in watch.readings if r > deadline]
            assert past == list(range(deadline + 1, deadline + 1 + len(past)))
            assert len(past) <= 2
            assert past or not outcome.budget_exhausted
        assert outcome.status == "ok" and not past  # 119 ticks outlast both searches

    @pytest.mark.parametrize("module, fn, builds", [
        (blocking, "min_blocking_set", [(blocking, "candidate_blockers")]),
        (crossing, "crossing_family_partition", [(crossing, "crossing_graph")]),
        (cli, "task_crossing", [(crossing, "crossing_graph"), (cli, "crossing_graph")]),
    ], ids=["block", "crossing", "crossing-task"])
    def test_deadline_taken_before_the_build(self, monkeypatch, module, fn, builds):
        watch = Watch(monkeypatch)
        for owner, build in builds:
            watch.builds(owner, build)
        getattr(module, fn)(convex_parabola_set(6), 10**9)
        assert watch.order[0] == "clock" and "build" in watch.order


class Small(enum.IntEnum):
    ONE = 1


WRITER_CORPUS = [
    [], {}, [[]], [{}], {"a": []}, {"a": {}}, [[[], {}], {"b": [[{}]]}],
    [(1, 2), [3, 4], (5, 6, 7), (8,), []],
    {"edges": [(0, 1), (0, 2)], "deeper": {"pairs": [[-1, 2]], "n": 3}},
    [(1, True), [False, 2], (None, 1), (1.0, 2), (Small.ONE, 2), ("1", 2)],
    [-1, -(2**70), 2**64, 2**64 + 1, (2**65, -(2**65))],
    [0.1, -0.0, 1e16, 1e-7, 2.5, float("nan"), float("inf"), float("-inf")],
    ["é", "\u2603 snow", "\x00\x1f\t\n\"\\/", "\U0001f600", ""],
    {"é": 1, "b": {"\n": None}, "": True},
    "top-level string", 7, None, True, 1.5, (3, 4),
]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner) | st.tuples(inner, inner)
                   | st.dictionaries(st.text(), inner)),
    max_leaves=30,
)


def reference_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


class TestJsonWriter:
    @pytest.mark.parametrize("obj", WRITER_CORPUS)
    def test_matches_json_dumps(self, obj):
        assert cli._dumps(obj) == reference_dumps(obj)

    @given(JSON_VALUES)
    @settings(max_examples=300, deadline=None)
    def test_matches_json_dumps_on_random_values(self, obj):
        assert cli._dumps(obj) == reference_dumps(obj)

    @pytest.mark.parametrize("obj", [Fraction(1, 2), {"a": {1, 2}}, {(1, 2): 3}, [b"x"]])
    def test_refuses_what_json_dumps_refuses(self, obj):
        with pytest.raises(TypeError):
            reference_dumps(obj)
        with pytest.raises(TypeError):
            cli._dumps(obj)

    def test_refuses_keys_that_are_no_strings(self):
        # json.dumps would write the key 1 as "1"; no result has such a key
        with pytest.raises(TypeError, match="keys must be str"):
            cli._dumps({"a": {1: 2}})

    def test_no_json_encoder_calls_on_the_16x16_visgraph(self):
        # a deterministic work counter: json.dumps with an indent made
        # 302,085 calls into json/encoder.py on this result
        result = cli.task_visgraph(grid_set(16, 16), None).result
        prof = cProfile.Profile()
        prof.enable()
        text = cli._dumps(result)
        prof.disable()
        calls = sum(
            stat[0]
            for (path, _, _), stat in pstats.Stats(prof).stats.items()
            if Path(path).parts[-2:] == ("json", "encoder.py")
        )
        assert calls == 0
        assert result["edge_count"] == 20_074 and text == reference_dumps(result)


FROZEN_DIGESTS = {
    "convex-parabola-7": (
        {"kind": "convex_parabola", "params": {"n": 7}},
        list(cli.TASKS),
        EXIT_OK,
        {
            "inputs/points.json": "d97ba59bc2523e19c6dc2c4cfe86b18d4de37c3383fcbb83a39b0244a51a9a35",
            "results/block.json": "e36a42c4dbd19b7969f35c2fb65b2b6a37e8349a82c24de7ae79a9f4601b89d9",
            "results/crossing.json": "3b87ec8c48dc52580fc22ce9f5a47d0e4bf2d58d02c19924a3c802b3c2248d8f",
            "results/drawing.json": "a0c047b7a2ed65a371791a773033e2356b0367d8f1c859d2796d3252153554fa",
            "results/midpoints.json": "2f7350efc9f06f13f1c7a45c73c91f89063d6d6a5a45e04c87cc5e6a14c9f18e",
            "results/ramsey.json": "da8eb35f46b5907482cd56356ebf205fdb18ecbb8758094b747e03c2b4175962",
            "results/visgraph.json": "11363ff68d37e56e68cf8f1f25fa0f0257e51538719b8af71cfd441ed21273ea",
        },
    ),
    "convex-parabola-20-drawing": (
        {"kind": "convex_parabola", "params": {"n": 20}},
        ["drawing"],
        EXIT_OK,
        {
            "inputs/points.json": "b00212987692c23362c2247a2fb0d3f50b9acef6ebaff77f8bffe8169c88e193",
            "results/drawing.json": "8092a95b260794386b548e671100eb3a0eee82f0b082c64ce47a321ce6709ef7",
        },
    ),
    "knn-parabola-3": (
        {"kind": "knn_parabola", "params": {"n": 3}},
        ["block", "drawing"],
        EXIT_OK,
        {
            "inputs/drawing.json": "755bac5d98ea1d476966a62ee71219728e30905344c9883e7d37ee8d2ec7c683",
            "results/block.json": "7402f6c2f197407d0f14db2fde1896295ea835115ddea1d11b728a16c8ac432a",
            "results/drawing.json": "c5b51a8d59910eb2278aa1cb8e50d88b3f15e04188771938fbf378a2c15a4493",
        },
    ),
    "grid-16x16": (
        {"kind": "grid", "params": {"w": 16, "h": 16}},
        ["visgraph", "midpoints"],
        EXIT_OK,
        {
            "inputs/points.json": "fb169ad3ee025552e5e5629a837bcca95eb8770c70c0b54b964aa02753d91e25",
            "results/midpoints.json": "5eac387df0ca01910f2007438d904aa8228a5c6b8ea176ea903597aecc054a6a",
            "results/visgraph.json": "d7e6af6456b2289128e5e27209b9c192a0a1d04095b036c4b351258dd14bc644",
        },
    ),
    "ngon-10": (
        {"kind": "regular_ngon", "params": {"n": 10}},
        ["crossing"],
        EXIT_OK,
        {
            "inputs/points.json": "b47b0c9943d731b280bcaa5fc7bf4ad7eb398c2b4cf8e041e7b5ae6ec1c77dde",
            "results/crossing.json": "40d31833d164de5461255dc0d8d8766cc3a975729fc21b934b9dfd5aa0326044",
        },
    ),
    "grid-3x4": (  # the crossing task rejects collinear points: no crossing.json
        {"kind": "grid", "params": {"w": 3, "h": 4}},
        list(cli.TASKS),
        EXIT_INPUT,
        {
            "inputs/points.json": "75f7f3d1470dfe3d583420b3ea1133ba5549b95d05c3d9838eaf3f53e5c751bd",
            "results/block.json": "ab6263cb5e06455f9b0a1fd207c2a6856fe1db0e7aee6cf1f317061eab0cb741",
            "results/drawing.json": "4bb4134a15424132942672fe31aadc63732976dd3488d6d1384559892bd9fb0f",
            "results/midpoints.json": "19d1a2b657bd10971888c57cb9d8adc30c11d962827af7a059f7e01f08f00b3a",
            "results/ramsey.json": "5640a930bde78ce268878f511faa152ddc3dc67cda89da2d8414ed8abfc0dbf1",
            "results/visgraph.json": "88fa6ae3050d766fc81e4577a9f29eb78080c6156e6a1da77b179bf082183ff7",
        },
    ),
    "random-20-drawing": (
        {"kind": "random_general_position", "params": {"n": 20, "seed": 2023}},
        ["drawing"],
        EXIT_OK,
        {
            "inputs/points.json": "08bf9bbeb8e9ac22fcfe83c4ad8d7c8e5a1b2a7ef0c838e98fd7b08f9ca5bc40",
            "results/drawing.json": "8092a95b260794386b548e671100eb3a0eee82f0b082c64ce47a321ce6709ef7",
        },
    ),
}


class TestFrozenOutputs:
    @pytest.mark.parametrize("name", sorted(FROZEN_DIGESTS))
    def test_run_files_match_frozen_digests(self, tmp_path, capsys, name):
        generator, tasks, code, want = FROZEN_DIGESTS[name]
        cfg = write_config(tmp_path, generator, tasks)
        assert main(["run", "--config", str(cfg)]) == code
        run_dir = Path(capsys.readouterr().out.strip())
        got = {
            f"{sub}/{f.name}": hashlib.sha256(f.read_bytes()).hexdigest()
            for sub in ("inputs", "results")
            for f in sorted((run_dir / sub).iterdir())
        }
        assert got == want

