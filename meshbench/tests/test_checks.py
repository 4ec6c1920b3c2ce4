"""Each output check passes on the program's real output and rejects a corrupted one."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

import truth
import workloads
from meshprof.builder import BuildConfig, SupNormSampling
from meshprof.domain import GridDomain
from meshprof.mesh import Branch, Subdivision


def _with_leaf(sub: Subdivision, value: tuple[float, ...], index: int = 0) -> Subdivision:
    """``sub`` with the ``index``-th leaf (depth first) holding ``value``."""
    count = 0

    def walk(node):
        nonlocal count
        if isinstance(node, Branch):
            return Branch(node.box, tuple(walk(c) for c in node.children))
        count += 1
        return dataclasses.replace(node, value=value) if count - 1 == index else node

    return Subdivision(sub.domain, sub.value_arity, walk(sub.root), sub.metadata)


def _problems(work, full: bool = True) -> list[str]:
    report = workloads.Report()
    work.check(report, full)
    return report.problems


@pytest.fixture
def small_analytic(tmp_path):
    work = workloads.AnalyticBuilds(0, tmp_path)
    # One criterion build per policy and threshold keeps the test quick.
    keep = [j for j in work.jobs if j.fixture == "ramp" and j.domain.extents == (64, 64)]
    work.jobs = [keep[i] for i in range(0, len(keep), workloads.CRITERION_SEEDS)]
    work.jobs.append(workloads.Job("ramp16", "ramp", GridDomain((16, 16)),
                                   BuildConfig(threshold=(2.0,), policy=SupNormSampling(1.0))))
    work.profiles = [workloads.resolve_fixture(j.fixture, j.domain) for j in work.jobs]
    work.run()
    return work


def test_analytic_rejects_leaf_outside_true_range(small_analytic):
    assert _problems(small_analytic) == []
    sub, report = small_analytic.built[-1]
    leaves = truth.leaves_of_tree(sub)
    lo, hi = truth.ramp_box_range(leaves)
    small_analytic.built[-1] = (_with_leaf(sub, (float(hi[0]) + 0.25,)), report)
    assert any("outside the true range" in p for p in _problems(small_analytic))


def test_step_range_and_error_from_leaves():
    leaves = truth.LeafArrays((8, 2), np.array([[0, 0], [4, 0]]), np.array([[4, 2], [8, 2]]),
                              np.array([[0.0], [60.0]]), np.zeros((2, 1)), np.zeros((2, 1)),
                              np.array([2, 2]), 1)
    lo, hi = truth.step_box_range(leaves, 100.0, 5.0)
    assert lo.tolist() == [0.0, 0.0] and hi.tolist() == [0.0, 100.0]
    # Cells x = 5..7 (3 columns of 2) are 100 under a leaf of 60; x = 4 is 0.
    assert truth.step_abs_error_sum(leaves, 100.0, 5.0) == 6 * 40.0 + 2 * 60.0


@pytest.fixture(scope="module")
def small_culling(tmp_path_factory):
    saved = workloads.CULL_DEPTHS
    workloads.CULL_DEPTHS = (1, 4)
    try:
        work = workloads.CullingSweep(0, tmp_path_factory.mktemp("culling"))
    finally:
        workloads.CULL_DEPTHS = saved
    work.run()
    return work


def test_culling_counts_the_leaf_mean_fault_and_passes(small_culling):
    report = workloads.Report()
    small_culling.check(report, True)
    assert report.problems == []
    assert [f.split(":")[0] for f in report.failed] == ["brutecost", "cullcost"]


def test_culling_rejects_flipped_selection_label(small_culling):
    original = small_culling.maps[1]
    leaves = truth.leaves_of_tree(original)
    try:
        small_culling.maps[1] = _with_leaf(original, (1.0 - leaves.value[0, 0],))
        assert any("selection map at depth 4" in p for p in _problems(small_culling))
    finally:
        small_culling.maps[1] = original


def test_ray_caster_counts_a_clear_and_a_blocked_object():
    objects = np.array([[10.0, -1.0, 11.0, 1.0], [30.0, -4.0, 31.0, 4.0]])
    wall = np.array([[20.0, -5.0, 21.0, 5.0]])
    observer = np.array([[0.0, 0.0]])
    total, sides = truth.ray_visible(objects, wall, 8, observer)
    assert total.tolist() == [1] and sides.tolist() == [[1, 0, 0, 0]]
    total, _ = truth.ray_visible(objects, np.zeros((0, 4)), 8, observer)
    assert total.tolist() == [2]


@pytest.fixture
def cli_dir(tmp_path):
    work = workloads.CliPipeline(0, tmp_path, in_process=True)
    small = ["build", "--fixture", "ramp", "--domain", "32x32", "--threshold", "2",
             "--policy", "sup:c=1", "--out", "a.json"]
    work.commands = [("build", small),
                     ("render", ["render", "a.json", "--out", "a.pgm", "--leaf-csv", "a.csv"])
                     ] + [c for c in work.commands if c[0].startswith("exec")]
    work.run()
    assert all(code == 0 for _, code, _, _ in work.results)
    return work


def _manifests(work):
    return {p.name[:-len(".manifest.json")]: json.loads(p.read_text())
            for p in work.dir.glob("*.manifest.json")}


def test_cli_rejects_pgm_with_a_pixel_changed(cli_dir):
    a = cli_dir._mesh("a.json")
    dense_a = truth.dense(a)[..., 0]
    report = workloads.Report()
    cli_dir._check_render(report, a, dense_a)
    assert report.problems == []
    image = bytearray((cli_dir.dir / "a.pgm").read_bytes())
    image[-1] ^= 0x01
    (cli_dir.dir / "a.pgm").write_bytes(bytes(image))
    cli_dir._check_render(report, a, dense_a)
    assert any("a.pgm" in p for p in report.problems)


def test_cli_rejects_wrong_exec_cache_entry(cli_dir):
    report = workloads.Report()
    cli_dir._check_exec(report, _manifests(cli_dir))
    assert report.problems == []
    (path,) = cli_dir.cache_dir.iterdir()
    doc = json.loads(path.read_text())
    first = next(iter(doc["entries"]))
    doc["entries"][first] = [doc["entries"][first][0] + 1.0]
    path.write_text(json.dumps(doc))
    cli_dir._check_exec(report, _manifests(cli_dir))
    assert any("cell coordinates" in p for p in report.problems)


def test_timing_keys_are_found_anywhere():
    assert workloads._timing_keys({"report": {"leaf_count": 3}, "command": ["x"]}) == []
    assert workloads._timing_keys({"report": [{"wall_time_s": 1.0}]}) == ["report.wall_time_s"]
