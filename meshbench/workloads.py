"""The benchmark's workloads: inputs from a seed, the timed operations, the checks.

A workload is made in set-up (``__init__``), runs its fixed list of
operations in ``run()`` (the timed part) and checks what they produced in
``check()``.  Every check compares with ``truth`` or with a property the
method must have, never with a stored copy of an earlier output.

meshprof functions are called through their modules (``builder.build``, not
a name imported here), so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from meshprof import analysis, builder, cli, mesh
from meshprof.builder import BuildConfig, DiameterSampling, RmsSampling, SupNormSampling
from meshprof.domain import GridDomain, GridPoint
from meshprof.fixtures import resolve_fixture, scene

import truth

SRC = Path(__file__).resolve().parents[1] / "src"

LEAF_MEAN_FAULT = ("leaf mean lies 1-2 ulp outside its own [lo_seen, hi_seen] with all "
                   "samples equal (meshprof.builder._build_levels)")


@dataclass
class Report:
    """What one round's checks found."""

    attempted: int = 0
    failed: list[str] = field(default_factory=list)     # operations failed by a known fault
    problems: list[str] = field(default_factory=list)   # failed checks: the run is not correct
    profile_queries: int = 0
    errors: list[float] = field(default_factory=list)   # mean |error| per checked mesh
    mesh_bytes: int = 0
    digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)

    def expect(self, ok, what: str) -> None:
        if not ok:
            self.problems.append(what)

    def fingerprint(self, *arrays) -> None:
        for a in arrays:
            self.digest.update(np.ascontiguousarray(a).tobytes())


def _draw_seeds(seed: int, n: int) -> list[int]:
    return np.random.default_rng(seed).integers(0, 2**31, size=n).tolist()


def _fingerprint_leaves(report: Report, leaves: truth.LeafArrays) -> None:
    report.fingerprint(leaves.lo, leaves.hi, leaves.value, leaves.lo_seen, leaves.hi_seen,
                       leaves.samples)


def _check_counts(report: Report, label: str, build_report, cells: int) -> None:
    report.profile_queries += build_report.distinct_queries
    report.expect(build_report.distinct_queries <= build_report.total_requests,
                  f"{label}: more distinct queries than requests")
    report.expect(build_report.distinct_queries <= cells,
                  f"{label}: more distinct queries than cells")


# -- analytic-builds --------------------------------------------------------


CRITERION_SEEDS = 8        # builds per (policy, threshold) on the ramp 64x64
CRITERION_RATE = 0.95      # criteria 1 and 2: at least 95 of 100 builds within 4 s
STEP_HEIGHT = 100.0
STEP_AT = 1365.0           # odd: the jump lies on no cut above the finest level


@dataclass
class Job:
    label: str
    fixture: str
    domain: GridDomain
    config: BuildConfig
    criterion: str = ""    # "sup" or "rms" for the criterion 1 and 2 builds


class AnalyticBuilds:
    """Closed-form fixtures: the criterion 1 and 2 builds, a dense 256x256 and a sparse 4096x4096."""

    def __init__(self, seed: int, workdir: Path):
        seeds = _draw_seeds(seed, CRITERION_SEEDS)
        small = GridDomain((64, 64))
        self.jobs = [
            Job(f"ramp64 {kind} s={s:g} seed={sd}", "ramp", small,
                BuildConfig(threshold=(s,), policy=policy, seed=sd), kind)
            for kind, policy in (("sup", SupNormSampling(1.0)), ("rms", RmsSampling(1.0)))
            for s in (2.0, 4.0) for sd in seeds
        ]
        self.jobs.append(Job("ramp256 sup s=2", "ramp", GridDomain((256, 256)),
                             BuildConfig(threshold=(2.0,), policy=SupNormSampling(1.0),
                                         seed=seeds[0])))
        self.jobs.append(Job("step4096 diam", f"step:{STEP_HEIGHT:g}:{STEP_AT:g}",
                             GridDomain((4096, 4096)),
                             BuildConfig(threshold=(50.0,), policy=DiameterSampling(0.5),
                                         seed=seeds[0])))
        self.profiles = [resolve_fixture(job.fixture, job.domain) for job in self.jobs]

    def run(self) -> None:
        self.built = [builder.build(profile, job.domain, job.config)
                      for profile, job in zip(self.profiles, self.jobs)]

    def check(self, report: Report, full: bool) -> None:
        hits: dict[tuple[str, float], list[bool]] = {}
        for job, (sub, build_report) in zip(self.jobs, self.built):
            report.attempted += 1
            leaves = truth.leaves_of_tree(sub)
            _fingerprint_leaves(report, leaves)
            cells = math.prod(job.domain.extents)
            _check_counts(report, job.label, build_report, cells)
            if not full:
                continue
            report.expect(truth.tiles_domain(leaves), f"{job.label}: leaves do not tile the domain")
            if job.fixture == "ramp":
                lo, hi = truth.ramp_box_range(leaves)
                error = truth.dense(leaves)[..., 0] - truth.ramp_grid(job.domain.extents)
                report.errors.append(float(np.abs(error).mean()))
                if job.criterion:
                    s = job.config.threshold[0]
                    size = (np.abs(error).max() if job.criterion == "sup"
                            else np.sqrt((error ** 2).mean()))
                    hits.setdefault((job.criterion, s), []).append(bool(size <= 4.0 * s))
            else:
                lo, hi = truth.step_box_range(leaves, STEP_HEIGHT, STEP_AT)
                report.errors.append(
                    truth.step_abs_error_sum(leaves, STEP_HEIGHT, STEP_AT) / cells)
            v = leaves.value[:, 0]
            report.expect(((v >= lo) & (v <= hi)).all(),
                          f"{job.label}: a leaf value lies outside the true range of its box")
            report.mesh_bytes += len(mesh.serialize(sub).encode("utf-8"))
        for (kind, s), ok in sorted(hits.items()):
            report.expect(sum(ok) >= CRITERION_RATE * len(ok),
                          f"criterion {kind} s={s:g}: {sum(ok)}/{len(ok)} builds within 4 s")


# -- culling-sweep ------------------------------------------------------------


CULL_GRID = (32, 32)
CULL_DEPTHS = tuple(range(1, 6))
VIEW_CELLS = 8


class CullingSweep:
    """The paper's application: brute force against culling depths on the default scene."""

    def __init__(self, seed: int, workdir: Path):
        self.domain = GridDomain(CULL_GRID)
        self.depths = CULL_DEPTHS
        # Every build keeps seed 0 whatever the run's seed, which picks the view
        # cells and cones.  On these inputs the leaf-mean fault fails the same
        # builds in every run, and with only two visibility meshes a seeded
        # build would swing mean_abs_error by about 15% from seed to seed.
        cost = BuildConfig(threshold=(0.2,), policy=DiameterSampling(0.5), seed=0)
        self.builds = [("brutecost", "scene:default:brutecost", cost)]
        self.builds += [(f"cullcost:depth={d}", f"scene:default:cullcost:depth={d}", cost)
                        for d in self.depths]
        self.builds += [
            ("numvisible", "scene:default:numvisible",
             BuildConfig(threshold=(2.0,), policy=DiameterSampling(0.5), seed=0)),
            ("sides", "scene:default:sides",
             BuildConfig(threshold=(2.0,) * 4, policy=DiameterSampling(0.5), seed=0)),
        ]
        rng = np.random.default_rng(seed)
        self.profiles = {label: resolve_fixture(token, self.domain)
                         for label, token, _ in self.builds}
        cells = rng.choice(self.domain.cell_count, size=VIEW_CELLS, replace=False)
        self.cells = [tuple(int(i) for i in np.unravel_index(c, CULL_GRID)) for c in cells]
        self.cones = [(0.0, 360.0)] + [(90.0 * k, 90.0) for k in range(4)]
        self.cones += [(float(rng.uniform(0.0, 360.0)), float(rng.uniform(10.0, 350.0)))
                       for _ in range(2)]

    def run(self) -> None:
        self.built = {label: builder.build(self.profiles[label], self.domain, config)
                      for label, _, config in self.builds}
        brute = self.built["brutecost"][0]
        culled = [self.built[f"cullcost:depth={d}"][0] for d in self.depths]
        self.maps = [analysis.selection_map([brute, c]) for c in culled]
        self.best, self.table = analysis.parameter_sweep(
            [(float(d), c) for d, c in zip(self.depths, culled)])
        sides = self.built["sides"][0]
        self.views = [[analysis.evaluate_view(sides, self.domain.point(cell), direction, fov)
                       for direction, fov in self.cones] for cell in self.cells]

    def check(self, report: Report, full: bool) -> None:
        leaves = {}
        for label, _, _ in self.builds:
            sub, build_report = self.built[label]
            report.attempted += 1
            lv = leaves[label] = truth.leaves_of_tree(sub)
            _fingerprint_leaves(report, lv)
            _check_counts(report, label, build_report, self.domain.cell_count)
            report.expect(truth.tiles_domain(lv), f"{label}: leaves do not tile the domain")
            outside = truth.outside_range(lv.value, lv.lo_seen, lv.hi_seen)
            if outside.any():
                if (outside == truth.leaf_mean_fault(lv)).all():
                    report.failed.append(f"{label}: {LEAF_MEAN_FAULT}")
                else:
                    report.problems.append(f"{label}: a leaf value lies outside its own "
                                           f"[lo_seen, hi_seen] beyond rounding")
            elif label == "brutecost":
                polys = sum(obj.polys for obj in scene.default_scene().objects)
                report.expect((lv.value == 4e-6 * polys).all(),
                              "brutecost: a leaf differs from 4e-6 times the polygon total")
        dense = {label: truth.dense(lv) for label, lv in leaves.items()}
        brute = dense["brutecost"][..., 0]
        for d, labels in zip(self.depths, self.maps):
            report.attempted += 1
            lv = truth.leaves_of_tree(labels)
            _fingerprint_leaves(report, lv)
            expected = (brute > dense[f"cullcost:depth={d}"][..., 0]).astype(np.float64)
            report.expect(np.array_equal(truth.dense(lv)[..., 0], expected),
                          f"selection map at depth {d} is not the sign of brute - culled")
        report.attempted += 1
        means = [dense[f"cullcost:depth={d}"].mean() for d in self.depths]
        best = self.depths[int(np.argmin(means))]
        report.fingerprint(np.array([self.best] + [avg[0] for _, avg in self.table]))
        report.expect(self.best == best or
                      math.isclose(means[self.depths.index(int(self.best))], min(means),
                                   rel_tol=1e-12),
                      f"sweep best depth {self.best:g}, dense means give {best}")
        report.expect(all(math.isclose(avg[0], m, rel_tol=1e-9)
                          for (_, avg), m in zip(self.table, means)),
                      "sweep averages differ from the dense means")
        sides = dense["sides"]
        for cell, row in zip(self.cells, self.views):
            report.fingerprint(np.array(row))
            v = sides[cell]
            for (direction, fov), got in zip(self.cones, row):
                report.attempted += 1
                if fov == 360.0:
                    ok = math.isclose(got, v.mean(), rel_tol=1e-12, abs_tol=1e-12)
                elif fov == 90.0:
                    ok = got == v[int(direction // 90.0)]
                else:
                    ok = v.min() - 1e-9 <= got <= v.max() + 1e-9
                report.expect(ok, f"evaluate_view at {cell} cone ({direction:g}, {fov:g}) "
                                  f"gave {got!r} for sides {v.tolist()}")
        if full:
            self._check_against_rays(report, dense)
            for sub, _ in self.built.values():
                report.mesh_bytes += len(mesh.serialize(sub).encode("utf-8"))
            for labels in self.maps:
                report.mesh_bytes += len(mesh.serialize(labels).encode("utf-8"))

    def _check_against_rays(self, report: Report, dense) -> None:
        world = scene.default_scene()
        objects = np.array([o.box for o in world.objects], dtype=np.float64)
        blockers = np.array(world.blockers, dtype=np.float64)
        observers = truth.observer_points(CULL_GRID, world.world)
        total, sides = truth.ray_visible(objects, blockers, world.rays_per_side, observers)
        total = total.reshape(CULL_GRID)
        sides = sides.reshape(CULL_GRID + (4,))
        numvisible, by_side = self.profiles["numvisible"], self.profiles["sides"]
        for index in np.ndindex(*CULL_GRID):
            p = self.domain.point(index)
            report.expect(numvisible.query(p) == (float(total[index]),),
                          f"numvisible at {index} disagrees with the ray caster")
            report.expect(by_side.query(p) == tuple(map(float, sides[index])),
                          f"sides at {index} disagree with the ray caster")
        report.errors.append(float(np.abs(dense["numvisible"][..., 0] - total).mean()))
        report.errors.append(float(np.abs(dense["sides"] - sides).mean()))
        for cell in self.cells:
            at = observers[np.ravel_multi_index(cell, CULL_GRID)]
            p = GridPoint(cell, (float(at[0]), float(at[1])))
            for d in self.depths:
                stats = scene.cull_render(world, scene.CullingConfig(d), p)
                report.expect(stats.classified_visible >= total[cell],
                              f"culling at depth {d} from {cell} classifies "
                              f"{stats.classified_visible} < {total[cell]} ray-visible")


# -- cli-pipeline -------------------------------------------------------------


TABLE_CELLS = 16           # the weight table is TABLE_CELLS x TABLE_CELLS over 256x256
EVAL_CELLS = 16
QUALITY_THRESHOLDS = (2.0, 4.0, 8.0)
EXEC_CELLS = 512
TIMING_WORDS = ("time", "wall", "elapsed", "duration", "second")


class CliPipeline:
    """The CLI as a user runs it, one process per command (or, replayed, one ``cli.main`` each)."""

    def __init__(self, seed: int, workdir: Path, in_process: bool = False):
        self.dir = workdir
        self.in_process = in_process
        self.cache_dir = workdir / "cache"
        self.cache_dir.mkdir()
        rng = np.random.default_rng(seed)
        s1, s2, s3, s4 = (int(v) for v in rng.integers(0, 2**31, size=4))
        cell = 256 / TABLE_CELLS
        self.weights = rng.uniform(0.1, 1.0, size=(TABLE_CELLS, TABLE_CELLS)).round(3)
        (workdir / "table.json").write_text(json.dumps(
            {"extents": [TABLE_CELLS] * 2, "cell_size": [cell, cell],
             "weights": self.weights.tolist()}))
        self.eval_cells = [tuple(int(v) for v in rng.integers(0, 256, size=2))
                           for _ in range(EVAL_CELLS)]
        ramp = ["--fixture", "ramp", "--domain", "256x256", "--threshold", "2"]
        exec_build = ["build", "--exec", "/bin/echo", "--domain", str(EXEC_CELLS),
                      "--threshold", "16", "--policy", "diam", "--jobs", "2", "--seed", str(s4)]
        self.commands = [
            ("build", ["build", *ramp, "--policy", "sup:c=1", "--seed", str(s1), "--out", "a.json"]),
            ("build", ["build", *ramp, "--policy", "diam:0.5", "--seed", str(s2), "--out", "b.json"]),
            ("render", ["render", "a.json", "--out", "a.pgm", "--leaf-csv", "a.csv"]),
            ("diff", ["diff", "a.json", "b.json", "--out", "d.json"]),
            ("avg", ["avg", "a.json", "--dist", "table.json"]),
            ("select", ["select", "--candidates", "a.json", "b.json", "--out", "sel.json"]),
            ("cost", ["cost", "--counts", "a.json", "b.json", "--unit-costs", "4e-6,0.052",
                      "--out", "cost.json"]),
            ("optimize", ["optimize", "--sweep", "1=a.json", "2=b.json"]),
            ("eval", ["eval", "a.json", *(f"{i},{j}" for i, j in self.eval_cells)]),
            ("quality", ["quality", "--fixture", "ramp", "--domain", "64x64", "--thresholds",
                         ",".join(f"{s:g}" for s in QUALITY_THRESHOLDS), "--policy", "sup:c=1",
                         "--seed", str(s3), "--out", "quality.csv"]),
            ("exec_build", [*exec_build, "--out", "e1.json"]),
            ("exec_resume", [*exec_build, "--out", "e2.json"]),
        ]
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.env["MESHPROF_CACHE_DIR"] = str(self.cache_dir)

    def _run_process(self, argv):
        proc = subprocess.run([sys.executable, "-m", "meshprof.cli", *argv], cwd=self.dir,
                              env=self.env, capture_output=True, text=True)
        return proc.returncode, proc.stdout, proc.stderr

    def _run_in_process(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def run(self) -> None:
        self.results = []
        self.seconds: dict[str, float] = {}
        self.cache_after_first = None
        run_one = self._run_in_process if self.in_process else self._run_process
        saved_cwd, saved_cache = os.getcwd(), os.environ.get("MESHPROF_CACHE_DIR")
        if self.in_process:
            os.chdir(self.dir)
            os.environ["MESHPROF_CACHE_DIR"] = str(self.cache_dir)
        try:
            for label, argv in self.commands:
                started = time.perf_counter()
                self.results.append((label, *run_one(argv)))
                self.seconds[label] = self.seconds.get(label, 0.0) + time.perf_counter() - started
                if label == "exec_build":
                    self.cache_after_first = self._cache_entries()
        finally:
            if self.in_process:
                os.chdir(saved_cwd)
                if saved_cache is None:
                    os.environ.pop("MESHPROF_CACHE_DIR", None)
                else:
                    os.environ["MESHPROF_CACHE_DIR"] = saved_cache

    def _cache_entries(self) -> dict:
        entries = {}
        for path in sorted(self.cache_dir.iterdir()):
            entries.update(json.loads(path.read_text())["entries"])
        return entries

    def _mesh(self, name: str) -> truth.LeafArrays:
        return truth.leaves_of_json(json.loads((self.dir / name).read_text()))

    def written(self) -> list[Path]:
        """Every file the commands wrote, sorted; the weight table is an input."""
        return sorted(p for p in self.dir.rglob("*") if p.is_file() and p.name != "table.json")

    def check(self, report: Report, full: bool) -> None:
        stdout = {}
        for label, code, out, err in self.results:
            report.attempted += 1
            stdout.setdefault(label, out)
            report.digest.update(out.encode("utf-8"))
            report.expect(code == 0, f"{label} exited {code}: {err.strip()[-300:]}")
        for path in self.written():
            report.digest.update(path.name.encode("utf-8") + path.read_bytes())
        manifests = {p.name[:-len(".manifest.json")]: json.loads(p.read_text())
                     for p in self.dir.glob("*.manifest.json")}
        quality = [line.split(",") for line in
                   (self.dir / "quality.csv").read_text().splitlines()[1:]]
        for name in ("a.json", "b.json", "e1.json", "e2.json"):
            report.profile_queries += manifests[name]["report"]["distinct_queries"]
        report.profile_queries += sum(int(row[1]) for row in quality)
        if not full:
            return
        for name, doc in manifests.items():
            report.expect(not _timing_keys(doc), f"{name} manifest holds timing fields "
                                                 f"{_timing_keys(doc)}")
        for name in ("a.json", "b.json", "d.json", "sel.json", "cost.json", "e1.json", "e2.json"):
            report.mesh_bytes += (self.dir / name).stat().st_size
        a, b = self._mesh("a.json"), self._mesh("b.json")
        ramp = truth.ramp_grid((256, 256))
        dense_a, dense_b = truth.dense(a)[..., 0], truth.dense(b)[..., 0]
        for name, lv, values in (("a.json", a, dense_a), ("b.json", b, dense_b)):
            stats = manifests[name]["report"]
            report.expect(stats["distinct_queries"] <= min(stats["total_requests"], 256 * 256),
                          f"{name}: more distinct queries than requests or cells")
            report.expect(truth.tiles_domain(lv), f"{name}: leaves do not tile the domain")
            lo, hi = truth.ramp_box_range(lv)
            report.expect(((lv.value[:, 0] >= lo) & (lv.value[:, 0] <= hi)).all(),
                          f"{name}: a leaf value lies outside the true range of its box")
            report.errors.append(float(np.abs(values - ramp).mean()))
        report.expect(np.abs(dense_a - ramp).max() <= 4 * 2.0,
                      "a.json (sup s=2): max error over 4 s")
        report.expect(np.array_equal(truth.dense(self._mesh("d.json"))[..., 0], dense_a - dense_b),
                      "diff is not the cellwise difference")
        weights = truth.table_weights((256, 256), (TABLE_CELLS,) * 2, (256 / TABLE_CELLS,) * 2,
                                      self.weights)
        mean = float((weights * dense_a).sum() / weights.sum())
        report.expect(math.isclose(float(stdout["avg"]), mean, rel_tol=1e-9),
                      f"avg printed {stdout['avg'].strip()}, weighted mean is {mean!r}")
        choice = np.argmin(np.stack([dense_a, dense_b]), axis=0).astype(np.float64)
        report.expect(np.array_equal(truth.dense(self._mesh("sel.json"))[..., 0], choice),
                      "select labels are not the cellwise argmin")
        cost = 4e-6 * dense_a + 0.052 * dense_b
        report.expect(np.allclose(truth.dense(self._mesh("cost.json"))[..., 0], cost,
                                  rtol=1e-12, atol=0.0), "cost is not 4e-6 a + 0.052 b")
        means = [dense_a.mean(), dense_b.mean()]
        picked = float(stdout["optimize"])
        report.expect(picked == 1.0 + int(np.argmin(means)) or
                      math.isclose(means[int(picked) - 1], min(means), rel_tol=1e-12),
                      f"optimize picked {picked:g}, dense means are {means}")
        got = [float(line) for line in stdout["eval"].split()]
        report.expect(got == [float(dense_a[c]) for c in self.eval_cells],
                      "eval values differ from the mesh at their cells")
        self._check_render(report, a, dense_a)
        report.expect(len(quality) == len(QUALITY_THRESHOLDS) and all(
            int(leaves) <= int(distinct) <= min(int(requests), 64 * 64)
            and 0.0 <= float(mean_err) <= float(max_err)
            for _, distinct, requests, leaves, _, mean_err, max_err in quality),
            "quality rows break distinct <= requests, leaves <= distinct or mean <= max")
        self._check_exec(report, manifests)

    def _check_render(self, report: Report, a: truth.LeafArrays, dense_a: np.ndarray) -> None:
        report.expect((self.dir / "a.pgm").read_bytes() == truth.gray_pgm(dense_a),
                      "a.pgm differs from the mesh's grayscale image")
        rows = (self.dir / "a.csv").read_text().splitlines()[1:]
        report.expect(len(rows) == a.count and
                      sorted(float(r.split(",")[4]) for r in rows) == sorted(a.value[:, 0]),
                      "leaf CSV rows differ from the mesh leaves")

    def _check_exec(self, report: Report, manifests) -> None:
        e1 = self._mesh("e1.json")
        report.expect(truth.tiles_domain(e1), "e1.json: leaves do not tile the domain")
        v = e1.value[:, 0]
        report.expect(((v >= e1.lo[:, 0] + 0.5) & (v <= e1.hi[:, 0] - 0.5)).all(),
                      "exec mesh: a leaf value lies outside its box's x range")
        entries = self._cache_entries()
        report.expect(entries and all(vals == [int(lin) + 0.5] for lin, vals in entries.items()),
                      "exec cache entries differ from the cell coordinates")
        report.expect(len(entries) == manifests["e1.json"]["report"]["distinct_queries"],
                      "exec cache does not hold every distinct query")
        report.expect(entries == self.cache_after_first, "the resumed build changed the cache")
        report.expect((self.dir / "e1.json").read_bytes() == (self.dir / "e2.json").read_bytes(),
                      "the resumed build wrote a different mesh")

    def layer_counts(self) -> dict[str, float]:
        """The cli.* per-layer values of this round's command processes."""
        out = {f"cli.{label}_s": seconds for label, seconds in self.seconds.items()}
        cache = list(self.cache_dir.iterdir())
        out["cli.exec_points"] = float(len(self._cache_entries()))
        out["cli.exec_cache_bytes"] = float(sum(p.stat().st_size for p in cache))
        out["cli.output_bytes"] = float(sum(p.stat().st_size for p in self.written()))
        return out


def _timing_keys(doc, path: str = "") -> list[str]:
    found = []
    if isinstance(doc, dict):
        for key, value in doc.items():
            if any(word in key.lower() for word in TIMING_WORDS):
                found.append(path + key)
            found += _timing_keys(value, f"{path}{key}.")
    elif isinstance(doc, list):
        for item in doc:
            found += _timing_keys(item, path)
    return found


WORKLOADS = {
    "analytic-builds": AnalyticBuilds,
    "culling-sweep": CullingSweep,
    "cli-pipeline": CliPipeline,
}
