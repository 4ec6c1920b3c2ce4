"""End-to-end command-line behavior: exit codes, files, manifests, --exec."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from meshprof import cli
from meshprof.cli import main
from meshprof.domain import GridDomain
from meshprof.mesh import constant, deserialize, evaluate, serialize


def run(*argv):
    return main(list(argv))


def load_mesh(path):
    return deserialize(path.read_text())


def write_mesh(path, sub):
    path.write_text(serialize(sub) + "\n")


def build_fixture(tmp_path, name, token, domain="8x8", threshold="0.5",
                  policy="fixed:64", extra=()):
    out = tmp_path / name
    code = run("build", "--fixture", token, "--domain", domain,
               "--threshold", threshold, "--policy", policy, "--out", str(out), *extra)
    assert code == 0
    return out


class TestBuild:
    def test_writes_mesh_and_manifest(self, tmp_path, capsys):
        out = build_fixture(tmp_path, "ramp.json", "ramp")
        captured = capsys.readouterr()
        assert captured.out == ""  # stdout stays machine-parseable
        assert "wrote" in captured.err
        sub = load_mesh(out)
        assert evaluate(sub, sub.domain.point((3, 4))) == (8.0,)
        manifest = json.loads((tmp_path / "ramp.json.manifest.json").read_text())
        assert manifest["tool"] == "meshprof"
        assert manifest["command"][0] == "meshprof"
        assert manifest["config"]["domain"] == [8, 8]
        assert manifest["config"]["fixture"] == "ramp"
        assert "wall_time_s" not in manifest["report"]
        assert manifest["outputs"] == sorted(manifest["outputs"])

    def test_refuses_overwrite_without_force(self, tmp_path, capsys):
        out = build_fixture(tmp_path, "m.json", "const:1")
        code = run("build", "--fixture", "const:1", "--domain", "8x8",
                   "--threshold", "0.5", "--out", str(out))
        assert code == 2
        assert "--force" in capsys.readouterr().err
        code = run("build", "--fixture", "const:1", "--domain", "8x8",
                   "--threshold", "0.5", "--out", str(out), "--force")
        assert code == 0

    def test_bad_fixture_token(self, tmp_path, capsys):
        code = run("build", "--fixture", "warpdrive", "--domain", "8x8",
                   "--threshold", "1", "--out", str(tmp_path / "x.json"))
        assert code == 2
        assert "fixture" in capsys.readouterr().err

    def test_bad_domain_and_threshold(self, tmp_path):
        base = ["build", "--fixture", "ramp", "--out", str(tmp_path / "x.json")]
        assert run(*base, "--domain", "8xbroken", "--threshold", "1") == 2
        assert run(*base, "--domain", "8x8", "--threshold", "-1") == 2
        assert run(*base, "--domain", "8x8", "--threshold", "0.5",
                   "--policy", "psychic") == 2

    def test_jobs_below_one_rejected(self, tmp_path):
        for jobs in ("0", "-2"):
            assert run("build", "--fixture", "ramp", "--domain", "4x4", "--threshold", "1",
                       "--jobs", jobs, "--out", str(tmp_path / "m.json")) == 2
        assert not (tmp_path / "m.json").exists()

    def test_repeat_below_one_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MESHPROF_CACHE_DIR", str(tmp_path / "cache"))
        for repeat in ("0", "-1"):
            assert run("build", "--exec", "/bin/echo", "--domain", "8", "--threshold", "100",
                       "--repeat", repeat, "--out", str(tmp_path / "m.json")) == 2
        assert list(tmp_path.iterdir()) == []

    def test_vector_fixture_needs_matching_threshold(self, tmp_path):
        code = run("build", "--fixture", "scene:symmetric:sides", "--domain", "8x8",
                   "--threshold", "4", "--out", str(tmp_path / "x.json"))
        assert code == 2  # arity mismatch caught by validation


class TestEvalDiffAvg:
    def test_eval_prints_one_line_per_cell(self, tmp_path, capsys):
        out = build_fixture(tmp_path, "ramp.json", "ramp")
        assert run("eval", str(out), "0,0", "3,4") == 0
        assert capsys.readouterr().out == "1.0\n8.0\n"

    def test_eval_rejects_bad_cells(self, tmp_path):
        out = build_fixture(tmp_path, "ramp.json", "ramp")
        assert run("eval", str(out), "90,0") == 2
        assert run("eval", str(out), "1,2,3") == 2
        assert run("eval", str(out), "a,b") == 2

    def test_eval_rejects_corrupt_mesh(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"not\": \"a mesh\"}")
        assert run("eval", str(bad), "0,0") == 2
        assert run("eval", str(tmp_path / "missing.json"), "0,0") == 2

    def test_diff_subtracts(self, tmp_path, capsys):
        a = build_fixture(tmp_path, "a.json", "const:5")
        b = build_fixture(tmp_path, "b.json", "const:3")
        out = tmp_path / "d.json"
        assert run("diff", str(a), str(b), "--out", str(out)) == 0
        sub = load_mesh(out)
        assert evaluate(sub, sub.domain.point((0, 0))) == (2.0,)
        manifest = json.loads((tmp_path / "d.json.manifest.json").read_text())
        assert set(manifest["input_hashes"]) == {str(a), str(b)}

    def test_avg_uniform(self, tmp_path, capsys):
        out = build_fixture(tmp_path, "c.json", "const:5")
        assert run("avg", str(out)) == 0
        assert capsys.readouterr().out == "5.0\n"

    def test_avg_with_weight_table(self, tmp_path, capsys):
        out = build_fixture(tmp_path, "step.json", "step:100:2", domain="4x4",
                            policy="fixed:16")
        table = tmp_path / "table.json"
        table.write_text(json.dumps({
            "extents": [2, 2], "cell_size": [2.0, 2.0],
            "weights": [[1.0, 1.0], [0.0, 0.0]],  # keep only x < 2
        }))
        assert run("avg", str(out), "--dist", str(table)) == 0
        assert capsys.readouterr().out == "0.0\n"

    def test_avg_rejects_bad_table(self, tmp_path):
        out = build_fixture(tmp_path, "c.json", "const:5")
        bad = tmp_path / "t.json"
        bad.write_text(json.dumps({"extents": [2, 2], "weights": [1, 2, 3]}))
        assert run("avg", str(out), "--dist", str(bad)) == 2

    @pytest.mark.parametrize("weight", ["NaN", "Infinity", "-Infinity"])
    def test_avg_and_optimize_reject_non_finite_weights(self, tmp_path, capsys, weight):
        out = build_fixture(tmp_path, "c.json", "const:5")
        bad = tmp_path / "t.json"
        bad.write_text('{"extents": [2, 2], "cell_size": [4.0, 4.0], '
                       f'"weights": [1.0, {weight}, 1.0, 1.0]}}')
        assert run("avg", str(out), "--dist", str(bad)) == 2
        assert run("optimize", "--sweep", f"1={out}", "--dist", str(bad)) == 2
        err = capsys.readouterr()
        assert err.out == ""
        assert err.err.count(f"bad weight table {bad}") == 2


class TestCost:
    def test_literal_counts_reproduce_reference_costs(self, tmp_path, capsys):
        assert run("cost", "--counts", "1e6", "100", "--domain", "8x8") == 0
        assert float(capsys.readouterr().out) == pytest.approx(9.2)
        assert run("cost", "--counts", "1e6", "100", "--domain", "8x8",
                   "--model", "parallel") == 0
        assert float(capsys.readouterr().out) == pytest.approx(5.2)

    def test_count_files(self, tmp_path, capsys):
        a = build_fixture(tmp_path, "polys.json", "const:1e6")
        b = build_fixture(tmp_path, "tests.json", "const:100")
        out = tmp_path / "cost.json"
        assert run("cost", "--counts", str(a), str(b), "--out", str(out)) == 0
        assert float(capsys.readouterr().out) == pytest.approx(9.2)
        sub = load_mesh(out)
        assert evaluate(sub, sub.domain.point((0, 0)))[0] == pytest.approx(9.2)

    def test_custom_unit_costs(self, tmp_path, capsys):
        assert run("cost", "--counts", "2", "3", "--domain", "4x4",
                   "--unit-costs", "1.5,10") == 0
        assert float(capsys.readouterr().out) == 33.0

    def test_mixing_literals_and_files_rejected(self, tmp_path):
        a = build_fixture(tmp_path, "a.json", "const:1")
        assert run("cost", "--counts", "5", str(a), "--domain", "4x4") == 2

    def test_literals_need_domain(self):
        assert run("cost", "--counts", "5", "7") == 2


class TestSelect:
    def test_cell_mode_prints_winning_index(self, tmp_path, capsys):
        a = build_fixture(tmp_path, "a.json", "const:5")
        b = build_fixture(tmp_path, "b.json", "const:3")
        assert run("select", "--candidates", str(a), str(b), "--cell", "0,0") == 0
        assert capsys.readouterr().out == "1\n"

    def test_map_mode_writes_labels(self, tmp_path):
        a = build_fixture(tmp_path, "a.json", "const:5")
        b = build_fixture(tmp_path, "b.json", "const:3")
        out = tmp_path / "labels.json"
        assert run("select", "--candidates", str(a), str(b), "--out", str(out)) == 0
        sub = load_mesh(out)
        assert evaluate(sub, sub.domain.point((4, 4))) == (1.0,)

    def test_single_directional_candidate_prints_blend(self, tmp_path, capsys):
        vec = tmp_path / "vec.json"
        write_mesh(vec, constant(GridDomain((4, 4)), (1.0, 2.0, 3.0, 4.0)))
        assert run("select", "--candidates", str(vec), "--view", "45,90",
                   "--cell", "0,0") == 0
        assert capsys.readouterr().out == "1.5\n"

    def test_directional_pair_selects_by_view(self, tmp_path, capsys):
        east = tmp_path / "east.json"
        west = tmp_path / "west.json"
        write_mesh(east, constant(GridDomain((4, 4)), (10.0, 0.0, 0.0, 0.0)))
        write_mesh(west, constant(GridDomain((4, 4)), (0.0, 0.0, 10.0, 0.0)))
        assert run("select", "--candidates", str(east), str(west),
                   "--view", "0,90", "--cell", "2,2") == 0
        assert capsys.readouterr().out == "1\n"

    def test_needs_cell_or_out(self, tmp_path):
        a = build_fixture(tmp_path, "a.json", "const:5")
        assert run("select", "--candidates", str(a)) == 2

    def test_bad_view(self, tmp_path):
        a = build_fixture(tmp_path, "a.json", "const:5")
        assert run("select", "--candidates", str(a), "--cell", "0,0",
                   "--view", "45") == 2


class TestOptimize:
    def test_sweep_prints_argmin_parameter(self, tmp_path, capsys):
        files = []
        for param, value in ((3, 10.0), (4, 8.0), (5, 9.0)):
            f = tmp_path / f"p{param}.json"
            write_mesh(f, constant(GridDomain((4, 4)), (value,)))
            files.append(f"{param}={f}")
        out = tmp_path / "sweep.csv"
        assert run("optimize", "--sweep", *files, "--out", str(out)) == 0
        assert capsys.readouterr().out == "4.0\n"
        rows = out.read_text().splitlines()
        assert rows[0] == "param,avg_0"
        assert rows[1:] == ["3.0,10.0", "4.0,8.0", "5.0,9.0"]

    def test_param_axis_mode_prints_per_cell_argmin(self, tmp_path, capsys):
        mesh = build_fixture(tmp_path, "sq.json", "sqdiff", domain="8x8")
        assert run("optimize", str(mesh), "--param-axis", "1") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "cell_0,best_param_index"
        assert lines[1:] == [f"{i},{i}" for i in range(8)]

    def test_param_axis_mode_writes_csv(self, tmp_path, capsys):
        mesh = build_fixture(tmp_path, "sq.json", "sqdiff", domain="8x8")
        out = tmp_path / "best.csv"
        assert run("optimize", str(mesh), "--param-axis", "1",
                   "--out", str(out)) == 0
        assert out.read_text() == capsys.readouterr().out
        assert (tmp_path / "best.csv.manifest.json").exists()

    def test_requires_exactly_one_mode(self, tmp_path):
        mesh = build_fixture(tmp_path, "sq.json", "sqdiff", domain="8x8")
        assert run("optimize", str(mesh)) == 2
        assert run("optimize", str(mesh), "--param-axis", "1",
                   "--sweep", f"1={mesh}") == 2

    def test_bad_sweep_entry(self, tmp_path):
        assert run("optimize", "--sweep", "nope") == 2
        assert run("optimize", "--sweep", "x=9") == 2


class TestQuality:
    def test_threshold_curves(self, tmp_path, capsys):
        out = tmp_path / "q.csv"
        assert run("quality", "--fixture", "ramp", "--domain", "32x32",
                   "--thresholds", "2,8,64", "--out", str(out)) == 0
        stdout = capsys.readouterr().out
        assert out.read_text() == stdout
        rows = [line.split(",") for line in stdout.splitlines()]
        assert rows[0][0:2] == ["threshold", "distinct_queries"]
        distinct = [int(r[1]) for r in rows[1:]]
        errors = [float(r[5]) for r in rows[1:]]
        assert distinct == sorted(distinct, reverse=True)
        assert distinct[0] > distinct[-1]
        assert errors == sorted(errors)


class TestRender:
    def test_writes_image_sidecar_and_csv(self, tmp_path):
        mesh = build_fixture(tmp_path, "ramp.json", "ramp")
        img = tmp_path / "map.pgm"
        csv = tmp_path / "leaves.csv"
        assert run("render", str(mesh), "--out", str(img), "--leaf-csv", str(csv)) == 0
        assert img.read_bytes().startswith(b"P5\n8 8\n255\n")
        sidecar = json.loads((tmp_path / "map.pgm.json").read_text())
        assert sidecar["min"] == 1.0 and sidecar["max"] == 15.0
        assert csv.read_text().startswith("lo_0,lo_1,hi_0,hi_1,value_0")

    def test_three_axis_mesh_needs_slice(self, tmp_path, capsys):
        mesh = build_fixture(tmp_path, "r3.json", "ramp", domain="4x4x2")
        img = tmp_path / "m.pgm"
        assert run("render", str(mesh), "--out", str(img)) == 2
        assert run("render", str(mesh), "--out", str(img), "--slice", "2=1") == 0
        assert img.read_bytes().startswith(b"P6" if False else b"P5\n4 4\n255\n")

    def test_diverging_palette_on_difference(self, tmp_path):
        a = build_fixture(tmp_path, "a.json", "const:5")
        b = build_fixture(tmp_path, "b.json", "ramp")
        d = tmp_path / "d.json"
        assert run("diff", str(a), str(b), "--out", str(d)) == 0
        img = tmp_path / "diff.ppm"
        assert run("render", str(d), "--out", str(img), "--palette", "diverging") == 0
        assert img.read_bytes().startswith(b"P6\n8 8\n255\n")

    def test_bad_slice_syntax(self, tmp_path):
        mesh = build_fixture(tmp_path, "ramp.json", "ramp")
        assert run("render", str(mesh), "--out", str(tmp_path / "m.pgm"),
                   "--slice", "axis-two") == 2


class TestExec:
    @staticmethod
    def ok_script(tmp_path, log_name="calls.txt"):
        log = tmp_path / log_name
        script = tmp_path / "probe.py"
        script.write_text(
            "import sys\n"
            "x, y = float(sys.argv[1]), float(sys.argv[2])\n"
            f"open({str(log)!r}, 'a').write(f'{{x}},{{y}}\\n')\n"
            "print(x + y)\n"
        )
        return f"{sys.executable} {script}", log

    def test_exec_matches_equivalent_fixture(self, tmp_path):
        command, _ = self.ok_script(tmp_path)
        via_exec = tmp_path / "exec.json"
        assert run("build", "--exec", command, "--domain", "8x8",
                   "--threshold", "0.5", "--policy", "fixed:64",
                   "--out", str(via_exec)) == 0
        via_fixture = build_fixture(tmp_path, "fixture.json", "ramp")
        a, b = load_mesh(via_exec), load_mesh(via_fixture)
        assert a.root == b.root  # identical trees; metadata names the source
        assert a.domain == b.domain

    def test_repeat_runs_each_point_three_times(self, tmp_path):
        command, log = self.ok_script(tmp_path)
        assert run("build", "--exec", command, "--domain", "4x4",
                   "--threshold", "100", "--policy", "fixed:16", "--repeat", "3",
                   "--out", str(tmp_path / "m.json")) == 0
        calls = log.read_text().splitlines()
        assert len(calls) == 3 * 16
        assert {calls.count(c) for c in set(calls)} == {3}

    def test_failing_command_exits_3_with_the_point(self, tmp_path, capsys):
        script = tmp_path / "flaky.py"
        script.write_text(
            "import sys\n"
            "x, y = float(sys.argv[1]), float(sys.argv[2])\n"
            "if (x, y) == (3.5, 3.5):\n"
            "    sys.exit(1)\n"
            "print(x + y)\n"
        )
        code = run("build", "--exec", f"{sys.executable} {script}", "--domain", "4x4",
                   "--threshold", "0.5", "--policy", "fixed:16",
                   "--out", str(tmp_path / "m.json"))
        assert code == 3
        err = capsys.readouterr().err
        assert "(3, 3)" in err and "exit status 1" in err

    def test_unparseable_output_exits_3(self, tmp_path):
        script = tmp_path / "chatty.py"
        script.write_text("print('no numbers here')\n")
        assert run("build", "--exec", f"{sys.executable} {script}", "--domain", "4x4",
                   "--threshold", "0.5", "--out", str(tmp_path / "m.json")) == 3

    def test_cache_resume_skips_answered_points(self, tmp_path, monkeypatch):
        cache_dir = tmp_path / "cache"
        monkeypatch.setenv("MESHPROF_CACHE_DIR", str(cache_dir))
        log1 = tmp_path / "log1.txt"
        log2 = tmp_path / "log2.txt"
        flaky = tmp_path / "probe.py"

        def script_body(log, fail):
            return (
                "import sys\n"
                "x, y = float(sys.argv[1]), float(sys.argv[2])\n"
                f"open({str(log)!r}, 'a').write(f'{{x}},{{y}}\\n')\n"
                + ("if (x, y) == (3.5, 3.5):\n    sys.exit(1)\n" if fail else "")
                + "print(x + y)\n"
            )

        command = f"{sys.executable} {flaky}"
        args = ["build", "--exec", command, "--domain", "4x4", "--threshold", "0.5",
                "--policy", "fixed:16", "--out", str(tmp_path / "m.json")]

        flaky.write_text(script_body(log1, fail=True))
        assert run(*args) == 3
        cache_files = list(cache_dir.glob("exec-*.json"))
        assert len(cache_files) == 1
        saved = json.loads(cache_files[0].read_text())["entries"]
        assert len(saved) == len(log1.read_text().splitlines()) - 1  # all but the failure

        flaky.write_text(script_body(log2, fail=False))
        assert run(*args) == 0
        first = set(log1.read_text().splitlines())
        second = set(log2.read_text().splitlines())
        assert first | second >= {f"{i + 0.5},{j + 0.5}" for i in range(4) for j in range(4)}
        assert first & second == {"3.5,3.5"}  # only the failed point is retried

    def test_cache_entry_outside_the_domain_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MESHPROF_CACHE_DIR", str(tmp_path / "cache"))
        command, log = self.ok_script(tmp_path)
        args = ["build", "--exec", command, "--domain", "4x4", "--threshold", "0.5",
                "--policy", "fixed:16", "--force", "--out", str(tmp_path / "m.json")]
        assert run(*args) == 0
        cache, = (tmp_path / "cache").glob("exec-*.json")
        doc = json.loads(cache.read_text())
        doc["entries"]["16"] = [1.0]
        cache.write_text(json.dumps(doc))
        calls = len(log.read_text().splitlines())
        assert run(*args) == 2
        assert "outside" in capsys.readouterr().err
        assert len(log.read_text().splitlines()) == calls

    def test_non_finite_cache_entry_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MESHPROF_CACHE_DIR", str(tmp_path / "cache"))
        command, _ = self.ok_script(tmp_path)
        out = tmp_path / "m.json"
        args = ["build", "--exec", command, "--domain", "4x4", "--threshold", "0.5",
                "--policy", "fixed:16", "--force", "--out", str(out)]
        assert run(*args) == 0
        out.unlink()
        cache, = (tmp_path / "cache").glob("exec-*.json")
        doc = json.loads(cache.read_text())
        doc["entries"]["5"] = [float("nan")]
        cache.write_text(json.dumps(doc))
        assert run(*args) == 2
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("entries", [[], [["5", [1.0]]], "5", 3, None])
    def test_cache_whose_entries_is_not_an_object_exits_2(self, tmp_path, monkeypatch,
                                                         capsys, entries):
        monkeypatch.setenv("MESHPROF_CACHE_DIR", str(tmp_path / "cache"))
        command, _ = self.ok_script(tmp_path)
        out = tmp_path / "m.json"
        args = ["build", "--exec", command, "--domain", "4x4", "--threshold", "0.5",
                "--policy", "fixed:16", "--force", "--out", str(out)]
        assert run(*args) == 0
        out.unlink()
        cache, = (tmp_path / "cache").glob("exec-*.json")
        cache.write_text(json.dumps({"entries": entries}))
        assert run(*args) == 2
        assert f"corrupt exec cache {cache}" in capsys.readouterr().err
        assert not out.exists()

    def test_interrupt_keeps_every_answer_so_far(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MESHPROF_CACHE_DIR", str(tmp_path / "cache"))
        k, calls = 6, []

        def fake_run(argv, **kwargs):
            calls.append(argv)
            if len(calls) == k:
                raise KeyboardInterrupt
            x, y = map(float, argv[-2:])
            return subprocess.CompletedProcess(argv, 0, stdout=f"{x + y}\n", stderr="")

        monkeypatch.setattr(subprocess, "run", fake_run)
        assert run("build", "--exec", "probe", "--domain", "4x4", "--threshold", "0.5",
                   "--policy", "fixed:16", "--out", str(tmp_path / "m.json")) == 130
        cache, = (tmp_path / "cache").glob("exec-*.json")
        saved = json.loads(cache.read_text())["entries"]
        answered = {str(np.ravel_multi_index((int(float(x)), int(float(y))), (4, 4))):
                    [float(x) + float(y)] for _, x, y in calls[:k - 1]}
        assert saved == answered and len(saved) == k - 1
        assert not (tmp_path / "m.json").exists()

    def test_jobs_2_writes_the_same_mesh_and_cache_as_jobs_1(self, tmp_path, monkeypatch):
        command, log = self.ok_script(tmp_path)
        written = []
        for jobs in ("1", "2"):
            cache_dir = tmp_path / f"cache{jobs}"
            monkeypatch.setenv("MESHPROF_CACHE_DIR", str(cache_dir))
            out = tmp_path / f"m{jobs}.json"
            assert run("build", "--exec", command, "--domain", "8x8", "--threshold", "4",
                       "--policy", "diam", "--seed", "3", "--jobs", jobs,
                       "--out", str(out)) == 0
            cache, = cache_dir.glob("exec-*.json")
            written.append((out.read_bytes(), cache.name, cache.read_bytes()))
        assert written[0] == written[1]
        calls = log.read_text().splitlines()
        assert len(calls) == 2 * len(set(calls))  # each point ran once per build

    def test_failure_under_jobs_2_names_its_point_and_keeps_the_rest(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MESHPROF_CACHE_DIR", str(tmp_path / "cache"))
        log = tmp_path / "calls.txt"
        script = tmp_path / "flaky.py"
        script.write_text(
            "import sys\n"
            "x, y = float(sys.argv[1]), float(sys.argv[2])\n"
            f"open({str(log)!r}, 'a').write(f'{{x}},{{y}}\\n')\n"
            "if (x, y) == (3.5, 3.5):\n"
            "    sys.exit(1)\n"
            "print(x + y)\n"
        )
        code = run("build", "--exec", f"{sys.executable} {script}", "--domain", "4x4",
                   "--threshold", "0.5", "--policy", "fixed:16", "--jobs", "2",
                   "--out", str(tmp_path / "m.json"))
        assert code == 3
        err = capsys.readouterr().err
        assert "(3, 3)" in err and "exit status 1" in err
        cache, = (tmp_path / "cache").glob("exec-*.json")
        saved = json.loads(cache.read_text())["entries"]
        assert set(saved) == {str(lin) for lin in range(15)}
        calls = log.read_text().splitlines()
        assert sorted(calls) == sorted(
            [f"{i + 0.5},{j + 0.5}" for i in range(4) for j in range(4)] + ["3.5,3.5"])


class TestDeterminism:
    PIPELINE_FILES = ("mesh.json", "mesh.json.manifest.json", "map.pgm",
                      "map.pgm.json", "quality.csv")

    def run_pipeline(self, workdir, monkeypatch):
        monkeypatch.chdir(workdir)
        assert run("build", "--fixture", "ramp", "--domain", "16x16",
                   "--threshold", "2", "--seed", "7", "--out", "mesh.json") == 0
        assert run("render", "mesh.json", "--out", "map.pgm") == 0
        assert run("quality", "--fixture", "ramp", "--domain", "16x16",
                   "--thresholds", "2,8", "--out", "quality.csv") == 0

    def test_identical_runs_produce_identical_bytes(self, tmp_path, monkeypatch):
        one, two = tmp_path / "one", tmp_path / "two"
        one.mkdir(), two.mkdir()
        self.run_pipeline(one, monkeypatch)
        self.run_pipeline(two, monkeypatch)
        for name in self.PIPELINE_FILES:
            assert (one / name).read_bytes() == (two / name).read_bytes(), name


class TestParserBasics:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run("--version")
        assert exit_info.value.code == 0
        assert "meshprof" in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run("frobnicate")
        assert exit_info.value.code == 2

    def test_interrupt_exits_130_with_one_line(self, tmp_path, monkeypatch, capsys):
        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_cmd_eval", interrupted)
        assert run("eval", str(tmp_path / "m.json"), "0,0") == 130
        captured = capsys.readouterr()
        assert captured.err == "meshprof: interrupted\n" and captured.out == ""

    @pytest.mark.skipif(
        shutil.which("meshprof") is None,
        reason="no `meshprof` console script on PATH: the package is not installed")
    def test_console_script_is_installed(self):
        proc = subprocess.run(["meshprof", "--version"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("meshprof")

    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "m.json"
        proc = subprocess.run(
            [sys.executable, "-m", "meshprof.cli", "build", "--fixture", "const:2",
             "--domain", "4x4", "--threshold", "1", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert out.exists()
