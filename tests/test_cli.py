"""End-to-end command-line behavior: exit codes, files, manifests, --exec."""

import argparse
import errno
import hashlib
import importlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from itertools import chain
from pathlib import Path

import numpy as np
import pytest

import meshprof.builder
import meshprof.fixtures
from helpers import fake_popen, walk_leaves
from meshprof import cli
from meshprof.builder import BuildConfig, BuildReport, ProfileFunction, SupNormSampling, build
from meshprof.cli import main
from meshprof.domain import GridDomain
from meshprof.fixtures import resolve_fixture
from meshprof.mesh import constant, deserialize, evaluate, serialize, serialize_pieces


HELP = Path(__file__).parent / "data" / "cli_help"


def run(*argv):
    return main(list(argv))


def load_mesh(path):
    return deserialize(path.read_text())


def compact(text: str) -> str:
    """The compact spelling of the JSON mesh ``text``, with the newline a mesh file ends in."""
    return json.dumps(json.loads(text), separators=(",", ":")) + "\n"


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

    @pytest.mark.parametrize("flags, named", [
        (("--oversample", "nan"), "oversample_exponent must be finite"),
        (("--oversample", "inf", "--policy", "sup"), "oversample_exponent must be finite"),
        (("--policy", "sup:c=-1"), "bad --policy 'sup:c=-1': c must be finite and >= 0"),
        (("--policy", "rms:c=inf"), "bad --policy 'rms:c=inf': c must be finite and >= 0"),
        (("--policy", "diam:-3"), "bad --policy 'diam:-3': factor must be finite and >= 0"),
        (("--policy", "diam:nan"), "bad --policy 'diam:nan': factor must be finite"),
        (("--policy", "sup:c=nan"), "bad --policy 'sup:c=nan': c must be finite"),
    ], ids=["oversample-nan", "oversample-inf", "sup-negative", "rms-inf", "diam-negative",
            "diam-nan", "sup-nan"])
    def test_non_finite_or_negative_sampling_is_refused(self, tmp_path, capsys, flags, named):
        out = tmp_path / "m.json"
        assert run("build", "--fixture", "ramp", "--domain", "8x8", "--threshold", "1",
                   *flags, "--out", str(out)) == 2
        assert named in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

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

    def test_scene_build_writes_the_pinned_bytes(self, tmp_path):
        # The SHA-256 of the mesh written, indented, when scene profiles answered one point
        # at a time; batches of a level's cells must write the same document, now compact.
        out = tmp_path / "m.json"
        assert run("build", "--fixture", "scene:default:cullcost:depth=3", "--domain", "32x32",
                   "--threshold", "0.2", "--out", str(out)) == 0
        text = out.read_text(encoding="utf-8")
        assert text == compact(text)
        indented = json.dumps(json.loads(text), indent=2) + "\n"
        assert hashlib.sha256(indented.encode()).hexdigest() == (
            "900a761671c52c0fe46f8ad9c38b20232f040c15dc9901e15342e37e9356c75e")

    def test_a_build_of_samples_near_the_float_range_warns_of_nothing(self, tmp_path, capsys):
        # Their sum overflows; the mean must not, nor warn of it.
        out = tmp_path / "m.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("build", "--fixture", "const:1e308", "--domain", "4x4",
                       "--threshold", "1", "--out", str(out)) == 0
        assert capsys.readouterr().err == f"wrote {out}: 1 leaves, depth 0, 3 distinct queries\n"
        assert evaluate(load_mesh(out), GridDomain((4, 4)).point((3, 3))) == (1e308,)

    def test_vector_fixture_needs_matching_threshold(self, tmp_path):
        code = run("build", "--fixture", "scene:symmetric:sides", "--domain", "8x8",
                   "--threshold", "4", "--out", str(tmp_path / "x.json"))
        assert code == 2  # arity mismatch caught by validation


class TestDomainFlag:
    @pytest.mark.parametrize("command", [
        ["build", "--fixture", "ramp", "--threshold", "1"],
        ["quality", "--fixture", "ramp", "--thresholds", "1"],
    ])
    def test_an_extent_past_int64_exits_2_naming_domain(self, tmp_path, capsys, command):
        out = tmp_path / "m.json"
        assert run(*command, "--domain", "100000000000000000000x2", "--out", str(out)) == 2
        got = capsys.readouterr()
        assert got.out == ""
        assert got.err.startswith("meshprof: bad --domain '100000000000000000000x2': ")
        assert list(tmp_path.iterdir()) == []


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

    def test_eval_checks_every_cell_before_it_prints(self, tmp_path, capsys):
        out = build_fixture(tmp_path, "ramp.json", "ramp")
        capsys.readouterr()
        assert run("eval", str(out), "0,0", "3,4", "90,0", "1,1") == 2
        got = capsys.readouterr()
        assert got.out == ""
        assert got.err == "meshprof: cell index (90, 0) outside extents (8, 8)\n"

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

    def test_a_difference_that_is_not_finite_exits_2_and_writes_nothing(self, tmp_path,
                                                                         capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_mesh(a, constant(GridDomain((4, 4)), (1e308,)))
        write_mesh(b, constant(GridDomain((4, 4)), (-1e308,)))
        assert run("diff", str(a), str(b), "--out", str(tmp_path / "d.json")) == 2
        assert capsys.readouterr().err == (
            "meshprof: a leaf's value at depth 0 is not a finite number;"
            " mesh files hold finite numbers only\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "b.json"]

    def test_a_manifest_hashes_the_input_bytes_the_command_read(self, tmp_path):
        a = build_fixture(tmp_path, "a.json", "ramp")
        b = build_fixture(tmp_path, "b.json", "const:3")
        read = {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in (a, b)}
        # The output replaces an input before the manifest is written.
        assert run("diff", str(a), str(b), "--out", str(a), "--force") == 0
        manifest = json.loads((tmp_path / "a.json.manifest.json").read_text())
        assert hashlib.sha256(a.read_bytes()).hexdigest() != read[str(a)]
        assert manifest["input_hashes"] == read

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

    @pytest.mark.parametrize("table", [
        '{"extents": [1, 1], "cell_size": [Infinity, Infinity], "weights": [[1.0]]}',
        '{"extents": [1, 1], "origin": [-Infinity, 0], "weights": [[1.0]]}',
        '{"extents": [1, 1], "cell_size": [1' + '0' * 400 + ', 1], "weights": [[1.0]]}'])
    def test_avg_refuses_a_table_of_non_finite_origin_or_cell_size(self, tmp_path, capsys,
                                                                    table):
        # The first averaged to 7.84375, the second warned of an invalid cast, and the third,
        # a cell size too large for a float, escaped as an OverflowError.
        out = build_fixture(tmp_path, "ramp.json", "ramp")
        bad = tmp_path / "t.json"
        bad.write_text(table)
        capsys.readouterr()
        assert run("avg", str(out), "--dist", str(bad)) == 2
        err = capsys.readouterr()
        assert err.out == ""
        assert err.err.startswith(f"meshprof: bad weight table {bad}: ")
        assert err.err.count("\n") == 1

    @pytest.mark.parametrize("key, value", [
        ("extents", "22"), ("extents", [2.7, 2.2]), ("cell_size", "44"),
        ("weights", [True, False, True, True]), ("weights", ["1", "2", "3", "4"]),
        ("weights", [1, True, 1, 1])])
    def test_avg_refuses_a_table_field_of_another_type(self, tmp_path, capsys, key, value):
        # Each of these loaded as something else: a string character by character, 2.7 as
        # 2, and JSON true and "1" as numbers.
        out = build_fixture(tmp_path, "ramp.json", "ramp")
        table = {"extents": [2, 2], "cell_size": [4, 4], "weights": [[1, 2], [3, 4.5]]}
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(json.dumps(table))
        bad.write_text(json.dumps({**table, key: value}))
        assert run("avg", str(out), "--dist", str(good)) == 0
        capsys.readouterr()
        assert run("avg", str(out), "--dist", str(bad)) == 2
        err = capsys.readouterr()
        assert err.out == "" and f"bad weight table {bad}: {key} is not an array" in err.err

    @pytest.mark.parametrize("depth", [800, 5000])
    def test_avg_refuses_weights_nested_too_deep(self, tmp_path, capsys, depth):
        # json.loads refuses the deeper one, and the type check the other.
        out = build_fixture(tmp_path, "c.json", "const:5")
        bad = tmp_path / "t.json"
        bad.write_text('{"extents": [2, 2], "weights": ' + "[" * depth + "1" + "]" * depth + "}")
        assert run("avg", str(out), "--dist", str(bad)) == 2
        err = capsys.readouterr()
        assert err.out == "" and f"bad weight table {bad}: " in err.err

    def test_avg_names_a_truncated_table(self, tmp_path, capsys):
        out = build_fixture(tmp_path, "c.json", "const:5")
        bad = tmp_path / "t.json"
        bad.write_text('{"extents": [2, 2],\n')
        assert run("avg", str(out), "--dist", str(bad)) == 2
        err = capsys.readouterr()
        assert err.out == ""
        assert f"bad weight table {bad}" in err.err

    @pytest.mark.parametrize("path, value", [("$.root.samples", 2**64),
                                             ("$.domain.extents[0]", 2**70),
                                             ("$.root.box", 2**63)])
    def test_integer_beyond_int64_exits_2_naming_its_path(self, tmp_path, capsys, path, value):
        bad = build_fixture(tmp_path, "c.json", "const:5")
        doc = json.loads(bad.read_text())
        assert "children" not in doc["root"]
        target = {"$.root.samples": (doc["root"], "samples"),
                  "$.domain.extents[0]": (doc["domain"]["extents"], 0),
                  "$.root.box": (doc["root"]["box"]["hi"], 0)}[path]
        target[0][target[1]] = value
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("avg", str(bad)) == 2
        err = capsys.readouterr()
        assert err.out == "" and err.err.startswith(f"meshprof: {path}: ")

    def test_avg_of_a_one_leaf_mesh_over_2_to_the_40_cells_is_its_value(self, tmp_path, capsys):
        out = tmp_path / "big.json"
        write_mesh(out, constant(GridDomain((2**40,)), (2.5,)))
        capsys.readouterr()
        assert run("eval", str(out), str(2**40 - 1)) == 0
        assert run("avg", str(out)) == 0
        assert capsys.readouterr().out == "2.5\n2.5\n"

    def test_mesh_that_is_not_utf8_is_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff{}")
        assert run("eval", str(bad), "0,0") == 2
        assert f"meshprof: cannot read {bad}: " in capsys.readouterr().err

    def test_weight_table_that_is_not_utf8_is_named(self, tmp_path, capsys):
        out = build_fixture(tmp_path, "c.json", "const:5")
        bad = tmp_path / "t.json"
        bad.write_bytes(b'{"extents": [2, 2], "weights": "\xff"}')
        assert run("avg", str(out), "--dist", str(bad)) == 2
        err = capsys.readouterr()
        assert err.out == ""
        assert f"meshprof: cannot read {bad}: " in err.err


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

    def test_a_cost_that_is_not_finite_exits_2_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "cost.json"
        assert run("cost", "--counts", "1e308", "1e308", "--domain", "4x4",
                   "--unit-costs", "10,10", "--out", str(out)) == 2
        assert "is not a finite number" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("units", ["inf,1", "nan,1", "1,-inf"])
    def test_a_unit_cost_that_is_not_finite_exits_2_and_writes_nothing(self, tmp_path, capsys,
                                                                       units):
        out = tmp_path / "cost.json"
        assert run("cost", "--counts", "1", "1", "--domain", "2x2", "--unit-costs", units,
                   "--out", str(out)) == 2
        got = capsys.readouterr()
        assert got.out == "" and "must be finite and >= 0" in got.err
        assert list(tmp_path.iterdir()) == []

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

    def test_nan_threshold_is_refused(self, capsys):
        assert run("quality", "--fixture", "ramp", "--domain", "8x8",
                   "--thresholds", "2,nan") == 2
        got = capsys.readouterr()
        assert got.out == "" and (
            "--thresholds components must be finite and > 0, got '2,nan'" in got.err)

    @pytest.mark.parametrize("bad", ["inf", "nan", "0", "-1"])
    def test_a_non_finite_or_non_positive_threshold_is_refused(self, tmp_path, capsys, bad):
        out = tmp_path / "q.csv"
        assert run("quality", "--fixture", "ramp", "--domain", "16x16",
                   "--thresholds", f"2,{bad}", "--out", str(out)) == 2
        got = capsys.readouterr()
        assert got.out == "" and not out.exists()
        assert f"--thresholds components must be finite and > 0, got '2,{bad}'" in got.err

    def test_a_bad_oracle_answer_exits_3_naming_its_point(self, monkeypatch, capsys):
        # Only the oracle check asks the profile here: the build is a constant.
        def query(p):
            if p.index == (2, 1):
                raise RuntimeError("oracle down")
            return (float(sum(p.index)),)

        monkeypatch.setattr(meshprof.fixtures, "resolve_fixture",
                            lambda token, dom: ProfileFunction(1, query))
        monkeypatch.setattr(meshprof.builder, "build", lambda f, dom, config: (
            constant(dom, (0.0,)), BuildReport(0, 0, 1, 0, 0, 0.0)))
        assert run("quality", "--fixture", "ramp", "--domain", "4x4", "--thresholds", "2") == 3
        got = capsys.readouterr()
        assert got.out == ""
        assert "profile failure: query at (2, 1) failed: oracle down" in got.err


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

    def test_slice_of_a_mesh_over_the_dense_guard(self, tmp_path):
        # 128**3 cells are past the guard of a million; the slice's 128x128 pixels are not.
        mesh, img = tmp_path / "cube.json", tmp_path / "z0.pgm"
        write_mesh(mesh, constant(GridDomain((128, 128, 128)), (3.0,)))
        assert run("render", str(mesh), "--out", str(img), "--slice", "2=0") == 0
        assert img.read_bytes() == b"P5\n128 128\n255\n" + bytes([128] * 128 * 128)

    def test_image_over_the_dense_guard_is_refused(self, tmp_path, capsys):
        mesh, img = tmp_path / "wide.json", tmp_path / "wide.pgm"
        write_mesh(mesh, constant(GridDomain((1001, 1000)), (3.0,)))
        capsys.readouterr()
        assert run("render", str(mesh), "--out", str(img)) == 2
        assert capsys.readouterr().err == (
            "meshprof: slice has 1001000 pixels, dense guard is 1000000\n")
        assert not img.exists()

    def test_repeated_slice_axis_is_refused(self, tmp_path, capsys):
        mesh = build_fixture(tmp_path, "r3.json", "ramp", domain="4x4x8")
        img = tmp_path / "m.pgm"
        capsys.readouterr()
        assert run("render", str(mesh), "--out", str(img), "--slice", "2=0",
                   "--slice", "2=5") == 2
        assert capsys.readouterr().err == "meshprof: --slice fixes axis 2 twice\n"
        assert list(tmp_path.glob("m.pgm*")) == []

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
        assert walk_leaves(a) == walk_leaves(b)  # identical leaves; metadata names the source
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

    def test_a_cache_directory_that_cannot_be_made_exits_2_before_any_command(
            self, tmp_path, monkeypatch, capsys):
        # It was made by the flush after the build, whose every command had run by then.
        command, log = self.ok_script(tmp_path)
        (tmp_path / "file").write_text("")
        cache_dir = tmp_path / "file" / "cache"
        monkeypatch.setenv("MESHPROF_CACHE_DIR", str(cache_dir))
        out = tmp_path / "m.json"
        assert run("build", "--exec", command, "--domain", "4x4", "--threshold", "0.5",
                   "--policy", "fixed:16", "--out", str(out)) == 2
        assert f"meshprof: cannot make the exec cache directory {cache_dir}: " in (
            capsys.readouterr().err)
        assert not log.exists() and not out.exists()

    def test_a_failed_flush_does_not_hide_the_failing_point(self, tmp_path, monkeypatch,
                                                           capsys):
        # The flush's error used to replace the build's, which then exited 2.
        monkeypatch.setenv("MESHPROF_CACHE_DIR", str(tmp_path / "cache"))

        def answer(argv):
            x, y = map(float, argv[-2:])
            return 1 if (x, y) == (3.5, 3.5) else 0, f"{x + y}\n"

        def flush(path, answered):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(subprocess, "Popen", fake_popen(answer))
        monkeypatch.setattr(cli, "_flush_exec_cache", flush)
        assert run("build", "--exec", "probe", "--domain", "4x4", "--threshold", "0.5",
                   "--policy", "fixed:16", "--out", str(tmp_path / "m.json")) == 3
        err = capsys.readouterr().err
        assert "(3, 3)" in err and "exit status 1" in err and "No space left on device" in err

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

    @pytest.mark.parametrize("text", [
        '{"entries": {"5": [5.5], "05": [99.0]}}',  # used to build with 99.0 at cell 5
        '{"entries": {" 3": [3.5]}}',
        '{"entries": {"+4": [4.5]}}',
        '{"entries": ' + "[" * 100_000 + "]" * 100_000 + "}",  # used to exit 1, uncaught
    ], ids=["05", "space", "plus", "deep"])
    def test_cache_with_a_key_not_as_written_or_too_deep_exits_2(self, tmp_path, monkeypatch,
                                                                capsys, text):
        monkeypatch.setenv("MESHPROF_CACHE_DIR", str(tmp_path / "cache"))
        command, log = self.ok_script(tmp_path)
        out = tmp_path / "m.json"
        args = ["build", "--exec", command, "--domain", "4x4", "--threshold", "0.5",
                "--policy", "fixed:16", "--force", "--out", str(out)]
        assert run(*args) == 0
        out.unlink()
        cache, = (tmp_path / "cache").glob("exec-*.json")
        cache.write_text(text)
        calls = len(log.read_text().splitlines())
        assert run(*args) == 2
        assert f"corrupt exec cache {cache}" in capsys.readouterr().err
        assert not out.exists() and cache.read_text() == text
        assert len(log.read_text().splitlines()) == calls

    @pytest.mark.parametrize("value", ["7", "12", [True], [10 ** 400]])
    def test_cache_entry_that_is_not_an_array_of_numbers_exits_2(self, tmp_path, monkeypatch,
                                                                capsys, value):
        monkeypatch.setenv("MESHPROF_CACHE_DIR", str(tmp_path / "cache"))
        command, log = self.ok_script(tmp_path)
        out = tmp_path / "m.json"
        args = ["build", "--exec", command, "--domain", "4x4", "--threshold", "0.5",
                "--policy", "fixed:16", "--force", "--out", str(out)]
        assert run(*args) == 0
        out.unlink()
        cache, = (tmp_path / "cache").glob("exec-*.json")
        doc = json.loads(cache.read_text())
        doc["entries"]["5"] = value
        cache.write_text(json.dumps(doc))
        calls = len(log.read_text().splitlines())
        assert run(*args) == 2
        assert f"corrupt exec cache {cache}" in capsys.readouterr().err
        assert not out.exists()
        assert len(log.read_text().splitlines()) == calls

    def test_cache_that_is_not_utf8_exits_2_and_names_it(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MESHPROF_CACHE_DIR", str(tmp_path / "cache"))
        command, log = self.ok_script(tmp_path)
        out = tmp_path / "m.json"
        args = ["build", "--exec", command, "--domain", "4x4", "--threshold", "0.5",
                "--policy", "fixed:16", "--force", "--out", str(out)]
        assert run(*args) == 0
        out.unlink()
        cache, = (tmp_path / "cache").glob("exec-*.json")
        cache.write_bytes(cache.read_bytes().replace(b"{", b"\xff{", 1))
        calls = len(log.read_text().splitlines())
        assert run(*args) == 2
        assert f"meshprof: cannot read {cache}: " in capsys.readouterr().err
        assert not out.exists()
        assert len(log.read_text().splitlines()) == calls

    def test_interrupt_keeps_every_answer_so_far(self, tmp_path, monkeypatch):
        # Under --jobs 4, the three commands running when the sixth start is interrupted
        # are waited for and kept.
        for jobs in ("1", "4"):
            cache_dir = tmp_path / f"cache{jobs}"
            monkeypatch.setenv("MESHPROF_CACHE_DIR", str(cache_dir))
            k, calls = 6, []

            def answer(argv):
                calls.append(argv)
                if len(calls) == k:
                    raise KeyboardInterrupt
                x, y = map(float, argv[-2:])
                return 0, f"{x + y}\n"

            popen = fake_popen(answer)
            monkeypatch.setattr(subprocess, "Popen", popen)
            assert run("build", "--exec", "probe", "--domain", "4x4", "--threshold", "0.5",
                       "--policy", "fixed:16", "--jobs", jobs,
                       "--out", str(tmp_path / "m.json")) == 130
            cache, = cache_dir.glob("exec-*.json")
            saved = json.loads(cache.read_text())["entries"]
            answered = {str(np.ravel_multi_index((int(float(x)), int(float(y))), (4, 4))):
                        [float(x) + float(y)] for _, x, y in calls[:k - 1]}
            assert saved == answered and len(saved) == k - 1
            assert not (tmp_path / "m.json").exists()
            assert popen.running == 0 and popen.most == int(jobs)

    def test_a_second_interrupt_kills_and_reaps_the_commands_left(self, tmp_path, monkeypatch):
        # The sixth start is interrupted, then so is the wait for the three commands still
        # running: they are killed and reaped, and the two points collected are kept.
        monkeypatch.setenv("MESHPROF_CACHE_DIR", str(tmp_path / "cache"))
        calls = []

        def answer(argv):
            calls.append(argv)
            if len(calls) == 6:
                popen.interrupted_waits = 1
                raise KeyboardInterrupt
            x, y = map(float, argv[-2:])
            return 0, f"{x + y}\n"

        popen = fake_popen(answer)
        monkeypatch.setattr(subprocess, "Popen", popen)
        assert run("build", "--exec", "probe", "--domain", "4x4", "--threshold", "0.5",
                   "--policy", "fixed:16", "--jobs", "4",
                   "--out", str(tmp_path / "m.json")) == 130
        assert popen.killed == 3 and popen.running == 0
        cache, = (tmp_path / "cache").glob("exec-*.json")
        saved = json.loads(cache.read_text())["entries"]
        started = {str(np.ravel_multi_index((int(float(x)), int(float(y))), (4, 4))):
                   [float(x) + float(y)] for _, x, y in calls[:5]}
        assert len(saved) == 2 and saved.items() <= started.items()

    def test_a_slow_command_holds_one_slot_only(self, tmp_path):
        """Under --jobs 2, the first command runs until the other seven points have
        completed, which they can only do if each is collected as soon as it exits."""
        done, first = tmp_path / "done.txt", tmp_path / "first"
        script = tmp_path / "slow_first.py"
        script.write_text(
            "import os, sys, time\n"
            "try:\n"
            f"    os.close(os.open({str(first)!r}, os.O_CREAT | os.O_EXCL))\n"
            "except FileExistsError:\n"
            f"    open({str(done)!r}, 'a').write(sys.argv[1] + '\\n')\n"
            "else:\n"
            "    end = time.monotonic() + 10\n"
            f"    while not os.path.exists({str(done)!r}) or "
            f"len(open({str(done)!r}).read().split()) < 7:\n"
            "        if time.monotonic() > end:\n"
            "            sys.exit('the other points did not complete')\n"
            "        time.sleep(0.01)\n"
            "print(sys.argv[1])\n"
        )
        assert run("build", "--exec", f"{sys.executable} {script}", "--domain", "8",
                   "--threshold", "1000", "--policy", "fixed:8", "--jobs", "2",
                   "--out", str(tmp_path / "m.json")) == 0

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
        assert sorted(calls) == sorted(f"{i + 0.5},{j + 0.5}" for i in range(4) for j in range(4))

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_a_failed_point_runs_once(self, tmp_path, capsys, jobs):
        log = tmp_path / "calls.txt"
        script = tmp_path / "flaky.py"
        script.write_text(
            "import sys\n"
            "x, y = float(sys.argv[1]), float(sys.argv[2])\n"
            f"open({str(log)!r}, 'a').write(f'{{x}},{{y}}\\n')\n"
            "if (x, y) in ((0.5, 1.5), (3.5, 3.5)):\n"
            "    sys.exit(1)\n"
            "print(x + y)\n"
        )
        assert run("build", "--exec", f"{sys.executable} {script}", "--domain", "4x4",
                   "--threshold", "0.5", "--policy", "fixed:16", "--jobs", jobs,
                   "--out", str(tmp_path / "m.json")) == 3
        assert "(0, 1)" in capsys.readouterr().err  # the first failed point in cell order
        calls = log.read_text().splitlines()
        assert "0.5,1.5" in calls and len(calls) == len(set(calls))

    @pytest.mark.parametrize("jobs, most", [("1", 1), ("2", 2)])
    def test_a_failed_point_stops_the_level(self, tmp_path, capsys, jobs, most):
        # Every call fails: the batch starts no command once one has failed,
        # where it used to run all 128 cells of the root's draw.
        log = tmp_path / "calls.txt"
        script = tmp_path / "failing.py"
        script.write_text(
            "import sys\n"
            f"open({str(log)!r}, 'a').write(sys.argv[1] + '\\n')\n"
            "sys.exit(1)\n"
        )
        assert run("build", "--exec", f"{sys.executable} {script}", "--domain", "256",
                   "--threshold", "1", "--policy", "fixed:128", "--jobs", jobs,
                   "--out", str(tmp_path / "m.json")) == 3
        assert "(169,)" in capsys.readouterr().err  # the first point of the draw
        calls = log.read_text().splitlines()
        assert 1 <= len(calls) <= most and "169.5" in calls

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_repeat_3_writes_the_per_component_median(self, tmp_path, monkeypatch, jobs):
        monkeypatch.setenv("MESHPROF_CACHE_DIR", str(tmp_path / "cache"))
        log = tmp_path / "calls.txt"
        script = tmp_path / "noisy.py"
        # The n-th run at a point prints x + (5, 100, 6)[n] and y * (1, -7, 3)[n], so
        # the componentwise medians, x + 6 and y, come from different runs.
        script.write_text(
            "import os, sys\n"
            "x, y = float(sys.argv[1]), float(sys.argv[2])\n"
            f"log = {str(log)!r}\n"
            "n = open(log).read().split().count(f'{x},{y}') if os.path.exists(log) else 0\n"
            "open(log, 'a').write(f'{x},{y}\\n')\n"
            "print(x + (5, 100, 6)[n], y * (1, -7, 3)[n])\n"
        )
        out = tmp_path / "m.json"
        assert run("build", "--exec", f"{sys.executable} {script}", "--domain", "4x4",
                   "--threshold", "0.5,0.5", "--policy", "fixed:16", "--repeat", "3",
                   "--jobs", jobs, "--out", str(out)) == 0
        sub = load_mesh(out)
        medians = {}
        for index in np.ndindex(4, 4):
            x, y = (i + 0.5 for i in index)
            medians[str(np.ravel_multi_index(index, (4, 4)))] = [x + 6, y]
            assert evaluate(sub, sub.domain.point(index)) == (x + 6, y)
        cache, = (tmp_path / "cache").glob("exec-*.json")
        assert json.loads(cache.read_text())["entries"] == medians
        assert len(log.read_text().split()) == 3 * 16

    @pytest.mark.parametrize("output", ["nan", "inf", "-inf"])
    def test_a_non_finite_output_fails_its_point_and_is_not_stored(
            self, tmp_path, monkeypatch, capsys, output):
        monkeypatch.setenv("MESHPROF_CACHE_DIR", str(tmp_path / "cache"))
        script = tmp_path / "odd.py"
        script.write_text(
            "import sys\n"
            "x, y = float(sys.argv[1]), float(sys.argv[2])\n"
            f"print({output!r} if (x, y) == (1.5, 2.5) else x + y)\n"
        )
        args = ["build", "--exec", f"{sys.executable} {script}", "--domain", "4x4",
                "--threshold", "0.5", "--policy", "fixed:16", "--out", str(tmp_path / "m.json")]
        assert run(*args) == 3
        err = capsys.readouterr().err
        assert "(1, 2)" in err and "non-finite" in err
        cache, = (tmp_path / "cache").glob("exec-*.json")
        assert "6" not in json.loads(cache.read_text())["entries"]
        assert run(*args) == 3  # the cache loads, and the point fails again

    def test_cache_entry_of_the_wrong_arity_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MESHPROF_CACHE_DIR", str(tmp_path / "cache"))
        command, log = self.ok_script(tmp_path)
        out = tmp_path / "m.json"
        args = ["build", "--exec", command, "--domain", "4x4", "--threshold", "0.5",
                "--policy", "fixed:16", "--force", "--out", str(out)]
        assert run(*args) == 0
        out.unlink()
        cache, = (tmp_path / "cache").glob("exec-*.json")
        doc = json.loads(cache.read_text())
        doc["entries"]["5"] = [1.0, 2.0]
        cache.write_text(json.dumps(doc))
        calls = len(log.read_text().splitlines())
        assert run(*args) == 2
        err = capsys.readouterr().err
        assert f"corrupt exec cache {cache}" in err and "2 components" in err
        assert not out.exists()
        assert len(log.read_text().splitlines()) == calls

    def test_a_batch_row_off_every_center_runs_nothing(self, monkeypatch):
        """A row that is no cell's center is left NaN and stores nothing, so that a later
        query of the cell runs the command at its center."""
        monkeypatch.setattr(subprocess, "Popen", fake_popen(lambda argv: (0, f"{argv[-1]}\n")))
        domain, answered = GridDomain((4,)), {}
        profile = cli._exec_profile("probe", domain, 1, 1, 1, answered)
        rows = profile.batch(np.array([[0.7], [1.5]]))
        assert np.isnan(rows[0, 0]) and rows[1, 0] == 1.5
        assert answered == {1: (1.5,)}
        assert profile.query(domain.point((0,))) == (0.5,)

    def test_parallel_runs_store_every_point(self, monkeypatch):
        """Eight children at a time store every point, and none is left uncollected."""
        popen = fake_popen(lambda argv: (0, f"{argv[-1]}\n"))
        monkeypatch.setattr(subprocess, "Popen", popen)
        domain, answered = GridDomain((4096,)), {}
        profile = cli._exec_profile("probe", domain, 1, 1, 8, answered)
        rows = profile.batch(domain.world_from_linear(np.arange(4096)))
        assert answered == {lin: (lin + 0.5,) for lin in range(4096)}
        assert rows[:, 0].tolist() == [lin + 0.5 for lin in range(4096)]
        assert popen.most == 8 and popen.running == 0

    def test_a_command_that_cannot_start_stops_the_batch(self, monkeypatch):
        """A start that raises fails its point like a failed command: no command starts
        after it, the one running is collected, and ``query`` raises the start's error."""
        calls = []

        def answer(argv):
            calls.append(float(argv[-1]))
            if len(calls) == 3:
                raise FileNotFoundError("no such command")
            return 0, f"{argv[-1]}\n"

        popen = fake_popen(answer)
        monkeypatch.setattr(subprocess, "Popen", popen)
        domain, answered = GridDomain((8,)), {}
        profile = cli._exec_profile("probe", domain, 1, 1, 2, answered)
        rows = profile.batch(domain.world_from_linear(np.arange(8)))
        assert calls == [0.5, 1.5, 2.5] and popen.running == 0
        assert answered.keys() == {0, 1, 2} and (answered[0], answered[1]) == ((0.5,), (1.5,))
        assert rows[:2, 0].tolist() == [0.5, 1.5] and np.isnan(rows[2:, 0]).all()
        with pytest.raises(FileNotFoundError, match="no such command"):
            profile.query(domain.point((2,)))

    def test_sigint_under_jobs_2_keeps_every_completed_point(self, tmp_path):
        """Ctrl-C while a level runs in parallel keeps each point whose command completed."""
        cache_dir, log = tmp_path / "cache", tmp_path / "calls.txt"
        script = tmp_path / "slow.py"
        script.write_text(
            "import sys, time\n"
            f"open({str(log)!r}, 'a').write(sys.argv[1] + '\\n')\n"
            "time.sleep(0.05)\n"
            "print(sys.argv[1])\n"
        )
        env = dict(os.environ, MESHPROF_CACHE_DIR=str(cache_dir))
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(cli.__file__).resolve().parents[1])]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        argv = [sys.executable, "-m", "meshprof.cli", "build", "--exec",
                f"{sys.executable} {script}", "--domain", "256", "--threshold", "1000",
                "--policy", "fixed:128", "--jobs", "2", "--out", str(tmp_path / "m.json")]
        child = subprocess.Popen(argv, env=env, start_new_session=True,
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            deadline = time.monotonic() + 60
            while not log.exists() or len(log.read_text().split()) < 20:
                assert child.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
            os.kill(child.pid, signal.SIGINT)
            _, err = child.communicate(timeout=60)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait(timeout=60)
        assert child.returncode == 130, err
        cache, = cache_dir.glob("exec-*.json")
        saved = json.loads(cache.read_text())["entries"]
        logged = log.read_text().split()
        assert saved == {str(int(float(x))): [float(x)] for x in logged}
        assert len(saved) >= 20 and not (tmp_path / "m.json").exists()

        log.unlink()
        script.write_text(script.read_text().replace("time.sleep(0.05)", "pass"))
        rerun = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert rerun.returncode == 0, rerun.stderr
        assert not set(log.read_text().split()) & set(logged)
        assert len(log.read_text().split()) + len(logged) == 128


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


class TestMeshOutputs:
    """Meshes go into their output file piece by piece, never as one whole text."""

    def test_build_and_diff_write_the_v1_text_and_a_newline(self, tmp_path, monkeypatch):
        monkeypatch.setattr("meshprof.mesh._PIECE_CHARS", 1024)  # many pieces per file
        a = build_fixture(tmp_path, "a.json", "ramp", domain="32x32", threshold="2",
                          policy="sup:c=1")
        b = build_fixture(tmp_path, "b.json", "step:4:2", domain="32x32")
        d = tmp_path / "d.json"
        assert run("diff", str(a), str(b), "--out", str(d)) == 0
        for path in (a, d):
            data = path.read_bytes()
            assert len(data) > 10 * 1024
            assert data == (serialize(deserialize(data.decode("utf-8"))) + "\n").encode("utf-8")
            assert data.decode("utf-8") == compact(data.decode("utf-8"))
        assert not list(tmp_path.glob("*.tmp.*"))

    def test_diff_select_and_cost_read_indented_meshes_and_write_compact_ones(self, tmp_path):
        # Meshes written before the writer spelled them compactly, indented, still load, and
        # give the same outputs as their compact spellings.
        a = build_fixture(tmp_path, "a.json", "ramp", domain="16x16", threshold="2")
        b = build_fixture(tmp_path, "b.json", "step:4:2", domain="16x16")
        indented = tmp_path / "indented"
        indented.mkdir()
        for path in (a, b):
            text = json.dumps(json.loads(path.read_text(encoding="utf-8")), indent=2) + "\n"
            assert text.count("\n") > 100
            (indented / path.name).write_text(text, encoding="utf-8")
        written = {}
        for where in (tmp_path, indented):
            x, y = str(where / "a.json"), str(where / "b.json")
            for name, argv in (("d.json", ["diff", x, y]),
                               ("s.json", ["select", "--candidates", x, y]),
                               ("c.json", ["cost", "--counts", x, y, "--unit-costs", "1,2"])):
                assert run(*argv, "--out", str(where / name)) == 0
                written[where, name] = (where / name).read_text(encoding="utf-8")
        for name in ("d.json", "s.json", "c.json"):
            text = written[indented, name]
            assert text == written[tmp_path, name] == compact(text)
            assert text.count("\n") == 1 and len(deserialize(text).levels) > 1

    def test_a_write_that_fails_partway_keeps_the_old_mesh(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("meshprof.mesh._PIECE_CHARS", 1024)
        out = build_fixture(tmp_path, "m.json", "ramp", domain="32x32", threshold="2")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        real = cli.serialize_pieces

        def fails_after_one_piece(sub):
            yield next(real(sub))
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cli, "serialize_pieces", fails_after_one_piece)
        assert run("build", "--fixture", "ramp", "--domain", "32x32", "--threshold", "1",
                   "--force", "--out", str(out)) == 2
        assert f"cannot write {out}" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.fixture(scope="class")
    def ramp_mesh(self):
        """The ramp 256x256 mesh of ``build --policy sup:c=1 --threshold 2``: 2.05 MB of text."""
        domain = GridDomain((256, 256))
        config = BuildConfig(threshold=(2.0,), policy=SupNormSampling(1.0), seed=0)
        return build(resolve_fixture("ramp", domain), domain, config)[0]

    @staticmethod
    def traced_peak(call) -> int:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_writing_a_mesh_holds_a_small_part_of_its_text(self, tmp_path, ramp_mesh,
                                                          monkeypatch):
        monkeypatch.setattr("meshprof.mesh._PIECE_CHARS", 1 << 17)
        size = sum(map(len, serialize_pieces(ramp_mesh)))
        assert size > 15 * (1 << 17)
        out = tmp_path / "m.json"
        args = argparse.Namespace(out=str(out), force=False, argv=["meshprof"])
        peak = self.traced_peak(
            lambda: cli._write_output(args, chain(serialize_pieces(ramp_mesh), ["\n"]), {}, []))
        assert out.stat().st_size == size + 1
        assert peak < size / 4  # joining the text first peaks at about twice its size

    def test_loading_a_mesh_frees_its_document_as_the_tree_grows(self, ramp_mesh):
        text = serialize(ramp_mesh)
        parsed = self.traced_peak(lambda: json.loads(text))
        loaded = []
        peak = self.traced_peak(lambda: loaded.append(deserialize(text)))
        assert loaded == [ramp_mesh]
        # Holding the whole parsed document beside the finished tree peaks at about
        # twice what parsing it alone does; freeing it as the tree grows, 1.02 times.
        assert peak < 1.35 * parsed


class TestParserBasics:
    @pytest.mark.parametrize("argv, name", [(["--help"], "meshprof.txt"),
                                            (["cost", "--help"], "cost.txt")])
    def test_help_text(self, monkeypatch, capsys, argv, name):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exit_info:
            run(*argv)
        assert exit_info.value.code == 0
        assert capsys.readouterr().out == (HELP / name).read_text()

    @pytest.mark.parametrize("argv, name", [
        (["build", "--fixture", "nope", "--domain", "8x8", "--threshold", "1", "--out", "m.json"],
         "unknown_fixture.txt"),
        (["quality", "--fixture", "step:abc", "--domain", "8x8", "--thresholds", "1"],
         "bad_fixture.txt"),
    ])
    def test_a_bad_fixture_token_prints_the_token_grammar(self, tmp_path, monkeypatch, capsys,
                                                          argv, name):
        monkeypatch.chdir(tmp_path)
        assert run(*argv) == 2
        got = capsys.readouterr()
        assert got.out == "" and got.err == (HELP / name).read_text()
        assert list(tmp_path.iterdir()) == []

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


# The names ``meshprof`` exported when its __init__ imported every submodule.
PACKAGE_EXPORTS = {
    "analysis": ["CostModel", "ErrorStats", "Uniform", "UnitCost", "WeightTable", "combine",
                 "cost_estimate", "error_vs_oracle", "evaluate_view", "parameter_profile",
                 "parameter_sweep", "select", "selection_map", "view_weights",
                 "weighted_average"],
    "builder": ["BuildConfig", "BuildReport", "DiameterSampling", "FixedSampling",
                "ProfileFunction", "QueryCache", "RmsSampling", "SupNormSampling", "build",
                "sample_size"],
    "domain": ["GridCuboid", "GridDomain", "GridPoint"],
    "errors": ["MeshFormatError", "MeshprofError", "NonDeterministicProfileError",
               "OutOfDomainError", "ProfileQueryError", "UnsplittableCuboidError"],
    "export": ["leaf_csv", "slice_grid", "write_heatmap", "write_leaf_csv"],
    "mesh": ["Branch", "Leaf", "Subdivision", "constant", "deserialize", "evaluate",
             "leaf_arrays", "serialize", "to_dense"],
}

# Prints the exit status and the meshprof, subprocess and concurrent.futures modules loaded.
IMPORT_PROBE = """
import json, sys
from meshprof import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as e:
    code = e.code
print(json.dumps([code, [m for m in sys.modules
                         if m.split(".")[0] in ("meshprof", "subprocess", "concurrent")]]))
"""

HEAVY = {"meshprof.builder", "meshprof.analysis", "meshprof.fixtures", "meshprof.export",
         "subprocess", "concurrent.futures"}


class TestImports:
    """A command's process imports only the modules that the command runs."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("imports")
        for name, token in (("a.json", "ramp"), ("b.json", "const:3")):
            build_fixture(path, name, token)
        (path / "echo.py").write_text("import sys\nprint(sys.argv[1])\n")
        return path

    def loaded(self, cwd, code: str, *argv) -> set:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(cli.__file__).resolve().parents[1])]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        status, modules = json.loads(proc.stdout.splitlines()[-1])
        assert status == 0, proc.stderr
        return set(modules)

    @pytest.mark.parametrize("argv, heavy", [
        (["--version"], set()),
        (["eval", "a.json", "1,1", "7,0"], set()),
        (["render", "a.json", "--out", "a.pgm", "--leaf-csv", "a.csv", "--force"],
         {"meshprof.export"}),
        (["diff", "a.json", "b.json", "--out", "d.json", "--force"], {"meshprof.analysis"}),
        (["avg", "a.json"], {"meshprof.analysis"}),
        (["select", "--candidates", "a.json", "b.json", "--out", "s.json", "--force"],
         {"meshprof.analysis"}),
        (["cost", "--counts", "a.json", "b.json", "--unit-costs", "1,2", "--out", "c.json",
          "--force"], {"meshprof.analysis"}),
        (["optimize", "--sweep", "1=a.json", "2=b.json"], {"meshprof.analysis"}),
        (["build", "--exec", f"{sys.executable} echo.py", "--domain", "4", "--threshold", "100",
          "--policy", "fixed:2", "--out", "e.json", "--force"],
         {"meshprof.builder", "subprocess"}),
        (["build", "--fixture", "ramp", "--domain", "8x8", "--threshold", "1", "--out", "r.json",
          "--force"], {"meshprof.builder", "meshprof.fixtures"}),
    ])
    def test_a_command_loads_only_what_it_runs(self, workdir, argv, heavy):
        loaded = self.loaded(workdir, IMPORT_PROBE, *argv)
        assert {"meshprof.cli", "meshprof.mesh"} <= loaded
        assert loaded & HEAVY == heavy
        assert "meshprof.fixtures.scene" not in loaded

    def test_importing_the_package_loads_no_submodule(self, tmp_path):
        probe = "import json, sys, meshprof\nprint(json.dumps([0, list(sys.modules)]))"
        assert {m for m in self.loaded(tmp_path, probe) if m.startswith("meshprof")} == {
            "meshprof"}

    def test_every_package_name_is_its_submodule_object(self):
        names = {"__version__"}
        for module, exported in PACKAGE_EXPORTS.items():
            sub = importlib.import_module(f"meshprof.{module}")
            assert getattr(meshprof, module) is sub
            for name in exported:
                assert getattr(meshprof, name) is getattr(sub, name), name
            names.update(exported, [module])
        assert len(names) == 1 + 47 + 6
        assert names <= set(dir(meshprof))
        assert set(meshprof.__all__) == names - {"__version__"}
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            meshprof.nope
