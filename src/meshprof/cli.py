"""Command-line front end.

Subcommands front exactly one library operation each: ``build`` runs the
adaptive builder over a fixture or an external command, ``eval``/``diff``/
``avg``/``cost``/``select``/``optimize`` expose the analysis algebra, and
``quality``/``render`` produce the error-curve CSVs and heatmap images.

Conventions shared by all subcommands:

* results go to stdout (machine-parseable); diagnostics go to stderr
* exit status 0 on success, 2 on a validation problem (bad flags, malformed
  files, existing outputs without ``--force``), 3 when the profiled quantity
  itself fails (external command crashes, unparseable output, impure profile),
  130 when interrupted by Ctrl-C
* every output file gets a ``<name>.manifest.json`` written atomically next
  to it; re-running the same command on the same inputs reproduces every
  artifact byte for byte
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from itertools import chain

import numpy as np

from . import __version__
from .domain import GridDomain
from .errors import MeshprofError, NonDeterministicProfileError, ProfileQueryError
from .mesh import _leaf_rows, constant, deserialize, serialize_pieces, write_files

# The parser's epilog and the tail of a bad ``--fixture`` token's message.
FIXTURE_HELP = """fixture tokens:
  const:V                     constant V everywhere
  ramp                        sum of world coordinates
  step[:H[:AT]]               0 then H from world x = AT on (defaults 100, domain midpoint)
  spike[:W]                   flat line hiding a tent of support W (default 24)
  tent                        tent peaking at sqrt(L) over a length-L line
  zramp[:EPS]                 zero-mean ramp with slow variance decay (default 0.1)
  sqdiff                      (p - x)^2 over a square input-by-parameter grid
  scene:NAME:QUANTITY[:depth=D][:rays=R]
                              visibility world NAME (default, symmetric, variantN);
                              QUANTITY one of numvisible, sides, polygons, occltests,
                              cullcost, cullcost_sides, brutecost"""

_EXIT_OK = 0
_EXIT_VALIDATION = 2
_EXIT_PROFILE = 3
_EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports a Ctrl-C


class _CliError(Exception):
    """A validation failure: ``main`` reports its message and exits 2."""


# -- Flag parsing helpers --------------------------------------------------


def _parse_domain(text: str) -> GridDomain:
    try:
        extents = tuple(int(part) for part in text.lower().split("x"))
        return GridDomain(extents)
    except ValueError as e:
        raise _CliError(f"bad --domain {text!r}: {e}") from e


def _parse_threshold(text: str, flag: str = "--threshold") -> tuple[float, ...]:
    parts = _parse_floats(text, flag)
    if any(not np.isfinite(p) or p <= 0 for p in parts):
        raise _CliError(f"{flag} components must be finite and > 0, got {text!r}")
    return parts


def _parse_policy(text: str):
    from .builder import DiameterSampling, FixedSampling, RmsSampling, SupNormSampling

    name, _, rest = text.partition(":")
    try:
        if name == "fixed":
            return FixedSampling(int(rest))
        if name == "diam":
            return DiameterSampling(float(rest)) if rest else DiameterSampling()
        if name in ("sup", "rms"):
            c = 1.0
            if rest:
                key, _, val = rest.partition("=")
                if key != "c":
                    raise ValueError(f"unknown option {key!r}")
                c = float(val)
            return SupNormSampling(c) if name == "sup" else RmsSampling(c)
    except ValueError as e:
        raise _CliError(f"bad --policy {text!r}: {e}") from e
    raise _CliError(
        f"unknown policy {text!r}; expected fixed:K, diam[:FACTOR], sup[:c=C] or rms[:c=C]")


def _parse_cell(text: str, ndim: int) -> tuple[int, ...]:
    try:
        index = tuple(int(part) for part in text.split(","))
    except ValueError as e:
        raise _CliError(f"bad cell index {text!r}: {e}") from e
    if len(index) != ndim:
        raise _CliError(f"cell index {text!r} has {len(index)} axes, domain has {ndim}")
    return index


def _parse_floats(text: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as e:
        raise _CliError(f"bad {flag} {text!r}: {e}") from e


def _format_value(value) -> str:
    return " ".join(repr(float(v)) for v in value)


# -- Files, hashes and manifests -------------------------------------------


def _sha256(chunks) -> str:
    import hashlib

    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def _input_hashes(paths) -> dict[str, str]:
    """The SHA-256 of each of ``paths`` that is a regular file, read from disk now."""
    hashes = {}
    for path in filter(os.path.isfile, paths):
        with open(path, "rb") as fh:
            hashes[path] = _sha256(iter(lambda: fh.read(65536), b""))
    return hashes


def _read_text(path: str, hashes: dict | None = None) -> str:
    """The text of ``path``, read as a text-mode open reads it.

    With ``hashes``, the SHA-256 of the bytes read is kept there under ``path``
    if it is a regular file; the bytes are dropped before the caller parses.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        text = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise _CliError(f"cannot read {path}: {e}") from e
    if hashes is not None and os.path.isfile(path):
        hashes[path] = _sha256([data])
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _load_mesh(path: str, hashes: dict | None = None) -> "Subdivision":
    return deserialize(_read_text(path, hashes))


def _fixture_profile(token: str, domain: GridDomain):
    from .fixtures import resolve_fixture

    try:
        return resolve_fixture(token, domain)
    except ValueError as e:
        raise _CliError(f"{e}\n{FIXTURE_HELP}") from e


def _write_atomic(path: str, pieces) -> None:
    """Write the text ``pieces`` to ``path``, encoding each as it comes; all or nothing."""
    try:
        write_files([(path, map(str.encode, pieces))])
    except OSError as e:
        raise _CliError(f"cannot write {path}: {e}") from e


def _manifest_path(out: str) -> str:
    return f"{out}.manifest.json"


def _ensure_writable(paths, force: bool) -> None:
    for path in paths:
        if os.path.exists(path) and not force:
            raise _CliError(f"refusing to overwrite {path} (use --force)")


def _write_manifest(primary_out: str, argv, config: dict, hashes: dict,
                    outputs, report: dict | None = None) -> None:
    doc = {
        "tool": "meshprof",
        "tool_version": __version__,
        "command": list(argv),
        "config": config,
        "input_hashes": hashes,
        "outputs": sorted(outputs),
    }
    if report is not None:
        doc["report"] = report
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    _write_atomic(_manifest_path(primary_out), [text])


def _write_output(args, pieces, config: dict, hashes: dict, report: dict | None = None) -> None:
    """Write ``pieces`` to ``--out`` and its manifest; refuses to overwrite without --force."""
    outputs = [args.out, _manifest_path(args.out)]
    _ensure_writable(outputs, args.force)
    _write_atomic(args.out, pieces)
    _write_manifest(args.out, args.argv, config, hashes, outputs, report)


# -- External-command profiles ---------------------------------------------


def _exec_cache_file(command: str, domain: GridDomain, repeat: int) -> str | None:
    """The ``--exec`` cache file in ``MESHPROF_CACHE_DIR``, made before any command runs."""
    cache_dir = os.environ.get("MESHPROF_CACHE_DIR")
    if not cache_dir:
        return None
    try:
        os.makedirs(cache_dir, exist_ok=True)
    except OSError as e:
        raise _CliError(f"cannot make the exec cache directory {cache_dir}: {e}") from e
    key = json.dumps({
        "command": command,
        "extents": list(domain.extents),
        "origin": list(domain.origin),
        "cell_size": list(domain.cell_size),
        "repeat": repeat,
    }, sort_keys=True)
    name = _sha256([key.encode("utf-8")])[:32]
    return os.path.join(cache_dir, f"exec-{name}.json")


def _load_exec_cache(path: str | None, domain: GridDomain,
                     arity: int) -> dict[int, tuple[float, ...]]:
    if path is None or not os.path.isfile(path):
        return {}
    try:
        entries = json.loads(_read_text(path))["entries"].items()
        answered = {}
        for key, vals in entries:
            # Exact types: a string would load character by character.
            if type(vals) is not list or not all(type(v) in (int, float) for v in vals):
                raise ValueError(f"entry {key} is not an array of numbers: {vals!r}")
            lin, value = int(key), tuple(map(float, vals))
            if key != str(lin):
                raise ValueError(f"entry key {key!r} is not written as the cell index {lin}")
            if not 0 <= lin < domain.cell_count:
                raise ValueError(f"entry {key} lies outside the {domain.cell_count}-cell domain")
            if len(value) != arity:
                raise ValueError(f"entry {key} has {len(value)} components, expected {arity}")
            if not all(map(math.isfinite, value)):
                raise ValueError(f"entry {key} has non-finite value {value}")
            answered[lin] = value
        return answered
    except (AttributeError, KeyError, OverflowError, RecursionError, TypeError, ValueError) as e:
        raise _CliError(f"corrupt exec cache {path}: {e}") from e


def _flush_exec_cache(path: str | None, answered: dict) -> None:
    """Write the answers of ``answered`` to ``path``; its failures stay out."""
    if path is None:
        return
    entries = {str(lin): list(v) for lin, v in sorted(answered.items()) if type(v) is tuple}
    _write_atomic(path, [json.dumps({"entries": entries}, sort_keys=True) + "\n"])


def _exec_profile(command: str, domain: GridDomain, arity: int, repeat: int, jobs: int,
                  answered: dict) -> ProfileFunction:
    """One process invocation per query; arguments are the world coordinates.

    The command prints ``arity`` finite numbers on stdout; with ``repeat > 1``
    it runs that many times per point, one after another, and the componentwise
    median is kept.  A nonzero exit, unusable output or a failed start fails the
    point.  ``answered``, keyed by linear cell index, is the store: each point's
    value, or its error, enters it once its last command exits.  Up to ``jobs``
    commands run at once, each collected as soon as it exits; none starts once a
    point has failed, and however a run ends, the commands still running are
    waited for and their points stored (killed, if that wait is interrupted).
    A failed or unrun cell's batch row is NaN; ``query`` raises its error, or runs it.
    """
    import selectors
    import shlex
    import subprocess
    from collections import deque

    from .builder import ProfileFunction

    argv = shlex.split(command)
    if not argv:
        raise _CliError("--exec command is empty")

    def finish(status: int, stdout: list, stderr: list) -> tuple[float, ...]:
        stdout, stderr = (b"".join(o).decode(errors="replace") for o in (stdout, stderr))
        if status != 0:
            raise RuntimeError(f"exit status {status}; stderr: {stderr.strip()!r}")
        tokens = stdout.split()
        if len(tokens) != arity:
            raise RuntimeError(f"expected {arity} numbers on stdout, got {stdout!r}")
        try:
            value = tuple(float(t) for t in tokens)
        except ValueError:
            raise RuntimeError(f"non-numeric output {stdout!r}") from None
        if not all(map(math.isfinite, value)):
            raise RuntimeError(f"non-finite output {stdout!r}")
        return value

    def run(todo) -> None:
        todo, running, sel = deque(todo), {}, selectors.DefaultSelector()

        def drain(go: bool) -> None:
            # Read whichever pipe has output; a child is collected once both have closed.
            while running or (go and todo):
                if go and todo and len(running) < jobs:
                    (lin, world), runs = todo.popleft(), []
                else:
                    key = sel.select()[0][0]
                    lin, world, runs, out = running[key.data]
                    out[key.fileobj].append(chunk := os.read(key.fd, 1 << 16))
                    if chunk:
                        continue
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
                    if not all(pipe.closed for pipe in out):
                        continue
                    try:
                        runs.append(finish(key.data.wait(), *out.values()))
                    except Exception as e:
                        answered[lin], go = e, False
                    del running[key.data]
                    if len(runs) == repeat:
                        answered[lin] = (runs[0] if repeat == 1
                                         else tuple(np.median(runs, axis=0).tolist()))
                    if lin in answered or not go:
                        continue
                try:
                    child = subprocess.Popen(argv + [repr(float(c)) for c in world],
                                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
                except Exception as e:
                    answered[lin], go = e, False
                    continue
                running[child] = lin, world, runs, {child.stdout: [], child.stderr: []}
                for pipe in (child.stdout, child.stderr):
                    sel.register(pipe, selectors.EVENT_READ, child)

        try:
            drain(True)
        finally:
            try:
                drain(False)
            finally:
                for child in running:  # left only if that wait was interrupted too
                    with child:  # closes its pipes and waits for it
                        child.kill()
                sel.close()

    def query(p) -> tuple[float, ...]:
        lin = int(np.ravel_multi_index(p.index, domain.extents))
        if lin not in answered:
            run([(lin, p.world)])
        if isinstance(answered[lin], Exception):
            raise answered[lin]
        return answered[lin]

    def batch(world: np.ndarray) -> np.ndarray:
        # A row that is no cell's center is left NaN, for ``query``.
        cells = domain.index_from_world(world)
        exact = (cells >= 0).all(axis=1)
        lins = np.ravel_multi_index(tuple(cells[exact].T), domain.extents).tolist()
        run((lin, w) for lin, w in zip(lins, world[exact].tolist()) if lin not in answered)
        out = np.full((len(world), arity), math.nan)
        out[exact] = np.reshape([v if type(v) is tuple else (math.nan,) * arity
                                 for v in map(answered.get, lins)], (-1, arity))
        return out

    name = f"exec:{argv[0]}"
    return ProfileFunction(arity, query, pure=False,
                           name=f"median{repeat}({name})" if repeat > 1 else name, batch=batch)


# -- Subcommands -----------------------------------------------------------


def _cmd_build(args) -> int:
    from .builder import BuildConfig, build

    domain = _parse_domain(args.domain)
    threshold = _parse_threshold(args.threshold)
    policy = _parse_policy(args.policy)
    config = BuildConfig(
        threshold=threshold,
        policy=policy,
        oversample_exponent=args.oversample,
        seed=args.seed,
        min_samples=args.min_samples,
        spread_mode=args.spread_mode,
    )
    if args.jobs < 1:
        raise _CliError(f"--jobs must be >= 1, got {args.jobs}")
    if args.repeat < 1:
        raise _CliError(f"--repeat must be >= 1, got {args.repeat}")
    _ensure_writable([args.out, _manifest_path(args.out)], args.force)

    inputs: list[str] = []
    cache_file = None
    answered: dict = {}
    if args.fixture is not None:
        profile = _fixture_profile(args.fixture, domain)
        source = {"fixture": args.fixture}
    else:
        import shlex

        cache_file = _exec_cache_file(args.exec, domain, args.repeat)
        answered = _load_exec_cache(cache_file, domain, len(threshold))
        profile = _exec_profile(args.exec, domain, len(threshold), args.repeat, args.jobs,
                                answered)
        source = {"exec": args.exec, "repeat": args.repeat}
        head = shlex.split(args.exec)[0]
        if os.path.isfile(head):
            inputs.append(head)

    try:
        # The exec profile fills ``answered`` as its commands complete.
        sub, report = build(profile, domain, config)
    except BaseException:
        # Keep what was answered, however the build ends, so a rerun resumes from it.  The
        # build's own error decides the exit status; a failed write is reported before it.
        try:
            _flush_exec_cache(cache_file, answered)
        except (_CliError, OSError) as e:
            print(f"meshprof: {e}", file=sys.stderr)
        raise
    _flush_exec_cache(cache_file, answered)

    echo = dict(config.echo())
    echo.update(source)
    echo["domain"] = list(domain.extents)
    _write_output(args, chain(serialize_pieces(sub), ["\n"]), echo, _input_hashes(inputs),
                  sub.metadata["stats"])
    print(f"wrote {args.out}: {report.leaf_count} leaves, depth {report.depth}, "
          f"{report.distinct_queries} distinct queries", file=sys.stderr)
    return _EXIT_OK


def _cmd_eval(args) -> int:
    sub = _load_mesh(args.mesh)
    # Every cell is checked before any value is printed.
    cells = [sub.domain.point(_parse_cell(text, sub.domain.ndim)).index for text in args.cells]
    values = np.concatenate([level.value for level in sub.levels])
    rows = _leaf_rows(sub, np.array(cells, dtype=np.int64))
    print("\n".join(map(_format_value, values[rows].tolist())))
    return _EXIT_OK


def _cmd_diff(args) -> int:
    from .analysis import combine

    hashes: dict = {}
    a = _load_mesh(args.a, hashes)
    b = _load_mesh(args.b, hashes)
    _ensure_writable([args.out, _manifest_path(args.out)], args.force)
    diff = combine(a, b, "subtract")
    _write_output(args, chain(serialize_pieces(diff), ["\n"]), {"op": "subtract"}, hashes)
    return _EXIT_OK


def _numbers(value, kinds: tuple, nested: bool = False) -> bool:
    """Whether ``value`` is a JSON array of numbers of the exact types ``kinds``, or with
    ``nested`` of such arrays too: a string or ``true`` is not one."""
    return type(value) is list and all(
        type(v) in kinds or nested and _numbers(v, kinds, nested) for v in value)


def _load_distribution(source: str | None, hashes: dict | None = None):
    from .analysis import Uniform, WeightTable

    if source is None or source == "uniform":
        return Uniform()
    text = _read_text(source, hashes)
    try:
        doc = json.loads(text)
        if type(doc) is not dict:
            raise ValueError(f"expected an object, got {type(doc).__name__}")
        for key, kinds in (("extents", (int,)), ("origin", (int, float)),
                           ("cell_size", (int, float)), ("weights", (int, float))):
            if key in doc and not _numbers(doc[key], kinds, key == "weights"):
                raise ValueError(f"{key} is not an array of "
                                 f"{'integers' if kinds == (int,) else 'numbers'}")
        domain = GridDomain(
            tuple(doc["extents"]),
            tuple(doc["origin"]) if "origin" in doc else None,
            tuple(doc["cell_size"]) if "cell_size" in doc else None,
        )
        weights = np.asarray(doc["weights"], dtype=np.float64).reshape(domain.extents)
        table = WeightTable(domain, tuple(weights.reshape(-1)))
    except (KeyError, OverflowError, RecursionError, TypeError, ValueError) as e:
        raise _CliError(f"bad weight table {source}: {e}") from e
    return table


def _cmd_avg(args) -> int:
    from .analysis import weighted_average

    sub = _load_mesh(args.mesh)
    dist = _load_distribution(args.dist)
    print(_format_value(weighted_average(sub, dist)))
    return _EXIT_OK


def _cmd_cost(args) -> int:
    from .analysis import CostModel, Uniform, UnitCost, cost_estimate, weighted_average

    hashes = {} if args.out else None
    literals, paths = [], []
    for item in args.counts:
        try:
            literals.append(float(item))
        except ValueError:
            paths.append(item)
    if literals and paths:
        raise _CliError("--counts must be all numbers or all subdivision files")
    if literals:
        if args.domain is None:
            raise _CliError("--domain is required when --counts are literal numbers")
        domain = _parse_domain(args.domain)
        counts = [constant(domain, (v,)) for v in literals]
    else:
        counts = [_load_mesh(p, hashes) for p in paths]

    if args.unit_costs is None:
        from .fixtures.scene import DEFAULT_POLY_COST_MS, DEFAULT_TEST_COST_MS
        units = (DEFAULT_POLY_COST_MS, DEFAULT_TEST_COST_MS)
    else:
        units = _parse_floats(args.unit_costs, "--unit-costs")
    model = CostModel(tuple(UnitCost(f"count{i}", u) for i, u in enumerate(units)),
                      combinator=args.model)
    result = cost_estimate(counts, model)
    print(_format_value(weighted_average(result, Uniform())))
    if args.out:
        _write_output(args, chain(serialize_pieces(result), ["\n"]),
                      {"model": args.model, "unit_costs": list(units)}, hashes)
    return _EXIT_OK


def _cmd_select(args) -> int:
    from .analysis import evaluate_view, select, selection_map

    hashes = {} if args.cell is None and args.out else None
    candidates = [_load_mesh(p, hashes) for p in args.candidates]
    view = None
    if args.view is not None:
        pair = _parse_floats(args.view, "--view")
        if len(pair) != 2:
            raise _CliError(f"--view needs DIRECTION,FOV degrees, got {args.view!r}")
        view = (pair[0], pair[1])

    if args.cell is not None:
        p = candidates[0].domain.point(_parse_cell(args.cell, candidates[0].domain.ndim))
        if view is not None and len(candidates) == 1:
            print(repr(evaluate_view(candidates[0], p, view[0], view[1])))
        else:
            index, _ = select(candidates, p, view=view)
            print(index)
        return _EXIT_OK

    if args.out is None:
        raise _CliError("either --cell or --out is required")
    _ensure_writable([args.out, _manifest_path(args.out)], args.force)
    labels = selection_map(candidates, view=view)
    config = {"candidates": list(args.candidates)}
    if view is not None:
        config["view"] = list(view)
    _write_output(args, chain(serialize_pieces(labels), ["\n"]), config, hashes)
    return _EXIT_OK


def _cmd_optimize(args) -> int:
    from .analysis import parameter_profile, parameter_sweep

    if (args.sweep is None) == (args.param_axis is None):
        raise _CliError("exactly one of --sweep or --param-axis is required")
    hashes = {} if args.out else None
    if args.sweep is not None:
        builds = []
        for item in args.sweep:
            param_text, _, path = item.partition("=")
            if not path:
                raise _CliError(f"bad --sweep entry {item!r}; expected PARAM=mesh.json")
            try:
                param = float(param_text)
            except ValueError as e:
                raise _CliError(f"bad parameter in {item!r}: {e}") from e
            builds.append((param, _load_mesh(path, hashes)))
        dist = _load_distribution(args.dist, hashes)
        best, table = parameter_sweep(builds, dist)
        print(repr(best))
        if args.out:
            lines = ["param," + ",".join(f"avg_{i}" for i in range(len(table[0][1])))]
            for param, avg in sorted(table, key=lambda row: row[0]):
                lines.append(",".join([repr(param)] + [repr(v) for v in avg]))
            _write_output(args, ["\n".join(lines) + "\n"],
                          {"sweep": list(args.sweep)}, hashes)
        return _EXIT_OK

    sub = _load_mesh(args.mesh, hashes)
    chosen = parameter_profile(sub, args.param_axis)
    input_axes = [a for a in range(sub.domain.ndim) if a != args.param_axis]
    lines = [",".join(f"cell_{a}" for a in input_axes) + ",best_param_index"]
    for index in np.ndindex(*chosen.shape):
        lines.append(",".join(str(i) for i in index) + f",{int(chosen[index])}")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if args.out:
        _write_output(args, [text], {"param_axis": args.param_axis}, hashes)
    return _EXIT_OK


def _cmd_quality(args) -> int:
    from .analysis import error_vs_oracle
    from .builder import BuildConfig, build

    domain = _parse_domain(args.domain)
    profile = _fixture_profile(args.fixture, domain)
    thresholds = _parse_threshold(args.thresholds, "--thresholds")
    policy = _parse_policy(args.policy)

    lines = ["threshold,distinct_queries,total_requests,leaf_count,depth,"
             "mean_abs_error,max_abs_error"]
    for s in thresholds:
        config = BuildConfig(threshold=(s,) * profile.arity, policy=policy,
                             seed=args.seed)
        sub, report = build(profile, domain, config)
        stats = error_vs_oracle(sub, profile)
        lines.append(",".join([
            repr(s), str(report.distinct_queries), str(report.total_requests),
            str(report.leaf_count), str(report.depth),
            repr(stats.mean_abs), repr(stats.max_abs),
        ]))
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if args.out:
        _write_output(args, [text],
                      {"fixture": args.fixture, "thresholds": list(thresholds),
                       "policy": policy.token(), "seed": args.seed,
                       "domain": list(domain.extents)}, {})
    return _EXIT_OK


def _cmd_render(args) -> int:
    from .export import write_heatmap, write_leaf_csv

    hashes: dict = {}
    sub = _load_mesh(args.mesh, hashes)
    fixed = {}
    for item in args.slice:
        axis_text, _, index_text = item.partition("=")
        try:
            axis, index = int(axis_text), int(index_text)
        except ValueError as e:
            raise _CliError(f"bad --slice {item!r}; expected AXIS=CELL") from e
        if axis in fixed:
            raise _CliError(f"--slice fixes axis {axis} twice")
        fixed[axis] = index
    outputs = [args.out, f"{args.out}.json", _manifest_path(args.out)]
    if args.leaf_csv:
        outputs.append(args.leaf_csv)
    _ensure_writable(outputs, args.force)
    write_heatmap(sub, args.out, palette=args.palette, fixed=fixed or None)
    if args.leaf_csv:
        write_leaf_csv(sub, args.leaf_csv)
    _write_manifest(args.out, args.argv,
                    {"palette": args.palette, "slice": sorted(fixed.items())},
                    hashes, outputs)
    return _EXIT_OK


# -- Parser wiring ---------------------------------------------------------


def _add_output_flags(sub, required: bool = True):
    sub.add_argument("--out", required=required, default=None,
                     help="output file path" + ("" if required else " (optional)"))
    sub.add_argument("--force", action="store_true",
                     help="overwrite existing outputs")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meshprof",
        description="Adaptive piecewise-constant profiling of blackbox quantities "
                    "over grid domains.",
        epilog=FIXTURE_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"meshprof {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("build", help="approximate a profile by an adaptive subdivision")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--fixture", help="built-in ground-truth profile token")
    source.add_argument("--exec", help="external command run once per distinct grid "
                                       "point; world coordinates are appended as "
                                       "arguments and stdout must hold the value")
    p.add_argument("--domain", required=True, help="grid extents, e.g. 64x64 or 32x32x8")
    p.add_argument("--threshold", required=True,
                   help="max sampled spread per leaf; comma-separated per component")
    p.add_argument("--policy", default="diam",
                   help="sample-size policy: fixed:K, diam[:FACTOR], sup[:c=C], rms[:c=C]")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1,
                   help="with --exec: invocations run at once (default 1)")
    p.add_argument("--min-samples", type=int, default=2)
    p.add_argument("--spread-mode", choices=("range", "mean_dev"), default="range")
    p.add_argument("--oversample", type=float, default=2.0,
                   help="exponent on the log oversampling factor")
    p.add_argument("--repeat", type=int, default=1,
                   help="with --exec: invocations per point, median taken")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_build)

    p = commands.add_parser("eval", help="evaluate a stored subdivision at grid cells")
    p.add_argument("mesh")
    p.add_argument("cells", nargs="+", help="cell indices, e.g. 3,17")
    p.set_defaults(handler=_cmd_eval)

    p = commands.add_parser("diff", help="pointwise difference of two subdivisions")
    p.add_argument("a")
    p.add_argument("b")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_diff)

    p = commands.add_parser("avg", help="distribution-weighted average value")
    p.add_argument("mesh")
    p.add_argument("--dist", default="uniform",
                   help="'uniform' or a weight-table JSON file")
    p.set_defaults(handler=_cmd_avg)

    p = commands.add_parser("cost", help="combine count subdivisions into a cost estimate")
    p.add_argument("--counts", nargs="+", required=True,
                   help="count subdivision files, or literal per-cell counts")
    p.add_argument("--model", choices=("sequential", "parallel"), default="sequential")
    p.add_argument("--unit-costs", help="comma-separated cost per count unit, in ms")
    p.add_argument("--domain", help="grid extents for literal counts")
    _add_output_flags(p, required=False)
    p.set_defaults(handler=_cmd_cost)

    p = commands.add_parser("select", help="pick the best candidate per cell or at one cell")
    p.add_argument("--candidates", nargs="+", required=True)
    p.add_argument("--cell", help="evaluate the choice at this cell index only")
    p.add_argument("--view", help="DIRECTION,FOV in degrees for 4-component candidates")
    _add_output_flags(p, required=False)
    p.set_defaults(handler=_cmd_select)

    p = commands.add_parser("optimize", help="best parameter per cell or across builds")
    p.add_argument("mesh", nargs="?", help="subdivision over input x parameter axes")
    p.add_argument("--param-axis", type=int, help="which axis is the parameter")
    p.add_argument("--sweep", nargs="+", metavar="PARAM=MESH",
                   help="average each parameter's subdivision, print the argmin")
    p.add_argument("--dist", default="uniform")
    _add_output_flags(p, required=False)
    p.set_defaults(handler=_cmd_optimize)

    p = commands.add_parser("quality", help="distinct-query and error curves over thresholds")
    p.add_argument("--fixture", required=True)
    p.add_argument("--domain", required=True)
    p.add_argument("--thresholds", required=True, help="comma-separated, e.g. 10,50,100,500")
    p.add_argument("--policy", default="diam")
    p.add_argument("--seed", type=int, default=0)
    _add_output_flags(p, required=False)
    p.set_defaults(handler=_cmd_quality)

    p = commands.add_parser("render", help="write a grayscale or diverging heatmap image")
    p.add_argument("mesh")
    p.add_argument("--palette", choices=("gray", "diverging"), default="gray")
    p.add_argument("--slice", action="append", default=[], metavar="AXIS=CELL",
                   help="fix an axis at a cell index (repeatable)")
    p.add_argument("--leaf-csv", help="also dump the leaves as CSV here")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_render)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    args = parser.parse_args(argv)
    args.argv = ["meshprof"] + list(argv)
    try:
        return args.handler(args)
    except (ProfileQueryError, NonDeterministicProfileError) as e:
        print(f"meshprof: profile failure: {e}", file=sys.stderr)
        return _EXIT_PROFILE
    except (_CliError, MeshprofError, ValueError, OSError) as e:
        print(f"meshprof: {e}", file=sys.stderr)
        return _EXIT_VALIDATION
    except KeyboardInterrupt:
        print("meshprof: interrupted", file=sys.stderr)
        return _EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
