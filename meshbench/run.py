"""meshprof benchmark: fixed-work workloads, end to end or traced layer by layer.

    python3 meshbench/run.py --workload analytic-builds [--seed 0] [--seconds 25] [--trace 0|1]

A run is a number of identical rounds, each in a fresh process (worker.py).
The number depends only on --seconds (see ``rounds``), never on a clock, so
the same command line always does the same work.  The first round runs every
check; the others must reproduce its outputs exactly.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

With --trace 0 the metrics are the end-to-end ones: medians over rounds for
times and memory, the times scaled to the reference pace (pace.py), and the
per-round counts, which repeat exactly.  With
--trace 1 they are the per-layer ones, from one traced round, plus the
tracing overhead against one untraced round; no end-to-end number comes
from a traced run.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from pace import scaled  # noqa: E402
from worker import SRC, import_meshprof_from_src  # noqa: E402

# Rounds per 25 s of --seconds (README, "Fixed work").
ROUNDS_PER_25_S = 3
WORKLOADS = ("analytic-builds", "culling-sweep", "cli-pipeline")
MIN_ROUNDS = 2
# Set-up is sampled this many times per run: each round, then set-up-only
# processes that stop where the timed part would start.
SETUP_SAMPLES = 7
ROUND_TIMEOUT_S = 170
STARTUP_PROBES = 5

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mib", "MiB"),
              ("profile_queries", "count"), ("mean_abs_error", "value"),
              ("mesh_bytes", "bytes"))


def rounds(seconds: float) -> int:
    return max(MIN_ROUNDS, round(ROUNDS_PER_25_S * seconds / 25.0))


def run_round(workload: str, seed: int, *, full: bool = False, setup_only: bool = False,
              trace: Path | None = None, in_process: bool = False) -> dict:
    """One worker process; its JSON line, or SystemExit if it did not finish."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed)]
    argv += ["--full"] if full else []
    argv += ["--setup-only"] if setup_only else []
    argv += ["--trace", str(trace)] if trace else []
    argv += ["--in-process"] if in_process else []
    spawned = time.monotonic()
    proc = subprocess.run(argv + ["--spawned", repr(spawned)], capture_output=True,
                          text=True, timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"meshbench: {workload} round exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def verdict(results: list[dict]) -> tuple[bool, int, int]:
    """(correct, attempted, failed) over rounds; explains every problem on stderr."""
    problems = [p for r in results for p in r["problems"]]
    first = results[0]
    for i, r in enumerate(results[1:], start=1):
        for key in ("digest", "profile_queries", "attempted", "failed"):
            if r[key] != first[key]:
                problems.append(f"round {i} {key} differs from round 0")
    for reason in sorted(set(f for r in results for f in r["failed"])):
        print(f"failed: {reason}", file=sys.stderr)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    return (not problems, sum(r["attempted"] for r in results),
            sum(len(r["failed"]) for r in results))


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    results = [run_round(workload, seed, full=i == 0) for i in range(rounds(seconds))]
    correct, attempted, failed = verdict(results)
    setups = results + [run_round(workload, seed, setup_only=True)
                        for _ in range(SETUP_SAMPLES - len(results))]
    for i, r in enumerate(setups):
        print(f"round {i}: pace {r['pace_s'] * 1e3:.3f} ms, setup {r['setup_s']:.4f} s"
              + (f", wall {r['wall_s']:.4f} s" if "wall_s" in r else ""), file=sys.stderr)
    values = {key: statistics.median(scaled(r[key], r["pace_s"]) for r in rounds_)
              for key, rounds_ in (("wall_s", results), ("setup_s", setups))}
    values["peak_rss_mib"] = statistics.median(r["peak_rss_mib"] for r in results)
    values.update({key: results[0][key]
                   for key in ("profile_queries", "mean_abs_error", "mesh_bytes")})
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": values[k], "unit": u} for k, u in END_TO_END}}


def cli_startup_s() -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    times = []
    for _ in range(STARTUP_PROBES):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-m", "meshprof.cli", "--version"], env=env,
                       capture_output=True, check=True, timeout=ROUND_TIMEOUT_S)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def traced(workload: str, seed: int) -> dict:
    from tracing import LAYER_METRICS

    traces = HERE / "_traces"
    traces.mkdir(exist_ok=True)
    trace = traces / f"{workload}-seed{seed}-{os.getpid()}.json"
    replay = workload == "cli-pipeline"
    plain = run_round(workload, seed, full=True, in_process=replay)
    spans = run_round(workload, seed, full=True, trace=trace, in_process=replay)
    results = [plain, spans]
    layers = dict(spans["layers"], **{"trace.overhead_s": spans["wall_s"] - plain["wall_s"]})
    if replay:
        # The wrappers see the command lines replayed through meshprof.cli.main;
        # the cli.* times come from the commands' own processes.
        processes = run_round(workload, seed, full=True)
        results.append(processes)
        layers.update(processes["layers_cli"], **{"cli.startup_s": cli_startup_s()})
    correct, attempted, failed = verdict(results)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": float(layers.get(k, 0.0)), "unit": u}
                        for k, u in LAYER_METRICS}}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_meshprof_from_src()
    if args.trace:
        result = traced(args.workload, args.seed)
    else:
        result = end_to_end(args.workload, args.seed, args.seconds)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
