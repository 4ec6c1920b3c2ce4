"""One round of one workload, in a process of its own.

Started by run.py; prints one JSON line with the round's measurements.  A
fresh process per round keeps the scene fixture's per-process memo caches
cold, and its start counts in set-up time like any user's run would.  A
``pace.Pacer`` samples the host's speed from the start of ``main`` to the end
of the timed part; its slices are taken out of ``setup_s`` and ``wall_s``.

    python3 meshbench/worker.py --workload NAME --seed N --spawned T
        [--full] [--setup-only] [--trace PATH] [--in-process]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

from pace import Pacer  # noqa: E402


def import_meshprof_from_src():
    """Import meshprof from this repository's src, or exit 2 saying why not."""
    sys.path.insert(0, str(SRC))
    try:
        import meshprof
    except ImportError as e:
        sys.exit(f"meshbench: cannot import meshprof from {SRC}: {e}")
    origin = Path(meshprof.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        sys.exit(f"meshbench: imported meshprof from {origin}, not from {SRC}; "
                 f"refusing to time another copy")
    return meshprof


def main(argv=None) -> None:
    pacer = Pacer()
    pacer.start()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    parser.add_argument("--full", action="store_true", help="run every check, not only counts")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop where the timed part would start; report set-up time only")
    parser.add_argument("--trace", help="record spans in the timed part and write them here")
    parser.add_argument("--in-process", action="store_true",
                        help="cli-pipeline: replay the commands through meshprof.cli.main")
    args = parser.parse_args(argv)

    import_meshprof_from_src()
    import tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    workdir = HERE / "_runs" / f"{args.workload}-{os.getpid()}"
    kind = workloads.WORKLOADS[args.workload]
    try:
        workdir.mkdir(parents=True)
        work = kind(args.seed, workdir, **({"in_process": True} if args.in_process else {}))
        started = time.monotonic()
        in_setup = pacer.spent()
        setup = started - args.spawned - in_setup
        if args.setup_only:
            pacer.stop()
            print(json.dumps({"setup_s": setup, "pace_s": pacer.pace()}))
            return
        if tracer:
            tracer.active = True
        work.run()
        wall = time.monotonic() - started
        pacer.stop()
        wall -= pacer.spent() - in_setup
        # Peak memory of set-up and the timed part, before the checks add theirs.
        # For the CLI, the commands run in child processes; report the largest.
        who = resource.RUSAGE_CHILDREN if args.workload == "cli-pipeline" and \
            not args.in_process else resource.RUSAGE_SELF
        peak_rss_mib = resource.getrusage(who).ru_maxrss / 1024.0
        if tracer:
            tracer.active = False
        report = workloads.Report()
        work.check(report, args.full)
        out = {
            "setup_s": setup,
            "wall_s": wall,
            "pace_s": pacer.pace(),
            "attempted": report.attempted,
            "failed": report.failed,
            "problems": report.problems,
            "profile_queries": report.profile_queries,
            "digest": report.digest.hexdigest(),
            "peak_rss_mib": peak_rss_mib,
        }
        if args.full:
            out["mean_abs_error"] = sum(report.errors) / len(report.errors)
            out["mesh_bytes"] = report.mesh_bytes
        if tracer:
            out["layers"] = tracer.layer_metrics()
            tracer.dump(args.trace)
        if hasattr(work, "layer_counts"):
            out["layers_cli"] = work.layer_counts()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
