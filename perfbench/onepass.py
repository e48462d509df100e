"""One timed pass of one workload, in a fresh interpreter.

Started by run.py once per pass, so no in-process spinz cache carries over
from one pass to the next.  Imports spinz from ``src/`` of the checkout
this file lives in, builds the inputs, times ``run`` once, checks the
outputs and prints one JSON object on its last line of standard output.
Set-up and the timed call are timed by the wall clock and also scaled to
the reference host speed by ``speedprobe``.

    python3 perfbench/onepass.py --workload blowup --seed 20240901 \
        --size full --trace 0 --started <time.monotonic() at spawn>
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from speedprobe import Mark, SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def import_spinz():
    """Import spinz from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import spinz
    except ImportError as exc:
        sys.exit(f"cannot import spinz from {SRC}: {exc}")
    origin = Path(spinz.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        sys.exit(f"spinz was imported from {origin}, not from {SRC}")
    return spinz


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="default: the workload's reference seed")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--started", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--reference", type=Path, required=True)
    parser.add_argument("--index", type=int, default=0,
                        help="number of this pass within its run; names the spans file")
    args = parser.parse_args(argv)

    probe = SpeedProbe()
    probe.start()
    import_spinz()
    import numpy

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        sys.exit(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    seed = workload.default_seed if args.seed is None else args.seed
    reference = json.loads(args.reference.read_text()) if args.reference.is_file() else {}
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(namespaces=[workloads])
    OUT.mkdir(exist_ok=True)
    inputs = workload.setup(seed, args.size, OUT)

    setup_s = time.monotonic() - args.started
    setup_mark = probe.mark()
    start = time.perf_counter()
    results = workload.run(inputs)
    wall_s = time.perf_counter() - start
    run_mark = probe.mark()
    probe.stop()
    scaled_setup_s, setup_speed = probe.scale(setup_s, Mark(), setup_mark)
    scaled_wall_s, host_speed = probe.scale(wall_s, setup_mark, run_mark)
    if tracer is not None:
        tracer.enabled = False  # the output checks below are not the workload
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    entry = workloads.reference_for(reference, workload, args.size, seed)
    checked = workload.check(inputs, results, entry)
    doc = {
        "seed": seed,
        "wall_s": wall_s,
        "setup_s": setup_s,
        "scaled_wall_s": scaled_wall_s,
        "scaled_setup_s": scaled_setup_s,
        "host_speed": host_speed,
        "setup_host_speed": setup_speed,
        "probes": run_mark.count - setup_mark.count,
        "peak_rss_mb": peak_rss_mb,
        "attempted": checked.attempted,
        "failed": checked.failed,
        "messages": checked.messages,
        "digest": checked.digest,
        "reference_checked": entry is not None,
        "info": checked.info,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        doc["layers"] = tracer.metrics()
        doc["absent"] = tracer.absent_metrics()
        doc["spans"] = len(tracer.spans)
        tracer.write_spans(OUT / f"spans-{args.workload}-{seed}-pass{args.index}.jsonl")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
