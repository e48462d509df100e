"""spinz benchmark: one command, four workloads, end-to-end or per-layer.

    python3 perfbench/run.py --workload campaign-conj --seed 88 --seconds 30 --trace 0

Each timed pass runs in a fresh interpreter (onepass.py) at threads=1, and
passes repeat until ``--seconds`` is used up (at least three of them).
With ``--trace 0`` it reports the end-to-end metrics, each the median over
passes, with times scaled to a reference host speed (speedprobe.py); with ``--trace 1`` it alternates untraced and traced passes and
reports the per-layer metrics plus the tracing overhead.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The lines before it give every metric with its unit, ``failed_frac``, and
the provenance of the run; the same record goes to
``.perfbench_out/result-<workload>-<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"

sys.path.insert(0, str(HERE))
from tracer import LAYER_METRICS  # noqa: E402

END_TO_END = {"items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
PASS_TIMEOUT_S = 150
# A run must end within 180 s; no pass starts after this point.
LAST_START_S = 100


class PassError(RuntimeError):
    pass


def run_pass(args, trace: int, index: int) -> dict:
    """One pass in a fresh interpreter; returns its JSON record."""
    cmd = [
        sys.executable, str(HERE / "onepass.py"),
        "--workload", args.workload, "--size", args.size,
        "--trace", str(trace), "--reference", str(args.reference), "--index", str(index),
    ]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    started = time.monotonic()
    proc = subprocess.run(
        cmd + ["--started", repr(started)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"pass exited with {proc.returncode}:\n{proc.stderr.strip()}")
    record = json.loads(lines[-1])
    record["process_s"] = time.monotonic() - started
    return record


def run_passes(args) -> tuple[list, list]:
    """Untraced and traced pass records, repeated until the time is up."""
    plain, traced = [], []
    start = time.monotonic()
    while True:
        plain.append(run_pass(args, 0, len(plain)))
        if args.trace:
            traced.append(run_pass(args, 1, len(traced)))
        records = plain + traced
        elapsed = time.monotonic() - start
        per_round = statistics.median(r["process_s"] for r in records) * (2 if args.trace else 1)
        enough = len(traced) >= MIN_TRACED_PASSES if args.trace else len(plain) >= MIN_PASSES
        if enough and (elapsed + per_round > args.seconds or elapsed > LAST_START_S):
            return plain, traced


def end_to_end_metrics(plain: list) -> dict:
    """Times are scaled to the reference host speed (speedprobe.py)."""
    return {
        "items_per_s": statistics.median(r["attempted"] / r["scaled_wall_s"] for r in plain),
        "setup_s": statistics.median(r["scaled_setup_s"] for r in plain),
        # a mean, so equal medians of a discrete KiB figure do not hide change
        "peak_rss_mb": statistics.fmean(r["peak_rss_mb"] for r in plain),
    }


def layer_metrics(plain: list, traced: list, problems: list) -> dict:
    """Counts come from the first traced pass and must repeat exactly in
    every other one; times are medians over traced passes."""
    out = {}
    for name, unit in LAYER_METRICS.items():
        values = [r["layers"][name] for r in traced]
        if unit in ("s", "ms"):
            out[name] = statistics.median(values)
        else:
            if any(v != values[0] for v in values):
                problems.append(f"{name} differs between traced passes: {values}")
            out[name] = values[0]
    out["trace.overhead_s"] = statistics.median(
        r["scaled_wall_s"] for r in traced
    ) - statistics.median(r["scaled_wall_s"] for r in plain)
    return out


def provenance(first: dict) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": first["numpy"],
        "git_commit": commit,
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="spinz benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="default: the workload's reference seed")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a seconds-long version for the self-test")
    parser.add_argument("--reference", type=Path, default=REFERENCE)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "spinz" / "__init__.py").is_file():
        print(f"no spinz sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        plain, traced = run_passes(args)
    except (PassError, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return 1

    records = plain + traced
    seed = records[0]["seed"]
    problems = list(dict.fromkeys(m for r in records for m in r["messages"]))
    digests = sorted({r["digest"] for r in records})
    if len(digests) != 1:
        problems.append(f"passes disagree on the result digest: {digests}")
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if args.trace:
        metrics = layer_metrics(plain, traced, problems)
        units = dict(LAYER_METRICS, **{"trace.overhead_s": "s"})
        absent = sorted({m for r in traced for m in r["absent"]})
    else:
        metrics = end_to_end_metrics(plain)
        units = END_TO_END
        absent = []

    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    print(f"failed_frac {failed / attempted} ratio")
    detail = {
        "workload": args.workload,
        "seed": seed,
        "size": args.size,
        "trace": args.trace,
        "passes": len(plain),
        "traced_passes": len(traced),
        "pass_items_per_s": [r["attempted"] / r["scaled_wall_s"] for r in plain],
        "pass_wall_items_per_s": [r["attempted"] / r["wall_s"] for r in plain],
        "pass_host_speed": [r["host_speed"] for r in plain],
        "failed_frac": failed / attempted,
        "digest": digests[0] if len(digests) == 1 else digests,
        "reference_checked": all(r["reference_checked"] for r in records),
        "absent": absent,
        "problems": problems[:20],
        "info": records[0]["info"],
        "provenance": provenance(records[0]),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    print(json.dumps(detail))
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-{seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=2) + "\n"
    )
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": detail["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
