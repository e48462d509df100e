"""Fast self-test of the benchmark itself (about 20 s).

    python3 perfbench/selftest.py

For every workload, at the tiny size:
* a traced run emits exactly the per-layer metrics of BENCHMARK.json;
* an untraced run against a reference holding the right digest emits
  exactly the end-to-end metrics and fails nothing;
* the same run against a corrupted digest counts every item as failed.
It also checks that a checkout without src/ makes the benchmark exit
non-zero without a result, and that a traced target missing from spinz
is reported absent instead of failing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))
import onepass  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--size", "tiny", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(proc) -> tuple[dict, dict]:
    """The final result line and the detail line before it."""
    if proc.returncode != 0:
        raise AssertionError(f"benchmark exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.splitlines()
    res, detail = json.loads(lines[-1]), json.loads(lines[-2])
    if set(res) != RESULT_KEYS:
        raise AssertionError(f"result keys {sorted(res)}")
    return res, detail


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise AssertionError(message)


def check_metrics(res: dict, spec: list, label: str) -> None:
    names = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    expect(got == names, f"{label}: metrics {sorted(got)} are not {sorted(names)}")
    for name, m in res["metrics"].items():
        expect(isinstance(m["value"], (int, float)), f"{label}: {name} is not a number")


def check_workload(name: str, bench_spec: dict, workloads) -> None:
    traced, detail = result(bench("--workload", name, "--trace", "1"))
    expect(traced["correct"] and traced["failed"] == 0, f"{name} traced: {detail['problems']}")
    expect(not detail["absent"], f"{name}: absent metrics {detail['absent']}")
    check_metrics(traced, bench_spec["per_layer"], f"{name} traced")

    workload = workloads.WORKLOADS[name]
    entry = workloads.reference_entry(workload, detail["seed"], detail["digest"], detail["info"])
    reference = OUT / "selftest-reference.json"
    reference.write_text(json.dumps({name: {"tiny": entry}}))
    plain, detail = result(bench("--workload", name, "--trace", "0", "--reference", str(reference)))
    expect(detail["reference_checked"], f"{name}: reference was not applied")
    expect(plain["correct"] and plain["failed"] == 0, f"{name}: {detail['problems']}")
    check_metrics(plain, bench_spec["end_to_end"], f"{name} untraced")

    entry["digest"] = "0" * 64
    reference.write_text(json.dumps({name: {"tiny": entry}}))
    bad, detail = result(bench("--workload", name, "--trace", "0", "--reference", str(reference)))
    expect(not bad["correct"], f"{name}: a corrupted digest still reads correct")
    expect(detail["failed_frac"] == 1, f"{name}: corrupted digest gives failed_frac {detail['failed_frac']}")
    print(f"{name}: ok ({len(traced['metrics'])} per-layer, {len(plain['metrics'])} end-to-end metrics)")


def check_without_sources() -> None:
    bare = OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = bench("--workload", "blowup", cwd=bare)
    shutil.rmtree(bare)
    expect(proc.returncode != 0, "a checkout without src/ still exits 0")
    expect(not proc.stdout.strip(), "a checkout without src/ still prints a result")
    print("checkout without src/: exits", proc.returncode)


def check_absent_target() -> None:
    import tracer

    probe = tracer.Tracer()
    targets = tracer.TARGETS
    tracer.TARGETS = targets + (("counting.gone", "spinz.counting", "no_such_function"),)
    try:
        probe.install()
    finally:
        tracer.TARGETS = targets
    expect(probe.absent == ["counting.gone"], f"absent targets {probe.absent}")
    expect(set(probe.metrics()) == set(tracer.LAYER_METRICS), "metrics missing with an absent target")
    print("absent target: reported, not fatal")


def main() -> int:
    bench_spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    onepass.import_spinz()
    import workloads

    OUT.mkdir(exist_ok=True)
    expect(
        [w["name"] for w in bench_spec["workloads"]] == list(workloads.WORKLOADS),
        "BENCHMARK.json and workloads.py name different workloads",
    )
    for name in workloads.WORKLOADS:
        check_workload(name, bench_spec, workloads)
    check_without_sources()
    check_absent_target()
    print("selftest: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
