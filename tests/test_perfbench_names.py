"""The spinz names the committed benchmark reads, resolved as it resolves them.

``perfbench/tracer.py`` wraps its ``TARGETS`` and ``CLEARED_INTS`` by
name, and ``perfbench/workloads.py`` imports from spinz; only the
benchmark's own self-test runs them.  This test reads those names from
the benchmark's sources, so a change to spinz that drops or moves one
fails here, in the fast suite.  So does a change to what the tracer's
hooks read of a wrapped call's arguments and result.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import spinz
import spinz.blowup as blowup_mod
from spinz.counting import partition_kab
from spinz.graphs import cycle_graph
from spinz.harness import sample_weights
from spinz.weights import WeightSystem, restrict_to_edge

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _assigned(path: Path, name: str):
    """The literal value assigned to ``name`` at the top of the file."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} assigns no {name}")


def test_every_traced_target_resolves():
    tracer = PERFBENCH / "tracer.py"
    module_name, leaf = _assigned(tracer, "CLEARED_INTS")
    targets = [*_assigned(tracer, "TARGETS"), ("values._cleared_ints", module_name, leaf)]
    missing = []
    for name, module_name, attr in targets:
        module = sys.modules.get(module_name)  # as Tracer.install looks it up, after import spinz
        owner_name, _, leaf = attr.rpartition(".")
        if owner_name:  # "Cls.meth": the method must be in the class's own namespace
            owner = getattr(module, owner_name, None)
            found = owner is not None and vars(owner).get(leaf) is not None
        else:
            found = getattr(module, leaf, None) is not None
        if not found:
            missing.append(name)
    assert len(targets) > 1
    assert missing == []


def test_every_workload_import_resolves():
    imports = [
        (node.module, alias.name)
        for node in ast.walk(ast.parse((PERFBENCH / "workloads.py").read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "spinz"
        for alias in node.names
    ]
    assert imports
    assert [(m, n) for m, n in imports if not hasattr(importlib.import_module(m), n)] == []
    assert callable(spinz.util.derive_seed)
    assert "threads" in inspect.signature(spinz.run_campaign).parameters


def test_tracer_hooks_read_what_the_traced_calls_pass(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    # wrapped where a traced pass wraps them, so the experiment's own calls reach the hooks
    for leaf in ("sample_subgraph", "count_block_homs"):
        hook = getattr(tracer, f"_after_{leaf}")
        monkeypatch.setattr(blowup_mod, leaf, tracer.wrap(f"blowup.{leaf}", getattr(blowup_mod, leaf), hook))
    g = cycle_graph(4)
    blowup_mod.concentration_experiment(g, WeightSystem.build(g, 2), (1, 2, 1, 2), C=2, trials=2, seed=1)
    inst = restrict_to_edge(g, sample_weights(g, 2, seed=1, style="uniform_edge"), 0, 1)
    tracer.wrap("counting.partition_kab", partition_kab, tracer._after_partition_kab)(inst)
    assert tracer.hook_errors == set()
    assert tracer.calls["blowup.sample_subgraph"] == tracer.calls["blowup.count_block_homs"] == 2
    assert tracer.cells_drawn == tracer.cells_used == 2 * 4 * 2 * 2  # 4 edges of 2 x 2 blocks, 2 trials
    assert len(tracer.kab_keys) == 1
