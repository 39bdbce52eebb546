"""The benchmark's own tests: python3 -m pytest perfbench/tests -q"""

import ast
import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import references  # noqa: E402
import spans  # noqa: E402
from kernel import ReferenceKernel  # noqa: E402


def test_reference_kernel_imports_nothing_from_the_program():
    with open(os.path.join(BENCH, "kernel.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert imported <= {"__future__", "time", "numpy"}
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import kernel; "
             "kernel.ReferenceKernel().timed(); "
             "print(sorted(m for m in sys.modules if m.startswith('sigfbsde')))")
    out = subprocess.run([sys.executable, "-c", probe, BENCH], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_reference_kernel_does_the_same_work_every_call():
    kern = ReferenceKernel()
    kern.run()
    first = (kern.mat_out.copy(), kern.normals.copy(), kern.small_out.copy())
    kern.run()
    for before, after in zip(first, (kern.mat_out, kern.normals, kern.small_out)):
        assert (before == after).all()


def _span(name, start, end, parent):
    return [name, start, end, parent, None]


def test_self_times_subtract_direct_children_only():
    tree = [_span("root", 0.0, 10.0, -1),
            _span("a", 1.0, 4.0, 0),
            _span("a.inner", 2.0, 3.0, 1),
            _span("b", 5.0, 9.0, 0)]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0]


def test_per_iteration_splits_train_at_its_seed_derivations():
    tree = [_span("solver.train", 0.0, 10.0, -1),
            _span("solver.init_state", 0.0, 0.5, 0),
            _span("solver.derive_seed", 1.0, 1.5, 0),      # iteration 0: [1, 5)
            _span("engine.product", 2.0, 4.0, 0),
            _span("engine.product", 2.5, 3.0, 3),
            _span("solver.derive_seed", 5.0, 5.5, 0),      # iteration 1: [5, 10)
            _span("engine.product", 6.0, 7.0, 0),
            _span("harness.emit_outputs", 11.0, 12.0, -1)]
    first, found = spans.per_iteration(tree, warmup=0)
    assert found == 2
    # medians over the two iterations
    assert first["engine.product.calls"] == 1.5
    assert first["engine.product.self_ms"] == pytest.approx(1.5e3)
    assert first["engine.product.ms"] == pytest.approx(1.75e3)
    # iteration 0 lasts 4 s, 2.5 s of it under train's direct children: 1.5 s
    # are its own; iteration 1 lasts 5 s with 1.5 s under them: 3.5 s
    assert first["solver.iteration.self_ms"] == pytest.approx(2.5e3)
    last, _ = spans.per_iteration(tree, warmup=1)
    assert last["engine.product.calls"] == 1
    assert last["solver.iteration.self_ms"] == pytest.approx(3.5e3)
    assert "harness.emit_outputs.calls" not in last
    inside = spans.within(tree, "engine.product")
    assert inside == {"engine.product.calls": 1, "engine.product.self_ms": 500.0}


@pytest.mark.parametrize("d,n_fine,horizon", [(1, 1, 1.0), (3, 7, 2.0), (100, 100, 1.0)])
def test_quadratic_closed_form_matches_brute_force(d, n_fine, horizon):
    h = horizon / n_fine
    brute = d * h ** 3 * sum(min(i, j) for i in range(n_fine) for j in range(n_fine))
    assert references.quadratic_discrete_value(d, n_fine, horizon) == pytest.approx(
        brute, rel=1e-12)


def test_quadratic_reference_at_the_workload_shape():
    assert references.quadratic_discrete_value(100, 100, 1.0) == pytest.approx(32.835)


SMALL = {
    "lookback-forward": {"n_fine": 40, "iterations": 3},
    "amerasian-reflected": {"n_fine": 40, "iterations": 3, "batch": 64,
                            "reference_paths": 1000},
    "quadratic-d100-embed": {"d": 30, "n_fine": 20, "iterations": 3, "batch": 64},
}


def _trajectory(harness, name):
    from workloads import WORKLOADS
    cfg = harness.load_config(None, dict(WORKLOADS[name].overrides, seed=5, **SMALL[name]))
    table = harness.run_experiment(cfg)
    report = table.reports[0]
    return report.losses, report.estimates, table.summary["mean"]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_and_kernel_runs_are_bit_identical_to_plain(name):
    from sigfbsde import harness, net, oracle, sde, solver
    from sigfbsde.sigcore import engine, lyndon
    plain = _trajectory(harness, name)

    tracer = spans.Tracer()
    tracer.install({"sde": sde, "engine": engine, "lyndon": lyndon, "net": net,
                    "solver": solver, "oracle": oracle, "harness": harness})
    try:
        traced = _trajectory(harness, name)
    finally:
        tracer.uninstall()
    assert spans.per_iteration(tracer.spans, warmup=0)[1] == 3

    kern = ReferenceKernel()
    features = solver.features_for_batch
    solver.features_for_batch = lambda *a, **k: (kern.run(), features(*a, **k))[1]
    try:
        with_kernel = _trajectory(harness, name)
    finally:
        solver.features_for_batch = features
    assert traced == plain
    assert with_kernel == plain


def test_benchmark_json_names_what_run_py_prints():
    import run
    from workloads import WORKLOADS
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
