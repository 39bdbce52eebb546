"""One fresh process of the benchmark: a set-up, or a whole run of the program.

``run.py`` starts this script once per measured set-up or round, so each one
pays what a user of ``sig-fbsde run`` pays, from importing ``sigfbsde`` on,
and its peak RSS holds the program and not the benchmark's references.
The last line of standard output is one JSON object.

Modes:

* ``probe``: import ``sigfbsde`` and report the resolved config (fails
  where there is no program source).
* ``setup``: time ``import`` + ``harness.load_config`` + ``solver.init_state``.
* ``run``: time ``import`` + ``harness.load_config`` +
  ``harness.run_experiment`` (set-up, training, oracle, curves, summary and
  report).  With ``--kernel 1`` the reference kernel is timed once inside
  every training iteration, ahead of ``solver.features_for_batch``, and its
  time is taken out of the iteration and of the run.  With ``--trace 1``
  the public functions of every layer are wrapped and the spans are
  reduced to per-layer metrics and written to the output directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import WORKLOADS  # noqa: E402  (imports no numpy)

WHOLE_RUN = ("harness.load_config", "solver.init_state", "solver.pilot_estimate",
             "harness.reference_values", "oracle.asian_european_mc",
             "harness.emit_outputs")


def _overrides(args) -> dict:
    return dict(WORKLOADS[args.workload].overrides, seed=args.seed, out=args.out)


def _check_outputs(out_dir: str, result: dict) -> tuple[bool, str]:
    """Re-read the written files and compare them with the in-memory run."""
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    with open(os.path.join(out_dir, "curve_run0.csv"), encoding="utf-8") as fh:
        curve_rows = fh.read().splitlines()[1:]
    with open(os.path.join(out_dir, "summary.csv"), encoding="utf-8") as fh:
        summary_rows = fh.read().splitlines()[1:]
    problems = []
    if report.get("mean") != result["final_estimate"]:
        problems.append(f"report.json mean {report.get('mean')!r}")
    if len(curve_rows) != len(result["losses"]):
        problems.append(f"{len(curve_rows)} curve rows")
    elif float(curve_rows[-1].split(",")[1]) != result["losses"][-1]:
        problems.append("last curve loss differs")
    if len(summary_rows) != 1:
        problems.append(f"{len(summary_rows)} summary rows")
    detail = "; ".join(problems) or \
        f"report, summary and {len(curve_rows)} curve rows match the run"
    return not problems, detail


def _layer_metrics(spans_mod, spans, workload) -> tuple[dict, dict]:
    """Per-layer metrics of one traced run, and the full per-function table."""
    iters, found = spans_mod.per_iteration(spans, workload.warmup)
    if found != workload.iterations:
        raise RuntimeError(f"found {found} iterations in the trace, "
                           f"expected {workload.iterations}")
    runs = spans_mod.per_call(spans, WHOLE_RUN)
    oracle = spans_mod.within(spans, "harness.reference_values")
    metrics = dict(iters)
    metrics.update(runs)
    metrics["engine.stream_with_cache.mb"] = iters.get("engine.stream_with_cache.size", 0.0)
    metrics["harness.emit_outputs.bytes"] = runs.get("harness.emit_outputs.size", 0)
    table = {"per_iteration": iters, "per_run": runs, "oracle_phase": oracle}
    return metrics, table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("probe", "setup", "run"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--kernel", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    t0 = time.perf_counter()
    from sigfbsde import harness, net, oracle, sde, solver
    from sigfbsde.sigcore import engine, lyndon
    import_s = time.perf_counter() - t0
    if args.mode == "probe":
        cfg = harness.load_config(None, _overrides(args))
        print(json.dumps({"config": harness.config_document(cfg)}))
        return 0
    if args.mode == "setup":
        cfg = harness.load_config(None, _overrides(args))
        solver.init_state(cfg.spec)
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0

    kernel_s = []
    kernel_bytes = 0
    tracer = None
    if args.kernel:
        from kernel import ReferenceKernel
        kern = ReferenceKernel()
        kernel_bytes = kern.nbytes
        features = solver.features_for_batch

        def features_after_kernel(*a, **k):
            kernel_s.append(kern.timed())
            return features(*a, **k)

        solver.features_for_batch = features_after_kernel
    if args.trace:
        import spans as spans_mod
        tracer = spans_mod.Tracer()
        tracer.install(
            {"sde": sde, "engine": engine, "lyndon": lyndon, "net": net,
             "solver": solver, "oracle": oracle, "harness": harness},
            sizes={"engine.stream_with_cache":
                   lambda sigs: sum(lv.nbytes for levels in sigs for lv in levels) / 1e6,
                   "harness.emit_outputs":
                   lambda paths: sum(os.path.getsize(p) for p in paths)})

    t1 = time.perf_counter()
    cfg = harness.load_config(None, _overrides(args))
    table = harness.run_experiment(cfg)
    run_s = time.perf_counter() - t1
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 - kernel_bytes
    if tracer is not None:
        tracer.uninstall()

    report = table.reports[0]
    elapsed = [0.0] + list(report.elapsed)
    iter_s = [b - a for a, b in zip(elapsed, elapsed[1:])]
    if args.kernel:
        if len(kernel_s) != len(iter_s):
            raise RuntimeError(f"kernel ran {len(kernel_s)} times for "
                               f"{len(iter_s)} iterations")
        iter_s = [t - k for t, k in zip(iter_s, kernel_s)]
    result = {
        "import_s": import_s,
        "wall_s": import_s + run_s - sum(kernel_s),
        "iter_s": iter_s,
        "kernel_s": kernel_s,
        "peak_rss_mb": peak / 1e6,
        "final_estimate": report.final_estimate,
        "losses": report.losses,
        "estimates": report.estimates,
        "summary": table.summary,
        "config": harness.config_document(cfg),
    }
    result["outputs_ok"], result["outputs_detail"] = _check_outputs(args.out, result)
    if tracer is not None:
        result["layers"], result["functions"] = _layer_metrics(spans_mod, tracer.spans,
                                                               workload)
        result["layers"]["import.ms"] = import_s * 1e3
        with open(os.path.join(args.out, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    print(json.dumps(result, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
