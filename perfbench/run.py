"""Benchmark of the three desk workloads, end to end or traced per layer.

    python3 perfbench/run.py --workload lookback-forward --seed 1 --seconds 30 --trace 0

The command makes every input from ``--seed``, then runs whole rounds of one
workload, each in a fresh worker process (``worker.py``), until
``--seconds`` have passed; the round in progress is always finished.  Every
round is checked against references the benchmark computes itself.  The last
line of standard output is one JSON object with ``correct``, ``attempted``
(training iterations plus output checks), ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

# One BLAS thread: the kernel and the program then see the same single core.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import references  # noqa: E402  (imports numpy, after the BLAS setting)
from workloads import WORKLOADS  # noqa: E402

SETUPS = 5            # fresh-process set-ups per untraced run; setup_s is their median
DEADLINE_S = 170.0    # every worker is stopped before the whole run reaches this

END_TO_END = {"wall_s": "s", "setup_s": "s", "iter_ms": "ms", "iter_ref": "ref",
              "peak_rss_mb": "MB"}

PER_LAYER = {
    # per training iteration, median over the timed iterations
    "sde.brownian_increments.self_ms": "ms",
    "sde.brownian_increments.calls": "count",
    "sde.simulate_batch.self_ms": "ms",
    "sde.coarsen.calls": "count",
    "sde.coarsen.self_ms": "ms",
    "sde.running_integral.calls": "count",
    "sde.self_ms": "ms",
    "engine.block_signatures.calls": "count",
    "engine.checkpoint_scan.calls": "count",
    "engine.product.calls": "count",
    "engine.product.self_ms": "ms",
    "engine.log_of_group.calls": "count",
    "engine.stream_with_cache.calls": "count",
    "engine.stream_with_cache.mb": "MB",
    "engine.stream_pullback.calls": "count",
    "engine.chen_step_vjp.calls": "count",
    "engine.log_of_group_vjp.calls": "count",
    "engine.self_ms": "ms",
    "lyndon.project.calls": "count",
    "lyndon.project_vjp.calls": "count",
    "net.mlp_forward.calls": "count",
    "net.mlp_forward.self_ms": "ms",
    "net.mlp_backward.self_ms": "ms",
    "net.adam_step.calls": "count",
    "net.adam_step.self_ms": "ms",
    "net.embed_stream.calls": "count",
    "net.embed_backward.calls": "count",
    "net.self_ms": "ms",
    "solver.features_for_batch.ms": "ms",
    "solver.features_backward.calls": "count",
    "solver.forward_rollout.calls": "count",
    "solver.backward_rollout.calls": "count",
    "solver.iteration.self_ms": "ms",
    "solver.self_ms": "ms",
    # per whole run
    "import.ms": "ms",
    "harness.load_config.ms": "ms",
    "solver.init_state.ms": "ms",
    "solver.pilot_estimate.calls": "count",
    "harness.reference_values.ms": "ms",
    "oracle.asian_european_mc.calls": "count",
    "harness.emit_outputs.ms": "ms",
    "harness.emit_outputs.bytes": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class WorkerError(RuntimeError):
    pass


def _worker(args: list, deadline: float) -> dict:
    remaining = deadline - time.perf_counter()
    if remaining <= 1.0:
        raise WorkerError("no time left before the deadline")
    proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=remaining,
                          env=dict(os.environ, **BLAS_ENV))
    if proc.returncode != 0:
        raise WorkerError(proc.stderr.strip().splitlines()[-1] if proc.stderr.strip()
                          else f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def tail(values) -> tuple | None:
    """Highest whole percentile with at least ten samples beyond it.

    Returns ``(percentile, value, samples_beyond)``, or ``None`` under forty
    samples, where such a percentile would be no tail.
    """
    n = len(values)
    if n < 40:
        return None
    pct = math.floor(100.0 * (1.0 - 10.0 / n))
    ordered = sorted(values)
    cut = math.ceil(pct / 100.0 * n) - 1
    return pct, ordered[cut], n - cut - 1


def _end_to_end(workload, rounds, setups) -> dict:
    iters, ratios = [], []
    for r in rounds:
        timed = slice(workload.warmup, None)
        iters += r["iter_s"][timed]
        ratios += [t / k for t, k in zip(r["iter_s"][timed], r["kernel_s"][timed])]
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "setup_s": statistics.median(setups),
        "iter_ms": statistics.median(iters) * 1e3,
        "iter_ref": statistics.median(ratios),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    t = tail(iters)
    print(f"iterations timed: {len(iters)} over {len(rounds)} round(s); "
          + (f"tail p{t[0]} iter_ms = {t[1] * 1e3:.3f} with {t[2]} samples beyond"
             if t else "fewer than 40, no tail"))
    print("round wall_s: " + ", ".join(f"{r['wall_s']:.3f}" for r in rounds)
          + "; setup_s: " + ", ".join(f"{s:.3f}" for s in setups))
    return values


def _per_layer(plain, traced) -> dict:
    values = {name: statistics.median(r["layers"].get(name, 0) for r in traced)
              for name in PER_LAYER if not name.startswith("trace.")}
    values["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
    values["trace.overhead_s"] = values["trace.wall_s"] \
        - statistics.median(r["wall_s"] for r in plain)
    table = traced[0]["functions"]
    for section in ("per_iteration", "per_run", "oracle_phase"):
        for key, value in sorted(table[section].items()):
            if key.endswith(".calls") and value:
                name = key[:-len(".calls")]
                extra = table[section].get(name + ".self_ms",
                                           table[section].get(name + ".ms", 0.0))
                print(f"{section} {name}: calls {value:g}, "
                      f"{'self_ms' if section != 'per_run' else 'ms'} {extra:.3f}")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workload = WORKLOADS[args.workload]
    deadline = time.perf_counter() + DEADLINE_S
    out = os.path.join(OUT, f"{workload.name}-seed{args.seed}")
    common = ["--workload", workload.name, "--seed", str(args.seed), "--out", out]

    try:
        # fails where there is no program source; also compiles its bytecode
        config = _worker(["--mode", "probe", *common], deadline)["config"]
    except WorkerError as exc:
        print(f"cannot run the program: {exc}", file=sys.stderr)
        return 1
    refs = references.references(workload, config, args.seed)
    for key, value in refs.items():
        print(f"benchmark reference {key} = {value:.6f}")

    start = time.perf_counter()
    setups = [] if args.trace else \
        [_worker(["--mode", "setup", *common], deadline)["setup_s"] for _ in range(SETUPS)]
    kinds = ["plain", "traced"] if args.trace else ["kernel"]
    rounds: dict = {kind: [] for kind in kinds}
    attempted = failed = 0
    correct = True
    longest = 0.0
    while True:
        round_start = time.perf_counter()
        kind = kinds[sum(map(len, rounds.values())) % len(kinds)]
        attempted += workload.iterations + len(workload.checks)
        try:
            result = _worker(["--mode", "run", "--kernel", str(int(kind == "kernel")),
                              "--trace", str(int(kind == "traced")), *common], deadline)
        except WorkerError as exc:  # a crash of the program fails the whole round
            print(f"round failed: {exc}", file=sys.stderr)
            failed += workload.iterations + len(workload.checks)
            correct = False
            break
        rounds[kind].append(result)
        for name, ok, detail in references.run_checks(workload, result, refs):
            print(f"check {name}: {'pass' if ok else 'FAIL'}: {detail}")
            failed += not ok
            correct = correct and ok
        longest = max(longest, time.perf_counter() - round_start)
        if all(rounds.values()) and (time.perf_counter() - start >= args.seconds
                                     or time.perf_counter() + longest > deadline):
            break

    if not all(rounds.values()):
        print("no round finished", file=sys.stderr)
        return 1
    last = rounds[kinds[-1]][-1]
    summary = last["summary"]
    print(f"estimate {last['final_estimate']:.6f}; program reference "
          f"{summary['reference']:.6f} ({summary['kind']}); "
          f"rel_error {summary.get('rel_error', float('nan')):+.5f}")
    if args.trace:
        values, units = _per_layer(rounds["plain"], rounds["traced"]), PER_LAYER
    else:
        values, units = _end_to_end(workload, rounds["kernel"], setups), END_TO_END
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
