"""Command-line entry point: run experiments, print oracles, self-check."""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import harness, net, oracle, sde, solver
from .sigcore import engine, lyndon

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _parse_overrides(pairs) -> dict:
    overrides = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise harness.ConfigError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        overrides[key.strip()] = value.strip()
    return overrides


def _load_config(args) -> harness.HarnessConfig:
    """The config of ``--config``, then ``--set``, then the named options."""
    overrides = _parse_overrides(args.set)
    for key in ("experiment", "profile", "seed", "out"):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    return harness.load_config(args.config, overrides)


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    table = harness.run_experiment(cfg)
    summary = table.summary
    print(f"{summary['experiment']} ({summary['method']}, {summary['profile']}): "
          f"mean={summary['mean']:.4f} "
          f"ci=[{summary['ci_low']:.4f}, {summary['ci_high']:.4f}] "
          f"reference={summary['reference']:.4f} ({summary['kind']})")
    if "rel_error" in summary:
        print(f"relative error: {summary['rel_error'] * 100:.2f}%")
    if cfg.document["out"]:
        print(f"results written to {cfg.document['out']}")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    cfg = _load_config(args)
    refs = harness.reference_values(cfg)
    print(f"{cfg.document['experiment']}: reference = {refs['reference']:.6f} "
          f"({refs['kind']})")
    for key in ("continuous_reference", "european_se", "jensen_bound"):
        if key in refs:
            print(f"{key} = {refs[key]:.6f}")
    return EXIT_OK


def _signature(nodes, depth):
    """Signature levels of the piecewise-linear path through ``(n, d)`` nodes:
    the last slot of the checkpoint scan over one block."""
    inc = np.diff(nodes, axis=0)
    return [lvl[-1] for lvl in engine.checkpoint_scan(inc, len(inc), depth)]


def _selftest_checks():
    rng = np.random.default_rng(20240)

    def chen_split():
        nodes = rng.standard_normal((9, 2))
        full = _signature(nodes, 3)
        head, tail = _signature(nodes[:5], 3), _signature(nodes[4:], 3)
        # head ⊗ tail: both summed, plus the cross terms that level 1 lacks
        joined = [x + y if c is None else x + y + c
                  for x, y, c in zip(head, tail, engine._next_power(head, tail, 2))]
        return all(np.allclose(a, b, rtol=1e-12, atol=1e-14) for a, b in zip(full, joined))

    def shuffle_level2():
        nodes = rng.standard_normal((7, 3))
        lvl1, lvl2 = _signature(nodes, 2)
        lvl2 = lvl2.reshape(3, 3)
        return np.allclose(np.multiply.outer(lvl1, lvl1), lvl2 + lvl2.T, rtol=1e-12)

    def scalar_closed_form():
        nodes = np.cumsum(rng.standard_normal(6))[:, None]
        sig = engine.flatten_levels(_signature(nodes, 5))
        inc = nodes[-1, 0] - nodes[0, 0]
        expect = [inc ** k / math.factorial(k) for k in range(1, 6)]
        return np.allclose(sig, expect, rtol=1e-12)

    def exp_log_roundtrip():
        v = [rng.standard_normal(2), rng.standard_normal(4), rng.standard_normal(8)]
        back = engine.log_of_group(engine.exp_of_lie(v))
        return all(np.allclose(a, b, rtol=1e-12, atol=1e-12) for a, b in zip(back, v))

    def pullback_fd():
        # the reverse pass training uses: three checkpoints at depths 2 to 4
        inc, eps = rng.standard_normal((12, 2)), 1e-6
        for depth in (2, 3, 4):
            cot = [rng.standard_normal((4, 2 ** k)) for k in range(1, depth + 1)]
            grad = engine.checkpoint_scan_vjp(inc, 4, cot)
            for idx in np.ndindex(inc.shape):
                bump = np.zeros_like(inc)
                bump[idx] = eps
                up, down = (sum(np.vdot(c, lvl) for c, lvl in
                                zip(cot, engine.checkpoint_scan(inc + sign * bump, 4, depth)))
                            for sign in (1.0, -1.0))
                if abs((up - down) / (2 * eps) - grad[idx]) > 1e-5 * max(1.0, abs(grad[idx])):
                    return False
        return True

    def lyndon_coordinates():
        # the L-shaped path's log is e1 + e2 + [e1, e2] / 2; a straight
        # segment's log is its increment alone
        def logsig(nodes, depth):
            log = engine.log_of_group(_signature(nodes, depth))
            return lyndon.project(log, nodes.shape[1], depth)

        corner = logsig(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]), 2)
        segment = logsig(rng.standard_normal((2, 3)), 3)
        return (np.allclose(corner, [1.0, 1.0, 0.5], rtol=1e-12)
                and np.allclose(segment[3:], 0.0, rtol=0, atol=1e-14))

    def outer_kernels():
        # the word-column kernel and einsum on a 4-word and a 36-word product
        for d in (2, 6):
            a, b = rng.standard_normal((2, 7, 5, d))
            expect = np.einsum("...i,...j->...ij", a, b).reshape(7, 5, d * d).tobytes()
            if not (engine._outer_columns(a, b).tobytes() == expect
                    == engine._outer(a, b).tobytes()):
                return False
        return True

    def adam_zero_grad():
        param = np.array([1.0, -2.0])
        state = net.init_adam(param, lr=0.1)
        net.adam_step(state, param, np.zeros(2))
        return np.array_equal(param, [1.0, -2.0])

    def simulation_reproducible():
        # streams long enough that the whole batch is split over threads on
        # a multi-core host, while its second half alone stays on one
        model = sde.ModelSpec.geometric(10.0, 0.01, 1.0, dim=32)
        grid = sde.GridSpec(1.0, 32, 4)
        a = sde.simulate_batch(model, grid, 128, seed=9)
        b = sde.simulate_batch(model, grid, 64, seed=9, path_offset=64)
        return (np.array_equal(a.states[64:], b.states)
                and np.array_equal(a.coarse_increments[64:], b.coarse_increments))

    def exact_geometric_step():
        # an asset at sigma = 0 compounds as x0 e^{rt}; every log-increment
        # is sigma dW + (r - sigma^2 / 2) h of the path's redrawn draws
        grid, sig = sde.GridSpec(1.0, 40, 4), np.array([0.0, 0.3, 1.0])
        model = sde.ModelSpec.geometric((10.0, 10.0, 2.0), 0.05, sig)
        batch = sde.simulate_batch(model, grid, 4, seed=3, path_offset=7)
        dw = sde._draw(grid, 3, np.arange(7, 11), np.empty((4, 40, 3)))
        growth = 10.0 * np.exp(0.05 * grid.h * np.arange(41))
        return (np.allclose(batch.states[..., 0], growth, rtol=1e-12, atol=0)
                and np.allclose(np.diff(np.log(batch.states), axis=1),
                                sig * dw + (0.05 - 0.5 * sig ** 2) * grid.h, rtol=0, atol=1e-12))

    def stack_split_reproducible():
        # enough rows that the stack is split over threads on a multi-core
        # host, while each date alone, a stack of one, stays on one block
        spec = net.MlpSpec(3, 2, hidden=(8, 8))
        nets = net.init_mlp(spec, range(4), zero_output=False)
        x = rng.standard_normal((4, net.PARALLEL_MIN_ROWS, 3))
        cot = rng.standard_normal((4, net.PARALLEL_MIN_ROWS, 2))

        def run(params, x, cot):
            out, cache = net.mlp_forward(params, x)
            grads, gx = net.mlp_backward(params, cache, cot, True)
            return [out, *grads, gx]

        split = run(nets, x, cot)
        for n in range(4):
            alone = run(net.init_mlp(spec, [n], zero_output=False),
                        x[n:n + 1], cot[n:n + 1])
            if any(whole[n:n + 1].tobytes() != part.tobytes()
                   for whole, part in zip(split, alone)):
                return False
        return True

    def chunked_features():
        # an embedded batch of three chunks against the same batch as one
        spec = solver.ExperimentSpec(
            method="backward", model=sde.ModelSpec.arithmetic_unit(0.5, dim=4),
            grid=sde.GridSpec(1.0, 12, 3), driver=solver.DriverKind(),
            payoff=solver.PayoffKind("quadratic-integral"), depth=3,
            feature="log-signature", embed_dim=2, batch_size=8, seed=4)
        state = solver.init_state(spec)
        batch = sde.simulate_batch(spec.model, spec.grid, 8, seed=6)
        cot = rng.standard_normal((3, 8, spec.feature_width))
        runs, default = [], solver.FEATURE_CHUNK_VALUES
        try:
            for chunk in (3, 8):
                solver.FEATURE_CHUNK_VALUES = chunk * solver._values_per_path(spec, spec.grid)
                features, cache = solver.features_for_batch(state, batch, spec)
                grad = solver.features_backward(state, spec, cache, cot)
                runs.append((len(cache.chunks), features.tobytes(), grad.tobytes()))
        finally:
            solver.FEATURE_CHUNK_VALUES = default
        (parts, *split), (one, *whole) = runs
        return parts == 3 and one == 1 and split == whole

    def lookback_formula():
        p = oracle.LookbackParams(10.0, 10.0, 0.01, 1.0, 1.0)
        return abs(oracle.lookback_price(p) - 5.828175) < 5e-4

    return [
        ("chen identity split", chen_split),
        ("shuffle relation depth 2", shuffle_level2),
        ("scalar closed form", scalar_closed_form),
        ("exp/log inversion", exp_log_roundtrip),
        ("pullback finite differences", pullback_fd),
        ("lyndon coordinates of a corner and a segment", lyndon_coordinates),
        ("outer product kernels bit for bit", outer_kernels),
        ("adam zero-gradient fixpoint", adam_zero_grad),
        ("per-path stream reproducibility", simulation_reproducible),
        ("exact geometric step", exact_geometric_step),
        ("stacked MLP date-split reproducibility", stack_split_reproducible),
        ("chunked feature pipeline", chunked_features),
        ("lookback closed form", lookback_formula),
    ]


def _cmd_selftest(_args) -> int:
    failures = 0
    for name, check in _selftest_checks():
        try:
            ok = check()
        except Exception as exc:  # a crash is a failure, not an abort
            ok = False
            print(f"FAIL {name}: {exc}")
        else:
            print(f"{'PASS' if ok else 'FAIL'} {name}")
        failures += 0 if ok else 1
    if failures:
        print(f"{failures} selftest check(s) failed")
        return EXIT_NUMERIC
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sig-fbsde",
        description="Signature-feature solvers for path-dependent FBSDEs")
    sub = parser.add_subparsers(dest="command", required=True)

    def config_parser(name, summary):
        cmd = sub.add_parser(name, help=summary)
        cmd.add_argument("--experiment", choices=harness.EXPERIMENTS)
        cmd.add_argument("--profile", choices=harness.PROFILES)
        cmd.add_argument("--config", help="JSON config document")
        cmd.add_argument("--seed", type=int)
        cmd.add_argument("--set", action="append", metavar="KEY=VALUE",
                         help="override any config key (repeatable)")
        return cmd

    run = config_parser("run", "train one experiment and emit results")
    run.add_argument("--out", help="output directory for CSV/JSON results")
    run.set_defaults(func=_cmd_run)

    orc = config_parser("oracle", "print reference values")
    orc.set_defaults(func=_cmd_oracle)

    st = sub.add_parser("selftest", help="run the quick property checks")
    st.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (harness.ConfigError, solver.SpecError, sde.GridError,
            sde.ModelError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except solver.SolverAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
