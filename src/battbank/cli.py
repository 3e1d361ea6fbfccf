# Operator entry point.
#
# Exit codes: 0 ok, 1 validation failure, 2 runtime failure, 3 I/O failure.

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import core, features, harness, learner, oracle, policies

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_IO = 3


def _read(path):
    try:
        return core.load_config(path)
    except (OSError, ValueError) as exc:  # bad JSON and strict ingestion: ValueError
        print(f"error: cannot read config {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO)


def _load(path):
    bank, chain = _read(path)
    report = core.validate_config(bank, chain)
    if not report.passed:
        print(report, file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)
    return bank, chain


def _parse_int_tuple(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.replace("x", ",").split(","))
    except ValueError:
        raise ValueError(f"{flag}: expected integers, got {text!r}") from None


def cmd_validate(args) -> int:
    bank, chain = _read(args.config)
    report = core.validate_config(bank, chain)
    print(report)
    return EXIT_OK if report.passed else EXIT_VALIDATION


def _schedule_from_args(args) -> learner.LearnSchedule:
    """LearnSchedule's defaults, with each field whose flag was given; a
    flag's dest is its field's name."""
    names = (f.name for f in dataclasses.fields(learner.LearnSchedule))
    return learner.LearnSchedule(**{
        name: getattr(args, name) for name in names
        if getattr(args, name, None) is not None})


def cmd_train(args) -> int:
    bank, chain = _load(args.config)
    sched = _schedule_from_args(args)
    try:
        w, log = learner.train(bank, chain, sched, x0=args.x0)
    except FloatingPointError as exc:
        if args.debug:
            raise
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    try:
        features.save_weights(args.out, w, bank, chain)
        if args.log:
            log.write_csv(args.log)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    if log.rows:
        tail = log.rows[-min(10, len(log.rows)):]
        mean_tail = sum(r[3] for r in tail) / len(tail)
        print(f"trained {sched.t_train} steps; at step {log.rows[-1][0]}, the "
              f"last logged: cumulative reward {log.rows[-1][4]:.1f}, tail "
              f"mean |td| {mean_tail:.4f}")
    elif sched.t_train:
        print(f"trained {sched.t_train} steps; none logged, the first log row "
              f"is at step {learner.TrainLog.EVERY}")
    else:
        print("trained 0 steps: zero weight vector written")
    print(f"weights -> {args.out}")
    return EXIT_OK


def cmd_compare(args) -> int:
    bank, chain = _load(args.config)
    sizes = [_parse_int_tuple(s, "--sizes") for s in args.sizes]
    ramps = _parse_int_tuple(args.ramp, "--ramp") if args.ramp else None
    sched = _schedule_from_args(args)
    table = harness.compare_policies(
        bank, chain, sizes, seeds=list(args.seeds), T=args.eval_steps,
        schedule=sched, ramps=ramps, x0=args.x0)
    print(table.format())
    if args.out:
        try:
            table.write_csv(args.out)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_IO
        print(f"table -> {args.out}")
    return EXIT_RUNTIME if table.failures else EXIT_OK


def cmd_solve_exact(args) -> int:
    bank, chain = _load(args.config)
    sol = oracle.solve_policy_iteration(bank, chain, tol=args.tol)
    print(f"solved in {sol.iterations} policy-iteration steps; "
          f"residual {sol.residual:.3e}; "
          f"greedy-in-q suboptimality bound {sol.suboptimality_bound():.3e}")
    if args.out:
        try:
            oracle.write_solution_csv(sol, args.out)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_IO
        print(f"solution -> {args.out}")

    lossless = all(bat.dissipation == 1.0 for bat in bank.batteries)
    unconstrained = all(bat.ramp >= bat.capacity for bat in bank.batteries)
    v_greedy = oracle.evaluate_policy_exact(
        bank, chain, policies.make_policy("greedy", bank, chain),
        tol=args.tol, model=sol.model)
    gap = float(np.abs(v_greedy - sol.values()).max())
    if lossless and unconstrained:
        # the solve's own error: V_greedy stops within g * tol / (1 - g) of
        # its fixed point, and V* is read after the final backup, within
        # g * residual / (1 - g) of its own
        g = bank.gamma
        allowance = g * (args.tol + sol.residual) / (1 - g)
        verdict = "PASS" if gap <= 1e-8 + allowance else "FAIL"
        print(f"greedy-optimality gap max|V_greedy - V*| = {gap:.3e} "
              f"[{verdict} at 1e-8 + solve error {allowance:.1e}; "
              "lossless, unconstrained ramps]")
        if verdict == "FAIL":
            return EXIT_RUNTIME
    else:
        print(f"greedy-optimality gap max|V_greedy - V*| = {gap:.3e} "
              "(ramps binding or lossy; no optimality claim)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="battbank",
        description="Heterogeneous battery bank dispatch: simulator, "
                    "policies, learner, and exact solver.")
    p.add_argument("--debug", action="store_true",
                   help="re-raise an error with its traceback instead of "
                        "printing only its message")
    sub = p.add_subparsers(dest="command", required=True)

    # learning-schedule flags shared by train and compare
    sched = argparse.ArgumentParser(add_help=False)
    sched.add_argument("--steps", dest="t_train", metavar="STEPS", type=int,
                       help="training steps per run (default 100000)")
    sched.add_argument("--beta0", type=float)
    sched.add_argument("--beta-tau", dest="beta_tau", type=float)
    sched.add_argument("--eps0", type=float)
    sched.add_argument("--eps-min", dest="eps_min", type=float)
    sched.add_argument("--eps-decay", dest="eps_decay", type=float)
    sched.add_argument("--x0", type=int, default=0, help="initial background state")

    pv = sub.add_parser("validate", help="check a JSON config")
    pv.add_argument("config")
    pv.set_defaults(fn=cmd_validate)

    pt = sub.add_parser("train", parents=[sched], help="learn weights by Q-learning")
    pt.add_argument("config")
    pt.add_argument("--out", required=True, help="weights JSON output path")
    pt.add_argument("--log", help="training-log CSV output path")
    # train only: under compare, "--seed" stays an abbreviation of --seeds
    pt.add_argument("--seed", type=int, help="training seed (default 0)")
    pt.set_defaults(fn=cmd_train)

    pc = sub.add_parser("compare", parents=[sched],
                        help="greedy/naive/rl comparison table")
    pc.add_argument("config")
    pc.add_argument("--sizes", nargs="+", required=True,
                    help="capacity tuples, e.g. 2,3 10,10")
    pc.add_argument("--seeds", nargs="+", type=int, default=[0, 1, 2, 3, 4],
                    help="evaluation seeds (default 0..4)")
    pc.add_argument("--ramp", help="override ramps, e.g. 2,2")
    pc.add_argument("--eval-steps", type=int, default=100_000,
                    help="rollout length T (default 100000)")
    pc.add_argument("--out", help="CSV output path")
    pc.set_defaults(fn=cmd_compare)

    ps = sub.add_parser("solve-exact", help="exact solve by policy iteration")
    ps.add_argument("config")
    ps.add_argument("--tol", type=float, default=oracle.DEFAULT_TOL,
                    help="stop each policy evaluation at a sweep change "
                         "<= tol (default 1e-9)")
    ps.add_argument("--out", help="solution CSV output path")
    ps.set_defaults(fn=cmd_solve_exact)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SystemExit as exc:  # _load signals validation/IO exits this way
        return int(exc.code)
    except Exception as exc:
        if args.debug:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
