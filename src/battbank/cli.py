# Operator entry point.
#
# `main` is the one place a command fails: it loads and validates the config,
# runs the command and maps any exception to `error: <message>` on stderr and
# an exit code. 0 ok; 1 invalid config, its report on stdout for `validate`,
# on stderr otherwise; 2 runtime failure; 3 a config that cannot be read or
# ingested, or an output that cannot be written. --debug re-raises every
# exception instead; an invalid config raises none and prints its report.

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


def _parse_int_tuple(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.replace("x", ",").split(","))
    except ValueError:
        raise ValueError(f"{flag}: expected integers, got {text!r}") from None


def _schedule_from_args(args) -> learner.LearnSchedule:
    """LearnSchedule's defaults, with each field whose flag was given; a
    flag's dest is its field's name."""
    names = (f.name for f in dataclasses.fields(learner.LearnSchedule))
    return learner.LearnSchedule(**{
        name: getattr(args, name) for name in names
        if getattr(args, name, None) is not None})


def cmd_train(args, bank, chain) -> int:
    sched = _schedule_from_args(args)
    w, log = learner.train(bank, chain, sched, x0=args.x0)
    features.save_weights(args.out, w, bank, chain)
    if args.log:
        log.write_csv(args.log)
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


def cmd_compare(args, bank, chain) -> int:
    sizes = [_parse_int_tuple(s, "--sizes") for s in args.sizes]
    ramps = _parse_int_tuple(args.ramp, "--ramp") if args.ramp else None
    sched = _schedule_from_args(args)
    table = harness.compare_policies(
        bank, chain, sizes, seeds=list(args.seeds), T=args.eval_steps,
        schedule=sched, ramps=ramps, x0=args.x0)
    print(table.format())
    if args.out:
        table.write_csv(args.out)
        print(f"table -> {args.out}")
    return EXIT_RUNTIME if table.failures else EXIT_OK


def cmd_solve_exact(args, bank, chain) -> int:
    sol = oracle.solve_policy_iteration(bank, chain, tol=args.tol)
    print(f"solved in {sol.iterations} policy-iteration steps; "
          f"residual {sol.residual:.3e}; "
          f"greedy-in-q suboptimality bound {sol.suboptimality_bound():.3e}")
    if args.out:
        oracle.write_solution_csv(sol, args.out)
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
    read = False
    try:
        bank, chain = core.load_config(args.config)
        read = True
        report = core.validate_config(bank, chain)
        validate = args.command == "validate"
        if validate or not report.passed:
            print(report, file=sys.stdout if validate else sys.stderr)
            return EXIT_OK if report.passed else EXIT_VALIDATION
        return args.fn(args, bank, chain)
    except Exception as exc:
        if args.debug:
            raise
        # bad JSON and strict ingestion raise ValueError; ENOSPC names no file
        if not read and isinstance(exc, (OSError, ValueError)):
            code, message = EXIT_IO, f"cannot read config {args.config}: {exc}"
        elif read and isinstance(exc, OSError):
            code, message = EXIT_IO, f"cannot write {exc.filename or 'output'}: {exc}"
        elif isinstance(exc, FloatingPointError):
            code, message = EXIT_RUNTIME, f"training diverged: {exc}"
        else:
            code, message = EXIT_RUNTIME, str(exc)
        print(f"error: {message}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
