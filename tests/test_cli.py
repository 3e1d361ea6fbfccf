import errno
import functools
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from battbank import core, features, oracle
from battbank.cli import (EXIT_IO, EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION,
                          _schedule_from_args, build_parser, main)
from battbank.core import config_to_dict, load_config

from conftest import make_bank, make_chain

from pathlib import Path

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
TOY_CONFIG = str(CONFIGS / "toy_bank.json")


def write_config(tmp_path, name="cfg.json", **overrides):
    doc = config_to_dict(make_bank(**{k: v for k, v in overrides.items()
                                      if k != "doc_edit"}), make_chain())
    edit = overrides.get("doc_edit")
    if edit:
        edit(doc)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_python(script: str) -> str:
    """stdout of script run by a fresh interpreter on the package in src/:
    in a subprocess, as the test modules import hashlib and numpy.random."""
    return subprocess.run([sys.executable, "-c", script],
                          env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, text=True, check=True).stdout


@functools.cache
def numpy_import_loads() -> frozenset:
    """Which of _hashlib and numpy.random `import numpy` alone loads: numpy
    < 2 imports numpy.random, and with it OpenSSL, eagerly."""
    return frozenset(run_python(
        "import sys, numpy\n"
        "print(*(m for m in ('_hashlib', 'numpy.random') if m in sys.modules))"
    ).split())


def test_import_leaves_scipy_out():
    # the runtime needs numpy alone: no command imports scipy
    out = run_python("import sys, battbank.cli; print('scipy' in sys.modules)")
    assert out.strip() == "False"


def test_solver_path_leaves_openssl_out():
    # hashlib maps OpenSSL's libcrypto; only a config fingerprint (weight
    # files) needs it. The solver draws no random number, so numpy.random,
    # imported only when a stream is drawn, stays out too
    out = run_python(
        "import contextlib, io, sys\n"
        "from battbank import cli, core\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main(['validate', {TOY_CONFIG!r}]) == 0\n"
        f"    assert cli.main(['solve-exact', {TOY_CONFIG!r}]) == 0\n"
        "print('_hashlib' in sys.modules, 'numpy.random' in sys.modules)\n"
        f"print(core.config_fingerprint(*core.load_config({TOY_CONFIG!r})))\n")
    random_loaded = str("numpy.random" in numpy_import_loads())
    # the fingerprint the shipped config had while hashlib loaded at import
    assert out.split() == ["False", random_loaded, "430123282c58b9e5"]


def test_compare_leaves_openssl_out(tmp_path):
    # compare imports numpy.random (chain.numpy_random) with OpenSSL hidden:
    # seeded PCG64 streams never draw the OS entropy it serves. A later
    # import of hashlib, for a fingerprint, gets OpenSSL again
    if "_hashlib" in numpy_import_loads():
        pytest.skip("import numpy alone loads OpenSSL (_hashlib): numpy < 2 "
                    "imports numpy.random eagerly")
    # CI's compare run, whose CSV is pinned
    table = tmp_path / "table.csv"
    argv = ["compare", TOY_CONFIG, "--sizes", "2,3", "4,4", "--ramp", "1,2",
            "--seeds", "0", "1", "--steps", "2000", "--eval-steps", "1000",
            "--out", str(table)]
    out = run_python(
        "import contextlib, io, sys\n"
        "from battbank import cli, core\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = cli.main({argv!r})\n"
        "print(rc, *(m for m in ('_hashlib', 'hashlib', 'hmac')\n"
        "            if m in sys.modules))\n"
        "import hashlib, _hashlib\n"
        "print(hashlib.sha256 is _hashlib.openssl_sha256)\n"
        f"print(core.config_fingerprint(*core.load_config({TOY_CONFIG!r})))\n")
    assert out.splitlines() == ["0", "True", "430123282c58b9e5"]
    # the same bytes as when numpy.random loaded with OpenSSL
    assert hashlib.sha256(table.read_bytes()).hexdigest() == (
        "b11d54d9421ca0febe1fbfe52dbe2cadc72d19193e84c5206919e15cae4da4f4")


class TestValidate:
    def test_shipped_config_passes(self, capsys):
        assert main(["validate", TOY_CONFIG]) == EXIT_OK
        assert "config OK" in capsys.readouterr().out

    def test_malformed_file_io_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["validate", str(bad)]) == EXIT_IO
        assert "cannot read config" in capsys.readouterr().err

    def test_missing_file_io_exit(self, tmp_path):
        assert main(["validate", str(tmp_path / "absent.json")]) == EXIT_IO

    def test_invalid_config_validation_exit(self, tmp_path, capsys):
        def break_row(doc):
            doc["chain"]["transition"][1][0] = 0.4  # row now sums to 0.9
        path = write_config(tmp_path, doc_edit=break_row)
        assert main(["validate", path]) == EXIT_VALIDATION
        assert "transition[1]" in capsys.readouterr().out

    def test_infeasible_occupancy_validation_exit(self, tmp_path):
        path = write_config(tmp_path, occupancy=(1, 9))
        assert main(["validate", path]) == EXIT_VALIDATION

    def test_nan_transition_validation_exit(self, tmp_path, capsys):
        # a NaN row used to print "config OK"
        def nan_row(doc):
            doc["chain"]["transition"][0] = [0.0, 0.5, float("nan"), 0.5]
        path = write_config(tmp_path, doc_edit=nan_row)
        assert main(["validate", path]) == EXIT_VALIDATION
        assert "chain.transition[0]" in capsys.readouterr().out

    @pytest.mark.parametrize("edit, field", [
        (lambda doc: doc["batteries"][0].update(capacity=2.7),
         "batteries[0].capacity"),
        (lambda doc: doc["batteries"][1].update(dissipaton=0.5),
         "batteries[1].dissipaton"),
        (lambda doc: doc.update(gamma=True), "gamma"),
    ])
    def test_strict_ingestion_io_exit(self, tmp_path, capsys, edit, field):
        path = write_config(tmp_path, doc_edit=edit)
        assert main(["validate", path]) == EXIT_IO
        assert field in capsys.readouterr().err


SCHEDULE_FLAGS = ["--steps", "7", "--beta0", "0.1", "--beta-tau", "5",
                  "--eps0", "0.5", "--eps-min", "0.1", "--eps-decay", "9",
                  "--x0", "2"]


class TestParser:
    def test_train_and_compare_share_schedule_flags(self):
        p = build_parser()
        tr = p.parse_args(["train", "c.json", "--out", "w.json"] + SCHEDULE_FLAGS)
        cp = p.parse_args(["compare", "c.json", "--sizes", "2,3"] + SCHEDULE_FLAGS)
        assert _schedule_from_args(tr) == _schedule_from_args(cp)
        assert _schedule_from_args(tr).t_train == 7
        assert _schedule_from_args(tr).eps_decay == 9.0
        assert tr.x0 == cp.x0 == 2

    def test_compare_seed_abbreviates_seeds(self):
        args = build_parser().parse_args(
            ["compare", "c.json", "--sizes", "2,3", "--seed", "3"])
        assert args.seeds == [3]
        assert _schedule_from_args(args).seed == 0

    def test_train_seed_sets_schedule_seed(self):
        args = build_parser().parse_args(
            ["train", "c.json", "--out", "w.json", "--seed", "5"])
        assert _schedule_from_args(args).seed == 5


class TestDebug:
    ARGV = ["compare", TOY_CONFIG, "--sizes", "2,,3"]

    def test_message_only_by_default(self, capsys):
        assert main(self.ARGV) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err == "error: --sizes: expected integers, got '2,,3'\n"

    # each case: argv after --debug, in which {config} and {out} name an
    # oversized config and a writable path, {bad} a file that is not JSON and
    # {missing} a path in a directory that does not exist; the exception; the
    # raising frame
    @pytest.mark.parametrize("argv, exc, match, frame", [
        (ARGV, ValueError, "--sizes: expected integers", "_parse_int_tuple"),
        (["solve-exact", "{config}"], oracle.StateSpaceTooLarge,
         "exceeding the cap", "__init__"),
        (["train", TOY_CONFIG, "--steps", "2000", "--beta0", "100",
          "--out", "{out}"], FloatingPointError, "non-finite TD error", "train"),
        # read and write failures, which used to exit 3 under --debug too
        (["validate", "{missing}"], FileNotFoundError, "No such file",
         "load_config"),
        (["validate", "{bad}"], json.JSONDecodeError, "Expecting property name",
         "raw_decode"),
        (["solve-exact", TOY_CONFIG, "--out", "{missing}"], FileNotFoundError,
         "No such file", "write_solution_csv"),
    ], ids=["compare-bad-size", "solve-exact-oversized", "train-diverged",
            "missing-config", "malformed-config", "solve-exact-unwritable"])
    def test_debug_reraises_with_traceback(self, tmp_path, capsys, argv, exc,
                                           match, frame):
        config = write_config(tmp_path, capacities=(200, 200, 200),
                              ramps=(2, 2, 2), weights=(1.0, 1.0, 1.0))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        argv = [a.format(config=config, out=tmp_path / "w.json", bad=bad,
                         missing=tmp_path / "absent" / "x.csv") for a in argv]
        with pytest.raises(exc, match=match) as info:
            main(["--debug", *argv])
        assert info.traceback[-1].name == frame
        assert capsys.readouterr().err == ""

    def test_diverged_training_message_only_by_default(self, tmp_path, capsys):
        assert main(["train", TOY_CONFIG, "--steps", "2000", "--beta0", "100",
                     "--out", str(tmp_path / "w.json")]) == EXIT_RUNTIME
        assert capsys.readouterr().err == (
            "error: training diverged: non-finite TD error at step 199, "
            "training seed 0\n")


@pytest.mark.parametrize("argv", [
    ["train", TOY_CONFIG, "--steps", "0", "--out", "{missing}"],
    ["train", TOY_CONFIG, "--steps", "0", "--out", "{ok}", "--log", "{missing}"],
    ["compare", TOY_CONFIG, "--sizes", "2,3", "--seeds", "0", "--steps", "0",
     "--eval-steps", "10", "--out", "{missing}"],
    ["solve-exact", TOY_CONFIG, "--out", "{missing}"],
], ids=["train-out", "train-log", "compare-out", "solve-exact-out"])
def test_unwritable_output_io_exit(tmp_path, capsys, argv):
    # {missing} lies in a directory that does not exist
    paths = {"missing": tmp_path / "absent" / "out.csv", "ok": tmp_path / "w.json"}
    assert main([a.format(**paths) for a in argv]) == EXIT_IO
    assert capsys.readouterr().err.startswith(
        f"error: cannot write {paths['missing']}: ")


def test_write_error_without_filename_names_output(monkeypatch, capsys):
    # a full disk fails the write itself, with no file named
    def full(*_):
        raise OSError(errno.ENOSPC, "No space left on device")
    monkeypatch.setattr(oracle, "write_solution_csv", full)
    assert main(["solve-exact", TOY_CONFIG, "--out", "sol.csv"]) == EXIT_IO
    assert capsys.readouterr().err == (
        f"error: cannot write output: [Errno {errno.ENOSPC}] "
        "No space left on device\n")


def test_other_load_failure_runtime_exit(monkeypatch, capsys):
    # only an OSError or ValueError from reading the config is an I/O failure
    def broken(path):
        raise TypeError("not a config")
    monkeypatch.setattr(core, "load_config", broken)
    assert main(["validate", TOY_CONFIG]) == EXIT_RUNTIME
    assert capsys.readouterr().err == "error: not a config\n"


@pytest.mark.parametrize("argv", [
    ["validate"],
    ["train", "--out", "{out}"],
    ["compare", "--sizes", "2,3", "--seeds", "0", "--steps", "0",
     "--eval-steps", "10", "--out", "{out}"],
    ["solve-exact", "--out", "{out}"],
], ids=["validate", "train", "compare", "solve-exact"])
def test_invalid_config_report_destination(tmp_path, capsys, argv):
    # validate prints its report on stdout; the other commands print it on
    # stderr, and nothing else, before any work
    path = write_config(tmp_path, gamma=1.5)
    out = tmp_path / "out"
    command, *flags = argv
    assert main([command, path, *(f.format(out=out) for f in flags)]
                ) == EXIT_VALIDATION
    stdout, stderr = capsys.readouterr()
    report = stdout if command == "validate" else stderr
    assert report.startswith("FAIL: gamma")
    assert (stderr if command == "validate" else stdout) == ""
    assert not out.exists()


class TestTrain:
    def test_zero_steps_writes_zero_weights(self, tmp_path, capsys):
        out = tmp_path / "w.json"
        assert main(["train", TOY_CONFIG, "--out", str(out),
                     "--steps", "0"]) == EXIT_OK
        bank, chain = load_config(TOY_CONFIG)
        w = features.load_weights(out, bank, chain)
        assert not w.any()
        assert "0 steps" in capsys.readouterr().out

    def test_steps_below_one_log_row_named(self, tmp_path, capsys):
        out = tmp_path / "w.json"
        assert main(["train", TOY_CONFIG, "--out", str(out),
                     "--steps", "500"]) == EXIT_OK
        bank, chain = load_config(TOY_CONFIG)
        assert features.load_weights(out, bank, chain).any()
        text = capsys.readouterr().out
        assert text.startswith("trained 500 steps; ")
        assert "zero weight" not in text

    def test_summary_names_the_logged_step(self, tmp_path, capsys):
        out, log = tmp_path / "w.json", tmp_path / "log.csv"
        assert main(["train", TOY_CONFIG, "--out", str(out), "--log",
                     str(log), "--steps", "1500"]) == EXIT_OK
        step, _, _, _, cum = log.read_text().splitlines()[-1].split(",")
        assert step == "1000"
        assert (f"trained 1500 steps; at step 1000, the last logged: "
                f"cumulative reward {float(cum):.1f}, "
                in capsys.readouterr().out)

    def test_seed_determinism_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "w1.json", tmp_path / "w2.json"
        for out in (out1, out2):
            assert main(["train", TOY_CONFIG, "--out", str(out),
                         "--steps", "3000", "--seed", "7"]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_log_written(self, tmp_path):
        out = tmp_path / "w.json"
        log = tmp_path / "log.csv"
        assert main(["train", TOY_CONFIG, "--out", str(out), "--log",
                     str(log), "--steps", "2000"]) == EXIT_OK
        lines = log.read_text().splitlines()
        assert lines[0].startswith("step,")
        assert len(lines) == 3  # header + one row per 1000 steps

    @pytest.mark.parametrize("flags, field", [
        (["--x0", "-1"], "x0"),
        (["--x0", "4"], "x0"),
        (["--eps-decay", "0"], "eps_decay"),
        (["--steps", "-3"], "t_train"),
        (["--beta0", "nan"], "beta0"),
        (["--seed", "-1"], "seed"),
    ])
    def test_out_of_range_flag_rejected(self, tmp_path, capsys, flags, field):
        out = tmp_path / "w.json"
        assert main(["train", TOY_CONFIG, "--out", str(out)]
                    + flags) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert f"error: {field}: must be" in err
        assert "out of bounds" not in err
        assert "diverged" not in err
        assert not out.exists()

    def test_invalid_config_blocks_training(self, tmp_path):
        path = write_config(tmp_path, gamma=1.5)
        assert main(["train", path, "--out",
                     str(tmp_path / "w.json")]) == EXIT_VALIDATION


class TestCompare:
    def test_small_table_and_csv(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        rc = main(["compare", TOY_CONFIG, "--sizes", "2,3", "--seeds", "0",
                   "--steps", "1000", "--eval-steps", "500",
                   "--out", str(out)])
        assert rc == EXIT_OK
        text = capsys.readouterr().out
        for name in ("greedy", "naive", "rl"):
            assert name in text
        assert out.exists()
        assert len(out.read_text().splitlines()) == 4

    def test_size_syntax_with_x(self, capsys):
        rc = main(["compare", TOY_CONFIG, "--sizes", "2x3", "--seeds", "0",
                   "--steps", "500", "--eval-steps", "200"])
        assert rc == EXIT_OK

    @pytest.mark.parametrize("flags, flag", [
        (["--sizes", "2,a"], "--sizes"),
        (["--sizes", "2,3", "--ramp", "2,b"], "--ramp"),
        # empty tokens used to be dropped: "2,,3" ran as (2, 3)
        (["--sizes", "2,,3"], "--sizes"),
        (["--sizes", "2,3,"], "--sizes"),
        (["--sizes", "x"], "--sizes"),
        (["--sizes", "2,3", "--ramp", "2,"], "--ramp"),
    ])
    def test_non_integer_token_names_flag(self, flags, flag, capsys):
        rc = main(["compare", TOY_CONFIG, *flags, "--seeds", "0",
                   "--steps", "200", "--eval-steps", "100"])
        assert rc == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert f"error: {flag}: expected integers" in err
        assert "invalid literal" not in err

    def test_bad_size_reports_failure(self, capsys):
        rc = main(["compare", TOY_CONFIG, "--sizes", "2,3,4", "--seeds", "0",
                   "--steps", "200", "--eval-steps", "100"])
        assert rc == EXIT_RUNTIME
        assert "FAILED" in capsys.readouterr().out

    @pytest.mark.parametrize("flags, message", [
        (["--sizes", "2,3", "--ramp", "2"], "1 ramps for 2 batteries"),
        (["--sizes", "2,3", "--ramp", "0,0"], "batteries[0].ramp"),
        (["--sizes", "0,3"], "batteries[0].capacity"),
        (["--sizes", "2,3", "--x0", "9"], "x0: must be in [0, 4)"),
        (["--sizes", "2,3", "--x0", "-1"], "x0: must be in [0, 4)"),
        (["--sizes", "2,3", "--eval-steps", "-5"], "T: must be >= 0"),
        (["--sizes", "2,3", "--seeds", "0", "-1"], "seed: must be >= 0"),
    ])
    def test_invalid_row_fails_naming_field(self, capsys, flags, message):
        rc = main(["compare", TOY_CONFIG, "--seeds", "0", "--steps", "100",
                   "--eval-steps", "50"] + flags)
        assert rc == EXIT_RUNTIME
        out, err = capsys.readouterr()
        assert "FAILED: sizes" in out and message in out
        assert "greedy" not in out   # no row of totals was printed
        assert "index" not in out + err

    def test_invalid_schedule_exits_before_any_row(self, capsys):
        rc = main(["compare", TOY_CONFIG, "--sizes", "2,3", "--seeds", "0",
                   "--eps-decay", "0"])
        assert rc == EXIT_RUNTIME
        out, err = capsys.readouterr()
        assert "error: eps_decay: must be" in err
        assert "FAILED" not in out


class TestSolveExact:
    def test_optimality_premises_met_pass(self, capsys):
        # shipped instance: lossless, ramps dominate capacity
        assert main(["solve-exact", TOY_CONFIG]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "greedy-optimality gap" in out

    @pytest.mark.parametrize("tol", ["1e-8", "1e-7"])
    def test_loose_tolerance_passes(self, tol, capsys):
        # the gap is the solve's own error (1.573e-08 and 1.597e-07), which
        # used to read as a FAIL against a bare 1e-8
        assert main(["solve-exact", TOY_CONFIG, "--tol", tol]) == EXIT_OK
        assert "[PASS at 1e-8 + solve error " in capsys.readouterr().out

    def test_suboptimal_greedy_fails(self, tmp_path, capsys, monkeypatch):
        # naive handed over as greedy: its gap on this bank is 4.82
        from battbank import policies
        make = policies.make_policy
        monkeypatch.setattr(policies, "make_policy",
                            lambda name, *args, **kw: make(
                                "naive" if name == "greedy" else name, *args, **kw))
        path = write_config(tmp_path, capacities=(6, 10), ramps=(25, 25),
                            gamma=0.9)
        assert main(["solve-exact", path]) == EXIT_RUNTIME
        out = capsys.readouterr().out
        assert "[FAIL at 1e-8 + solve error " in out
        assert "PASS" not in out

    def test_premises_unmet_no_claim(self, tmp_path, capsys):
        path = write_config(tmp_path, ramps=(2, 2))
        assert main(["solve-exact", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "no optimality claim" in out
        assert "PASS" not in out

    @pytest.mark.parametrize("name", ["lossy_bank", "three_battery_bank"])
    def test_shipped_heterogeneous_banks(self, name, capsys):
        # lossy, ramp-bound banks: valid, solved, and making no greedy claim
        path = str(CONFIGS / f"{name}.json")
        assert main(["validate", path]) == EXIT_OK
        assert "config OK" in capsys.readouterr().out
        assert main(["solve-exact", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "(ramps binding or lossy; no optimality claim)" in out
        assert "PASS" not in out

    def test_oversized_instance_refused(self, tmp_path, capsys):
        path = write_config(tmp_path, capacities=(200, 200, 200),
                            ramps=(2, 2, 2), weights=(1.0, 1.0, 1.0))
        assert main(["solve-exact", path]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "exceeding the cap" in err

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_bad_tolerance_rejected(self, tol, capsys):
        # nan and -1 ran 100,000 sweeps; inf stopped after one and printed PASS
        assert main(["solve-exact", TOY_CONFIG, "--tol", tol]) == EXIT_RUNTIME
        out, err = capsys.readouterr()
        assert "tol: must be finite and >= 0" in err
        assert "PASS" not in out

    def test_zero_tolerance_converges_exactly(self, capsys):
        assert main(["solve-exact", TOY_CONFIG, "--tol", "0"]) == EXIT_OK
        # policy iteration: greedy is optimal on the toy, so one step; value
        # iteration's 331-sweep pin is in test_oracle.py
        assert ("solved in 1 policy-iteration steps; residual 0.000e+00; "
                "greedy-in-q suboptimality bound 0.000e+00"
                in capsys.readouterr().out)

    def test_solution_csv(self, tmp_path):
        out = tmp_path / "sol.csv"
        assert main(["solve-exact", TOY_CONFIG, "--out", str(out)]) == EXIT_OK
        assert len(out.read_text().splitlines()) == 49


def test_weights_round_trip_preserves_policy(tmp_path):
    # train briefly, persist, reload: identical Q-hat on every pair and
    # the same rl choice
    from battbank.env import bank_model
    from battbank.learner import LearnSchedule, train
    from battbank.policies import make_policy

    bank, chain = load_config(TOY_CONFIG)
    w, _ = train(bank, chain, LearnSchedule(t_train=2000, seed=3))
    path = tmp_path / "w.json"
    features.save_weights(path, w, bank, chain)
    w2 = features.load_weights(path, bank, chain)
    np.testing.assert_array_equal(w, w2)
    model = bank_model(bank, chain)
    np.testing.assert_array_equal(features.q_table(model, w),
                                  features.q_table(model, w2))
    rl, rl2 = (make_policy("rl", bank, chain, weights=v) for v in (w, w2))
    np.testing.assert_array_equal(rl, rl2)
