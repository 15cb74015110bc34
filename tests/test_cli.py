import argparse
import hashlib
import json
import math
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from binomfactor import MAX_LIMIT, OutOfRangeError, __version__
from binomfactor.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecomposeCommand:
    def test_showcase_pretty(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "2000", "1000")
        assert code == 0
        assert "(1000, 2000]" in out and "(500, 666]" in out

    def test_exact_endpoints(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "2000", "1000", "--exact")
        assert code == 0
        assert "2000/3" in out

    def test_verify_success(self, capsys):
        code, _, err = run_cli(capsys, "decompose", "2000", "800", "--verify")
        assert code == 0
        assert "verified" in err

    def test_empty_diagonal(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "5", "5")
        assert code == 0
        assert "empty" in out

    def test_domain_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "decompose", "5", "9")
        assert code == 2
        assert "error" in err

    def test_verification_failure_exit_3(self, capsys, monkeypatch):
        # the check never fails on real inputs; force a disagreement to
        # pin the exit-code contract
        import binomfactor.cli as cli_mod
        monkeypatch.setattr(cli_mod, "equivalence_check", lambda n, k, t: 13)
        code, out, err = run_cli(capsys, "decompose", "100", "40", "--verify")
        assert code == 3
        assert "13" in err
        assert "(60, 100]" in out  # stdout is still the normal rendering

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "40", "17", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 40 and doc["k"] == 17
        assert doc["levels"][0]["i"] == 1
        first = doc["levels"][0]["intervals"][0]
        assert set(first["lower"]) == {"num", "den"}

    def test_json_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "decompose", "300", "123", "--format", "json")
        _, out2, _ = run_cli(capsys, "decompose", "300", "123", "--format", "json")
        assert out1 == out2

    def test_verify_does_not_change_stdout(self, capsys):
        _, plain, _ = run_cli(capsys, "decompose", "400", "111", "--format", "json")
        _, verified, _ = run_cli(capsys, "decompose", "400", "111", "--format",
                                 "json", "--verify")
        assert plain == verified

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "dec.json"
        code, out, _ = run_cli(capsys, "decompose", "40", "17",
                               "--format", "json", "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["n"] == 40

    @pytest.mark.parametrize("where", ["missing_dir", "a_directory", "dev_full"])
    def test_unwritable_out_exit_2(self, capsys, tmp_path, where):
        # a path under a missing directory, a path that is a directory, and
        # a device that opens but refuses every write (ENOSPC)
        target = {"missing_dir": tmp_path / "missing" / "x.json", "a_directory": tmp_path,
                  "dev_full": Path("/dev/full")}[where]
        code, out, err = run_cli(capsys, "decompose", "10", "3", "--out", str(target))
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write --out") and str(target) in err
        assert not (tmp_path / "missing").exists()

    def test_reader_closing_stdout_exit_2(self):
        # a reader that stops early (like `| head -c 10`) breaks the pipe
        # mid-output: one error line, exit 2, and nothing more at shutdown
        with subprocess.Popen(
                [sys.executable, "-m", "binomfactor.cli", "decompose", "100000", "40000",
                 "--format", "json"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.read(10) == b'{\n  "k": 4'
            proc.stdout.close()
            err = proc.stderr.read().decode()
        assert proc.returncode == 2
        assert err == "error: cannot write stdout: Broken pipe\n"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_exact_refused_outside_pretty(self, capsys, fmt):
        # --exact shapes only the pretty text: with another format it is
        # refused, not ignored
        code, out, err = run_cli(capsys, "decompose", "12", "5", "--exact", "--format", fmt)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--exact" in err and f"--format {fmt}" in err

    @pytest.mark.parametrize("flags,digest", [
        (["--format", "json"],
         "a961b073ae98ead6948abdcc3fbc1ce9595fd4a08a4c4d4530d65eeafe13b3d5"),
        (["--format", "csv"],
         "ebba1f34b016b67ade246298ce1f62f8ff22d13b66f4c72131f2661c47da6d7a"),
        ([], "57af9921ce415ed037b3833ffbab2c8ece0140a49b58e0f4fddb1d643efb8cda"),
        (["--exact"],
         "85c586528b622717daf9dcc0068dbfdfb5012446b5b42966c376e94655e1bb00"),
    ])
    def test_golden_output(self, capsys, flags, digest):
        # digests of the Fraction-per-interval implementation's output for
        # C(2000, 800): the output bytes are part of the contract
        code, out, _ = run_cli(capsys, "decompose", "2000", "800", *flags)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("flags", [["--format", "json"], ["--format", "csv"], []])
    def test_out_file_bytes_match_stdout(self, capsys, tmp_path, flags):
        target = tmp_path / "dec.out"
        _, out, _ = run_cli(capsys, "decompose", "2000", "800", *flags)
        code, nothing, _ = run_cli(capsys, "decompose", "2000", "800", *flags,
                                   "--out", str(target))
        assert code == 0 and nothing == ""
        assert target.read_bytes() == out.encode()

    @staticmethod
    def _refuse_object_views(monkeypatch, what):
        """Make the object view of a decomposition, the `Fraction` view
        `Decomposition.levels`, raise: every decompose output is rendered
        from the columns."""
        import binomfactor.decomposition as dec_mod

        def refuse(*args, **kwargs):
            raise AssertionError(f"not on the decompose {what} path")
        monkeypatch.setattr(dec_mod.Decomposition, "levels", property(refuse))
        return refuse

    def test_json_streams_without_dumps(self, capsys, monkeypatch):
        # the decompose JSON is written from the columns: neither the
        # object views nor json.dumps may be on its path
        import binomfactor.cli as cli_mod
        refuse = self._refuse_object_views(monkeypatch, "json")
        monkeypatch.setattr(cli_mod.json, "dumps", refuse)
        code, out, _ = run_cli(capsys, "decompose", "2000", "800", "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "a961b073ae98ead6948abdcc3fbc1ce9595fd4a08a4c4d4530d65eeafe13b3d5")

    def test_csv_streams_without_dict(self, capsys, monkeypatch):
        # the decompose CSV is written from the columns, not from row
        # dicts through csv.DictWriter
        import binomfactor.cli as cli_mod
        refuse = self._refuse_object_views(monkeypatch, "csv")
        monkeypatch.setattr(cli_mod.csv, "DictWriter", refuse)
        code, out, _ = run_cli(capsys, "decompose", "2000", "800", "--format", "csv")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "ebba1f34b016b67ade246298ce1f62f8ff22d13b66f4c72131f2661c47da6d7a")

    @pytest.mark.parametrize("flags,digest", [
        ([], "57af9921ce415ed037b3833ffbab2c8ece0140a49b58e0f4fddb1d643efb8cda"),
        (["--exact"],
         "85c586528b622717daf9dcc0068dbfdfb5012446b5b42966c376e94655e1bb00"),
    ])
    def test_pretty_renders_without_objects(self, capsys, monkeypatch, flags, digest):
        # the default form reads the floors of the integer cells, --exact
        # the columns; neither reads the Fraction view
        self._refuse_object_views(monkeypatch, "pretty")
        code, out, _ = run_cli(capsys, "decompose", "2000", "800", *flags)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("k", ["0", "7"])
    def test_csv_empty_decomposition(self, capsys, k):
        code, out, _ = run_cli(capsys, "decompose", "7", k, "--format", "csv")
        assert code == 0 and out == "\r\n"

    @pytest.mark.parametrize("flags", [["--format", "json"], [], ["--format", "csv"]])
    def test_verify_budget_checked_before_output(self, capsys, flags):
        code, out, err = run_cli(capsys, "decompose", "100", "40", "--verify",
                                 "--sieve-limit", "50", *flags)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "sieve limit 100" in err

    def test_size_cap_exit_2(self, capsys):
        # the listings build every interval, so they keep decompose's cap
        for flags in (["--format", "json"], ["--format", "csv"], ["--exact"]):
            start = time.perf_counter()
            code, out, err = run_cli(capsys, "decompose", "100000000", "50000000", *flags)
            assert time.perf_counter() - start < 1.0
            assert code == 2 and out == ""
            assert "error" in err and "n <= 1000000" in err, flags

    def test_pretty_cap_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "decompose", str(MAX_LIMIT + 1), "5")
        assert code == 2 and out == ""
        assert "error" in err and f"n <= {MAX_LIMIT}" in err

    def test_pretty_past_decompose_cap(self, capsys, monkeypatch):
        # the default form reads the ~2*sqrt(n) integer cells, never the
        # ~n/2 intervals of decompose, so it runs far past MAX_DECOMPOSE_N
        import binomfactor.cli as cli_mod

        def refuse(*args, **kwargs):
            raise AssertionError("decompose called on the pretty path")
        monkeypatch.setattr(cli_mod, "decompose", refuse)
        code, out, _ = run_cli(capsys, "decompose", "100000000", "33333334")
        assert code == 0
        assert out.startswith("prime divisors of C(100000000, 33333334) lie in:\n"
                              "  level 1: (66666666, 100000000] u ")

    def test_table_budget_is_out_of_range(self):
        # --sieve-limit is a budget: past it the refusal is OutOfRangeError
        import binomfactor.cli as cli_mod
        with pytest.raises(OutOfRangeError, match="sieve limit 100"):
            cli_mod._table(argparse.Namespace(sieve_limit=50), 100)


class TestIdentityCommand:
    def test_thm1_single(self, capsys):
        code, out, _ = run_cli(capsys, "identity", "thm1", "--n", "2", "--m", "1",
                               "--k", "1000")
        assert code == 0
        assert "lhs=208" in out and "rhs=202" in out

    def test_thm1_zero_row(self, capsys):
        code, out, _ = run_cli(capsys, "identity", "thm1", "--n", "1", "--m", "1",
                               "--k", "50")
        assert code == 0
        assert "residual=0" in out

    def test_thm1_grid_json(self, capsys):
        code, out, _ = run_cli(capsys, "identity", "thm1", "--n", "3", "--m", "1",
                               "--grid", "10,100", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["reports"]) == 2
        assert all(r["identity_id"] == "omega_pi" for r in doc["reports"])

    def test_thm3(self, capsys):
        code, out, _ = run_cli(capsys, "identity", "thm3", "--num-parts", "2",
                               "--den-parts", "1,1", "--k", "10")
        assert code == 0
        assert f"{math.log(184756):.6f}"[:8] in out

    def test_altpi(self, capsys):
        code, out, _ = run_cli(capsys, "identity", "altpi", "--x", "100000")
        assert code == 0
        assert "6492" in out

    def test_bertrand_ok(self, capsys):
        code, out, _ = run_cli(capsys, "identity", "bertrand", "--limit", "10000")
        assert code == 0
        assert "verified" in out

    def test_bertrand_failure_exit_3(self, capsys, monkeypatch):
        # the sweep never fails on real inputs; force a counterexample to
        # pin the exit-code contract: the report is written, then exit 3
        import binomfactor.cli as cli_mod
        monkeypatch.setattr(cli_mod, "bertrand_check", lambda limit, table: 7)
        code, out, _ = run_cli(capsys, "identity", "bertrand", "--limit", "100")
        assert code == 3
        assert out == "pi(2n) > pi(n) for all n <= 100: FAILS at n=7\n"

    def test_sieve_budget_enforced(self, capsys):
        code, _, err = run_cli(capsys, "identity", "altpi", "--x", "100000",
                               "--sieve-limit", "1000")
        assert code == 2
        assert "sieve" in err

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "identity", "thm1", "--n", "2", "--m", "1",
                               "--k", "100", "--format", "csv")
        assert code == 0
        header = out.splitlines()[0]
        assert "identity_id" in header and "residual" in header


class TestBoundsCommand:
    def test_classical_ledger(self, capsys):
        code, out, _ = run_cli(capsys, "bounds")
        assert code == 0
        assert "0.460646" in out and "0.921292" in out
        assert "1.2546" in out and "1.1304" in out and "1.1097" in out

    def test_classical_json_sequence(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--format", "json")
        doc = json.loads(out)
        assert doc["sequence"]["period"] == 60
        assert doc["sequence"]["plus"] == [2, 14, 22, 26, 34, 38, 46, 58]
        assert doc["sequence"]["minus"] == [12, 20, 24, 30, 36, 40, 48, 60]

    def test_non_alternating_exit_4(self, capsys):
        code, _, err = run_cli(capsys, "bounds",
                               "+1/2:1/6,+1/3:1/12,-1/10:1/60,+1/12:1/84")
        assert code == 4
        assert "26" in err

    def test_empty_spec_zeroes(self, capsys):
        # its coefficients are all zero: the zero ledger would claim
        # pi(x) < 0 * x/log x, so it is refused
        code, out, err = run_cli(capsys, "bounds", "")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "all zero" in err

    def test_psi_variant(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--psi", "--k-grid", "7,100")
        assert code == 0
        assert "0.921292" in out

    def test_psi_violated_bracket_exit_3(self, capsys, monkeypatch):
        # a bracket row that fails is written with the others, then exit 3
        import binomfactor.cli as cli_mod
        from binomfactor.chebyshev import PsiBracketRow
        monkeypatch.setattr(cli_mod, "psi_variant_bounds",
                            lambda k_grid, table: (PsiBracketRow(7, 1.0, 2.0, 3.0, False),))
        code, out, _ = run_cli(capsys, "bounds", "--psi", "--k-grid", "7", "--format", "json")
        assert code == 3
        assert json.loads(out)["bracket_rows"] == [
            {"k": 7, "ratio_log": 1.0, "lower": 2.0, "upper": 3.0, "holds": False}]

    @pytest.mark.parametrize("flags", [
        ("--anchor", "6"), ("--iterations", "3"), ("--initial-upper", "2"),
        ("+1/2:1/6,+1/3:1/12,-1/10:1/60",),
    ])
    def test_psi_restated_flags_keep_bytes(self, capsys, flags):
        # a flag that restates what the psi ledger uses is accepted
        _, plain, _ = run_cli(capsys, "bounds", "--psi", "--format", "json")
        code, out, _ = run_cli(capsys, "bounds", "--psi", "--format", "json", *flags)
        assert code == 0 and out == plain

    @pytest.mark.parametrize("flags", [("--anchor", "99"), ("--iterations", "4"),
                                       ("--initial-upper", "3")])
    def test_psi_flags_checked_before_table(self, capsys, monkeypatch, flags):
        # the psi ledger needs no table: a flag it contradicts is refused
        # before the --k-grid table would be built
        import binomfactor.cli as cli_mod

        def refuse(*args, **kwargs):
            raise AssertionError("table built before the flags were checked")
        monkeypatch.setattr(cli_mod, "PrimeTable", refuse)
        code, out, err = run_cli(capsys, "bounds", "--psi", "--k-grid", "300000", *flags)
        assert code == 2 and out == ""
        assert err.startswith("error:") and flags[0] in err

    def test_bad_spec_syntax_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "nonsense")
        assert code == 2

    def test_sequence_expanded_once(self, capsys, monkeypatch):
        import binomfactor.chebyshev as chebyshev
        calls = []
        expand = chebyshev._sequence_from_divisors

        def counted(weighted):
            calls.append(1)
            return expand(weighted)
        monkeypatch.setattr(chebyshev, "_sequence_from_divisors", counted)
        for fmt in ("json", "pretty"):
            calls.clear()
            code, _, _ = run_cli(capsys, "bounds", "--format", fmt)
            assert code == 0 and len(calls) == 1, fmt


#: sha256 of each record command's output, in json, csv and pretty.
_RECORD_DIGESTS = {
    ("bounds",): (
        "59bc28ac70e6b9f0fcac724354f8bcd4a58ee5c4699ce49f688456cf9cacb8c7",
        "eda3c63c2be169f78d966a4556a1785c844f3cf8e4358bb9772bf8b941c03976",
        "b6ba6ba915e484e76ce22e820675ddc616fd1bf0f04d3f9d24422398c2e8ec55"),
    ("bounds", "--psi", "--k-grid", "7,100,1000"): (
        "e559413c8dc48e0e88572a9054f04a9d1f2472e7f4ab58d4f4ceaa7cac16d1fe",
        "891bdd6a71bf3525414dca1ddedb88264df5abc721f85eb9bb0e446f2ee30d4c",
        "488921266aa8cb38fb27ef100e7f34c1a6182e1e5f2e585843b53fee05cb423a"),
    ("identity", "thm1", "--n", "2", "--m", "1", "--grid", "100,1000,5000"): (
        "4be938e845f43ae9e86e59ca8ee2826dc9c6bd28ee1954482824d93797fe16d2",
        "773e3c8a0d7bd90c5752d11e5224753c65f9e21b79ecccb6fc918fff4edf2dc9",
        "bad9ef1387f601a2dc7fa2e839b4366125f38eeff6eb1f7873cc3fab9870cf4e"),
    ("identity", "thm3", "--num-parts", "30,1", "--den-parts", "15,10,6",
     "--grid", "10,100"): (
        "58a41a51ae4ff4129df1ce8705e6d158be3ae8a7b2b21f371739dc9bb871209c",
        "21c578c1500f1293b5b5384a92c4444a52c7b3ea945f0cab6adc33cea1177db4",
        "5680178a436d7ba2b57f010c21c1521a112ad5dac53c9ac1f9874560e260e1c3"),
}


class TestRecordBytes:
    """The records of `identity thm1`, `identity thm3` and `bounds` keep
    their bytes in every format: the output bytes are part of the contract."""

    @pytest.mark.parametrize("argv,fmt,digest", [
        pytest.param(argv, fmt, digest, id=f"{' '.join(argv)} {fmt}")
        for argv, digests in _RECORD_DIGESTS.items()
        for fmt, digest in zip(("json", "csv", "pretty"), digests)
    ])
    def test_golden_output(self, capsys, argv, fmt, digest):
        code, out, _ = run_cli(capsys, *argv, "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestLogkCommand:
    def test_log2(self, capsys):
        code, out, _ = run_cli(capsys, "logk", "2", "--terms", "1000000")
        assert code == 0
        assert "0.693146" in out

    def test_log3(self, capsys):
        code, out, _ = run_cli(capsys, "logk", "3", "--terms", "1000000")
        assert code == 0
        assert "1.098612" in out or "1.098611" in out

    def test_log1_fast_path(self, capsys):
        code, out, _ = run_cli(capsys, "logk", "1")
        assert code == 0
        assert "0.000000000" in out

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, "logk", "5", "--terms", "10000",
                               "--format", "json")
        doc = json.loads(out)
        assert doc["k"] == 5 and doc["terms"] == 10000
        assert abs(doc["partial_sum"] - math.log(5)) < doc["tail_bound"]


class TestEnvironment:
    def test_env_var_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("BINOMFACTOR_SIEVE_LIMIT", "100")
        code, _, err = run_cli(capsys, "identity", "altpi", "--x", "100000")
        assert code == 2

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("BINOMFACTOR_SIEVE_LIMIT", "100")
        code, _, _ = run_cli(capsys, "identity", "altpi", "--x", "100000",
                             "--sieve-limit", "200000")
        assert code == 0

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "binomfactor.cli", "logk", "2", "--terms", "100"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "log 2" in proc.stdout


class TestInputErrors:
    @pytest.mark.parametrize("argv,cause", [
        pytest.param(("identity", "altpi", "--x", "nan"), "finite", id="altpi-nan"),
        pytest.param(("identity", "altpi", "--x", "inf"), "finite", id="altpi-inf"),
        pytest.param(("logk", "2", "--terms", "10000000000000000"), "terms <=",
                     id="logk-terms"),
        pytest.param(("bounds", "--psi", "--k-grid", "-5"), "k >= 1", id="psi-k-neg"),
        pytest.param(("bounds", "--psi", "--k-grid", "0"), "k >= 1", id="psi-k-zero"),
        pytest.param(("bounds", "+1/2:1/5"), "must divide", id="term-a-b"),
        pytest.param(("logk", "9007199254740993", "--terms", "1"),
                     "k * terms <= 9007199254740992", id="logk-work-k"),
        pytest.param(("logk", "1000000", "--terms", "10000000000"),
                     "k * terms <= 9007199254740992", id="logk-work"),
        pytest.param(("bounds", "+1/1000003:1/2000006,+1/999983:1/1999966"),
                     "period lcm <=", id="bounds-period"),
        pytest.param(("bounds", "--iterations", "100000000"), "iterations <=",
                     id="bounds-iterations-big"),
        pytest.param(("bounds", "--iterations", "-1"), "iterations <=",
                     id="bounds-iterations-neg"),
        pytest.param(("bounds", "--initial-upper", "nan"), "finite",
                     id="bounds-upper-nan"),
        pytest.param(("identity", "thm1", "--n", "2", "--m", "1", "--grid", ","),
                     "--k or --grid", id="thm1-empty-grid"),
        pytest.param(("bounds", "--psi", "--iterations", "6", "--initial-upper", "5",
                      "--anchor", "99", "--format", "json"), "--iterations",
                     id="psi-flags"),
        pytest.param(("bounds", "--psi", "--iterations", "0"), "--iterations",
                     id="psi-iterations-zero"),
        pytest.param(("bounds", "--psi", "--initial-upper", "5"), "--initial-upper",
                     id="psi-initial-upper"),
        pytest.param(("bounds", "--psi", "--anchor", "99"), "--anchor", id="psi-anchor"),
        pytest.param(("bounds", "--psi", "+1/2:1/6"), "--psi", id="psi-spec"),
        pytest.param(("bounds", "--k-grid", "100"), "--k-grid", id="k-grid-without-psi"),
        pytest.param(("identity", "altpi", "--x", "1000", "--n", "5"), "--n",
                     id="altpi-unread-n"),
        pytest.param(("identity", "bertrand", "--limit", "10", "--grid", "5"), "--grid",
                     id="bertrand-unread-grid"),
        pytest.param(("identity", "thm3", "--num-parts", "2", "--den-parts", "1,1",
                      "--k", "10", "--x", "5", "--limit", "3"), "--x",
                     id="thm3-unread-x"),
        pytest.param(("identity", "thm1", "--n", "2", "--m", "1", "--k", "7", "--grid", "10"),
                     "--grid: not allowed with argument --k", id="thm1-k-and-grid"),
        pytest.param(("identity", "thm1", "--n", "2", "--m", "1", "--k", "0"),
                     "k >= 1", id="thm1-k-zero"),
        pytest.param(("bounds", "+1/2:1/6,-1/2:1/6"), "all zero", id="bounds-cancelling"),
        pytest.param(("bounds", "", "--anchor", "7"), "all zero", id="bounds-zero-anchor"),
        pytest.param(("bounds", "+1/3:1/15"), "a*b/(b-a) is not an integer",
                     id="term-scaling"),
        pytest.param(("bounds", "+1/2:1/6,+2/3:1/12"), "'+2/3:1/12'", id="term-syntax"),
        pytest.param(("bounds", "+1/2:1/" + "6" * 5000), "too many digits", id="term-digits"),
        pytest.param(("identity", "thm1", "--n", "9" * 4000, "--m", "1", "--k", "9" * 4000),
                     "an integer of", id="thm1-sieve-past-int-str"),
        pytest.param(("identity", "bertrand", "--limit", "9" * 4300), "an integer of",
                     id="bertrand-sieve-past-int-str"),
        pytest.param(("bounds", "--psi", "--k-grid", "9" * 4300), "an integer of",
                     id="psi-sieve-past-int-str"),
        pytest.param(("bounds", "--anchor", "9" * 4300), "an integer of",
                     id="anchor-past-int-str"),
        pytest.param(("bounds", "--psi", "--anchor", "9" * 4300), "an integer of",
                     id="psi-anchor-past-int-str"),
    ])
    def test_exit_2_with_cause(self, capsys, argv, cause):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("error:") and cause in err

    @pytest.mark.parametrize("argv,named", [
        pytest.param(("decompose", "abc", "5"), "'abc'", id="decompose-not-int"),
        pytest.param(("decompose", "10"), "required: k", id="decompose-no-k"),
        pytest.param(("decompose", "10", "3", "--format", "xml"), "'xml'", id="format-xml"),
        pytest.param((), "required: command", id="no-command"),
        pytest.param(("identity",), "required: kind", id="identity-no-kind"),
        pytest.param(("identity", "thm1", "--n", "2", "--m", "1"), "--k --grid",
                     id="thm1-neither-k-nor-grid"),
        pytest.param(("identity", "thm1", "--n", "2", "--m", "1", "--k", "7", "--x", "5"),
                     "unrecognized arguments: --x 5", id="thm1-reads-no-x"),
        pytest.param(("identity", "thm3", "--num-parts", "2", "--den-parts", "1,1",
                      "--k", "10", "--limit", "3"), "unrecognized arguments: --limit 3",
                     id="thm3-reads-no-limit"),
        pytest.param(("identity", "thm3", "--num-parts", "2", "--den-parts", "1,1",
                      "--k", "10", "--n", "5"), "unrecognized arguments: --n 5",
                     id="thm3-reads-no-n"),
        pytest.param(("identity", "altpi", "--x", "100", "--m", "1"),
                     "unrecognized arguments: --m 1", id="altpi-reads-no-m"),
        pytest.param(("identity", "bertrand", "--limit", "10", "--k", "5"),
                     "unrecognized arguments: --k 5", id="bertrand-reads-no-k"),
        pytest.param(("identity", "thm3", "--num-parts", "2", "--den-parts", "1,1",
                      "--grid", "10", "--k", "10"), "--k: not allowed with argument --grid",
                     id="thm3-k-and-grid"),
        pytest.param(("identity", "--format", "json", "altpi", "--x", "100"), "'json'",
                     id="common-flag-before-kind"),
    ])
    def test_malformed_line_one_path(self, capsys, argv, named):
        # argparse's refusals take the path of every other bad input: exit 2
        # returned by main, nothing on stdout, "error: ..." on stderr
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and named in err

    @pytest.mark.parametrize("kind,flags", [
        ("thm1", {"--n", "--m", "--k", "--grid"}),
        ("thm3", {"--num-parts", "--den-parts", "--k", "--grid"}),
        ("altpi", {"--x"}),
        ("bertrand", {"--limit"}),
    ], ids=["thm1", "thm3", "altpi", "bertrand"])
    def test_kind_help_lists_its_flags(self, capsys, kind, flags):
        with pytest.raises(SystemExit) as leaving:
            main(["identity", kind, "--help"])
        assert leaving.value.code == 0
        listed = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        assert listed == flags | {"--help", "--sieve-limit", "--format", "--out"}

    def test_version_exits_0(self, capsys):
        with pytest.raises(SystemExit) as leaving:
            main(["--version"])
        assert leaving.value.code == 0
        assert capsys.readouterr().out == f"{__version__}\n"


def _readme_commands():
    """(argv, documented exit code) of each ``binomfactor ...`` line of the
    README: a trailing "# ... exit N" comment documents N, any other line 0."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    commands = []
    for line in readme.read_text().splitlines():
        if line.startswith("binomfactor "):
            documented = re.search(r"\bexit (\d+)", line.partition("#")[2])
            commands.append((shlex.split(line, comments=True)[1:],
                             int(documented.group(1)) if documented else 0))
    return commands


README_COMMANDS = _readme_commands()


class TestReadmeCommands:
    """Every command line the README shows runs and exits as documented."""

    def test_block_found(self):
        assert len(README_COMMANDS) >= 11
        assert sorted({code for _, code in README_COMMANDS}) == [0, 4]

    @pytest.mark.parametrize("argv,code", README_COMMANDS,
                             ids=[" ".join(argv) for argv, _ in README_COMMANDS])
    def test_exit_code(self, capsys, monkeypatch, argv, code):
        monkeypatch.delenv("BINOMFACTOR_SIEVE_LIMIT", raising=False)
        got, out, err = run_cli(capsys, *argv)
        assert got == code, err
        assert out if code == 0 else err
