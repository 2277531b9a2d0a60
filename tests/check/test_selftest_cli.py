"""The CLI ``check`` family and the injected-violation self-test."""

import pytest

from repro.check import invariants
from repro.check.invariants import InvariantViolation
from repro.check.selftest import run_injected_violation
from repro.experiments import cli


class TestSelftest:
    def test_sanitizer_catches_the_injected_violation(self):
        with invariants.capture():
            with pytest.raises(InvariantViolation, match=r"\[pfc-lossless\]"):
                run_injected_violation()

    def test_cli_selftest_propagates_the_violation(self):
        # The console script exits non-zero via the uncaught exception; CI
        # inverts that exit code, so a silent sanitizer turns the build red.
        with pytest.raises(InvariantViolation, match=r"\[pfc-lossless\]"):
            cli.main(["check", "selftest"])
        assert invariants.get() is None  # disabled even on the raise path


class TestCheckCli:
    def test_check_run_sanitizes_a_reference_preset(self, capsys):
        assert cli.main(["check", "run", "--preset", "incast"]) == 0
        out = capsys.readouterr().out
        assert "[sanitize]" in out and "0 violations" in out
        assert invariants.get() is None

    def test_check_digest_is_deterministic(self, capsys, tmp_path):
        out_file = tmp_path / "digests.txt"
        code = cli.main(
            ["check", "digest", "--preset", "incast", "--runs", "2",
             "--out", str(out_file)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "determinism: ok" in out
        lines = out_file.read_text().splitlines()
        assert len(lines) == 2
        digests = {line.split()[0] for line in lines}
        assert len(digests) == 1
        assert all(len(d) == 64 for d in digests)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["digest", "--runs", "0"], "--runs must be >= 1"),
            (["differential", "--jobs", "1"], "--jobs must be >= 2"),
        ],
    )
    def test_counts_that_make_a_check_vacuous_are_refused(self, argv, message, capsys):
        # Zero digests would print "determinism: ok"; --jobs 1 would compare
        # an in-process campaign with an in-process one.
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["check", *argv])
        assert exc_info.value.code == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "ok" not in captured.out

    def test_check_differential_matrix_via_cli(self, capsys):
        assert cli.main(["check", "differential", "--preset", "incast"]) == 0
        out = capsys.readouterr().out
        assert "differential matrix: ok" in out
        assert out.count("[ok ]") == 4

    def test_sanitize_flag_prints_summary(self, capsys, tmp_path):
        code = cli.main(
            ["--fig", "8", "--no-store", "--sanitize", "--scale", "scaled"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "[sanitize]" in out and "0 violations" in out
        assert invariants.get() is None
