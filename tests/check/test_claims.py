"""The claims scoreboard on canned results: verdicts are pure, a false one
renders FAIL and fails ``check claims``, and a verdict cannot read a config
its claim did not declare."""

import pytest

from repro.check import claims
from repro.experiments import runner, scaled_datacenter, scaled_incast
from repro.experiments.cli import main as cli_main
from repro.experiments.parallel import Results, run_campaign, run_config
from repro.sim import engine
from repro.units import ms

SMALL = scaled_incast("hpcc", 4)


@pytest.fixture(scope="module")
def canned():
    """One small real result per config family, served for every config."""
    return {
        "IncastConfig": run_config(SMALL),
        "DatacenterConfig": run_config(scaled_datacenter("hpcc", duration_ns=ms(0.2))),
    }


@pytest.fixture
def serve_canned(canned, monkeypatch):
    monkeypatch.setattr(
        "repro.experiments.parallel.run_config",
        lambda cfg: canned[type(cfg).__name__],
    )
    runner.clear_caches()
    yield
    runner.clear_caches()


def _scoreboard(table, monkeypatch, capsys):
    monkeypatch.setattr(claims, "CLAIMS", table)
    rc = cli_main(["check", "claims"])
    return rc, capsys.readouterr().out


def test_a_false_verdict_renders_fail_and_fails_check_claims(serve_canned, monkeypatch, capsys):
    holds = claims._compare("corr-at-most-one", "test", claims.CORR, SMALL, "<", 1.01)
    impossible = claims._compare("corr-above-one", "test", claims.CORR, SMALL, ">", 1.0)

    rc, out = _scoreboard([holds], monkeypatch, capsys)
    assert rc == 0
    assert "| corr-at-most-one | test |" in out and "| pass | 1 run |" in out

    rc, out = _scoreboard([holds, impossible], monkeypatch, capsys)
    assert rc == 1
    (line,) = [line for line in out.splitlines() if line.startswith("| corr-above-one |")]
    assert "| FAIL |" in line
    assert "1/2 claims hold." in out


def test_a_verdict_reading_an_undeclared_config_raises(serve_canned):
    other = scaled_incast("swift", 4)
    sneaky = claims.Claim(
        "sneaky", "test", lambda: [SMALL], lambda runs: (str(runs[other]), "", True, "")
    )
    outcome = run_campaign(sneaky.configs())
    with pytest.raises(LookupError, match="not among the declared configs"):
        sneaky.verdict(Results(outcome, sneaky.configs()))


def test_evaluating_the_records_simulates_nothing(serve_canned):
    """Claims that declare configs read only the campaign's outcome.  (Those
    with none -- closed forms, structure, custom-CC ablations -- compute by
    design.)"""
    declared = [claim for claim in claims.CLAIMS if claim.configs()]
    outcome = run_campaign(claims.campaign(declared))
    runner.clear_caches()
    before = engine.total_events_executed()
    rows = claims.evaluate(declared, outcome)
    assert engine.total_events_executed() == before
    assert [row.claim for row in rows] == [claim.id for claim in declared]
