"""Chaos harness tests (repro.check.chaos).

Unit tests for the fault planner and injector, plus one full ladder run
(the same thing ``check chaos`` and the CI chaos-smoke job execute).
"""

import sys

import pytest

from repro.check.chaos import (
    ACTIONS,
    ChaosSpec,
    ChaosTransientError,
    PoisonConfig,
    plan_chaos,
    reference_chaos_configs,
    run_chaos,
)
from repro.experiments.parallel import run_config


class TestPlan:
    def test_deterministic_for_seed(self):
        keys = [f"k{i}" for i in range(6)]
        assert plan_chaos(keys, seed=3) == plan_chaos(keys, seed=3)
        assert plan_chaos(keys, seed=3) != plan_chaos(keys, seed=4)

    def test_every_action_fires_with_enough_keys(self):
        keys = [f"k{i}" for i in range(len(ACTIONS))]
        spec = plan_chaos(keys, seed=0)
        assert sorted(action for _, action in spec.plan) == sorted(ACTIONS)

    def test_unplanned_key_gets_no_fault(self):
        spec = plan_chaos(["a", "b", "c", "d"], seed=0)
        assert spec.action_for("not-in-plan") == "none"


class TestInject:
    def test_transient_raises_the_transient_error(self):
        spec = ChaosSpec(plan=(("k", "transient"),))
        with pytest.raises(ChaosTransientError):
            spec.inject("k", attempt=1)

    def test_faults_fire_on_first_attempt_only(self):
        spec = ChaosSpec(plan=(("k", "transient"),))
        spec.inject("k", attempt=2)  # the retry runs clean

    def test_none_action_is_a_noop(self):
        ChaosSpec(plan=(("k", "none"),)).inject("k", attempt=1)

    def test_kill_does_not_outlive_a_run_that_never_collects(self):
        """The kill fires inside the struck run or not at all: a run that
        fails before its collect phase takes the hook off on its way out."""
        ChaosSpec(plan=(("k", "kill"),)).inject("k", attempt=1)
        try:
            with pytest.raises(ValueError, match="poisoned"):
                run_config(PoisonConfig())
            assert sys.getprofile() is None
        finally:
            sys.setprofile(None)


class TestPoisonConfig:
    def test_run_self_raises_deterministically(self):
        poison = PoisonConfig(label="p")
        with pytest.raises(ValueError, match="poisoned config 'p'"):
            poison.run_self()
        assert poison.cache_key() == PoisonConfig(label="p").cache_key()
        assert poison.cache_key() != PoisonConfig(label="q").cache_key()


class TestLadder:
    def test_too_few_configs_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="n_configs must be >="):
            run_chaos(store_dir=str(tmp_path), n_configs=2)

    def test_jobs1_rejected_before_any_fault_can_strike_the_caller(self, tmp_path, capsys):
        with pytest.raises(ValueError, match="needs worker processes"):
            run_chaos(store_dir=str(tmp_path), jobs=1)
        from repro.experiments.cli import check_main

        with pytest.raises(SystemExit) as exc_info:
            check_main(["chaos", "--jobs", "1"])
        assert exc_info.value.code == 2
        assert "--jobs must be >= 2" in capsys.readouterr().err

    def test_reference_configs_are_distinct(self):
        configs = reference_chaos_configs(4)
        assert len({cfg.cache_key() for cfg in configs}) == 4

    def test_full_ladder_passes(self, tmp_path):
        """The acceptance run: injected kills, hangs, transient faults,
        poison, and store corruption must leave every digest byte-identical
        to the fault-free baseline."""
        journal = tmp_path / "chaos.jsonl"
        report = run_chaos(
            store_dir=str(tmp_path / "store"),
            seed=0,
            n_configs=4,
            jobs=2,
            journal_path=str(journal),
        )
        assert report.ok, report.render()
        assert len(report.checks) == 6
        assert journal.exists()
        rendered = report.render()
        assert "chaos-digests-match-baseline" in rendered
        assert "PASS: 6/6 checks ok" in rendered
