"""Unit tests for repro.runconfig: one frozen run configuration, one
active instance, and one context manager that installs it."""

import dataclasses
import pickle

import pytest

from repro.errors import ExecutionError
from repro.numeric import SentinelConfig
from repro.robust import FaultPlan, FaultSpec
from repro.runconfig import EXECUTOR_NAMES, RunConfig, configured, current


class TestRunConfig:
    def test_defaults(self):
        config = RunConfig()
        assert (config.executor, config.sentinels, config.faults) == (
            "interpreter", None, None)
        assert not config.hooked

    def test_is_frozen(self):
        config = RunConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.executor = "vectorized"
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.hooked = True

    def test_validates_the_executor_name(self):
        for name in EXECUTOR_NAMES:
            assert RunConfig(executor=name).executor == name
        with pytest.raises(ExecutionError,
                           match=r"unknown executor 'turbo'; choose from"):
            RunConfig(executor="turbo")

    def test_hooked_follows_sentinels_and_faults(self):
        assert RunConfig(sentinels=SentinelConfig()).hooked
        assert RunConfig(faults=FaultPlan()).hooked
        assert not RunConfig(executor="guarded").hooked

    def test_pickle_round_trip(self):
        config = RunConfig(
            "guarded", sentinels=SentinelConfig(denormal=True),
            faults=FaultPlan([FaultSpec("exec.interp.step", "raise")],
                             seed=3))
        back = pickle.loads(pickle.dumps(config))
        assert (back.executor, back.sentinels) == (
            "guarded", SentinelConfig(denormal=True))
        assert back.faults.faults == config.faults.faults
        assert back.faults.seed == 3
        assert back.hooked

    def test_run_fields(self):
        assert RunConfig().run_fields() == {
            "executor": "interpreter", "guard_mode": False,
            "fault_plan_active": False, "sentinels": False}
        assert RunConfig("vectorized").run_fields()["guard_mode"] is False
        tuned = RunConfig("guarded", sentinels=SentinelConfig(),
                          faults=FaultPlan())
        assert tuned.run_fields() == {
            "executor": "guarded", "guard_mode": True,
            "fault_plan_active": True, "sentinels": True}


class TestConfigured:
    def test_installs_a_changed_copy_and_restores(self):
        before = current()
        with configured(sentinels=SentinelConfig()) as config:
            assert current() is config
            assert config.sentinels == SentinelConfig()
            assert config.executor == before.executor
        assert current() is before

    def test_installs_a_given_config(self):
        before = current()
        given = RunConfig("vectorized", sentinels=SentinelConfig())
        with configured(given, executor="guarded") as config:
            assert config == dataclasses.replace(given, executor="guarded")
        assert current() is before

    def test_restores_on_exception(self):
        before = current()
        with pytest.raises(RuntimeError, match="boom"):
            with configured(executor="guarded", faults=FaultPlan()):
                raise RuntimeError("boom")
        assert current() is before

    def test_invalid_change_leaves_the_active_config(self):
        before = current()
        with pytest.raises(ExecutionError):
            with configured(executor="turbo"):
                pass
        assert current() is before

    def test_inner_faults_keep_outer_sentinels(self):
        cfg, plan = SentinelConfig(nan=False), FaultPlan()
        with configured(sentinels=cfg):
            with configured(faults=plan) as inner:
                assert inner.sentinels is cfg and inner.faults is plan
            assert current().faults is None
            assert current().sentinels is cfg


class TestFuzzItemConfiguration:
    @staticmethod
    def _spec():
        from repro.fuzz import generate_spec, get_profile

        return generate_spec(7, get_profile("small"), 0)

    def test_run_item_without_faults_keeps_an_outer_plan(self):
        from repro.fuzz import run_item

        plan = FaultPlan([FaultSpec("exec.interp.step", "raise")])
        with configured(faults=plan):
            run_item(self._spec(), "small")
        assert plan.fired

    def test_run_item_faults_replace_an_outer_plan(self):
        from repro.fuzz import run_item

        outer = FaultPlan([FaultSpec("exec.interp.step", "raise")])
        with configured(faults=outer):
            run_item(self._spec(), "small",
                     faults=(FaultSpec("exec.interp.step", "raise"),))
        assert not outer.fired
