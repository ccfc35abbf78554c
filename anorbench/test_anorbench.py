"""Self-tests of the benchmark: ``python3 -m pytest anorbench -q``."""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from scenarios import FIG11_TRIALS, SCENARIOS, AnorScenario, _RoundCheck  # noqa: E402
from tracer import FRAMEWORK, Hook, LayerTracer, _classes, anor_hooks  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


CLOCK = FakeClock()


class Inner:
    def work(self) -> str:
        CLOCK.now += 3.0
        return "inner"


class Outer:
    def work(self, inner: Inner) -> str:
        CLOCK.now += 2.0
        inner.work()
        CLOCK.now += 1.0
        inner.work()
        CLOCK.now += 4.0
        return "outer"


def synthetic_tracer() -> LayerTracer:
    hooks = [Hook("outer", Outer, ("work",)), Hook("inner", Inner, ("work",))]
    return LayerTracer(hooks, clock=CLOCK)


def short_anor(**config) -> AnorScenario:
    return AnorScenario("short", panel=1, duration=600.0, why="test", **config)


def test_self_time_of_nested_calls() -> None:
    CLOCK.now = 0.0
    with synthetic_tracer() as tracer:
        assert Outer().work(Inner()) == "outer"
    CLOCK.now += 5.0  # time outside every span belongs to the framework
    report = tracer.report(wall=CLOCK.now)
    assert report["outer"] == {"calls": 1, "self_s": 7.0}
    assert report["inner"] == {"calls": 2, "self_s": 6.0}
    assert report[FRAMEWORK] == {"calls": 1, "self_s": 5.0}
    assert sum(v["self_s"] for v in report.values()) == CLOCK.now


def test_wrappers_are_removed_after_a_traced_run() -> None:
    originals = {
        (klass, name): klass.__dict__.get(name)
        for hook in anor_hooks()
        for klass in _classes(hook)
        for name in hook.methods
    }
    scenario = short_anor()
    with LayerTracer() as tracer:
        assert tracer.installed
        scenario.execute(scenario.prepare(0))
    assert not tracer.installed
    traced_calls = tracer.report(1.0)["budget"]["calls"]
    assert traced_calls > 0
    for (klass, name), fn in originals.items():
        assert klass.__dict__.get(name) is fn, f"{klass.__name__}.{name} still wrapped"
    scenario.execute(scenario.prepare(0))  # an untraced run after it
    assert tracer.report(1.0)["budget"]["calls"] == traced_calls


def test_wrappers_are_removed_when_the_run_raises() -> None:
    original = Inner.__dict__["work"]
    with pytest.raises(RuntimeError):
        with synthetic_tracer():
            raise RuntimeError("boom")
    assert Inner.__dict__["work"] is original


def test_traced_run_reproduces_untraced_outputs() -> None:
    scenario = short_anor(telemetry_enabled=True, audit_enabled=True)
    _, plain = scenario.execute(scenario.prepare(3))
    with LayerTracer() as tracer:
        wall, traced = scenario.execute(scenario.prepare(3))
    assert traced.key() == plain.key()
    report = tracer.report(wall)
    assert report["telemetry"]["calls"] > 0
    assert sum(v["self_s"] for v in report.values()) == pytest.approx(wall, rel=1e-12)


def test_setup_sample_fails_on_a_probe_that_raises_or_hangs(monkeypatch) -> None:
    monkeypatch.setattr(bench, "SETUP_TIMEOUT_S", 0.5)
    py = sys.executable
    assert bench.setup_sample([py, "-c", "print('ready')"]) > 0.0
    assert bench.setup_sample([py, "-c", "raise SystemExit(3)"]) is None
    assert bench.setup_sample([py, "-c", "print('ready'); raise SystemExit(3)"]) is None
    assert bench.setup_sample([py, "-c", "import time; time.sleep(30)"]) is None
    assert bench.setup_sample(
        [py, "-c", "import time; print('ready', flush=True); time.sleep(30)"]) is None


def test_round_check_counts_rounds_over_the_ceiling() -> None:
    from repro.core.cluster_manager import BudgetRound

    def rnd(planned: float) -> BudgetRound:
        return BudgetRound(time=0.0, target=1000.0, correction=0.0, idle_power=100.0,
                           reserved=0.0, allocated=planned - 100.0, floor=500.0,
                           stale_jobs=0, dormant_jobs=0, active_jobs=1)

    class Manager:
        last_round = None
        plan = [rnd(1000.0), None, rnd(1000.05), rnd(1000.2)]

        def step(self, now: float) -> None:
            self.last_round = self.plan.pop(0)

    manager = Manager()
    check = _RoundCheck(manager)
    for t in range(4):
        manager.step(float(t))
    assert (check.rounds, check.failed) == (3, 1)


def test_fig11_scenario_matches_run_fig11() -> None:
    from repro.experiments.fig11 import DEFAULT_BANDS, run_fig11

    scenario = SCENARIOS["fig11_sweep"]
    _, out = scenario.execute(scenario.prepare(5))
    ref = run_fig11(seed=5, trials=FIG11_TRIALS)
    assert out.ops == len(DEFAULT_BANDS) * FIG11_TRIALS == scenario.nominal_ops
    assert out.track_err_p90 == float(np.median(ref.tracking90))
    qos = np.concatenate([v.ravel() for v in ref.qos90.values()])
    assert out.qos_p90 == pytest.approx(float(np.nanmean(qos)), rel=1e-12)


def test_benchmark_json_matches_the_benchmark() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["anorbench"]
    assert [w["name"] for w in spec["workloads"]] == list(SCENARIOS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == bench.END_TO_END
    run = bench.Run(short_anor(), seed=0, trace=True)
    run.measure(0.0)
    metrics, times = run.layer_metrics()
    assert [m["name"] for m in spec["per_layer"]] == list(metrics)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: u for k, (_, u) in metrics.items()}
    names = [*metrics, *times, *bench.END_TO_END, *(w["name"] for w in spec["workloads"])]
    bad = [n for n in names if not NAME.match(n)]
    assert not bad, bad
