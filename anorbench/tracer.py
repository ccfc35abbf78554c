"""Per-layer self time, measured from outside the program.

:class:`LayerTracer` wraps the public entry points of each ANOR layer with
timing wrappers installed on the classes while a ``with`` block runs, and
restores the original functions when it exits.  Nothing inside ``repro`` is
edited or imported differently: with no tracer active the program runs
exactly the code it ships.

Each wrapped call is a span.  Spans nest on one stack (the simulation is
single-threaded), so a layer's *self time* is the span's duration minus the
time covered by the spans it calls into.  Self times over every span add up
to the time covered by the outermost spans; whatever the timed region spent
outside any span is the framework's own self time (see :meth:`report`).
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable

#: Layer whose self time is the timed region minus every span.
FRAMEWORK = "core.framework"


@dataclass(frozen=True)
class Hook:
    """One layer's wrapped methods on one class.

    ``subclasses`` also wraps every subclass that defines the method itself
    (all budgeters, all schedulers).  ``when`` filters instances: a call on an
    instance it rejects runs unrecorded (the disabled telemetry bus is an
    ``EventBus`` too, and the null instruments must not count).
    ``keep_durations`` stores every span's duration for a percentile.
    """

    layer: str
    cls: type
    methods: tuple[str, ...]
    subclasses: bool = False
    when: Callable[[Any], bool] | None = None
    keep_durations: bool = False


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    open: int = 0  # spans of this layer currently on the stack
    durations: list[float] = field(default_factory=list)


def anor_hooks() -> list[Hook]:
    """The public calls timed per layer, named by module."""

    def cls(path: str) -> type:
        module, name = path.rsplit(".", 1)
        return getattr(importlib.import_module(module), name)

    # Import every concrete budgeter and scheduler so subclass walks see them.
    for module in ("repro.budget", "repro.sched.fcfs", "repro.sched.backfill"):
        importlib.import_module(module)
    return [
        Hook("budget", cls("repro.budget.base.PowerBudgeter"), ("allocate",),
             subclasses=True, keep_durations=True),
        Hook("core.cluster_manager", cls("repro.core.cluster_manager.ClusterPowerManager"),
             ("step",), keep_durations=True),
        Hook("core.job_endpoint", cls("repro.core.job_endpoint.JobTierEndpoint"), ("step",)),
        Hook("modeling", cls("repro.modeling.online.OnlineModeler"), ("observe",)),
        Hook("geopm", cls("repro.geopm.agent.JobAgentGroup"), ("step",)),
        Hook("hwsim", cls("repro.hwsim.cluster.EmulatedCluster"),
             ("advance", "advance_stride")),
        Hook("sched", cls("repro.sched.base.Scheduler"), ("select",), subclasses=True),
        Hook("core.transport", cls("repro.core.transport.LatencyChannel"),
             ("send", "receive")),
        Hook("core.reliable", cls("repro.core.reliable.ReliableLink"),
             ("send_down", "send_up", "recv_up", "recv_down")),
        Hook("core.audit", cls("repro.core.audit.CapComplianceAuditor"), ("audit_round",)),
        Hook("plan", cls("repro.plan.planner.RecedingHorizonPlanner"),
             ("observe", "rebuild", "dispatch")),
        Hook("facility", cls("repro.facility.breaker.PowerBreaker"), ("observe",)),
        Hook("faults", cls("repro.faults.injector.FaultInjector"), ("tick",)),
        Hook("telemetry", cls("repro.telemetry.events.EventBus"),
             ("begin_span", "end_span", "event", "incident"),
             when=lambda bus: bus.enabled),
        Hook("telemetry", cls("repro.telemetry.metrics.Counter"), ("inc", "set_total")),
        Hook("telemetry", cls("repro.telemetry.metrics.Gauge"), ("set", "inc", "dec")),
        Hook("telemetry", cls("repro.telemetry.metrics.Histogram"), ("observe",)),
        Hook("tabsim", cls("repro.tabsim.simulator.TabularClusterSimulator"), ("step",)),
        Hook("aqa", cls("repro.aqa.scheduler.WeightedScheduler"), ("schedule",)),
    ]


def layer_names(hooks: list[Hook]) -> list[str]:
    """Traced layers in hook order, then the framework."""
    return list(dict.fromkeys(h.layer for h in hooks)) + [FRAMEWORK]


def _classes(hook: Hook) -> list[type]:
    out, todo = [], [hook.cls]
    while todo:
        klass = todo.pop()
        out.append(klass)
        if hook.subclasses:
            todo.extend(klass.__subclasses__())
    return out


class LayerTracer:
    """Context manager that times the hooked calls of one run.

    Besides calls and self time it keeps the few work counts the layer
    metrics need, read from each call's return value:

    * ``refits`` — ``OnlineModeler.observe`` calls that returned True;
    * ``starts`` — ``Scheduler.select`` calls that started a job;
    * ``sends`` / ``drops`` — ``LatencyChannel.send`` calls and those that
      returned False (message lost);
    * ``tick_ticks`` / ``stride_ticks`` — hardware-emulator ticks advanced
      one at a time and inside analytic strides;
    * ``model_evals`` — ``QuadraticPowerModel.power_for_time`` calls made
      while a budget solve is open.
    """

    def __init__(
        self,
        hooks: list[Hook] | None = None,
        *,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.hooks = anor_hooks() if hooks is None else hooks
        self.clock = clock
        self.stats = {name: LayerStats() for name in layer_names(self.hooks)}
        self.counts = dict.fromkeys(
            ("refits", "starts", "sends", "drops", "tick_ticks", "stride_ticks",
             "model_evals"), 0)
        self._stack: list[float] = []
        self._saved: list[tuple[type, str, Any]] = []

    # ------------------------------------------------------------ install

    def __enter__(self) -> "LayerTracer":
        try:
            for hook in self.hooks:
                for klass in _classes(hook):
                    for name in hook.methods:
                        fn = klass.__dict__.get(name)
                        if fn is None or getattr(fn, "__isabstractmethod__", False):
                            continue
                        self._patch(klass, name, self._span(hook, name, fn))
            if "budget" in self.stats:
                from repro.modeling.quadratic import QuadraticPowerModel

                fn = QuadraticPowerModel.__dict__["power_for_time"]
                self._patch(QuadraticPowerModel, "power_for_time", self._eval_counter(fn))
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    def _patch(self, klass: type, name: str, wrapper: Callable) -> None:
        self._saved.append((klass, name, klass.__dict__[name]))
        setattr(klass, name, wrapper)

    def uninstall(self) -> None:
        """Put every original function back, newest patch first."""
        while self._saved:
            klass, name, original = self._saved.pop()
            setattr(klass, name, original)

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    # ------------------------------------------------------------ wrappers

    def _on_result(self, layer: str, method: str) -> Callable[[Any], None] | None:
        counts = self.counts

        def refit(result: Any) -> None:
            counts["refits"] += bool(result)

        def start(result: Any) -> None:
            counts["starts"] += bool(result)

        def send(result: Any) -> None:
            counts["sends"] += 1
            counts["drops"] += result is False

        def tick(result: Any) -> None:
            counts["tick_ticks"] += 1

        def stride(result: Any) -> None:
            counts["stride_ticks"] += result[0]

        return {
            ("modeling", "observe"): refit,
            ("sched", "select"): start,
            ("core.transport", "send"): send,
            ("hwsim", "advance"): tick,
            ("hwsim", "advance_stride"): stride,
        }.get((layer, method))

    def _span(self, hook: Hook, method: str, fn: Callable) -> Callable:
        stats = self.stats[hook.layer]
        stack = self._stack
        clock = self.clock
        when = hook.when
        keep = stats.durations.append if hook.keep_durations else None
        on_result = self._on_result(hook.layer, method)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if when is not None and not when(args[0]):
                return fn(*args, **kwargs)
            stack.append(0.0)
            stats.open += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stats.open -= 1
                stats.calls += 1
                stats.self_s += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                if keep is not None:
                    keep(elapsed)
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def _eval_counter(self, fn: Callable) -> Callable:
        budget = self.stats["budget"]
        counts = self.counts

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if budget.open:
                counts["model_evals"] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    # ------------------------------------------------------------ results

    def report(self, wall: float) -> dict[str, dict[str, float]]:
        """Per-layer ``calls`` and ``self_s`` for a timed region of ``wall`` s.

        The framework's self time is ``wall`` minus every other layer's self
        time, so the values add up to ``wall`` by construction.  Its
        ``calls`` is the number of timed regions (one).
        """
        out = {
            name: {"calls": s.calls, "self_s": s.self_s}
            for name, s in self.stats.items()
            if name != FRAMEWORK
        }
        spans = sum(v["self_s"] for v in out.values())
        out[FRAMEWORK] = {"calls": 1, "self_s": wall - spans}
        return out
