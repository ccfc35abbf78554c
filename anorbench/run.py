"""Same-host benchmark for the ANOR simulator: end to end, then layer by layer.

Usage, from the root of the repository::

    python3 anorbench/run.py --workload fig9_1s --seed 0 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with the program untouched.
``--trace 1`` alternates untraced and traced runs of the same instances and
reports per-layer metrics, timed by wrappers installed from outside
(``tracer.py``).  Either way the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import select
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Fresh interpreters started per run to time set-up; the median is reported.
SETUP_SAMPLES = 7
#: A set-up probe that has not reported ready by then has failed.
SETUP_TIMEOUT_S = 20.0

#: Workloads with telemetry off, where ``telemetry.calls`` must be 0: the
#: "zero cost when off" guarantee.
TELEMETRY_OFF = ("fig9_1s", "fig9_multirate", "fig11_sweep")

# name -> (unit, better) for the end-to-end metrics the JSON line carries.
END_TO_END = {
    "sim_s_per_s": ("s/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "jobs_completed": ("count", "higher"),
}


@dataclass
class Instance:
    """Every run of one panel instance, checked against its first run."""

    seed: int
    outcome: object = None  # Outcome of the first run
    calls: dict | None = None  # per-layer calls of the first traced run
    walls: list[float] = field(default_factory=list)
    traced: list[tuple[float, dict]] = field(default_factory=list)
    broken: bool = False


class Run:
    """One benchmark invocation: the measurement loop and its bookkeeping."""

    def __init__(self, scenario, seed: int, trace: bool) -> None:
        from scenarios import instance_seed
        from tracer import anor_hooks

        self.scenario = scenario
        self.trace = trace
        self.instances = [Instance(instance_seed(seed, i)) for i in range(scenario.panel)]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.counts: dict[str, int] = {}
        self.durations: dict[str, list] = {
            h.layer: [] for h in anor_hooks() if h.keep_durations}

    def measure(self, seconds: float) -> None:
        """Warm up on instance 0, then cycle the panel for ``seconds``.

        Every instance runs at least once; when time remains, instances
        repeat in order, so each repeat is also a determinism check.
        """
        self.run_once(self.instances[0], traced=False, timed=False)
        start = time.perf_counter()
        k = 0
        while k < len(self.instances) or time.perf_counter() - start < seconds:
            inst = self.instances[k % len(self.instances)]
            k += 1
            if inst.broken:
                if all(i.broken for i in self.instances):
                    break
                continue
            self.run_once(inst, traced=False)
            if self.trace and not inst.broken:
                self.run_once(inst, traced=True)

    def run_once(self, inst: Instance, *, traced: bool, timed: bool = True) -> None:
        from tracer import LayerTracer

        scenario = self.scenario
        try:
            system = scenario.prepare(inst.seed)
            if traced:
                with LayerTracer() as tracer:
                    wall, outcome = scenario.execute(system)
            else:
                wall, outcome = scenario.execute(system)
        except Exception:  # a run that raises fails all its operations
            traceback.print_exc(file=sys.stderr)
            self.problems.append(f"seed {inst.seed}: run raised")
            self.attempted += scenario.nominal_ops
            self.failed += scenario.nominal_ops
            inst.broken = True
            return
        self.attempted += outcome.ops
        self.failed += outcome.failed
        if inst.outcome is None:
            inst.outcome = outcome
        elif outcome.key() != inst.outcome.key():
            self.problems.append(
                f"seed {inst.seed}: outputs differ between runs "
                f"({inst.outcome} vs {outcome})"
            )
        if traced:
            layers = tracer.report(wall)
            calls = {name: v["calls"] for name, v in layers.items()}
            counts = dict(tracer.counts)
            if inst.calls is None:
                inst.calls = calls
                for name, value in counts.items():
                    self.counts[name] = self.counts.get(name, 0) + value
                for name in self.durations:
                    self.durations[name].extend(tracer.stats[name].durations)
            elif calls != inst.calls:
                self.problems.append(f"seed {inst.seed}: traced layer calls differ")
            inst.traced.append((wall, layers))
        elif timed:
            inst.walls.append(wall)

    # ----------------------------------------------------------- results

    def done(self) -> list[Instance]:
        return [i for i in self.instances if i.walls and not i.broken]

    def end_to_end(self, setup_s: float) -> dict[str, float]:
        done = self.done()
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "sim_s_per_s": statistics.median(
                [i.outcome.sim_s / statistics.median(i.walls) for i in done] or [0.0]),
            "setup_s": setup_s,
            "peak_rss_mb": rss / (1024 * 1024 if sys.platform == "darwin" else 1024),
            "jobs_completed": sum(i.outcome.jobs_completed for i in done),
        }

    def layers(self) -> tuple[dict[str, dict[str, float]], float, float]:
        """Per-layer self time and calls over the panel, and the two walls.

        For each instance the traced runs are averaged, so self times still
        add up to the (averaged) traced wall; instances are then summed.
        """
        done = [i for i in self.done() if i.traced]
        totals: dict[str, dict[str, float]] = {}
        traced_wall = untraced_wall = 0.0
        for inst in done:
            n = len(inst.traced)
            traced_wall += sum(w for w, _ in inst.traced) / n
            untraced_wall += statistics.median(inst.walls)
            for name in inst.traced[0][1]:
                row = totals.setdefault(name, {"calls": 0, "self_s": 0.0})
                row["calls"] += inst.calls[name]
                row["self_s"] += sum(layers[name]["self_s"] for _, layers in inst.traced) / n
        return totals, traced_wall, untraced_wall

    def layer_metrics(self) -> tuple[dict[str, tuple[float, str]], dict[str, tuple[float, str]]]:
        """(JSON per-layer metrics, per-layer times printed beside them)."""
        import numpy as np

        totals, traced_wall, untraced_wall = self.layers()
        c = self.counts
        metrics: dict[str, tuple[float, str]] = {}
        for name, row in totals.items():
            metrics[f"{name}.calls"] = (row["calls"], "count")
            metrics[f"{name}.share"] = (
                row["self_s"] / traced_wall if traced_wall > 0 else 0.0, "fraction")

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        ticks = c.get("tick_ticks", 0) + c.get("stride_ticks", 0)
        metrics.update({
            "budget.model_evals_per_solve": (
                ratio(c.get("model_evals", 0), totals.get("budget", {}).get("calls", 0)),
                "count"),
            "modeling.refits": (c.get("refits", 0), "count"),
            "hwsim.stride_tick_share": (ratio(c.get("stride_ticks", 0), ticks), "fraction"),
            "sched.start_ratio": (
                ratio(c.get("starts", 0), totals.get("sched", {}).get("calls", 0)), "fraction"),
            "core.transport.drop_ratio": (ratio(c.get("drops", 0), c.get("sends", 0)), "fraction"),
            "trace_overhead": (ratio(traced_wall, untraced_wall) - 1.0, "fraction"),
            "trace.wall_s": (traced_wall, "s"),
        })
        times = {f"{name}.self_s": (row["self_s"], "s") for name, row in totals.items()}
        for name, values in self.durations.items():
            times[f"{name}.p99_us"] = (
                float(np.percentile(values, 99)) * 1e6 if values else 0.0, "us")
        hw, tab = totals.get("hwsim", {}), totals.get("tabsim", {})
        times["hwsim.us_per_tick"] = (ratio(hw.get("self_s", 0.0), ticks) * 1e6, "us")
        times["tabsim.us_per_tick"] = (
            ratio(tab.get("self_s", 0.0), tab.get("calls", 0)) * 1e6, "us")
        times["untraced.wall_s"] = (untraced_wall, "s")
        return metrics, times


# --------------------------------------------------------------- set-up


def setup_probe(workload: str, seed: int) -> None:
    """Child side: import, generate inputs, build instance 0, then say so."""
    from scenarios import SCENARIOS, instance_seed

    SCENARIOS[workload].prepare(instance_seed(seed, 0))
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def setup_sample(cmd: list[str]) -> float | None:
    """Seconds until one probe reports ready, or None if it fails or hangs."""
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
        try:
            readable, _, _ = select.select([child.stdout], [], [], SETUP_TIMEOUT_S)
            line = child.stdout.readline() if readable else ""
            elapsed = time.perf_counter() - start
            child.wait(timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
    return elapsed if line.strip() == "ready" and child.returncode == 0 else None


def measure_setup(workload: str, seed: int) -> tuple[list[float], str | None]:
    """Host seconds from a fresh interpreter to the first simulated tick.

    Returns the samples and, if a probe failed, what went wrong.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        elapsed = setup_sample(cmd)
        if elapsed is None:
            return samples, f"set-up probe failed or took over {SETUP_TIMEOUT_S:g} s"
        samples.append(elapsed)
    return samples, None


# --------------------------------------------------------------- output


def print_outcomes(run: Run) -> None:
    print(f"workload {run.scenario.name}: {run.scenario.why}")
    print(f"{'seed':>10} {'runs':>4} {'median_s':>9} {'sim_s/s':>9} {'jobs':>5} "
          f"{'err_p90':>8} {'qos_p90':>8} {'ops':>5} {'failed':>6}")
    for inst in run.instances:
        out = inst.outcome
        if out is None:
            print(f"{inst.seed:>10}  raised")
            continue
        med = statistics.median(inst.walls) if inst.walls else float("nan")
        print(f"{inst.seed:>10} {len(inst.walls):>4} {med:>9.3f} {out.sim_s / med:>9.1f} "
              f"{out.jobs_completed:>5} {out.track_err_p90:>8.4f} {out.qos_p90:>8.4f} "
              f"{out.ops:>5} {out.failed:>6}")


def print_metrics(rows: list[tuple[str, float, str]]) -> None:
    for name, value, unit in rows:
        print(f"  {name:<34} {value:>16.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from scenarios import SCENARIOS

    if args.workload not in SCENARIOS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(SCENARIOS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    run = Run(SCENARIOS[args.workload], args.seed, bool(args.trace))
    setup, setup_problem = [], None
    if not args.trace:
        setup, setup_problem = measure_setup(args.workload, args.seed)
    if setup_problem:  # a set-up that fails fails every operation of the run
        run.problems.append(setup_problem)
        run.attempted += run.scenario.nominal_ops
        run.failed += run.scenario.nominal_ops
    run.measure(args.seconds)
    print_outcomes(run)

    if args.trace:
        metrics, times = run.layer_metrics()
        if args.workload in TELEMETRY_OFF and metrics["telemetry.calls"][0]:
            run.problems.append(f"telemetry is off but was called on {args.workload}")
        print("per-layer (traced runs):")
        print_metrics([(k, v, u) for k, (v, u) in metrics.items()])
        print_metrics([(k, v, u) for k, (v, u) in times.items()])
        self_sum = sum(v for k, (v, _) in times.items() if k.endswith(".self_s"))
        print(f"  sum of self_s = {self_sum:.6f} s; traced wall = "
              f"{metrics['trace.wall_s'][0]:.6f} s")
    else:
        values = run.end_to_end(statistics.median(setup) if setup else 0.0)
        metrics = {k: (v, END_TO_END[k][0]) for k, v in values.items()}
        done = run.done()
        print("end-to-end (untraced runs):")
        print_metrics([(k, v, u) for k, (v, u) in metrics.items()] + [
            ("track_err_p90 (median of panel)",
             statistics.median(i.outcome.track_err_p90 for i in done) if done else 0.0,
             "fraction"),
            ("qos_p90 (mean of panel)",
             statistics.fmean(i.outcome.qos_p90 for i in done) if done else 0.0,
             "fraction"),
            ("error_rate", run.failed / max(run.attempted, 1), "fraction"),
        ])
        print(f"  setup samples: {', '.join(f'{s:.4f}' for s in setup)} s")

    for problem in run.problems:
        print(f"FAILED CHECK: {problem}")
    result = {
        "correct": not run.problems and run.failed == 0 and bool(run.done()),
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
