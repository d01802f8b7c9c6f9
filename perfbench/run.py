"""The repository's benchmark: the low-end, SWP and allocator-zoo studies.

Run from the repository root::

    python3 perfbench/run.py --workload lowend-mibench --seed 1 --seconds 20 --trace 0

Workloads: ``lowend-mibench``, ``swp-population``, ``zoo-synth`` (see
``workloads.py`` and README.md).  Load is one closed-loop client in one
process: each compile unit starts after the previous one ends, with no
worker pool.  A run repeats whole passes over the workload's units, each
pass started cold, until about ``--seconds`` have been measured (never
fewer than the workload's minimum pass count).

``--trace 0`` times the run untraced and prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics, the tracing overhead and ``experiments.self_s``, and
writes every span to ``.bench_trace/``.  Either way every unit's output
is checked after timing (``oracles.py``) and must repeat exactly in every
pass; the last line of standard output is one JSON object, and the exit
code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

from hostclock import HostClock
from tracing import UNIT_SPAN, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: set-up is measured in this many fresh processes; the median is reported
SETUP_REPEATS = 5

END_TO_END = (
    ("units_per_s", "1/s"), ("unit_p50_ms", "ms"), ("unit_tail_ms", "ms"),
    ("setup_s", "s"), ("peak_rss_mb", "MB"), ("sim_cycles", "count"),
    ("code_size", "count"), ("setlr_count", "count"),
    ("spill_ops", "count"),
)

#: per-layer metrics: (name, unit); the per-backend rows follow from the
#: allocator registry (see per_layer_names)
LAYER_METRICS = (
    ("analysis.prewarm.busy_s", "s"), ("analysis.cache.hit_ratio", "ratio"),
    ("regalloc.pipeline.busy_s", "s"),
    ("regalloc.iterated.calls", "count"), ("regalloc.iterated.busy_s", "s"),
    ("regalloc.optimal_spill.calls", "count"),
    ("regalloc.optimal_spill.busy_s", "s"),
    ("regalloc.optimal_spill.ilp_ratio", "ratio"),
    ("regalloc.diff_coalesce.busy_s", "s"),
    ("regalloc.ssa_spill.busy_s", "s"),
    ("regalloc.remap.calls", "count"), ("regalloc.remap.busy_s", "s"),
    ("regalloc.remap.cost_reduction", "ratio"),
    ("regalloc.moves.busy_s", "s"), ("regalloc.moves.rewrites", "count"),
    ("encoding.encoder.calls", "count"), ("encoding.encoder.busy_s", "s"),
    ("encoding.encoder.kept_ratio", "ratio"),
    ("encoding.setlr_elim.busy_s", "s"),
    ("encoding.setlr_elim.removed", "count"),
    ("encoding.verifier.busy_s", "s"),
    ("machine.reuse.record_s", "s"), ("machine.reuse.derive_s", "s"),
    ("machine.reuse.derived_ratio", "ratio"), ("machine.lowend.busy_s", "s"),
    ("swp.modulo.calls", "count"), ("swp.modulo.busy_s", "s"),
    ("swp.ddg.consumers_calls", "count"),
    ("swp.rotalloc.calls", "count"), ("swp.rotalloc.busy_s", "s"),
    ("swp.rotalloc.spill_ops", "count"),
    ("swp.diffswp.calls", "count"), ("swp.diffswp.busy_s", "s"),
    ("swp.diffswp.fields", "count"),
    ("swp.diffswp.out_of_range_after", "count"),
    ("trace.overhead_s", "s"), ("experiments.self_s", "s"),
)
BACKEND_METRICS = (("compile_s", "s"), ("sim_cycles", "count"),
                   ("setlr", "count"), ("spills", "count"))
def per_layer_names(setups) -> List[Tuple[str, str]]:
    """Every per-layer metric with its unit."""
    return list(LAYER_METRICS) + [
        (f"regalloc.{setup}.{metric}", unit)
        for setup in setups for metric, unit in BACKEND_METRICS]


# ----------------------------------------------------------------------
# running passes
# ----------------------------------------------------------------------

@dataclass
class Pass:
    """One pass: wall time, per-unit results, analysis-cache hit ratio."""

    wall: float
    results: list
    hit_ratio: float


def run_pass(workload, clock, tracer=None, keep_checks=False) -> Pass:
    """Run every unit once, cold, timing each with ``clock`` (a
    :class:`hostclock.HostClock`).  Only the pass whose outputs the
    oracles check keeps what they need, so memory does not grow with the
    number of passes."""
    from repro.analysis.cache import analysis_cache_stats
    from workloads import UnitResult

    workload.start_pass()
    results = []
    start = time.perf_counter()
    for unit in workload.units:
        def one_unit():
            if tracer is not None:
                tracer.unit = unit.uid
                span = tracer.open(UNIT_SPAN)
            try:
                return workload.run_unit(unit)
            except Exception as exc:  # a failing unit is counted, not fatal
                return exc
            finally:
                if tracer is not None:
                    tracer.close(span)

        root = len(tracer.spans) if tracer is not None else None
        raw, seconds, scaled = clock.time(one_unit)
        try:
            if isinstance(raw, Exception):
                raise raw
            result = workload.summarize(unit, raw)
        except Exception as exc:
            result = UnitResult(unit.uid,
                                error=f"{type(exc).__name__}: {exc}")
        result.seconds, result.scaled = seconds, scaled
        if tracer is not None:
            tracer.scales[root] = scaled / seconds if seconds > 0 else 1.0
        if not keep_checks:
            result.check = None
        results.append(result)
    wall = time.perf_counter() - start
    stats = analysis_cache_stats()
    lookups = stats["hits"] + stats["misses"]
    return Pass(wall, results, stats["hits"] / lookups if lookups else 0.0)


def check_outputs(workload, passes: List[Pass]) -> List[str]:
    """Every failing unit execution, as one message each: units that
    raised, units whose output differs from the first pass, and (for
    every pass) units of the first pass the oracle rejects."""
    from oracles import check_lowend_unit, check_swp_unit, reference_value

    first = passes[0].results
    failures: List[str] = []
    for p in passes:
        for ref, res in zip(first, p.results):
            if res.error is not None:
                failures.append(f"{res.uid}: raised {res.error}")
            elif ref.error is None and res.output != ref.output:
                failures.append(f"{res.uid}: output differs between passes")
    expected: Dict[str, int] = {}
    for unit, res in zip(workload.units, first):
        if res.error is not None:
            continue
        if workload.kind == "lowend":
            fname, fn, args, _setup = unit.inputs
            if fname not in expected:
                expected[fname] = reference_value(fn, args)
            problems = check_lowend_unit(res.uid, res.check, expected[fname])
        else:
            problems = check_swp_unit(res.uid, res.check)
        if problems:
            failures += ["; ".join(problems)] * len(passes)
    return failures


def percentile(samples: List[float], pct: int) -> float:
    """The ``pct``-th percentile (inclusive interpolation)."""
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def passes_for(seconds: float, first_wall: float, min_passes: int) -> int:
    return max(min_passes, round(seconds / first_wall))


def measure(workload, seconds: float) -> List[Pass]:
    with HostClock() as clock:
        passes = [run_pass(workload, clock, keep_checks=True)]
        for _ in range(passes_for(seconds, passes[0].wall,
                                  workload.min_passes) - 1):
            passes.append(run_pass(workload, clock))
    return passes


def measure_setup(name: str, seed: int) -> Tuple[float, float]:
    """Median set-up time of fresh processes (scaled to reference host
    speed, measured); each child times its own imports and input
    generation with its own :class:`HostClock`."""
    scaled, measured = [], []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, __file__, "--setup-only", "--workload", name,
             "--seed", str(seed)],
            check=True, timeout=120, capture_output=True, text=True)
        at_ref, seconds = json.loads(child.stdout.splitlines()[-1])
        scaled.append(at_ref)
        measured.append(seconds)
    return statistics.median(scaled), statistics.median(measured)


def import_program():
    """Import the program from this checkout's ``src``, or fail."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ImportError(f"no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise ImportError(f"imported repro from {repro.__file__}, "
                          f"not from {SRC}")
    import workloads
    return workloads


def set_up(name: str, seed: int):
    """Import the program and build the workload's inputs.

    Also imports what the compile path would load lazily: optimal
    spilling loads its ILP solver on first use, which a fresh
    ``repro lowend`` pays once per process, like any import."""
    workload = import_program().make_workload(name, seed)
    if workload.kind == "lowend":
        try:
            import scipy.optimize  # noqa: F401
            import scipy.sparse  # noqa: F401
        except ImportError:
            pass  # optimal spilling then uses its greedy solver
    return workload


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

def quality_totals(results) -> Dict[str, int]:
    from workloads import QUALITY

    return {q: sum(r.quality[i] for r in results)
            for i, q in enumerate(QUALITY)}


def outputs_digest(results) -> str:
    """One digest over every unit's output, for comparing runs."""
    h = hashlib.sha256()
    for r in results:
        h.update(repr(r.output).encode())
    return h.hexdigest()


def unit_times(passes: List[Pass], attr: str = "scaled") -> List[float]:
    """Each unit's median time over the passes (``attr`` picks the time
    scaled to reference host speed or the measured one)."""
    return [statistics.median(getattr(p.results[i], attr) for p in passes)
            for i in range(len(passes[0].results))]


def timing_metrics(times: List[float], tail_pct: int) -> Dict[str, float]:
    return {
        "units_per_s": len(times) / sum(times),
        "unit_p50_ms": statistics.median(times) * 1e3,
        "unit_tail_ms": percentile(times, tail_pct) * 1e3,
    }


def end_to_end(workload, passes: List[Pass], setup: Tuple[float, float]
               ) -> Tuple[Dict[str, float], List[str]]:
    times = unit_times(passes)
    values = timing_metrics(times, workload.tail_pct)
    values["setup_s"] = setup[0]
    values["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values.update(quality_totals(passes[0].results))
    tail = values["unit_tail_ms"] / 1e3
    measured = timing_metrics(unit_times(passes, "seconds"),
                              workload.tail_pct)
    notes = [
        f"unit times are each unit's median over {len(passes)} passes, "
        f"scaled to reference host speed; unit_tail_ms is "
        f"p{workload.tail_pct} of {len(times)} units, "
        f"{sum(1 for t in times if t > tail)} beyond it",
        "as measured: " + ", ".join(
            f"{k} {v:.6g}" for k, v in measured.items())
        + f", setup_s {setup[1]:.6g}",
        f"passes {len(passes)} x {len(workload.units)} units, measured "
        f"{sum(p.wall for p in passes):.2f} s",
        f"outputs sha256 {outputs_digest(passes[0].results)}",
        "analysis.cache.hit_ratio per pass: "
        + ", ".join(sorted({f"{p.hit_ratio:.4f}" for p in passes}))
        + " (one value when every pass starts cold)",
    ]
    return values, notes


def per_layer(traced: List[Pass], untraced: List[Pass], tracer, readings
              ) -> Dict[str, float]:
    n = len(traced)
    busy = tracer.self_times(readings)
    c = tracer.counters

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values = {
        "analysis.cache.hit_ratio": sum(p.hit_ratio for p in traced) / n,
        "regalloc.optimal_spill.ilp_ratio": ratio(
            c["regalloc.optimal_spill.ilp"],
            c["regalloc.optimal_spill.decisions"]),
        "regalloc.remap.cost_reduction": 1.0 - ratio(
            c["regalloc.remap.cost_after"], c["regalloc.remap.cost_before"])
        if c["regalloc.remap.cost_before"] else 0.0,
        "encoding.encoder.kept_ratio": ratio(
            c["encoding.encoder.kept"], c["encoding.encoder.calls"]),
        "machine.reuse.record_s": busy["machine.reuse.record"] / n,
        "machine.reuse.derive_s": busy["machine.reuse.derive"] / n,
        "machine.reuse.derived_ratio": ratio(
            c["machine.reuse.derived"], c["machine.reuse.derive.calls"]),
        # unit medians scaled to reference host speed, like the
        # end-to-end timings, so host noise does not swamp the difference
        "trace.overhead_s": sum(unit_times(traced))
        - sum(unit_times(untraced)),
        # time inside units that no layer span covers
        "experiments.self_s": busy[UNIT_SPAN] / n,
    }
    for name, _unit in LAYER_METRICS:
        if name in values:
            continue
        if name.endswith(".busy_s"):
            values[name] = busy[name[:-len(".busy_s")]] / n
        else:  # a counter, reported per pass
            values[name] = c[name] / n
    setup_of = {r.uid: r.setup for r in traced[0].results}
    compile_s = tracer.inclusive_by_unit_setup(setup_of, readings)
    by_setup: Dict[str, List] = defaultdict(list)
    for r in traced[0].results:
        by_setup[r.setup].append(r)
    from workloads import all_setups
    for setup in all_setups():
        q = quality_totals(by_setup.get(setup, []))
        values[f"regalloc.{setup}.compile_s"] = compile_s[setup] / n
        values[f"regalloc.{setup}.sim_cycles"] = q["sim_cycles"]
        values[f"regalloc.{setup}.setlr"] = q["setlr_count"]
        values[f"regalloc.{setup}.spills"] = q["spill_ops"]
    return values


def trace_run(workload, seconds: float, out_dir: Path):
    """Alternate untraced and traced passes; return both lists, the
    tracer, the clock's calibration readings, and where the spans were
    written."""
    tracer = Tracer()
    with HostClock() as clock:
        untraced = [run_pass(workload, clock, keep_checks=True)]
        traced: List[Pass] = []
        pairs = passes_for(seconds, 2 * untraced[0].wall, 1)
        for i in range(pairs):
            if i:
                untraced.append(run_pass(workload, clock))
            tracer.install()
            try:
                traced.append(run_pass(workload, clock, tracer))
            finally:
                tracer.uninstall()
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{workload.name}-seed{workload.seed}.json"
    tracer.write(path, clock.readings)
    return untraced, traced, tracer, clock.readings, path


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)  # child of measure_setup
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        with HostClock() as clock:
            workload, seconds, at_ref = clock.time(
                lambda: set_up(args.workload, args.seed))
    except (ImportError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps([at_ref, seconds]))
        return 0

    if args.trace:
        untraced, traced, tracer, readings, path = trace_run(
            workload, args.seconds, ROOT / ".bench_trace")
        passes = untraced + traced
        failures = check_outputs(workload, passes)
        from workloads import all_setups

        units = dict(per_layer_names(all_setups()))
        values = per_layer(traced, untraced, tracer, readings)
        values = {name: values[name] for name in units}
        notes = [f"{len(tracer.spans)} spans written to {path}",
                 f"{len(traced)} traced and {len(untraced)} untraced passes;"
                 f" per-layer values are per traced pass"]
    else:
        setup = measure_setup(args.workload, args.seed)
        passes = measure(workload, args.seconds)
        failures = check_outputs(workload, passes)
        units = dict(END_TO_END)
        values, notes = end_to_end(workload, passes, setup)

    attempted = sum(len(p.results) for p in passes)
    for note in notes:
        print(f"# {note}")
    for name, value in values.items():
        print(f"{name:36s} {value!r:>24} {units[name]}")
    if not args.trace:
        print(f"{'failed_frac':36s} {len(failures) / attempted!r:>24} "
              f"ratio")
    for failure in sorted(set(failures))[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
