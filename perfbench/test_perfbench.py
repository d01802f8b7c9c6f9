"""The benchmark's own tests.

Run from the repository root: ``python3 -m pytest perfbench -q``
(about three minutes: the repeatability test runs every workload twice).
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import run

workloads = run.import_program()

import hostclock  # noqa: E402
import oracles  # noqa: E402  (needs the program on sys.path)
import tracing  # noqa: E402
from repro.experiments.lowend import run_lowend_experiment  # noqa: E402
from repro.experiments.swp import run_swp_experiment  # noqa: E402
from repro.workloads.mibench import MIBENCH  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RUN = str(Path(__file__).resolve().parent / "run.py")


def _run(w, unit):
    """One unit's result, timed call and summary together."""
    return w.summarize(unit, w.run_unit(unit))


def _bench(workload: str, seed: int, hash_seed: str):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)


# ----------------------------------------------------------------------
# the contract
# ----------------------------------------------------------------------

def test_benchmark_json_lists_every_metric_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == \
        sorted(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        run.per_layer_names(workloads.all_setups())
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lowend-mibench",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ----------------------------------------------------------------------
# the units compute what the study drivers compute
# ----------------------------------------------------------------------

def test_lowend_units_match_run_lowend_experiment():
    w = workloads.make_workload("lowend-mibench", 0)
    w.start_pass()
    kernels = {k.name for k in MIBENCH[:2]}
    got = {u.uid: _run(w, u) for u in w.units
           if u.inputs[0] in kernels}
    exp = run_lowend_experiment(MIBENCH[:2], seed=0)
    assert len(exp.rows) == len(got)
    for row in exp.rows:
        res = got[f"{row.benchmark}/{row.setup}"]
        assert res.quality == (row.cycles, row.instructions, row.setlr,
                               row.spills)
        assert res.output[2] == row.checksum


def test_swp_units_match_run_swp_experiment():
    w = workloads.make_workload("swp-population", 0)
    specs = [u.inputs[0] for u in w.units]
    # the spilling loop plus two small ones keeps this under ~20 s
    chosen = [s for s in specs if s.big] + [s for s in specs
                                             if not s.big][:2]
    study = {l.name: l for l in run_swp_experiment(
        population=chosen).loops}
    for spec in chosen:
        res = _run(w, workloads.Unit(spec.name, (spec,)))
        loop = study[spec.name]
        for reg_n, cycles, spills, code_ops, setlr, *_ in res.output[3]:
            assert (cycles, spills, code_ops, setlr) == (
                loop.cycles[reg_n], loop.spills[reg_n],
                loop.code_ops[reg_n], loop.setlr[reg_n])
    assert any(study[s.name].optimized for s in chosen)


# ----------------------------------------------------------------------
# the oracles reject wrong outputs
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def lowend_unit():
    w = workloads.make_workload("lowend-mibench", 0)
    w.start_pass()
    unit = next(u for u in w.units if u.uid == "crc32/coalesce")
    fname, fn, args, _ = unit.inputs
    return _run(w, unit), oracles.reference_value(fn, args)


def test_lowend_oracle_accepts_the_program(lowend_unit):
    res, expected = lowend_unit
    assert oracles.check_lowend_unit(res.uid, res.check, expected) == []


def test_lowend_oracle_rejects_a_miscompile(lowend_unit):
    from repro.ir.instr import Instr

    res, expected = lowend_unit
    fn, args, prog, reported, cycles = res.check
    bad = prog.final_fn.copy()
    block = next(b for b in bad.blocks if b.instrs[-1].op == "ret")
    ret = block.instrs[-1]
    block.instrs.insert(len(block.instrs) - 1,
                        Instr("li", dst=ret.srcs[0], imm=expected + 1))
    prog_bad = dataclasses.replace(prog, final_fn=bad)
    problems = oracles.check_lowend_unit(
        res.uid, (fn, args, prog_bad, reported, cycles), expected)
    assert any("the input returns" in p for p in problems)


def test_lowend_oracle_rejects_wrong_reports(lowend_unit):
    res, expected = lowend_unit
    fn, args, prog, reported, cycles = res.check
    problems = oracles.check_lowend_unit(
        res.uid, (fn, args, prog, reported + 1, cycles + 1), expected)
    assert len(problems) == 2


@pytest.fixture(scope="module")
def swp_checks():
    w = workloads.make_workload("swp-population", 0)
    unit = next(u for u in w.units if u.inputs[0].big)
    return _run(w, unit)


def test_swp_oracle_accepts_the_program(swp_checks):
    assert oracles.check_swp_unit("big", swp_checks.check) == []
    assert any(rep is not None for _, _, rep, _ in swp_checks.check)


def _first_encoded(checks):
    return next(c for c in checks if c[2] is not None)


def test_swp_oracle_rejects_a_wrong_count(swp_checks):
    reg_n, alloc, rep, reported = _first_encoded(swp_checks.check)
    bad = dataclasses.replace(
        rep, n_out_of_range_after=rep.n_out_of_range_after + 1)
    problems = oracles.check_swp_unit("big", [(reg_n, alloc, bad, reported)])
    assert any("out-of-range" in p for p in problems)


def test_swp_oracle_rejects_a_non_bijective_permutation(swp_checks):
    reg_n, alloc, rep, reported = _first_encoded(swp_checks.check)
    perm = list(rep.permutation)
    perm[1] = perm[0]
    bad = dataclasses.replace(rep, permutation=tuple(perm))
    problems = oracles.check_swp_unit("big", [(reg_n, alloc, bad, reported)])
    assert any("bijection" in p for p in problems)


def test_swp_oracle_rejects_counts_the_kernel_does_not_have(swp_checks):
    reg_n, alloc, rep, (cycles, *rest) = _first_encoded(swp_checks.check)
    problems = oracles.check_swp_unit(
        "big", [(reg_n, alloc, rep, (cycles + 1, *rest))])
    assert any("the study reports" in p for p in problems)


def test_swp_oracle_rejects_broken_schedules(swp_checks):
    import copy

    reg_n, alloc, rep, _ = swp_checks.check[0]
    ddg = alloc.schedule.ddg
    dep = next(d for d in ddg.deps if d.distance == 0)
    early = copy.copy(alloc.schedule)
    early.times = dict(alloc.schedule.times)
    early.times[dep.dst] = early.times[dep.src] - alloc.schedule.ii
    problems = oracles._check_schedule("x", early, oracles.VLIW)
    assert any("violated" in p for p in problems)

    crowded = copy.copy(alloc.schedule)
    crowded.times = {op.id: 0 for op in ddg.ops}
    problems = oracles._check_schedule("x", crowded, oracles.VLIW)
    assert any("units" in p for p in problems)
    assert any("ports" in p for p in problems)


# ----------------------------------------------------------------------
# timing and tracing
# ----------------------------------------------------------------------

def test_host_clock_keeps_its_readings_out_of_the_timed_call():
    import time

    def busy():
        end = time.perf_counter() + 0.45
        while time.perf_counter() < end:
            pass

    with hostclock.HostClock() as clock:
        t0 = time.perf_counter()
        _, seconds, scaled = clock.time(busy)
        wall = time.perf_counter() - t0
    inside = [dt for start, dt in clock.readings if t0 < start < t0 + 0.45]
    assert len(inside) >= 3            # sampled during the call
    assert seconds < 0.45 + 1e-3 and seconds < wall
    readings = [dt for _, dt in clock.readings]
    ref = hostclock.CALIBRATION_REF_S
    assert seconds * ref / max(readings) <= scaled
    assert scaled <= seconds * ref / min(readings)


def test_tracer_accounts_for_the_pass_and_restores_the_program():
    import repro.regalloc.pipeline as pipeline

    original = pipeline.run_setup
    w = workloads.make_workload("lowend-mibench", 0)
    w.units = [u for u in w.units if u.inputs[0] == "crc32"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with hostclock.HostClock() as clock:
            traced = run.run_pass(w, clock, tracer)
    finally:
        tracer.uninstall()
    assert pipeline.run_setup is original
    assert tracer.counters["regalloc.pipeline.calls"] == len(w.units)
    spans = tracer.spans
    assert all(s[4] is not None for s in spans)          # unit ids
    roots = [s for s in spans if s[3] == -1]
    assert {s[0] for s in roots} == {tracing.UNIT_SPAN}
    for name, start, end, parent, unit in spans:
        if parent >= 0:                                  # nested in time
            assert spans[parent][1] <= start <= end <= spans[parent][2]
            assert spans[parent][4] == unit
    # self times, readings removed and scaled like the unit times, add up
    # to the units' time at reference speed
    self_times = tracer.self_times(clock.readings)
    assert self_times[tracing.UNIT_SPAN] > 0
    assert sum(self_times.values()) == pytest.approx(
        sum(r.scaled for r in traced.results), rel=1e-3)


# ----------------------------------------------------------------------
# the quality counts and outputs repeat exactly
# ----------------------------------------------------------------------

def _summary(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    digest = re.search(r"outputs sha256 (\w+)", proc.stdout).group(1)
    counts = {q: result["metrics"][q]["value"] for q in workloads.QUALITY}
    return digest, counts


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_outputs_repeat_across_runs_and_hash_seeds(workload):
    with ThreadPoolExecutor(max_workers=2) as pool:
        procs = list(pool.map(lambda hs: _bench(workload, 3, hs),
                              ("0", "1")))
    first, second = (_summary(p) for p in procs)
    assert first == second
    assert all(v > 0 for v in first[1].values())
