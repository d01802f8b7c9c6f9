"""Output oracles, run after the timed passes.

Neither oracle trusts the machinery it checks:

* :func:`check_lowend_unit` re-interprets every unit's ``final_fn`` from
  scratch instead of through ``interpret_or_derive``: a derived result
  carries the *recorded* return value (``machine/reuse.py`` says so), so
  the study's own checksum assertion cannot catch a miscompile on derived
  rows.  The fresh run's return value must equal the reference-engine
  interpretation of the unallocated input, and its timing must equal the
  cycles the unit reported from the derived trace.  ``run_setup`` already
  decode-replayed every differential encoding (``verify=True``).
* :func:`check_swp_unit` re-checks every schedule against the dependence
  graph and the VLIW resource limits, checks the counts the study
  reported against the kernels it made, and recounts the promoted
  ``set_last_reg``s from the kernel's access sequence with the benchmark's
  own code, because Tables 2-3 rest on that count.

Each function returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List

from repro.ir.interp import Interpreter
from repro.machine.lowend import LowEndTimingModel
from repro.machine.spec import LOWEND, VLIW, VLIWConfig

__all__ = ["check_lowend_unit", "check_swp_unit", "reference_value",
           "access_sequence", "count_out_of_range"]


def reference_value(fn, args) -> int:
    """Return value of the unallocated input on the reference engine."""
    return Interpreter(record_trace=False, engine="reference").run(
        fn, args).return_value


def check_lowend_unit(uid: str, check, expected: int) -> List[str]:
    """``check`` is the unit's ``(input fn, args, AllocatedProgram,
    reported return value, reported cycles)``; ``expected`` the reference
    value of the input."""
    _fn, args, prog, reported, cycles = check
    problems = []
    fresh = Interpreter(trace_format="columnar").run(prog.final_fn, args)
    if fresh.return_value != expected:
        problems.append(f"{uid}: returns {fresh.return_value}, the input "
                        f"returns {expected}")
    if reported != expected:
        problems.append(f"{uid}: reported return value {reported}, the "
                        f"input returns {expected}")
    trace = fresh.columnar if fresh.columnar is not None else fresh.trace
    fresh_cycles = LowEndTimingModel(LOWEND).time(trace).cycles
    if fresh_cycles != cycles:
        problems.append(f"{uid}: reported {cycles} cycles, a fresh run "
                        f"takes {fresh_cycles}")
    return problems


# ----------------------------------------------------------------------
# software pipelining
# ----------------------------------------------------------------------

def _check_schedule(tag: str, schedule, machine: VLIWConfig) -> List[str]:
    """Every dependence holds modulo II; per-slot FU and memory-port use
    stays within the machine."""
    problems = []
    ddg, ii, times = schedule.ddg, schedule.ii, schedule.times
    latency = {op.id: op.latency for op in ddg.ops}
    if set(times) != set(latency):
        return [f"{tag}: schedule does not place exactly the loop's ops"]
    for d in ddg.deps:
        if times[d.dst] + ii * d.distance < times[d.src] + latency[d.src]:
            problems.append(f"{tag}: dependence {d.src}->{d.dst} "
                            f"(distance {d.distance}) violated at II {ii}")
    fu: Counter = Counter()
    mem: Counter = Counter()
    for op in ddg.ops:
        slot = times[op.id] % ii
        fu[slot] += 1
        if op.kind in ("mem_load", "mem_store"):
            mem[slot] += 1
    for slot, n in sorted(fu.items()):
        if n > machine.n_functional_units:
            problems.append(f"{tag}: slot {slot} issues {n} ops on "
                            f"{machine.n_functional_units} units")
    for slot, n in sorted(mem.items()):
        if n > machine.n_memory_ports:
            problems.append(f"{tag}: slot {slot} issues {n} memory ops on "
                            f"{machine.n_memory_ports} ports")
    return problems


def access_sequence(schedule, assignment: Dict[int, int]) -> List[int]:
    """The kernel's register accesses in issue order: ops by (issue time,
    id); each op reads the registers of its data producers (ascending
    producer id), then writes its own register."""
    producers: Dict[int, List[int]] = {op.id: [] for op in schedule.ddg.ops}
    for d in schedule.ddg.deps:
        if d.is_data:
            producers[d.dst].append(d.src)
    seq: List[int] = []
    for op_id in sorted(producers, key=lambda o: (schedule.times[o], o)):
        seq.extend(assignment[src] for src in sorted(producers[op_id])
                   if src in assignment)
        if op_id in assignment:
            seq.append(assignment[op_id])
    return seq


def count_out_of_range(seq: List[int], perm, reg_n: int, diff_n: int) -> int:
    """Differences outside ``[0, diff_n)`` over the cyclic sequence: the
    kernel repeats, so the first access is decoded against the last."""
    mapped = [perm[r] for r in seq]
    return sum(1 for prev, cur in zip(mapped[-1:] + mapped[:-1], mapped)
               if (cur - prev) % reg_n >= diff_n)


def check_swp_unit(uid: str, checks, machine: VLIWConfig = VLIW
                   ) -> List[str]:
    """``checks`` is the unit's ``[(reg_n, KernelAllocation,
    SwpEncodingReport or None, (cycles, spills, code_ops, setlr) the study
    reported), ...]``."""
    problems = []
    for reg_n, alloc, rep, reported in checks:
        tag = f"{uid}@{reg_n}"
        setlr = rep.n_setlr + rep.enable_overhead if rep else 0
        counted = (alloc.execution_cycles(), alloc.n_spill_ops,
                   alloc.code_size_ops() + setlr, setlr)
        if counted != tuple(reported):
            problems.append(f"{tag}: the study reports (cycles, spills, "
                            f"code ops, setlr) {tuple(reported)}, its "
                            f"kernel has {counted}")
        problems += _check_schedule(tag, alloc.schedule, machine)
        if rep is None:
            continue
        perm = rep.permutation
        if sorted(perm) != list(range(rep.reg_n)):
            problems.append(f"{tag}: encode permutation is not a bijection "
                            f"of 0..{rep.reg_n - 1}")
            continue
        seq = access_sequence(alloc.schedule, alloc.assignment)
        if any(not 0 <= r < rep.reg_n for r in seq):
            problems.append(f"{tag}: register outside 0..{rep.reg_n - 1}")
            continue
        if len(seq) != rep.n_fields:
            problems.append(f"{tag}: {len(seq)} register fields, the "
                            f"report says {rep.n_fields}")
        after = count_out_of_range(seq, perm, rep.reg_n, rep.diff_n)
        if after != rep.n_out_of_range_after:
            problems.append(f"{tag}: {after} out-of-range differences, the "
                            f"report says {rep.n_out_of_range_after}")
        before = count_out_of_range(seq, range(rep.reg_n), rep.reg_n,
                                    rep.diff_n)
        if before != rep.n_out_of_range_before:
            problems.append(f"{tag}: {before} out-of-range differences "
                            f"before remapping, the report says "
                            f"{rep.n_out_of_range_before}")
    return problems
