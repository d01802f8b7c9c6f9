"""The benchmark's three workloads and the compile unit each one runs.

A *unit* is what the benchmark times: one (function, allocator setup)
pair on ``lowend-mibench`` and ``zoo-synth``, one loop across every
``REG_NS`` configuration on ``swp-population``.  A *pass* runs every unit
of a workload once, in a fixed order, starting cold; a run repeats whole
passes so every run measures the same mix of units.

:meth:`Workload.run_unit` is the timed call and does only what the study
driver does; :meth:`Workload.summarize` builds the unit's quality counts,
output and oracle inputs afterwards.  The units call the program only
through the entry points its own study drivers use (``run_setup``,
``record_reference_run``, ``interpret_or_derive``,
``LowEndTimingModel.time``, and ``run_swp_experiment`` itself), and always
through the module attribute the study driver looks up, so the tracer in
:mod:`tracing` sees the same calls.

Input choice and the seed (see README.md for the measurements behind it):

* ``lowend-mibench`` is the Section 10.1 study exactly as ``repro lowend``
  runs it; the seed goes to the remap restarts, as ``--seed`` does there.
* ``zoo-synth`` compiles a fixed corpus of fuzz-generated programs (the
  generator seeds are constants) through every registered backend; the
  seed goes to the remap restarts.  A corpus drawn from the benchmark seed
  would move the summed quality counts from one seed to the next by more
  than any usable regression bound.
* ``swp-population`` evaluates a fixed thirty-loop draw of the loop
  population at the paper's 11% big-loop mix, as ``repro swp`` does
  (kernel remap at its default seed); the seed is unused.  One spilling
  loop costs 5-17 s, so a draw that depended on the seed would decide on
  its own how long a pass takes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import repro.experiments.swp as swp_study
import repro.machine.reuse as reuse
import repro.regalloc.pipeline as pipeline
from repro.analysis.cache import clear_analysis_cache
from repro.analysis.profile import block_frequencies_from_counts
from repro.fuzz.gen import FuzzConfig, generate_fuzz_function
from repro.ir.printer import format_function
from repro.machine.lowend import LowEndTimingModel
from repro.machine.spec import LOWEND
from repro.workloads.mibench import MIBENCH
from repro.workloads.spec_loops import generate_loop_population

__all__ = ["Unit", "UnitResult", "Workload", "WORKLOADS", "make_workload",
           "all_setups", "QUALITY"]

#: the four quality counts, in the order every unit reports them
QUALITY = ("sim_cycles", "code_size", "setlr_count", "spill_ops")

# ``repro lowend`` defaults (run_lowend_experiment's signature)
BASE_K, REG_N, DIFF_N, REMAP_RESTARTS = 8, 12, 8, 50

#: zoo corpus: the generator seeds and knobs (mean 139 instructions,
#: 2.7x the MiBench kernels) and the argument every program runs with
ZOO_SEEDS = tuple(range(5))
ZOO_CONFIG = FuzzConfig(n_regions=8, loop_depth=2, base_values=14,
                        ops_per_block=8, loop_trip=3, fresh_bias=0.4,
                        call_density=0.25, mem_density=0.25)
ZOO_ARGS = (5,)

# ``repro swp`` defaults (run_swp_experiment's signature)
SWP_DIFF_N, SWP_RESTARTS = 32, 4
#: thirty loops of the paper's population seed: at the 11% mix they hold
#: three big loops (generate_loop_population rounds n * 0.11), one of which
#: needs more than 32 registers, so the differential kernel encoding runs
SWP_LOOPS, SWP_POPULATION_SEED = 30, 2005


@dataclass
class Unit:
    """One compile unit: an id and the inputs it compiles."""

    uid: str
    inputs: Tuple[Any, ...]


@dataclass
class UnitResult:
    """What one execution of a unit produced.

    ``quality`` holds the :data:`QUALITY` counts; ``output`` is everything
    the unit computed, compared exactly between passes; ``check`` is what
    the output oracle needs (kept for the first pass only).
    """

    uid: str
    seconds: float = 0.0             # measured wall time
    scaled: float = 0.0              # the same at reference host speed
    quality: Tuple[int, int, int, int] = (0, 0, 0, 0)
    output: Tuple = ()
    check: Any = None
    setup: Optional[str] = None
    error: Optional[str] = None


def _fn_digest(fn) -> str:
    return hashlib.sha256(format_function(fn).encode()).hexdigest()[:16]


@dataclass
class Workload:
    """A named list of units plus how to run one of them."""

    name: str
    kind: str                        # "lowend" or "swp"
    units: List[Unit]
    seed: int
    #: fewest passes a run makes; a unit's time is its median over them
    min_passes: int
    #: the highest percentile with at least ten units beyond it
    tail_pct: int
    _recorded: Dict[str, Any] = field(default_factory=dict, repr=False)

    def start_pass(self) -> None:
        """Start cold, as a fresh ``repro lowend`` process does: drop the
        analysis cache (liveness, interference, adjacency and the columnar
        views all live there) and the recorded reference runs."""
        clear_analysis_cache()
        reuse.clear_recorded_runs()
        self._recorded.clear()

    def run_unit(self, unit: Unit) -> Any:
        """Compile one unit and return the program's raw results (the
        timed call)."""
        if self.kind == "lowend":
            return self._run_lowend_unit(unit)
        return self._run_swp_unit(unit)

    def summarize(self, unit: Unit, raw: Any) -> UnitResult:
        """Build what :meth:`run_unit` returned into the unit's result,
        outside the timed call."""
        if self.kind == "lowend":
            return self._summarize_lowend(unit, raw)
        return self._summarize_swp(unit, raw)

    # ------------------------------------------------------------------
    # lowend-mibench / zoo-synth: one function through one setup
    # ------------------------------------------------------------------

    def _run_lowend_unit(self, unit: Unit):
        fname, fn, args, setup = unit.inputs
        timing = LowEndTimingModel(LOWEND)
        # the function's reference run and profile are charged to its
        # first unit, as run_lowend_experiment pays them once per kernel
        if fname not in self._recorded:
            recorded = reuse.record_reference_run(fn, args)
            if recorded is None or not recorded.block_instr_counts:
                raise RuntimeError(f"{fname}: no columnar reference run")
            freq = block_frequencies_from_counts(fn,
                                                 recorded.block_instr_counts)
            self._recorded[fname] = (recorded, freq)
        recorded, freq = self._recorded[fname]
        prog = pipeline.run_setup(
            fn, setup, base_k=BASE_K, reg_n=REG_N, diff_n=DIFF_N,
            remap_restarts=REMAP_RESTARTS, use_ilp=True, verify=True,
            freq=freq, remap_seed=self.seed,
        )
        result = reuse.interpret_or_derive(prog.final_fn, args, recorded)
        report = timing.time(result.columnar if result.columnar is not None
                             else result.trace)
        return prog, result.return_value, report.cycles

    def _summarize_lowend(self, unit: Unit, raw) -> UnitResult:
        _fname, fn, args, setup = unit.inputs
        prog, return_value, cycles = raw
        quality = (cycles, prog.n_instructions, prog.n_setlr, prog.n_spills)
        output = (unit.uid, quality, return_value, _fn_digest(prog.final_fn))
        return UnitResult(unit.uid, quality=quality, output=output,
                          check=(fn, args, prog, return_value, cycles),
                          setup=setup)

    # ------------------------------------------------------------------
    # swp-population: one loop under every register configuration
    # ------------------------------------------------------------------

    def _run_swp_unit(self, unit: Unit):
        """``repro swp``'s study on this one loop, serially in this
        process.  The kernels and encodings it makes are captured for the
        oracle by wrapping ``allocate_kernel`` and ``encode_kernel`` where
        the study looks them up."""
        (spec,) = unit.inputs
        allocs: Dict[int, Any] = {}      # reg_n -> KernelAllocation
        reports: Dict[int, Any] = {}     # id(allocation) -> its encoding
        allocate, encode = swp_study.allocate_kernel, swp_study.encode_kernel

        def allocate_kernel(ddg, reg_n, *args, **kwargs):
            allocs[reg_n] = allocate(ddg, reg_n, *args, **kwargs)
            return allocs[reg_n]

        def encode_kernel(alloc, *args, **kwargs):
            reports[id(alloc)] = encode(alloc, *args, **kwargs)
            return reports[id(alloc)]

        swp_study.allocate_kernel = allocate_kernel
        swp_study.encode_kernel = encode_kernel
        try:
            study = swp_study.run_swp_experiment(
                population=[spec], reg_ns=swp_study.REG_NS,
                diff_n=SWP_DIFF_N, remap_restarts=SWP_RESTARTS, jobs=1)
        finally:
            swp_study.allocate_kernel = allocate
            swp_study.encode_kernel = encode
        return study.loops, allocs, reports

    def _summarize_swp(self, unit: Unit, raw) -> UnitResult:
        loops, allocs, reports = raw
        if not loops:       # the study drops a loop it cannot schedule
            return UnitResult(unit.uid, output=(unit.uid, None), check=[])
        (loop,) = loops
        per_reg: List[Tuple] = []
        checks = []
        for reg_n in swp_study.REG_NS:
            # a register count whose allocation failed keeps the baseline
            alloc = allocs.get(reg_n, allocs[32])
            rep = reports.get(id(alloc))
            reported = (loop.cycles[reg_n], loop.spills[reg_n],
                        loop.code_ops[reg_n], loop.setlr[reg_n])
            per_reg.append((reg_n, *reported, alloc.ii,
                            tuple(sorted(alloc.schedule.times.items())),
                            tuple(sorted(alloc.assignment.items())),
                            rep.permutation if rep else ()))
            checks.append((reg_n, alloc, rep, reported))
        quality = tuple(sum(loop_counts.values()) for loop_counts in (
            loop.cycles, loop.code_ops, loop.setlr, loop.spills))
        output = (unit.uid, loop.big, loop.optimized, tuple(per_reg))
        return UnitResult(unit.uid, quality=quality, output=output,
                          check=checks)


def _lowend_units(functions: Sequence[Tuple[str, Any, Tuple[int, ...]]],
                  setups: Sequence[str]) -> List[Unit]:
    return [Unit(f"{fname}/{setup}", (fname, fn, args, setup))
            for fname, fn, args in functions for setup in setups]


def make_workload(name: str, seed: int) -> Workload:
    """Build a workload's inputs (the benchmark's input generation)."""
    if name == "lowend-mibench":
        functions = [(w.name, w.function(), tuple(w.default_args))
                     for w in MIBENCH]
        setups = tuple(pipeline.PAPER_SETUPS)
        return Workload(name, "lowend", _lowend_units(functions, setups),
                        seed, min_passes=3, tail_pct=85)
    if name == "zoo-synth":
        functions = [(f"fuzz{s}", generate_fuzz_function(s, ZOO_CONFIG),
                      ZOO_ARGS) for s in ZOO_SEEDS]
        setups = tuple(pipeline.SETUPS)
        return Workload(name, "lowend", _lowend_units(functions, setups),
                        seed, min_passes=3, tail_pct=66)
    if name == "swp-population":
        population = generate_loop_population(n=SWP_LOOPS,
                                              seed=SWP_POPULATION_SEED)
        units = [Unit(spec.name, (spec,)) for spec in population]
        return Workload(name, "swp", units, seed, min_passes=4, tail_pct=66)
    raise ValueError(f"unknown workload {name!r}; expected one of "
                     f"{', '.join(WORKLOADS)}")


WORKLOADS = ("lowend-mibench", "swp-population", "zoo-synth")


def all_setups() -> Tuple[str, ...]:
    """Every registered allocator backend (one per-layer row each)."""
    return tuple(pipeline.SETUPS)
