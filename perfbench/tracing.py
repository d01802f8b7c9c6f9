"""Span tracing for the per-layer split, installed from outside the program.

:class:`Tracer` wraps the program's public functions at the module (or
class) attributes their callers look up — the names imported into
``repro.regalloc.pipeline``, ``repro.experiments.swp`` and so on — and
restores the originals on :meth:`Tracer.uninstall`.  Each wrapper records
a span ``[name, start, end, parent span, unit id]``; spans stay in memory
until :meth:`Tracer.write`.  Tiny hot functions get call counters instead
of spans.

Span times are taken as the unit times are (:mod:`hostclock`): the
calibration readings that fall inside a span are subtracted, and the rest
is scaled to reference host speed by the factor of the unit the span
belongs to.  A layer's self time is its spans' time minus the time of
their child spans, so the self times of all layers plus the time no layer
span covers (``experiments.self_s``) add up to the traced units' time.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["Tracer", "UNIT_SPAN"]

#: the root span of one compile unit; it is not a layer, so its self time
#: counts towards ``experiments.self_s``
UNIT_SPAN = "unit"


def _remap_costs(tracer: "Tracer", result, args, kwargs) -> None:
    tracer.add("regalloc.remap.cost_before", result.cost_before)
    tracer.add("regalloc.remap.cost_after", result.cost_after)


def _residence_solver(tracer: "Tracer", plan, args, kwargs) -> None:
    tracer.add("regalloc.optimal_spill.decisions", 1)
    # the value AllocationResult.stats["ospill_solver"] is set from
    tracer.add("regalloc.optimal_spill.ilp", int(plan.solver == "ilp"))


def _move_rewrites(tracer: "Tracer", stats, args, kwargs) -> None:
    tracer.add("regalloc.moves.rewrites", stats.runs_rewritten)


def _setlr_removed(tracer: "Tracer", result, args, kwargs) -> None:
    tracer.add("encoding.setlr_elim.removed", result.n_removed)


def _encodings_kept(tracer: "Tracer", prog, args, kwargs) -> None:
    # run_setup keeps one of the candidates it encodes
    tracer.add("encoding.encoder.kept", int(prog.encoded is not None))


def _derived(tracer: "Tracer", result, args, kwargs) -> None:
    tracer.add("machine.reuse.derived", int(result is not None))


def _rotalloc_spills(tracer: "Tracer", alloc, args, kwargs) -> None:
    tracer.add("swp.rotalloc.spill_ops", alloc.n_spill_ops)


def _kernel_fields(tracer: "Tracer", rep, args, kwargs) -> None:
    tracer.add("swp.diffswp.fields", rep.n_fields)
    tracer.add("swp.diffswp.out_of_range_after", rep.n_out_of_range_after)


#: (module[:class], attribute, span name or None, result hook, call counter
#:  or None).  Every lookup site of a layer is listed: optimal spilling is
#:  reached from optimal_spill_allocate (module globals) and from
#:  differential coalescing (its own imported names).
HOOKS: Tuple[Tuple[str, str, Optional[str], Optional[Callable],
                   Optional[str]], ...] = (
    ("repro.analysis.batched", "prewarm_corpus", "analysis.prewarm",
     None, "analysis.prewarm.calls"),
    ("repro.regalloc.pipeline", "run_setup", "regalloc.pipeline",
     _encodings_kept, "regalloc.pipeline.calls"),
    ("repro.regalloc.pipeline", "iterated_allocate", "regalloc.iterated",
     None, "regalloc.iterated.calls"),
    ("repro.regalloc.optimal_spill", "iterated_allocate",
     "regalloc.iterated", None, "regalloc.iterated.calls"),
    ("repro.regalloc.diff_coalesce", "iterated_allocate",
     "regalloc.iterated", None, "regalloc.iterated.calls"),
    ("repro.regalloc.optimal_spill", "decide_residence",
     "regalloc.optimal_spill", _residence_solver,
     "regalloc.optimal_spill.calls"),
    ("repro.regalloc.diff_coalesce", "decide_residence",
     "regalloc.optimal_spill", _residence_solver,
     "regalloc.optimal_spill.calls"),
    ("repro.regalloc.optimal_spill", "apply_residence",
     "regalloc.optimal_spill", None, None),
    ("repro.regalloc.diff_coalesce", "apply_residence",
     "regalloc.optimal_spill", None, None),
    ("repro.regalloc.pipeline", "differential_coalesce_allocate",
     "regalloc.diff_coalesce", None, "regalloc.diff_coalesce.calls"),
    ("repro.regalloc.pipeline", "ssa_spill_allocate", "regalloc.ssa_spill",
     None, "regalloc.ssa_spill.calls"),
    ("repro.regalloc.pipeline", "differential_remap", "regalloc.remap",
     _remap_costs, "regalloc.remap.calls"),
    ("repro.regalloc.pipeline", "resolve_move_runs", "regalloc.moves",
     _move_rewrites, "regalloc.moves.calls"),
    ("repro.regalloc.moves", "resolve_move_runs", "regalloc.moves",
     _move_rewrites, "regalloc.moves.calls"),
    ("repro.regalloc.pipeline", "encode_function", "encoding.encoder",
     None, "encoding.encoder.calls"),
    ("repro.encoding.setlr_elim", "eliminate_redundant_setlr",
     "encoding.setlr_elim", _setlr_removed, "encoding.setlr_elim.calls"),
    ("repro.regalloc.pipeline", "verify_encoding", "encoding.verifier",
     None, "encoding.verifier.calls"),
    ("repro.machine.reuse", "record_reference_run", "machine.reuse.record",
     None, "machine.reuse.record.calls"),
    ("repro.machine.reuse", "interpret_or_derive", "machine.reuse.derive",
     None, "machine.reuse.derive.calls"),
    ("repro.machine.reuse", "derive_execution", None, _derived, None),
    ("repro.machine.lowend:LowEndTimingModel", "time", "machine.lowend",
     None, "machine.lowend.calls"),
    ("repro.experiments.swp", "allocate_kernel", "swp.rotalloc",
     _rotalloc_spills, "swp.rotalloc.calls"),
    ("repro.swp.rotalloc", "modulo_schedule", "swp.modulo", None,
     "swp.modulo.calls"),
    ("repro.experiments.swp", "encode_kernel", "swp.diffswp",
     _kernel_fields, "swp.diffswp.calls"),
    ("repro.swp.ddg:LoopDDG", "consumers", None, None,
     "swp.ddg.consumers_calls"),
)


class Tracer:
    """In-memory spans and counters, plus the wrappers that record them."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Counter = Counter()
        self.unit: Optional[str] = None
        #: unit span index -> the unit's factor to reference host speed
        self.scales: Dict[int, float] = {}
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def add(self, counter: str, value) -> None:
        self.counters[counter] += value

    def open(self, name: str) -> list:
        span = [name, time.perf_counter(), None,
                self._stack[-1] if self._stack else -1, self.unit]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: Optional[str], hook: Optional[Callable],
              calls: Optional[str]):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                span = tracer.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(span)
            if calls is not None:
                tracer.counters[calls] += 1
            if hook is not None:
                hook(tracer, result, args, kwargs)
            return result

        return traced

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Wrap every hook site; :meth:`uninstall` restores them."""
        for where, attr, name, hook, calls in HOOKS:
            module, _, cls = where.partition(":")
            owner = importlib.import_module(module)
            if cls:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, hook, calls))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------

    def durations(self, readings: Sequence[Tuple[float, float]] = ()
                  ) -> List[float]:
        """Each span's time at reference host speed: its wall time minus
        the calibration ``readings`` (``HostClock.readings``, in time
        order) taken inside it, times its unit's factor in
        :attr:`scales` (1 when it has none)."""
        starts = [start for start, _ in readings]
        taken = [0.0]
        for _, dt in readings:
            taken.append(taken[-1] + dt)
        factor: List[float] = []
        out: List[float] = []
        for i, (_name, start, end, parent, _unit) in enumerate(self.spans):
            factor.append(factor[parent] if parent >= 0
                          else self.scales.get(i, 1.0))
            inside = (taken[bisect.bisect_left(starts, end)]
                      - taken[bisect.bisect_left(starts, start)])
            out.append((end - start - inside) * factor[i])
        return out

    def self_times(self, readings: Sequence[Tuple[float, float]] = ()
                   ) -> Dict[str, float]:
        """Self time per span name: span time minus child span time."""
        duration = self.durations(readings)
        child_time = [0.0] * len(self.spans)
        for i, span in enumerate(self.spans):
            if span[3] >= 0:
                child_time[span[3]] += duration[i]
        out: Dict[str, float] = defaultdict(float)
        for i, span in enumerate(self.spans):
            out[span[0]] += duration[i] - child_time[i]
        return out

    def inclusive_by_unit_setup(self, setup_of_unit: Dict[str, str],
                                readings: Sequence[Tuple[float, float]] = ()
                                ) -> Dict[str, float]:
        """Total ``run_setup`` time per allocator setup."""
        duration = self.durations(readings)
        out: Dict[str, float] = defaultdict(float)
        for i, (name, _start, _end, _parent, unit) in enumerate(self.spans):
            if name == "regalloc.pipeline" and unit in setup_of_unit:
                out[setup_of_unit[unit]] += duration[i]
        return out

    def write(self, path, readings: Sequence[Tuple[float, float]] = ()
              ) -> None:
        """Write every span (with its parent index, unit id and time at
        reference host speed), the counters and the calibration readings
        as JSON."""
        duration = self.durations(readings)
        with open(path, "w") as fh:
            json.dump({
                "spans": [
                    {"name": n, "start": s, "end": e, "parent": p,
                     "unit": u, "seconds_at_ref": d}
                    for (n, s, e, p, u), d in zip(self.spans, duration)
                ],
                "counters": dict(self.counters),
                "clock_readings": [list(r) for r in readings],
            }, fh)
