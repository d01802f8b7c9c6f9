"""Optimal spilling (Appel & George, PLDI 2001) — the *O-spill* allocator.

The paper's third scheme builds on an allocator that first decides spills
*optimally* with an ILP solver, then coalesces the resulting moves and colors
the graph.  We reproduce that structure:

1. **Residence decisions** (:func:`decide_residence`): for every virtual
   register and every program point where it is live, decide whether the
   value sits in a register or in its spill slot.  Constraints: at most
   ``k`` values in registers at any point; operands of an instruction must
   be in registers at it; definitions write to registers; residence agrees
   across CFG edges.  The objective minimises frequency weighted loads
   (memory→register transitions) plus stores (register→memory
   transitions; codegen later skips the write-back of clean values).
   Solved exactly with ``scipy.optimize.milp`` (HiGHS) — the authors used
   CPLEX — with a greedy spill-everywhere fallback when scipy is
   unavailable, the normal-form model below has more than
   ``max_ilp_vars`` columns, forced residents alone overfill a point, or
   HiGHS fails (infeasible model, 60 s time limit).  The plan records
   which: ``route`` is ``"lp"`` or ``"branch"`` for an exact plan and
   ``fallback`` names the reason for a greedy one
   (:data:`FALLBACK_REASONS`); both allocators copy them into
   ``AllocationResult.stats``.

   The ILP is posed in a *segment normal form* rather than with one
   binary per live point.  A reload can always move later, up to the next
   point that needs the value, and a store earlier, up to the last point
   that did; both moves keep the cost and only lower occupancy.  So some
   optimal plan changes residence only next to *anchors*: a value's forced
   points (use, definition result, entry parameter) and the block
   boundaries.  Forced anchors are the constant 1, every other anchor is
   one binary, and between consecutive anchors ``p < q`` of one charged
   chain (no definition or death in between) one binary ``m`` says
   "resident through the interior", with ``m <= x_p``, ``m <= x_q`` and
   cost ``w*s*(x_p - m) + w*l*(x_q - m)``.  Only values live at some
   over-pressure point (more live values than ``k`` minus the live
   physical registers) enter the model, capacity rows exist only at those
   points (rows over the same columns keep the tightest bound), and a
   function without one is all-resident without calling the solver.
   Expansion copies each ``m`` over its interior, so stores land right
   after ``p`` and reloads right before ``q``.  Zero-frequency code costs
   nothing, so an optimum may spill there for free; one deterministic
   sweep then turns on, in order, every spilled zero-weight segment with
   both ends resident whose over-pressure interior points still have room.

   The objective is *tie-free*, so the plan is a property of the model
   and not of where the solver's search stops among tied optima (nor of
   column order or the scipy version).  Primary weights are integers:
   block frequencies times load/store costs, scaled by 720720 (as
   :mod:`repro.regalloc.remap` scales its edge weights) and divided by
   their gcd, so static ``10**depth`` weights and profile counts keep
   their values.  Each column then gets a key below the primary's
   granularity, ``c' = c*M + key`` with ``M`` above the summed ``|key|``:
   column ``i`` of ``n`` has key ``-(n - i)``, so among plans of equal
   primary cost the key prefers residence, earlier columns weighing
   more.  Two plans still tie only when their resident columns have the
   same key sum; ``tests/test_ospill_lp_first.py`` finds one plan per
   model under column shuffles and under branch-and-bound on every
   MiBench and zoo model.  ``c'`` is asserted to be exact in float64.

   The model is solved LP-first: one ``milp`` call with ``integrality=0``
   solves the relaxation, and a vertex within 1e-6 of 0 or 1 everywhere
   is the MIP optimum.  Only a fractional relaxation is branched on
   (``integrality=1``, ``mip_rel_gap=0``, same objective).  Within a
   block the relaxation is integral in practice: each column covers an
   interval of consecutive points in the capacity rows.  The cross-block
   equalities are what break it: removing them makes every fractional
   model of the allocator-zoo corpus integral (docs/performance.md).

   One deliberate simplification versus Appel-George: residence may not
   change on a CFG *edge* (no edge splitting), so loads/stores live inside
   blocks only.  This loses a little optimality but keeps codegen simple;
   DESIGN.md records the substitution.

2. **Live-range splitting** (:func:`apply_residence`): every maximal
   in-register interval of a spilled value becomes a fresh virtual register
   connected through the spill slot (``ldslot``/``stslot``).  Clean values
   (no definition since the last load) skip the write-back.

3. Coloring happens downstream — :func:`optimal_spill_allocate` feeds the
   split function to iterated register coalescing, and
   :mod:`repro.regalloc.diff_coalesce` runs the paper's cost-driven
   coalescing loop instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.analysis.frequency import estimate_block_frequencies
from repro.analysis.liveness import LivenessInfo, compute_liveness
from repro.ir.function import Function
from repro.ir.instr import Instr, Reg
from repro.ir.trace import lazy_numpy
from repro.regalloc.base import AllocationResult
from repro.regalloc.iterated import ColorSelector, iterated_allocate
from repro.regalloc.remap import _WEIGHT_SCALE
from repro.regalloc.spill import SpillSlotAllocator

__all__ = [
    "FALLBACK_REASONS",
    "ResidencePlan",
    "decide_residence",
    "apply_residence",
    "optimal_spill_allocate",
]

#: Why a greedy plan replaced the exact one: scipy is not installed, the
#: model has more than ``max_ilp_vars`` columns, forced residents alone
#: overfill some point, or HiGHS failed or hit its time limit.
FALLBACK_REASONS = ("no_scipy", "max_ilp_vars", "overfull", "solver")


@dataclass
class ResidencePlan:
    """Residence vectors: ``residence[v][block][j]`` is True when ``v`` is in
    a register at point ``j`` of the block (point ``j`` precedes instruction
    ``j``; the final point is the block exit)."""

    residence: Dict[Reg, Dict[str, List[bool]]]
    spilled: Set[Reg]
    objective: float
    solver: str
    #: how an exact plan was solved: ``"lp"`` (the relaxation's vertex was
    #: integral), ``"branch"`` (branch-and-bound), ``""`` (no solver call)
    route: str = ""
    #: why a greedy plan replaced the exact one (one of
    #: :data:`FALLBACK_REASONS`); ``""`` for exact plans and for a greedy
    #: plan the caller asked for
    fallback: str = ""

    def as_stats(self) -> Dict[str, float]:
        """The plan's outcome as ``AllocationResult.stats`` entries."""
        stats = {
            "ospill_objective": self.objective,
            "ospill_solver": 1.0 if self.solver == "ilp" else 0.0,
            "ospill_lp": float(self.route == "lp"),
            "ospill_branch": float(self.route == "branch"),
        }
        for reason in FALLBACK_REASONS:
            stats[f"ospill_fallback_{reason}"] = float(self.fallback == reason)
        return stats

    def is_resident(self, v: Reg, block: str, point: int) -> bool:
        """Whether ``v`` sits in a register at the given point.

        Values never spilled are always resident; for spilled values, points
        where the value is dead read as non-resident.
        """
        if v not in self.residence:
            return True
        vec = self.residence[v].get(block)
        return bool(vec and vec[point])


# ----------------------------------------------------------------------
# problem extraction shared by the ILP and the greedy fallback
# ----------------------------------------------------------------------


@dataclass
class _Points:
    """Per program point: the live virtual int registers and the number of
    live physical int registers (which eat into the budget ``k``)."""

    live_at: Dict[Tuple[str, int], Set[Reg]] = field(default_factory=dict)
    phys: Dict[Tuple[str, int], int] = field(default_factory=dict)

    @classmethod
    def build(cls, fn: Function, liveness: LivenessInfo) -> "_Points":
        pts = cls()
        for b in fn.blocks:
            n = len(b.instrs)
            for j in range(n + 1):
                live = (liveness.instr_live_in[b.instrs[j].uid] if j < n
                        else liveness.live_out[b.name])
                pts.live_at[(b.name, j)] = {
                    r for r in live if r.virtual and r.cls == "int"
                }
                pts.phys[(b.name, j)] = sum(
                    1 for r in live if not r.virtual and r.cls == "int"
                )
        return pts


def _forced_points(fn: Function) -> Set[Tuple[Reg, str, int]]:
    """Points where residence is forced to 1: operand uses, definition
    results, and parameters at function entry."""
    forced: Set[Tuple[Reg, str, int]] = set()
    for b in fn.blocks:
        for j, instr in enumerate(b.instrs):
            for r in instr.uses():
                if r.virtual and r.cls == "int":
                    forced.add((r, b.name, j))
            for r in instr.defs():
                if r.virtual and r.cls == "int":
                    forced.add((r, b.name, j + 1))
    entry = fn.entry.name
    for p in fn.params:
        if p.virtual and p.cls == "int":
            forced.add((p, entry, 0))
    return forced


# ----------------------------------------------------------------------
# exact solution via scipy.optimize.milp, over the segment normal form
# ----------------------------------------------------------------------

#: column index standing for a forced anchor, whose residence is the
#: constant 1
_FORCED = -1

#: how far from 0 or 1 a relaxation value may sit and still count as
#: integral (HiGHS's primal feasibility tolerance is 1e-7)
_INTEGRAL_TOL = 1e-6


def _solve_ilp(fn: Function, k: int, pts: _Points,
               freq: Mapping[str, float],
               forced: Set[Tuple[Reg, str, int]],
               load_cost: float, store_cost: float,
               max_ilp_vars: int) -> ResidencePlan | str:
    """The exact plan, or the reason (one of :data:`FALLBACK_REASONS`)
    there is none."""
    try:
        from scipy import sparse
        from scipy.optimize import Bounds, LinearConstraint, milp
    except ImportError:
        return "no_scipy"
    np = lazy_numpy()

    room = {pt: k - pts.phys[pt] for pt in pts.live_at}
    over = [pt for pt, live in pts.live_at.items() if len(live) > room[pt]]
    if not over:
        return ResidencePlan({}, set(), 0.0, "ilp")
    # a value live at no over-pressure point stays resident for free
    model: Set[Reg] = set().union(*(pts.live_at[pt] for pt in over))

    # integer primary weights: exact multiples of 1/_WEIGHT_SCALE divided
    # by their gcd, so integral frequencies (static 10**depth, profile
    # counts) keep their own values
    weights: Dict[str, Tuple[int, int]] = {}
    for b in fn.blocks:
        scaled = freq.get(b.name, 1.0) * _WEIGHT_SCALE
        weights[b.name] = (round(scaled * store_cost),
                           round(scaled * load_cost))
    unit = math.gcd(*(q for pair in weights.values() for q in pair)) or 1

    cost: List[int] = []  # primary objective coefficient per column
    anchors: Dict[Tuple[Reg, str, int], int] = {}
    # (v, block, p, q, column at p, column at q, m, block weight,
    #  over-pressure interior points)
    segments: List[tuple] = []
    cap: Dict[Tuple[str, int], List[int]] = {pt: [] for pt in over}
    fixed = dict.fromkeys(over, 0)  # forced residents per capacity row
    below: List[Tuple[int, int]] = []  # (m, x): m <= x

    def column() -> int:
        cost.append(0)
        return len(cost) - 1

    for b in fn.blocks:
        name, instrs = b.name, b.instrs
        n = len(instrs)
        w = freq.get(name, 1.0)
        ws, wl = (q // unit for q in weights[name])
        # v -> (point, column) of the last anchor on v's open charged
        # chain, and the over-pressure points passed since
        last: Dict[Reg, Tuple[int, int]] = {}
        inner: Dict[Reg, List[Tuple[str, int]]] = {}
        for j in range(n + 1):
            pt = (name, j)
            row = cap.get(pt)
            after = pts.live_at[(name, j + 1)] if j < n else ()
            defs = instrs[j].defs() if j < n else ()
            # sorted: column order must not depend on set iteration order,
            # or the solver's tie-breaks vary with the process hash seed
            for v in sorted(pts.live_at[pt] & model):
                chained = v in last
                # the transition into point j + 1 is charged
                charged = v in after and v not in defs
                is_forced = (v, name, j) in forced
                if chained and charged and not is_forced:
                    if row is not None:
                        inner[v].append(pt)
                    continue
                col = _FORCED if is_forced else column()
                anchors[(v, name, j)] = col
                if row is not None:
                    if is_forced:
                        fixed[pt] += 1
                    else:
                        row.append(col)
                if chained:
                    p, cp = last.pop(v)
                    interior = inner.pop(v)
                    if cp != _FORCED or not is_forced or j - p > 1:
                        # w*s*(x_p - m) + w*l*(x_q - m)
                        m = column()
                        cost[m] -= ws + wl
                        if cp != _FORCED:
                            cost[cp] += ws
                            below.append((m, cp))
                        if not is_forced:
                            cost[col] += wl
                            below.append((m, col))
                        for ip in interior:
                            cap[ip].append(m)
                        segments.append((v, name, p, j, cp, col, m, w,
                                         interior))
                if charged:
                    last[v] = (j, col)
                    inner[v] = []

    n_cols = len(cost)
    if n_cols > max_ilp_vars:
        return "max_ilp_vars"

    # capacity rows; rows over the same columns keep the tightest bound.
    # Every over-pressure point has more live values than room, so none
    # of its rows is redundant and each has a column unless infeasible.
    merged: Dict[Tuple[int, ...], int] = {}
    for pt in over:
        rhs = room[pt] - fixed[pt]
        if rhs < 0:
            return "overfull"  # forced residents alone overfill the point
        key = tuple(sorted(cap[pt]))
        merged[key] = min(rhs, merged.get(key, rhs))

    # edge equality: x[v, exit(P)] == x[v, entry(S)]
    ones: Set[int] = set()
    equal: List[Tuple[int, int]] = []
    succs, _ = fn.cfg()
    for pb in fn.blocks:
        n_p = len(pb.instrs)
        for s in succs[pb.name]:
            for v in sorted(pts.live_at[(s, 0)] & model):
                a = anchors[(v, pb.name, n_p)]
                c = anchors[(v, s, 0)]
                if a == _FORCED:
                    a, c = c, a
                if a == _FORCED or a == c:
                    continue
                if c == _FORCED:
                    ones.add(a)
                else:
                    equal.append((a, c))

    rows: List[int] = []
    cols: List[int] = []
    vals: List[float] = []
    lb: List[float] = []
    ub: List[float] = []

    def add_row(entries, lo: float, hi: float) -> None:
        for col, val in entries:
            rows.append(len(lb))
            cols.append(col)
            vals.append(val)
        lb.append(lo)
        ub.append(hi)

    for key, rhs in merged.items():
        add_row([(col, 1.0) for col in key], -np.inf, rhs)
    for m, col in below:
        add_row(((m, 1.0), (col, -1.0)), -np.inf, 0.0)
    for a, c in equal:
        add_row(((a, 1.0), (c, -1.0)), 0.0, 0.0)

    # Tie-free objective c' = c*spread + key (module docstring): the key
    # prefers residence, column i by n_cols - i, and spread exceeds the
    # summed |key|, so the key only orders plans of equal primary cost
    spread = n_cols * (n_cols + 1) // 2 + 1
    keyed = [c * spread - (n_cols - i) for i, c in enumerate(cost)]
    assert max(map(abs, keyed)) < 2 ** 53, "keyed objective inexact"

    var_lb = np.zeros(n_cols)
    var_lb[sorted(ones)] = 1.0
    problem = dict(
        c=np.array(keyed, dtype=float),
        constraints=LinearConstraint(
            sparse.csr_matrix((vals, (rows, cols)),
                              shape=(len(lb), n_cols)),
            np.array(lb), np.array(ub)),
        bounds=Bounds(var_lb, np.ones(n_cols)),
    )
    # LP first: an integral vertex of the relaxation is the MIP optimum
    route = "lp"
    res = milp(**problem, integrality=np.zeros(n_cols),
               options={"time_limit": 60.0})
    if (res.success and res.x is not None
            and np.abs(res.x - np.round(res.x)).max() > _INTEGRAL_TOL):
        route = "branch"
        res = milp(**problem, integrality=np.ones(n_cols),
                   options={"time_limit": 60.0, "mip_rel_gap": 0.0})
    if not res.success or res.x is None:
        return "solver"
    x = (res.x > 0.5).tolist()

    def resident(col: int) -> bool:
        return col == _FORCED or x[col]

    # Tie-break: zero-weight code is free to spill in, so the solver may
    # leave a segment there in memory with both ends resident.  Keep it
    # in a register wherever every over-pressure point inside has room.
    occ = {pt: fixed[pt] + sum(x[c] for c in cap[pt]) for pt in over}
    inside: List[bool] = []
    for (_, _, p, q, cp, cq, m, w, interior) in segments:
        on = x[m]
        if (not on and w == 0 and q - p > 1 and resident(cp)
                and resident(cq)
                and all(occ[pt] < room[pt] for pt in interior)):
            on = True
            for pt in interior:
                occ[pt] += 1
        inside.append(on)

    # expand: anchors keep their value, each interior copies its m, so
    # stores land right after p and reloads right before q
    spilled = {v for (v, _, _), col in anchors.items() if not resident(col)}
    spilled.update(seg[0] for seg, on in zip(segments, inside)
                   if not on and seg[3] - seg[2] > 1)
    lengths = {b.name: len(b.instrs) for b in fn.blocks}
    residence: Dict[Reg, Dict[str, List[bool]]] = {}

    def vector(v: Reg, block: str) -> List[bool]:
        vecs = residence.setdefault(v, {})
        if block not in vecs:
            vecs[block] = [False] * (lengths[block] + 1)
        return vecs[block]

    for (v, block, j), col in anchors.items():
        if v in spilled:
            vector(v, block)[j] = resident(col)
    terms: List[float] = []
    for (v, block, p, q, cp, cq, _, w, _), on in zip(segments, inside):
        if v in spilled:
            vector(v, block)[p + 1:q] = [on] * (q - p - 1)
        through = on if q - p > 1 else resident(cp) and resident(cq)
        if not through:
            if resident(cp):
                terms.append(w * store_cost)
            if resident(cq):
                terms.append(w * load_cost)
    return ResidencePlan(residence, spilled, math.fsum(terms), "ilp", route)


# ----------------------------------------------------------------------
# greedy fallback: spill-everywhere victims until pressure fits
# ----------------------------------------------------------------------


def _solve_greedy(fn: Function, k: int, pts: _Points,
                  freq: Mapping[str, float],
                  forced: Set[Tuple[Reg, str, int]]) -> ResidencePlan:
    forced_by_reg: Dict[Reg, Set[Tuple[str, int]]] = {}
    for v, b, j in forced:
        forced_by_reg.setdefault(v, set()).add((b, j))

    spilled: Set[Reg] = set()

    def pressure(block: str, j: int) -> int:
        live = pts.live_at[(block, j)]
        count = pts.phys[(block, j)]
        for v in live:
            if v not in spilled:
                count += 1
            elif (block, j) in forced_by_reg.get(v, ()):  # transient reload
                count += 1
        return count

    from repro.regalloc.base import spill_cost_estimates

    costs = spill_cost_estimates(fn, freq)
    while True:
        worst: Optional[Tuple[str, int]] = None
        worst_excess = 0
        for (block, j) in pts.live_at:
            excess = pressure(block, j) - k
            if excess > worst_excess:
                worst_excess = excess
                worst = (block, j)
        if worst is None:
            break
        candidates = [
            v for v in pts.live_at[worst]
            if v not in spilled and worst not in forced_by_reg.get(v, ())
        ]
        if not candidates:
            break  # leave residual pressure for the coloring stage to spill
        victim = min(candidates, key=lambda v: (costs.get(v, 1.0), v))
        spilled.add(victim)

    residence: Dict[Reg, Dict[str, List[bool]]] = {}
    for v in sorted(spilled):
        vecs: Dict[str, List[bool]] = {}
        for b in fn.blocks:
            n = len(b.instrs)
            vec = [False] * (n + 1)
            for j in range(n + 1):
                if v in pts.live_at[(b.name, j)]:
                    vec[j] = (b.name, j) in forced_by_reg.get(v, set())
            vecs[b.name] = vec
        residence[v] = vecs
    plan = ResidencePlan(residence, spilled, 0.0, "greedy")
    # report the same weighted load/store objective the ILP minimises, so
    # exact and greedy plans are directly comparable
    plan.objective = residence_plan_cost(fn, plan, freq)
    return plan


def residence_plan_cost(fn: Function, plan: ResidencePlan,
                        freq: Optional[Mapping[str, float]] = None,
                        load_cost: float = 1.0,
                        store_cost: float = 1.0) -> float:
    """Weighted loads+stores a residence plan implies — the ILP's objective,
    evaluated on *any* plan so exact and greedy solutions are comparable.

    Counts memory→register transitions (loads) and register→memory
    transitions of still-live values (stores) across every instruction,
    plus the block-entry reloads plans with inconsistent edges need.
    """
    if freq is None:
        freq = estimate_block_frequencies(fn)
    liveness = compute_liveness(fn)
    pts = _Points.build(fn, liveness)
    _, preds = fn.cfg()
    terms: List[float] = []
    for b in fn.blocks:
        w = freq.get(b.name, 1.0)
        n = len(b.instrs)
        for j, instr in enumerate(b.instrs):
            defs = set(instr.defs())
            for v in pts.live_at[(b.name, j)]:
                if v not in pts.live_at[(b.name, j + 1)]:
                    continue
                pre = plan.is_resident(v, b.name, j)
                post = plan.is_resident(v, b.name, j + 1)
                if v in defs:
                    continue  # def transitions are free
                if post and not pre:
                    terms.append(w * load_cost)
                elif pre and not post:
                    terms.append(w * store_cost)
        # block-entry reloads when some predecessor leaves the value in memory
        for v in pts.live_at[(b.name, 0)]:
            if not plan.is_resident(v, b.name, 0) or v not in plan.spilled:
                continue
            ps = preds[b.name]
            if ps and any(
                not plan.is_resident(v, p, len(fn.block(p).instrs))
                for p in ps
            ):
                terms.append(w * load_cost)
    # fsum: exactly rounded, so the total depends neither on set iteration
    # order nor on the order the ILP expansion sums the same terms in
    return math.fsum(terms)


def decide_residence(fn: Function, k: int,
                     freq: Optional[Mapping[str, float]] = None,
                     use_ilp: bool = True,
                     load_cost: float = 1.0,
                     store_cost: float = 1.0,
                     max_ilp_vars: int = 60_000) -> ResidencePlan:
    """Decide, for every live point of every virtual register, whether the
    value is in a register — the Appel-George step 1."""
    if freq is None:
        freq = estimate_block_frequencies(fn)
    liveness = compute_liveness(fn)
    pts = _Points.build(fn, liveness)
    forced = _forced_points(fn)
    fallback = ""
    if use_ilp:
        exact = _solve_ilp(fn, k, pts, freq, forced, load_cost, store_cost,
                           max_ilp_vars)
        if isinstance(exact, ResidencePlan):
            return exact
        fallback = exact
    plan = _solve_greedy(fn, k, pts, freq, forced)
    plan.fallback = fallback
    return plan


# ----------------------------------------------------------------------
# live-range splitting codegen
# ----------------------------------------------------------------------


class _UnionFind:
    def __init__(self) -> None:
        self.parent: Dict[object, object] = {}

    def find(self, x: object) -> object:
        self.parent.setdefault(x, x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: object, b: object) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def _segment_walk(fn: Function, plan: ResidencePlan, v: Reg):
    """Yield, per block, the token active at every point of the block.

    Token identities: ``("e", v, block)`` for an entry segment,
    ``("m", v, block, j)`` for a segment starting after instruction ``j``
    (reload or defining instruction).  Returns ``{block: [token_or_None per
    point]}``.
    """
    out: Dict[str, List[Optional[tuple]]] = {}
    for b in fn.blocks:
        vecs = plan.residence[v].get(b.name)
        n = len(b.instrs)
        if vecs is None:
            out[b.name] = [None] * (n + 1)
            continue
        tokens: List[Optional[tuple]] = [None] * (n + 1)
        current: Optional[tuple] = ("e", v, b.name) if vecs[0] else None
        tokens[0] = current
        for j, instr in enumerate(b.instrs):
            pre, post = vecs[j], vecs[j + 1]
            if post and not pre:
                current = ("m", v, b.name, j)
            elif not post:
                current = None
            tokens[j + 1] = current
        out[b.name] = tokens
    return out


def apply_residence(fn: Function, plan: ResidencePlan,
                    slots: Optional[SpillSlotAllocator] = None,
                    next_vreg: Optional[int] = None) -> Tuple[Function, int]:
    """Split live ranges according to ``plan`` — the Appel-George step 2.

    Every in-register segment of a spilled value gets a fresh virtual
    register; transitions become ``ldslot`` (memory→register) and, for dirty
    segments, ``stslot`` (register→memory).  Returns the rewritten function
    and the next unused vreg id.
    """
    slots = slots or SpillSlotAllocator()
    if next_vreg is None:
        next_vreg = fn.max_vreg_id() + 1
    new_fn = fn.copy()
    if not plan.spilled:
        return new_fn, next_vreg

    liveness = compute_liveness(new_fn)
    pts = _Points.build(new_fn, liveness)

    # pass 1: token maps, cross-edge unions, dirty roots
    succs, preds_map = new_fn.cfg()
    uf = _UnionFind()
    token_maps: Dict[Reg, Dict[str, List[Optional[tuple]]]] = {}
    entry_loads: Dict[str, List[Tuple[Reg, tuple]]] = {}
    for v in sorted(plan.spilled):
        token_maps[v] = _segment_walk(new_fn, plan, v)
        for p in new_fn.blocks:
            n = len(p.instrs)
            exit_tok = token_maps[v][p.name][n]
            if exit_tok is None:
                continue
            for s in succs[p.name]:
                entry_tok = token_maps[v][s][0]
                if entry_tok is not None:
                    uf.union(exit_tok, entry_tok)
        # A block entered with the value nominally in a register, but with
        # some predecessor leaving it in memory, needs a reload at its head.
        # ILP plans never hit this (edge-equality constraints); greedy
        # spill-everywhere plans do, since their forced points are reloads.
        for b in new_fn.blocks:
            entry_tok = token_maps[v][b.name][0]
            if entry_tok is None:
                continue
            ps = preds_map[b.name]
            if ps and any(
                token_maps[v][p][len(new_fn.block(p).instrs)] is None
                for p in ps
            ):
                entry_loads.setdefault(b.name, []).append((v, entry_tok))

    dirty: Set[object] = set()
    for v in sorted(plan.spilled):
        for b in new_fn.blocks:
            toks = token_maps[v][b.name]
            for j, instr in enumerate(b.instrs):
                if v in instr.defs():
                    tok = toks[j + 1]
                    if tok is not None:
                        dirty.add(uf.find(tok))
    # parameters arrive in registers with no memory copy: their entry
    # segment is dirty by definition
    for p in new_fn.params:
        if p in plan.spilled:
            tok = token_maps[p][new_fn.entry.name][0]
            if tok is not None:
                dirty.add(uf.find(tok))

    seg_regs: Dict[object, Reg] = {}
    # a spilled parameter's entry segment *is* the parameter register —
    # the incoming value already lives there
    for p in new_fn.params:
        if p in plan.spilled:
            tok = token_maps[p][new_fn.entry.name][0]
            if tok is not None:
                seg_regs[uf.find(tok)] = p

    def reg_of(token: tuple) -> Reg:
        nonlocal next_vreg
        root = uf.find(token)
        if root not in seg_regs:
            seg_regs[root] = Reg(next_vreg, virtual=True, cls="int")
            next_vreg += 1
        return seg_regs[root]

    # pass 2: rewrite
    for b in new_fn.blocks:
        new_instrs: List[Instr] = [
            Instr("ldslot", dst=reg_of(tok), imm=slots.slot_for(v))
            for v, tok in entry_loads.get(b.name, ())
        ]
        n = len(b.instrs)
        for j, instr in enumerate(b.instrs):
            mapping: Dict[Reg, Reg] = {}
            def_overrides: Dict[Reg, Reg] = {}
            post_ops: List[Instr] = []
            for v in sorted(plan.spilled):
                toks = token_maps[v][b.name]
                pre_tok, post_tok = toks[j], toks[j + 1]
                used = v in instr.uses()
                defd = v in instr.defs()
                if used:
                    if pre_tok is None:
                        raise RuntimeError(
                            f"{fn.name}/{b.name}: plan leaves use of {v} "
                            f"at instr {j} in memory"
                        )
                    mapping[v] = reg_of(pre_tok)
                if defd:
                    if post_tok is None:
                        if v in pts.live_at[(b.name, j + 1)]:
                            raise RuntimeError(
                                f"{fn.name}/{b.name}: plan leaves def of {v} "
                                f"at instr {j} in memory"
                            )
                        # dead store: the value is never read again, but the
                        # instruction still writes a register — give it a
                        # fresh throwaway name (the use operands, if any,
                        # keep the mapping chosen above)
                        def_overrides[v] = Reg(next_vreg, virtual=True,
                                               cls="int")
                        next_vreg += 1
                    else:
                        def_overrides[v] = reg_of(post_tok)
                # transitions across this instruction
                if pre_tok is None and post_tok is not None and not defd:
                    post_ops.append(
                        Instr("ldslot", dst=reg_of(post_tok),
                              imm=slots.slot_for(v))
                    )
                if pre_tok is not None and post_tok is None:
                    still_live = v in pts.live_at[(b.name, j + 1)]
                    if still_live and uf.find(pre_tok) in dirty:
                        post_ops.append(
                            Instr("stslot", srcs=(reg_of(pre_tok),),
                                  imm=slots.slot_for(v))
                        )
            rewritten = instr.rewrite(mapping) if mapping else instr
            if def_overrides:
                rewritten = rewritten.copy()
                if rewritten.op == "call":
                    # call defs live in call_defs, not dst; resolve from the
                    # *original* operands — the use mapping above may already
                    # have renamed a use-and-def register to its pre-token
                    rewritten.call_defs = tuple(
                        def_overrides.get(r, mapping.get(r, r))
                        for r in instr.call_defs
                    )
                else:
                    rewritten.dst = next(iter(def_overrides.values()))
            if j == n - 1 and rewritten.op in ("br", "ret", "beq", "bne",
                                               "blt", "bge", "bgt", "ble"):
                new_instrs.extend(post_ops)  # before the terminator
                new_instrs.append(rewritten)
            else:
                new_instrs.append(rewritten)
                new_instrs.extend(post_ops)
        b.instrs = new_instrs

    new_fn.validate()
    return new_fn, next_vreg


def optimal_spill_allocate(fn: Function, k: int,
                           selector: Optional[ColorSelector] = None,
                           use_ilp: bool = True,
                           load_cost: float = 1.0,
                           store_cost: float = 1.0,
                           freq: Optional[Mapping[str, float]] = None
                           ) -> AllocationResult:
    """The full O-spill pipeline: optimal residence → splitting → coloring.

    Coloring uses iterated register coalescing, whose conservative
    coalescing stands in for Appel-George's aggressive-then-undo loop;
    :func:`repro.regalloc.diff_coalesce.differential_coalesce_allocate` runs
    the paper's cost-driven variant instead.
    """
    if freq is None:
        freq = estimate_block_frequencies(fn)

    def attempt(budget: int) -> AllocationResult:
        plan = decide_residence(fn, budget, freq, use_ilp=use_ilp,
                                load_cost=load_cost, store_cost=store_cost)
        split_fn, _ = apply_residence(fn, plan)
        result = iterated_allocate(split_fn, k, selector=selector,
                                   freq=dict(freq))
        result.stats.update(plan.as_stats())
        result.stats["ospill_spilled_ranges"] = float(len(plan.spilled))
        result.stats["ospill_budget"] = float(budget)
        return result

    def weighted_spill_cost(result: AllocationResult) -> float:
        f = freq
        return sum(
            f.get(block.name, 1.0)
            for block in result.fn.blocks
            for instr in block.instrs
            if instr.op in ("ldslot", "stslot")
        )

    best = attempt(k)
    # Residence plans bound MaxLive by k, but k-colorability is not implied
    # (Appel-George restore it with parallel copies at every block boundary,
    # which we deliberately avoid).  When the colorer had to add spills, a
    # plan with one register of slack sometimes colors cleanly; keep
    # whichever result executes less spill traffic.
    if best.rounds > 1 and k > 2:
        retry = attempt(k - 1)
        if weighted_spill_cost(retry) < weighted_spill_cost(best):
            best = retry
    return best
