"""The allocators' spill loops against their whole-function originals.

``ssa_spill`` finds Belady's over-pressure points from block live-out
sets it updates per eviction, and colours with degree counters;
``_IRCState.build`` fills adjacency straight from the interference
graph.  The originals live here as oracles: :func:`pressure_point`
re-runs liveness after every eviction, :func:`greedy_color` recounts
every degree at every step, and :class:`AdjSetIRCState` keeps the
``adj_set`` pair table.  Every result must be identical.
"""

import pytest

from repro.analysis.interference import build_interference
from repro.analysis.liveness import compute_liveness
from repro.analysis.ssa import construct_ssa, destruct_ssa
from repro.fuzz.gen import FuzzConfig, generate_fuzz_function
from repro.ir import parse_function
from repro.ir.printer import format_function
from repro.regalloc import iterated, ssa_spill
from repro.regalloc.diff_select import DifferentialSelector
from repro.regalloc.spill import SpillSlotAllocator, insert_spill_code
from repro.workloads import MIBENCH

# the allocator-zoo benchmark corpus: generator seeds 0-4 under these knobs
ZOO_CONFIG = FuzzConfig(n_regions=8, loop_depth=2, base_values=14,
                        ops_per_block=8, loop_trip=3, fresh_bias=0.4,
                        call_density=0.25, mem_density=0.25)
KS = (4, 6, 8, 10)


def _zoo():
    return [generate_fuzz_function(s, ZOO_CONFIG) for s in range(5)]


def _mibench():
    return [w.function() for w in MIBENCH]


def _fuzz():
    return [generate_fuzz_function(1000 + s) for s in range(100)]


CORPORA = {"zoo": _zoo, "mibench": _mibench, "fuzz": _fuzz}


# ----------------------------------------------------------------------
# oracles: the whole-function originals
# ----------------------------------------------------------------------

def pressure_point(fn, k, cls):
    """First layout index whose live-in or live-out exceeds ``k``."""
    liveness = compute_liveness(fn)
    idx = 0
    for block in fn.blocks:
        for instr in block.instrs:
            for live in (liveness.instr_live_in[instr.uid],
                         liveness.instr_live_out[instr.uid]):
                at = {r for r in live if r.cls == cls}
                if len(at) > k:
                    return idx, at
            idx += 1
    return None


def greedy_color(fn, k, cls):
    """Briggs simplify/select recounting degrees at every step."""
    graph = build_interference(fn, cls=cls)
    virtuals = {r for r in graph.nodes() if r.virtual and r.cls == cls}
    for r in fn.params:
        if r.cls == cls and r.virtual:
            virtuals.add(r)

    def degree(r, remaining):
        if r not in graph:
            return 0
        return sum(1 for n in graph.neighbors(r)
                   if n in remaining or (not n.virtual and n.cls == cls))

    stack = []
    remaining = set(virtuals)
    while remaining:
        pick = next((r for r in sorted(remaining)
                     if degree(r, remaining) < k), None)
        if pick is None:
            pick = max(sorted(remaining), key=lambda r: degree(r, remaining))
        stack.append(pick)
        remaining.discard(pick)

    coloring = {r: r.id for r in graph.nodes() if not r.virtual}
    failed = []
    for r in reversed(stack):
        used = set()
        if r in graph:
            used = {coloring[n] for n in graph.neighbors(r)
                    if n in coloring}
        color = next((c for c in range(k) if c not in used), None)
        if color is None:
            failed.append(r)
        else:
            coloring[r] = color
    return coloring, failed, graph


class AdjSetIRCState(iterated._IRCState):
    """IRC with the symmetric ``adj_set`` pair table and per-edge build."""

    def build(self):
        self.adj_set = set()
        graph = build_interference(self.fn, cls=self.cls)
        for r in self.fn.registers():
            if r.cls != self.cls:
                continue
            self.members[r] = {r}
            self.adj_list[r] = set()
            self.move_list[r] = set()
            if r.virtual:
                self.initial.add(r)
                self.degree[r] = 0
            else:
                self.precolored.add(r)
                self.color[r] = r.id
                self.degree[r] = self._INF
        for a in graph.nodes():
            for b in sorted(graph.neighbors(a)):
                self.add_edge(a, b)
        for instr in self.fn.instructions():
            if instr.is_move() and instr.dst.cls == self.cls \
                    and instr.srcs[0].cls == self.cls:
                m = (instr.dst, instr.srcs[0])
                if m[0] == m[1]:
                    continue
                self.move_list.setdefault(m[0], set()).add(m)
                self.move_list.setdefault(m[1], set()).add(m)
                self.worklist_moves.add(m)
        self.selector.begin_round(self.fn, self.members, self.freq)

    def interferes(self, u, v):
        return (u, v) in self.adj_set

    def add_edge(self, u, v):
        if u == v or (u, v) in self.adj_set:
            return
        self.adj_set.add((u, v))
        self.adj_set.add((v, u))
        if u not in self.precolored:
            self.adj_list[u].add(v)
            self.degree[u] = self.degree.get(u, 0) + 1
        if v not in self.precolored:
            self.adj_list[v].add(u)
            self.degree[v] = self.degree.get(v, 0) + 1


def _digest(res):
    return (format_function(res.fn), sorted(res.coloring.items()),
            sorted(res.spilled), res.k, res.rounds, res.moves_removed,
            sorted(res.stats.items()), format_function(res.colored_fn))


# ----------------------------------------------------------------------
# ssa_spill
# ----------------------------------------------------------------------

def _ssa_spill_runs(fn, k, monkeypatch):
    """``(points, digest)`` of the oracle run and of the shipped run."""
    ref_points, new_points = [], []
    first = ssa_spill._first_over_pressure

    def ref_scan(cur, live_out, k_, cls):
        ref_points.append(pressure_point(cur, k_, cls))
        return ref_points[-1]

    def new_scan(cur, live_out, k_, cls):
        new_points.append(first(cur, live_out, k_, cls))
        return new_points[-1]

    with monkeypatch.context() as m:
        m.setattr(ssa_spill, "_first_over_pressure", ref_scan)
        m.setattr(ssa_spill, "_greedy_color", greedy_color)
        ref = ssa_spill.ssa_spill_allocate(fn, k)
    with monkeypatch.context() as m:
        m.setattr(ssa_spill, "_first_over_pressure", new_scan)
        new = ssa_spill.ssa_spill_allocate(fn, k)
    return (ref_points, _digest(ref)), (new_points, _digest(new))


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_ssa_spill_matches_whole_function_oracles(corpus, monkeypatch):
    rounds = 0
    for fn in CORPORA[corpus]():
        for k in KS:
            ref, new = _ssa_spill_runs(fn, k, monkeypatch)
            assert new[0] == ref[0], (fn.name, k)
            assert new[1] == ref[1], (fn.name, k)
            rounds += len(ref[0])
    assert rounds > 0


ENTRY_LOOP = """
func g(v0, v1):
entry:
    li v2, 1
    li v3, 2
    add v4, v2, v3
    add v5, v4, v0
    add v6, v5, v1
    sub v1, v1, v2
    blt v2, v1, entry
exit:
    add v7, v6, v0
    ret v7
"""


def test_spilled_parameter_of_a_looping_entry_block(monkeypatch):
    # the entry store of a spilled parameter reads the incoming register;
    # the live-out update relies on construct_ssa giving the looping
    # entry a pred-free preheader, so that store is live-out nowhere
    fn = parse_function(ENTRY_LOOP)
    for k in (2, 3, 4):
        ref, new = _ssa_spill_runs(fn, k, monkeypatch)
        assert new == ref, k
    assert fn.params[0] in ssa_spill.ssa_spill_allocate(fn, 3).spilled


BACKWARD_JUMP = """
func h(v0):
entry:
    br L2
L1:
    add v4, v1, v2
    add v5, v4, v3
    add v6, v5, v2
    ret v6
L2:
    li v1, 1
    li v2, 2
    li v3, 3
    br L1
"""


def test_block_live_in_over_pressure(monkeypatch):
    # L1 sits before its only predecessor, so the first over-pressure
    # point is its first instruction: the walk must check live-in, and
    # report it ahead of that instruction's (also over) live-out
    fn = parse_function(BACKWARD_JUMP)
    ref, new = _ssa_spill_runs(fn, 2, monkeypatch)
    assert new == ref
    point, live = ref[0][0]
    l1 = destruct_ssa(construct_ssa(fn)).blocks[1]
    # the live-in, which lacks the instruction's result
    assert point == 1 and len(live) == 3
    assert not live & set(l1.instrs[0].defs())


DEAD_DEF = """
func f(v0):
entry:
    li v1, 1
    li v2, 2
    li v3, 3
    add v4, v1, v2
    li v3, 4
    li v5, 5
    add v6, v4, v3
    add v7, v6, v5
    ret v7
"""


def test_dead_def_store_moves_the_first_point_earlier():
    fn = parse_function(DEAD_DEF)
    k = 2
    live_out = ssa_spill._class_live_out(fn, "int")
    before = ssa_spill._first_over_pressure(fn, live_out, k, "int")
    assert before == pressure_point(fn, k, "int")
    assert before[0] == 5
    victim = next(r for r in before[1] if r.id == 3)
    after_fn, _, temps = insert_spill_code(
        fn, {victim}, SpillSlotAllocator(), fn.max_vreg_id() + 1)
    for live in live_out.values():
        live.discard(victim)
    after = ssa_spill._first_over_pressure(after_fn, live_out, k, "int")
    assert after == pressure_point(after_fn, k, "int")
    # the dead ``li v3, 3`` now writes a temporary that lives until its
    # store: the point at index 2 goes over k, ahead of the old one
    assert after[0] == 2 < before[0]
    assert after[1] & temps


def test_greedy_color_matches_recounting_oracle():
    for fn in _zoo() + _mibench():
        for k in KS:
            col, failed, _ = ssa_spill._greedy_color(fn, k, "int")
            ref_col, ref_failed, _ = greedy_color(fn, k, "int")
            assert list(col.items()) == list(ref_col.items())
            assert failed == ref_failed


# ----------------------------------------------------------------------
# iterated register coalescing
# ----------------------------------------------------------------------

def _irc_round(state_cls, fn, k, selector):
    state = state_cls(fn=fn, k=k, costs={}, no_spill=set(),
                      selector=selector)
    state.run()
    return (sorted(state.color.items()), sorted(state.spilled),
            sorted(state.coalesced_moves),
            {r: list(a) for r, a in state.adj_list.items()})


@pytest.mark.parametrize("differential", [False, True])
def test_irc_build_matches_adj_set_oracle(differential, monkeypatch):
    def selector(k):
        return (DifferentialSelector(k, min(k, 8)) if differential
                else iterated.ColorSelector())

    for fn in _zoo() + _mibench() + _fuzz()[:40]:
        for k in KS:
            assert (_irc_round(iterated._IRCState, fn, k, selector(k))
                    == _irc_round(AdjSetIRCState, fn, k, selector(k))), \
                (fn.name, k)
            new = iterated.iterated_allocate(fn, k, selector=selector(k))
            with monkeypatch.context() as m:
                m.setattr(iterated, "_IRCState", AdjSetIRCState)
                ref = iterated.iterated_allocate(fn, k, selector=selector(k))
            assert _digest(new) == _digest(ref), (fn.name, k)
