"""Tests for DOT export."""

from repro.analysis import build_adjacency, build_interference
from repro.analysis.dot import adjacency_to_dot, cfg_to_dot, interference_to_dot
from repro.ir import parse_function
from repro.regalloc import iterated_allocate


class TestDotExport:
    def test_cfg_dot(self, diamond_fn):
        dot = cfg_to_dot(diamond_fn)
        assert dot.startswith("digraph")
        assert '"entry" -> "big"' in dot
        assert '"big" -> "join"' in dot

    def test_cfg_dot_with_frequencies(self, sum_fn):
        dot = cfg_to_dot(sum_fn, freq={"loop": 10.0})
        assert "(10x)" in dot

    def test_interference_dot_with_coloring(self, sum_fn):
        g = build_interference(sum_fn)
        res = iterated_allocate(sum_fn, 4)
        dot = interference_to_dot(g, res.coloring)
        assert dot.startswith("graph")
        assert "fillcolor" in dot
        assert "--" in dot

    def test_interference_dot_moves_dashed(self):
        fn = parse_function("""
func f(v0):
entry:
    mov v1, v0
    ret v1
""")
        dot = interference_to_dot(build_interference(fn))
        assert "style=dashed" in dot

    def test_adjacency_dot_highlights_violations(self):
        fn = parse_function("""
func f():
entry:
    add r1, r0, r1
    add r0, r2, r0
    ret r0
""")
        g = build_adjacency(fn)
        assignment = {r: r.id for r in g.nodes()}
        dot = adjacency_to_dot(g, assignment, reg_n=4, diff_n=2)
        assert "color=red" in dot        # some wrap-around edge violates
        assert "color=green" in dot      # and some edge is satisfied

    def test_adjacency_dot_plain(self):
        fn = parse_function("""
func f():
entry:
    add r1, r0, r1
    ret r1
""")
        dot = adjacency_to_dot(build_adjacency(fn))
        assert "digraph" in dot
