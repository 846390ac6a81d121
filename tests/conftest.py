import random

from hypothesis import strategies as st

from bcslab.algebra.circuits import Circuit
from bcslab.graphs import EdgeColor, RedBlueGraph

R = EdgeColor.RED
B = EdgeColor.BLUE


def path_graph(colors):
    """Path with the given edge colors on vertices 1..len+1."""
    return RedBlueGraph(
        len(colors) + 1,
        tuple((i + 1, i + 2, c) for i, c in enumerate(colors)),
    )


def random_redblue(n, p, seed):
    rng = random.Random(seed)
    edges = []
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            if rng.random() < p:
                edges.append((a, b, R if rng.random() < 0.5 else B))
    return RedBlueGraph(n, tuple(edges))


@st.composite
def random_circuits(draw):
    """Circuits of up to 30 random gates over variables x0..x3 and y0..y3:
    sums of one to four terms and products, each term and each product times
    one of tags 0..3 or untagged, with any output."""
    gates = []
    for gid in range(draw(st.integers(1, 30))):
        ops = ["in", "c0", "c1"] + (["add", "mul"] if gid else [])
        op = draw(st.sampled_from(ops))
        if op == "in":
            gates.append(("in", (draw(st.sampled_from("xy")), draw(st.integers(0, 3)))))
        elif op == "add":
            terms = []
            for _ in range(draw(st.integers(1, 4))):
                i, s = draw(st.integers(0, gid - 1)), draw(st.none() | st.integers(0, 3))
                terms.append(i if s is None else (i, s))
            gates.append(("add", *terms))
        elif op == "mul":
            s = draw(st.none() | st.integers(0, 3))
            gates.append(("mul", draw(st.integers(0, gid - 1)), draw(st.integers(0, gid - 1)))
                         + (() if s is None else (s,)))
        else:
            gates.append((op,))
    return Circuit(tuple(gates), draw(st.integers(0, len(gates) - 1)), 4, 4)
