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
    """Circuits of up to 30 random gates over variables x0..x3, y0..y3 and
    tags t0..t3, adds of two to four operands, with any output."""
    gates = []
    for gid in range(draw(st.integers(1, 30))):
        ops = ["in", "c0", "c1"] + (["add", "mul"] if gid else [])
        op = draw(st.sampled_from(ops))
        if op == "in":
            gates.append(("in", (draw(st.sampled_from("xyt")), draw(st.integers(0, 3)))))
        elif op in ("add", "mul"):
            n = draw(st.integers(2, 4)) if op == "add" else 2
            gates.append((op,) + tuple(draw(st.integers(0, gid - 1)) for _ in range(n)))
        else:
            gates.append((op,))
    return Circuit(tuple(gates), draw(st.integers(0, len(gates) - 1)), 4, 4)
