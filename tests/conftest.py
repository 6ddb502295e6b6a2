"""Shared deterministic instance generation for the test suite."""

from __future__ import annotations

import random

import numpy as np

from eccluster import Edge, EdgeColoredHypergraph, LinearProgram

# The convex benchmark workload's capped p = 2 instance: six nodes, three
# colors, twelve unit edges.  The cutting-plane loop needs eleven master LPs.
SLOW_P2 = """6 12 3
1 1.0 3 1 4 6
2 1.0 3 2 3 6
1 1.0 3 3 4 6
2 1.0 2 1 5
1 1.0 2 1 4
3 1.0 2 5 6
1 1.0 3 1 3 5
3 1.0 2 2 6
1 1.0 3 1 5 6
3 1.0 3 4 5 6
1 1.0 3 3 5 6
2 1.0 2 1 2
"""


def random_instance(
    rng: random.Random,
    *,
    n_lo: int = 3,
    n_hi: int = 8,
    k_lo: int = 2,
    k_hi: int = 4,
    m_lo: int = 3,
    m_hi: int = 10,
    sizes: tuple[int, ...] = (2, 3),
    unit_weights: bool = True,
) -> EdgeColoredHypergraph:
    n = rng.randint(n_lo, n_hi)
    k = rng.randint(k_lo, k_hi)
    m = rng.randint(m_lo, m_hi)
    edges = []
    usable = [s for s in sizes if s <= n]
    for _ in range(m):
        size = rng.choice(usable)
        nodes = tuple(rng.sample(range(1, n + 1), size))
        weight = 1.0 if unit_weights else rng.choice([0.5, 1.0, 1.5, 2.0, 3.0])
        edges.append(Edge(color=rng.randint(1, k), weight=weight, nodes=nodes))
    return EdgeColoredHypergraph(node_count=n, color_count=k, edges=tuple(edges))


def instance_batch(seed: int, count: int, **kwargs) -> list[EdgeColoredHypergraph]:
    rng = random.Random(seed)
    return [random_instance(rng, **kwargs) for _ in range(count)]


def ladder_instance(n: int) -> EdgeColoredHypergraph:
    """The benchmark's seeded n-node instance, ``random_instance(random.Random(n), n)``
    in ``bench/instances.py``: 2n unit edges of 2 or 3 nodes, three colors."""
    rng = random.Random(n)
    edges = []
    for _ in range(2 * n):
        nodes = tuple(rng.sample(range(1, n + 1), rng.choice((2, 3))))
        edges.append(Edge(color=rng.randint(1, 3), weight=1.0, nodes=nodes))
    return EdgeColoredHypergraph(node_count=n, color_count=3, edges=tuple(edges))


def assignment_lp(h: EdgeColoredHypergraph) -> LinearProgram:
    """The max relaxation's LP in its own, assignment form, frozen here.

    minimize -sum_e w_e z_e over columns x (node by node, color by color)
    then z.  Each node's equation sum_c x_v^c = 1 is a pair of rows: one row
    sum_c x_v^c <= 1 per node, then one row -sum_c x_v^c <= -1 per node;
    then one row z_e - x_v^c <= 0 per incidence, in edge order.  The
    library solves the p = 1 distance LP instead; this program keeps
    equation pairs and negative costs in the simplex tests, and its optimum
    is the max bound, negated.
    """
    n, k, m = h.node_count, h.color_count, h.edge_count
    inc_node = np.array([v for edge in h.edges for v in edge.nodes], dtype=np.intp)
    inc_edge = np.repeat(np.arange(m), [len(edge.nodes) for edge in h.edges])
    inc_color = np.array([h.edges[e].color for e in inc_edge], dtype=np.intp)
    A = np.zeros((2 * n + inc_node.size, n * k + m))
    A[np.arange(n).repeat(k), np.arange(n * k)] = 1.0
    A[n + np.arange(n).repeat(k), np.arange(n * k)] = -1.0
    inc_rows = 2 * n + np.arange(inc_node.size)
    A[inc_rows, (inc_node - 1) * k + inc_color - 1] = -1.0
    A[inc_rows, n * k + inc_edge] = 1.0
    objective = np.zeros(n * k + m)
    objective[n * k :] = [-edge.weight for edge in h.edges]
    rhs = np.repeat([1.0, -1.0, 0.0], [n, n, inc_node.size])
    return LinearProgram(objective, A, rhs)


def serialize_instance(h: EdgeColoredHypergraph) -> str:
    lines = [f"{h.node_count} {h.edge_count} {h.color_count}"]
    for e in h.edges:
        nodes = " ".join(str(v) for v in e.nodes)
        lines.append(f"{e.color} {e.weight!r} {len(e.nodes)} {nodes}")
    return "\n".join(lines) + "\n"
