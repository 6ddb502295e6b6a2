"""Shared deterministic instance generation for the test suite."""

from __future__ import annotations

import random

from eccluster import Edge, EdgeColoredHypergraph

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


def serialize_instance(h: EdgeColoredHypergraph) -> str:
    lines = [f"{h.node_count} {h.edge_count} {h.color_count}"]
    for e in h.edges:
        nodes = " ".join(str(v) for v in e.nodes)
        lines.append(f"{e.color} {e.weight!r} {len(e.nodes)} {nodes}")
    return "\n".join(lines) + "\n"
