"""Instance types, parsing, objectives, conflict scan, and cover extension."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

import eccluster as ec
from eccluster import combinatorial
from eccluster.hypergraph import ConflictScan
from conftest import instance_batch, random_instance, serialize_instance

TRIANGLE_TEXT = """\
# three pairwise conflicting edges
3 3 3

1 1 2 1 2
2 1 2 2 3
3 1 2 1 3
"""


def test_parse_triangle_round_trip():
    h = ec.parse_instance(TRIANGLE_TEXT)
    g = ec.triangle_gadget()
    assert h.node_count == 3 and h.color_count == 3
    assert h.edges == g.edges


def test_parse_accepts_crlf_and_comments():
    h = ec.parse_instance(TRIANGLE_TEXT.replace("\n", "\r\n"))
    assert h.edge_count == 3


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "line 1"),
        ("3 3\n", "header"),
        ("a b c\n", "non-numeric"),
        ("0 1 1\n1 1 1 1\n", "out of range"),
        ("3 1 3\n9 1 2 1 2\n", "color 9"),
        ("3 1 3\n1 x 2 1 2\n", "weight"),
        ("3 1 3\n1 1 2 1\n", "expected 2 node ids"),
        ("3 1 3\n1 1 2 1 1\n", "duplicate"),
        ("3 1 3\n1 1 2 1 9\n", "node 9"),
        ("3 1 3\n1 -2 2 1 2\n", ">= 0"),
        ("3 0 3\n1 1 2 1 2\n", "extra data"),
        ("3 2 3\n1 1 2 1 2\n", "expected 2 edge lines"),
    ],
)
def test_parse_rejects_malformed_documents(text, fragment):
    with pytest.raises(ec.ParseError) as err:
        ec.parse_instance(text)
    assert fragment in str(err.value)


def test_parse_error_reports_offending_line_number():
    text = "# a\n\n3 2 3\n1 1 2 1 2\n9 1 2 2 3\n"
    with pytest.raises(ec.ParseError) as err:
        ec.parse_instance(text)
    assert str(err.value).startswith("line 5:")


def test_edge_normalizes_and_validates():
    e = ec.Edge(color=1, weight=2.0, nodes=(3, 1, 2))
    assert e.nodes == (1, 2, 3)
    with pytest.raises(ValueError):
        ec.Edge(color=1, weight=1.0, nodes=(1, 1))
    with pytest.raises(ValueError):
        ec.Edge(color=1, weight=-1.0, nodes=(1, 2))
    with pytest.raises(ValueError):
        ec.Edge(color=1, weight=math.nan, nodes=(1, 2))
    with pytest.raises(ValueError):
        ec.Edge(color=1, weight=1.0, nodes=())


def test_instance_validates_ranges():
    with pytest.raises(ValueError):
        ec.EdgeColoredHypergraph(2, 1, (ec.Edge(color=2, weight=1.0, nodes=(1, 2)),))
    with pytest.raises(ValueError):
        ec.EdgeColoredHypergraph(2, 1, (ec.Edge(color=1, weight=1.0, nodes=(1, 3)),))


def test_cached_views():
    h = ec.triangle_gadget()
    assert h.rank == 2
    assert h.total_weight == 3.0
    assert h.color_classes == ((0,), (1,), (2,))
    assert h.incidence == ((0, 2), (0, 1), (1, 2))


def _instance_with(n, k, edges):
    return ec.EdgeColoredHypergraph(n, k, tuple(ec.Edge(c, w, nodes) for c, w, nodes in edges))


@pytest.mark.parametrize(
    "h",
    [
        ec.triangle_gadget(),
        _instance_with(5, 2, [(2, 0.5, (4, 1, 3)), (1, 1.0, (2,)), (1, 0.0, (5, 2, 1, 3)), (2, 7.0, (3, 5))]),
        _instance_with(3, 1, [(1, 2.0, (3, 1)), (1, -0.0, (2,))]),
        ec.EdgeColoredHypergraph(4, 3, ()),
    ],
    ids=["triangle", "ranks-1-to-4", "k1", "m0"],
)
def test_edge_table_matches_edges(h):
    colors, weights, nodes = h.edge_colors, h.edge_weights, h.edge_nodes
    assert colors.tolist() == [e.color for e in h.edges]
    assert weights.tobytes() == np.array([e.weight for e in h.edges], dtype=float).tobytes()
    assert nodes.shape == (h.edge_count, h.rank)
    for row, e in zip(nodes.tolist(), h.edges):
        size = len(e.nodes)
        assert tuple(row[:size]) == e.nodes
        assert row[size:] == [e.nodes[0]] * (h.rank - size)
    for arr in (colors, weights, nodes):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0
    assert h.edge_nodes is nodes  # built once per instance


def _loop_error_vector(h, lam):
    """Frozen copy of the per-edge loop ``color_error_vector`` ran before
    it read the edge table: the reference it must equal bit for bit."""
    out = np.zeros(h.color_count)
    for e, edge in enumerate(h.edges):
        if not all(lam[v - 1] == edge.color for v in edge.nodes):
            out[edge.color - 1] += edge.weight
    return out


@st.composite
def _colored_instance(draw):
    """An instance of ranks 1-4 and at most 5 colors, and a coloring of it;
    weights include decimals that sum differently in other orders, 0.0 and
    -0.0."""
    n, k = draw(st.integers(4, 7)), draw(st.integers(1, 5))
    weight = st.sampled_from([0.1, 0.3, 0.7, 0.0, -0.0, 1e308]) | st.floats(0.0, 10.0)
    edge = st.tuples(
        st.integers(1, k), weight, st.lists(st.integers(1, n), min_size=1, max_size=4, unique=True)
    )
    edges = draw(st.lists(edge, max_size=12))
    lam = draw(st.lists(st.integers(1, k), min_size=n, max_size=n))
    return _instance_with(n, k, [(c, w, tuple(nodes)) for c, w, nodes in edges]), tuple(lam)


@given(_colored_instance())
def test_color_error_vector_matches_per_edge_loop(case):
    h, lam = case
    with np.errstate(over="ignore"):  # two 1e308 weights of one color sum to inf
        expected = _loop_error_vector(h, lam)
    assert ec.color_error_vector(h, lam).tobytes() == expected.tobytes()


def test_sums_run_left_to_right():
    # Python 3.12's sum() compensates: sum([0.1, 0.2, 0.3]) reads 0.6 there
    edges = (
        ec.Edge(color=1, weight=0.1, nodes=(1, 2)),
        ec.Edge(color=2, weight=0.2, nodes=(2, 3)),
        ec.Edge(color=3, weight=0.3, nodes=(1, 3)),
    )
    h = ec.EdgeColoredHypergraph(3, 3, edges)
    assert h.total_weight == (0.1 + 0.2) + 0.3
    assert ec.objective(h, (2, 3, 1), ec.MIN) == 0.6000000000000001


def test_coloring_that_satisfies_nothing_has_max_zero():
    # Summed in edge order these weights total 4.44e-16 less than the
    # per-color errors of a coloring that satisfies neither edge.
    weights, colors = (0.7, 1.1, 0.01, 0.2, 0.3, 0.3), (3, 2, 3, 2, 3, 1)
    h = ec.EdgeColoredHypergraph(2, 3, tuple(ec.Edge(c, w, (1, 2)) for c, w in zip(colors, weights)))
    assert ec.objective(h, (1, 2), ec.MAX) == 0.0


@given(st.integers(0, 2**32 - 1))
def test_max_objective_is_never_negative(seed):
    rng = random.Random(seed)
    n, k = rng.randint(2, 5), rng.randint(1, 4)
    edges = tuple(
        ec.Edge(rng.randint(1, k), round(rng.uniform(0.0, 2.0), 2), tuple(rng.sample(range(1, n + 1), 2)))
        for _ in range(rng.randint(1, 8))
    )
    h = ec.EdgeColoredHypergraph(n, k, edges)
    for _ in range(20):
        lam = tuple(rng.randint(1, k) for _ in range(n))
        value = ec.objective(h, lam, ec.MAX)
        assert value >= 0.0
        if not any(ec.is_satisfied(h, lam, e) for e in range(h.edge_count)):
            assert value == 0.0


def test_satisfaction_and_error_vector():
    h = ec.triangle_gadget()
    lam = (1, 1, 2)
    assert ec.is_satisfied(h, lam, 0)
    assert not ec.is_satisfied(h, lam, 1)
    assert not ec.is_satisfied(h, lam, 2)
    assert np.allclose(ec.color_error_vector(h, lam), [0.0, 1.0, 1.0])
    with pytest.raises(IndexError):
        ec.is_satisfied(h, lam, 3)


def test_objectives_on_triangle():
    h = ec.triangle_gadget()
    lam = (1, 1, 2)
    assert ec.objective(h, lam, ec.MAX) == 1.0
    assert ec.objective(h, lam, ec.MIN) == 2.0
    assert ec.objective(h, lam, ec.COLORFAIR) == 1.0
    assert ec.objective(h, lam, ec.pmean(2.0)) == pytest.approx(math.sqrt(2))
    assert ec.objective(h, lam, ec.pmean(math.inf)) == 1.0
    assert ec.objective(h, lam, ec.protected(1)) == (2.0, 0.0)
    assert ec.objective(h, lam, ec.protected(2)) == (2.0, 1.0)


def test_pmean_norm_keeps_plain_bytes_and_scales_only_at_extremes():
    from eccluster.hypergraph import pmean_norm

    for values, p in (([0.0, 1.0, 2.0], 2.0), ([0.5, 3.0, 1.5], 1.5), ([1.0, 1.0], 0.5), ([0.0, 0.0], 3.0)):
        assert pmean_norm(values, p) == sum(v**p for v in values) ** (1.0 / p)
    # the plain power overflows, or the sum underflows, or the root overflows
    assert pmean_norm([4.0, 2.0], 2000.0) == 4.0
    assert pmean_norm([0.5, 0.5], 2000.0) == pytest.approx(0.5 * 2.0 ** (1.0 / 2000.0), rel=1e-15)
    assert pmean_norm([1e-300, 0.0], 2.0) == 1e-300
    assert pmean_norm([1.0, 1.0], 1e-4) == math.inf


def test_objective_validates_coloring():
    h = ec.triangle_gadget()
    with pytest.raises(ValueError):
        ec.objective(h, (1, 1), ec.MIN)
    with pytest.raises(ValueError):
        ec.objective(h, (1, 1, 9), ec.MIN)


def test_problem_validation():
    with pytest.raises(ValueError):
        ec.Problem("nope")
    with pytest.raises(ValueError):
        ec.pmean(0.0)
    with pytest.raises(ValueError):
        ec.Problem("min", p=2.0)
    with pytest.raises(ValueError):
        ec.protected(0)
    with pytest.raises(ValueError):
        ec.Problem("max", budget=1.0)


def test_conflict_graph_on_triangle():
    assert ec.build_conflict_graph(ec.triangle_gadget()) == frozenset({(0, 1), (0, 2), (1, 2)})


def test_conflict_graph_ignores_same_color_overlap():
    h = ec.EdgeColoredHypergraph(
        3,
        2,
        (
            ec.Edge(color=1, weight=1.0, nodes=(1, 2)),
            ec.Edge(color=1, weight=1.0, nodes=(2, 3)),
        ),
    )
    assert ec.build_conflict_graph(h) == frozenset()


def test_conflict_scan_order():
    h = ec.triangle_gadget()
    assert ConflictScan(h, range(3)).first() == (1, 0, 2)
    assert ConflictScan(h, [1, 2]).first() == (3, 1, 2)
    assert ConflictScan(h, [0]).first() is None
    assert ConflictScan(h, []).first() is None


def test_conflict_scan_prefers_lowest_node():
    h = ec.EdgeColoredHypergraph(
        4,
        2,
        (
            ec.Edge(color=1, weight=1.0, nodes=(2, 3)),
            ec.Edge(color=2, weight=1.0, nodes=(3, 4)),
            ec.Edge(color=2, weight=1.0, nodes=(1, 2)),
        ),
    )
    # node 2 already exposes the pair (0, 2); node 3 would give (0, 1)
    assert ConflictScan(h, range(3)).first() == (2, 0, 2)


def _first_conflict(h, alive):
    """The scan order written out: lowest node, its lowest alive edge, and
    its lowest alive edge of another color."""
    for v, ids in enumerate(h.incidence, start=1):
        live = [e for e in ids if e in alive]
        for b in live:
            if h.edges[b].color != h.edges[live[0]].color:
                return v, live[0], b
    return None


def test_conflict_scan_tracks_flips_and_builds_as_far_as_it_looks():
    rng = random.Random(17)
    for h in instance_batch(171, 30, n_lo=3, n_hi=12, m_hi=16, sizes=(1, 2, 3)):
        alive = {e for e in range(h.edge_count) if rng.random() < 0.8}
        scan = ConflictScan(h, alive)
        furthest = 0
        for _ in range(12):
            conflict = scan.first()
            assert conflict == _first_conflict(h, alive)
            # Tables exist only for nodes up to the furthest one a scan stopped at.
            furthest = max(furthest, conflict[0] if conflict else h.node_count)
            assert all(v <= furthest for v in scan.nodes)
            if not h.edge_count:
                break
            e = rng.randrange(h.edge_count)
            scan.flip(e)
            alive ^= {e}


def test_conflict_scan_stops_at_the_first_conflict_of_a_long_chain():
    # 20,000 nodes on a path of edges in alternating colors: the first
    # conflict is at node 2, and neither a scan nor an fpt search that ends
    # there builds a table for any later node.
    n = 20_000
    h = ec.EdgeColoredHypergraph(n, 2, tuple(ec.Edge(1 + v % 2, 1.0, (v, v + 1)) for v in range(1, n)))
    scan = ConflictScan(h, range(h.edge_count))
    assert scan.first() == (2, 0, 1)
    assert scan.nodes == [2]
    scans = []

    def record(*args):
        scans.append(ConflictScan(*args))
        return scans[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(combinatorial, "ConflictScan", record)
        assert ec.fpt_colorfair(h, 0.5) is None
    assert [s.nodes for s in scans] == [[2]]
    # Deleting edge 1 leaves node 3 one edge, so the scan moves on to node 4.
    scan.flip(1)
    assert scan.first() == (4, 2, 3)
    assert scan.nodes == [2, 3, 4]


def test_extend_coloring_assigns_survivor_colors():
    h = ec.triangle_gadget()
    assert ec.extend_coloring(h, {0, 2}) == (1, 2, 2)
    assert ec.extend_coloring(h, {1, 2}) == (1, 1, 1)
    with pytest.raises(ec.CoverViolation) as err:
        ec.extend_coloring(h, set())
    assert "node" in str(err.value)


def test_extend_coloring_fallback_vector():
    h = ec.triangle_gadget()
    assert ec.extend_coloring(h, {0, 1, 2}, fallback=[3, 2, 1]) == (3, 2, 1)
    with pytest.raises(ValueError):
        ec.extend_coloring(h, {0, 1, 2}, fallback=[9, 1, 1])


def test_extend_coloring_partial_fallback():
    h = ec.EdgeColoredHypergraph(
        3,
        2,
        (ec.Edge(color=2, weight=1.0, nodes=(1, 2)),),
    )
    assert ec.extend_coloring(h, set(), fallback=[1, 1, 1]) == (2, 2, 1)
    assert ec.extend_coloring(h, set()) == (2, 2, 1)


def test_parse_serialize_round_trip_random():
    for h in instance_batch(401, 25, unit_weights=False):
        again = ec.parse_instance(serialize_instance(h))
        assert again == h


@given(st.integers(0, 2**32 - 1))
def test_objective_identities_hold(seed):
    rng = random.Random(seed)
    h = random_instance(rng, n_hi=6, m_hi=7)
    lam = tuple(rng.randint(1, h.color_count) for _ in range(h.node_count))
    errors = ec.color_error_vector(h, lam)
    total = float(errors.sum())
    assert ec.objective(h, lam, ec.MAX) == pytest.approx(h.total_weight - total)
    assert ec.objective(h, lam, ec.MIN) == pytest.approx(total)
    assert ec.objective(h, lam, ec.COLORFAIR) == pytest.approx(float(errors.max()))
    assert ec.objective(h, lam, ec.pmean(1.0)) == pytest.approx(total)
    assert ec.objective(h, lam, ec.pmean(math.inf)) == pytest.approx(float(errors.max()))
    p_obj = ec.objective(h, lam, ec.pmean(2.0))
    assert float(errors.max()) - 1e-9 <= p_obj <= total + 1e-9
    sat_ids = [e for e in range(h.edge_count) if ec.is_satisfied(h, lam, e)]
    sat_weight = sum(h.edges[e].weight for e in sat_ids)
    assert sat_weight + total == pytest.approx(h.total_weight)
