"""Minimize per-color error norms: relaxations, deterministic rounding, exact.

Runs the distance relaxation for p = 1, 2, and inf, rounds each solution at
the half threshold, and lines the results up against brute force.  Finishes
with the concave case p = 1/2 through the extension minimizer.
"""

import math

from eccluster import (
    brute_force,
    half_threshold_round,
    lovasz_round,
    minimize_lovasz,
    objective,
    parse_instance,
    pmean,
    solve_pmean_relaxation,
)

# three disjoint node pairs, each wanted by both colors: every coloring
# loses one edge per pair, and the exponent p decides how the three losses
# spread across the two colors
TEXT = """\
6 6 2
1 1 2 1 2
2 1 2 1 2
1 1 2 3 4
2 1 2 3 4
1 1 2 5 6
2 1 2 5 6
"""


def main():
    h = parse_instance(TEXT)
    print(f"instance: {h.node_count} nodes, {h.edge_count} edges, "
          f"{h.color_count} colors, rank {h.rank}\n")

    for p in (1.0, 2.0, math.inf):
        frac = solve_pmean_relaxation(h, p)
        lam = half_threshold_round(h, frac)
        obj = objective(h, lam, pmean(p))
        opt, witness = brute_force(h, pmean(p))
        name = "inf" if math.isinf(p) else f"{p:g}"
        print(f"p={name:>3}: relaxation bound={frac.bound:.4f}  "
              f"rounded={obj:.4f} via {lam}  exact={opt:.4f} via {witness}")
        print(f"       rounded <= 2 x bound: {obj <= 2 * frac.bound + 1e-9}")

    p = 0.5
    gamma = minimize_lovasz(h, p).point
    lam = lovasz_round(h, gamma)
    obj = objective(h, lam, pmean(p))
    opt, witness = brute_force(h, pmean(p))
    print(f"\np=0.5: extension point gamma={[round(float(g), 3) for g in gamma]}")
    print(f"       rounded={obj:.4f} via {lam}  exact={opt:.4f} via {witness}")
    print(f"       rounded <= 2^(1/p) x exact = 4 x exact: {obj <= 4 * opt + 1e-9}")
    print("\nlarge p spreads the unavoidable losses across colors;")
    print("p below one concentrates them on a single color instead.")


if __name__ == "__main__":
    main()
