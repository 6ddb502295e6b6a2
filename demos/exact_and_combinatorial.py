"""Exact and combinatorial solvers side by side.

The local-ratio conflict matching gives instant k- and 2-approximations, the
bounded-deletion search answers feasibility questions exactly, and brute
force anchors everything on instances small enough to enumerate.
"""

from eccluster import (
    COLORFAIR,
    MIN,
    brute_force,
    color_error_vector,
    fpt_colorfair,
    fpt_protected,
    matching_approximation,
    objective,
    parse_instance,
)

# a chain of local disputes: color 1 holds three segments, colors 2 and 3
# each contest one of them
TEXT = """\
7 5 3
1 1 2 1 2
2 1 2 2 3
1 1 2 4 5
3 1 2 5 6
1 1 2 6 7
"""


def main():
    h = parse_instance(TEXT)
    print(f"instance: {h.node_count} nodes, {h.edge_count} edges, "
          f"{h.color_count} colors\n")

    lam, matched = matching_approximation(h)
    print(f"matching deletes edges {sorted(matched)} and colors nodes {lam}")
    print(f"  min-total objective {objective(h, lam, MIN):g} "
          f"(exact {brute_force(h, MIN)[0]:g}, factor <= 2)")
    print(f"  worst-color objective {objective(h, lam, COLORFAIR):g} "
          f"(exact {brute_force(h, COLORFAIR)[0]:g}, factor <= k = {h.color_count})")

    print("\nper-color budget tau feasibility:")
    for tau in (0, 1, 2):
        lam = fpt_colorfair(h, tau)
        if lam is None:
            print(f"  tau={tau}: no coloring keeps every color within budget")
        else:
            errs = color_error_vector(h, lam)
            print(f"  tau={tau}: {lam}  per-color errors {errs.tolist()}")

    print("\ntotal budget t with protected color 1 capped at b:")
    for t, b in ((1, 0), (2, 0), (2, 1)):
        lam = fpt_protected(h, t, b, protected_color=1)
        verdict = "infeasible" if lam is None else f"{lam}"
        print(f"  t={t}, b={b}: {verdict}")


if __name__ == "__main__":
    main()
