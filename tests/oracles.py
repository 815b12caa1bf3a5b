"""Independent oracles the tests compare the engine against.

Everything here is deliberately naive: brute-force filters, literal
walk-the-circle predicates, unpivoted clique search.  None of it shares
code with the package.
"""

from fractions import Fraction
from itertools import combinations
from math import comb


def cycle_size(n, d):
    return n + 2 * d + 1


def brute_force_objects(n, d):
    """All (d+1)-subsets of the cycle with no neighbouring pair."""
    N = cycle_size(n, d)
    out = []
    for sub in combinations(range(1, N + 1), d + 1):
        ok = True
        for a, b in combinations(sub, 2):
            gap = (b - a) % N
            if gap in (1, N - 1):
                ok = False
                break
        if ok:
            out.append(sub)
    return tuple(out)


def count_formula(n, d):
    N = cycle_size(n, d)
    value = Fraction(N, N - d - 1) * comb(N - d - 1, d + 1)
    assert value.denominator == 1
    return int(value)


def catalan(k):
    return comb(2 * k, k) // (k + 1)


def rotations(seq):
    return [seq[i:] + seq[:i] for i in range(len(seq))]


def intertwines_oracle(x, y, N):
    """Strict alternating chain x_0 < y_0 < x_1 < ... < x_d < y_d < x_0,
    tried over every pair of rotations of the two labellings."""
    if set(x) & set(y):
        return False
    for xs in rotations(tuple(x)):
        base = xs[0]
        for ys in rotations(tuple(y)):
            offsets = []
            for xi, yi in zip(xs, ys):
                offsets.append((xi - base) % N)
                offsets.append((yi - base) % N)
            if all(a < b for a, b in zip(offsets, offsets[1:])):
                return True
    return False


def hom_oracle(x, y, n, d):
    """Nonzero maps go to the one-step-clockwise translate's intertwiner."""
    N = cycle_size(n, d)
    back = tuple(sorted(v % N + 1 for v in y))
    return 1 if intertwines_oracle(x, back, N) else 0


def maximal_cliques_simple(neighbors):
    """Every maximal clique, by unpivoted recursive extension."""
    found = set()
    vertices = range(len(neighbors))

    def grow(clique, candidates):
        extended = False
        for v in candidates:
            extended = True
            grow(clique | {v}, candidates & neighbors[v] & set(range(v + 1, len(neighbors))))
        if not extended:
            full = clique
            if all(
                not (neighbors[u] >= full)
                for u in vertices
                if u not in full
            ):
                found.add(tuple(sorted(full)))

    grow(frozenset(), set(vertices))
    return sorted(found)


def validate_tilting_oracle(candidate, n, d, expected=None):
    """Loop-based reference for validating a tilting object.

    Runs the five checks in order -- admissibility of each summand, size,
    pairwise intertwining, Hom(s, translate of t), maximality -- and returns
    (reason, witness) for the first failure, or (None, summands) when the
    candidate passes.  expected overrides the tilting size C(n+d-1, d).
    """
    N = cycle_size(n, d)
    objects = brute_force_objects(n, d)
    summands = tuple(sorted(set(tuple(sorted(t)) for t in candidate)))
    for t in summands:
        if t not in objects:
            return "non-admissible-summand", t
    if expected is None:
        expected = comb(n + d - 1, d)
    if len(summands) != expected:
        return "size-mismatch", (len(summands), expected)
    for i, s in enumerate(summands):
        for t in summands[i + 1:]:
            if intertwines_oracle(s, t, N):
                return "intertwining-pair", (s, t)
    for s in summands:
        for t in summands:
            translate = tuple(sorted((v - 2) % N + 1 for v in t))
            if hom_oracle(s, translate, n, d):
                return "hom-to-shift", (s, t)
    for obj in objects:
        if obj in summands:
            continue
        if not any(intertwines_oracle(obj, s, N) for s in summands):
            return "not-maximal", obj
    return None, summands


def _mixed_chain_oracle(xs, ys, N):
    """x_0 <= y_0 <= x_1^{--} < x_1 <= y_1 <= ... < x_d <= y_d <= x_0^{--},
    as offsets clockwise from x_0; ^{--} is two steps anticlockwise."""
    base = xs[0]
    steps = [(0, "<=")]  # (offset, relation to the previous entry)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        if i:
            steps.append(((xi - 2 - base) % N, "<="))
            steps.append(((xi - base) % N, "<"))
        steps.append(((yi - base) % N, "<="))
    steps.append((N - 2, "<="))
    for (a, _), (b, rel) in zip(steps, steps[1:]):
        if (rel == "<" and not a < b) or (rel == "<=" and not a <= b):
            return False
    return True


def factors_through_oracle(x, y, z, n, d):
    """Does the nonzero morphism x -> y factor through z?

    The rotation loop: some chain labelling of (x, y) and some rotation
    of z put every z_i on the clockwise arc from x_i to y_i.  Refuses a
    pair with no chain labelling, i.e. a zero hom space.
    """
    N = cycle_size(n, d)
    labellings = [
        (xs, ys)
        for xs in rotations(tuple(x))
        for ys in rotations(tuple(y))
        if _mixed_chain_oracle(xs, ys, N)
    ]
    if not labellings:
        raise ValueError(f"Hom{(x, y)} = 0: nothing to factor")
    return any(
        all((zi - xi) % N <= (yi - xi) % N for xi, zi, yi in zip(xs, zs, ys))
        for xs, ys in labellings
        for zs in rotations(tuple(z))
    )
