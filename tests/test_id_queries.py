"""The id-level hom queries and the verify evaluators against tuple references.

The sweeps of `verify` and their instance evaluators run on object ids:
hom rows, factor masks and the translate permutation of a HomCalculator.
The references below recompute every value from object tuples instead,
through `model.shift` and the oracles `hom_dim_via_chain` and
`factors_through_oracle`, on every pair and every composable triple of
objects for n <= 4, d <= 3.
"""

from functools import lru_cache

import pytest

from higher_cluster import verify
from higher_cluster.errors import ContractError
from higher_cluster.hom import calculator_for
from higher_cluster.index import index_of
from higher_cluster.model import ModelParams, object_ids, shift
from higher_cluster.tilting import enumerate_tilting
from oracles import factors_through_oracle, hom_dim_via_chain

GRID = [(n, d) for n in range(1, 5) for d in range(1, 4)]


class TupleReference:
    """Hom dimensions and factorisations of one (n, d), keyed by tuples."""

    def __init__(self, n, d):
        self.params = params = ModelParams(n, d)
        calc = calculator_for(params)
        self.objects = objects = calc.objects
        self.homs = {
            (x, y): hom_dim_via_chain(x, y, n, d) for x in objects for y in objects
        }
        # through[x, y]: the z through which the nonzero x -> y factors
        self.through = {
            (x, y): frozenset(
                z for z in objects if factors_through_oracle(x, y, z, n, d)
            )
            for (x, y), h in self.homs.items()
            if h
        }

    def shift(self, x, steps):
        return shift(x, steps, self.params)

    def hom(self, x, y):
        return self.homs[x, y]

    def ideal(self, x, y, family):
        return int(bool(self.through.get((x, y), frozenset()) & family))

    def quotient(self, x, y, family):
        return int(self.hom(x, y) and not self.ideal(x, y, family))

    def composes(self, x, y, z):
        return int(y in self.through.get((x, z), ()))

    # the evaluators, as (failed, values)

    def associativity(self, w, x, y, z):
        left = self.composes(w, x, y) and self.composes(w, y, z)
        right = self.composes(x, y, z) and self.composes(w, x, z)
        return left != right, {"left": left, "right": right}

    def hom_symmetry(self, x, y):
        lhs, rhs = self.hom(x, y), self.hom(y, self.shift(x, 2))
        return lhs != rhs, {"lhs": lhs, "rhs": rhs}

    def ideal_quotient_duality(self, family, c, x):
        lhs = self.ideal(c, self.shift(x, 1), family)
        rhs = self.quotient(x, self.shift(c, 1), family)
        return lhs != rhs, {"lhs": lhs, "rhs": rhs}

    def dimension_formula(self, summands, family, index, c, x):
        sign = -1 if self.params.d % 2 else 1
        rhs = sum(a * self.hom(t, x) for a, t in zip(index, summands))
        quot_cx = self.quotient(c, x, family)
        ideal_form = quot_cx + sign * self.ideal(c, self.shift(x, 1), family)
        quotient_form = quot_cx + sign * self.quotient(x, self.shift(c, 1), family)
        return ideal_form != rhs or quotient_form != rhs, {
            "ideal_form": ideal_form,
            "quotient_form": quotient_form,
            "resolution_side": rhs,
        }

    def disjointness(self, family, c, x):
        first = self.quotient(c, x, family)
        second = self.quotient(x, self.shift(c, 1), family)
        return first != 0 and second != 0, {
            "quotient_cx": first,
            "quotient_x_shift_c": second,
        }


@lru_cache(maxsize=None)
def reference(n, d):
    return TupleReference(n, d)


def families(ref):
    """Translated summands of a few tilting objects, plus the empty and
    the full family: (tilting, family as tuples, family as a mask)."""
    ids = object_ids(ref.params)
    tiltings = enumerate_tilting(ref.params)
    out = []
    for tilting in dict.fromkeys(tiltings[:2] + tiltings[-1:]):
        family = frozenset(ref.shift(t, 1) for t in tilting.summands)
        out.append((tilting, family, sum(1 << ids[x] for x in family)))
    for family in (frozenset(), frozenset(ref.objects)):
        out.append((None, family, sum(1 << ids[x] for x in family)))
    return out


@pytest.mark.parametrize("n,d", GRID)
def test_id_queries_match_tuple_reference(n, d):
    ref = reference(n, d)
    calc = calculator_for(ref.params)
    objects = ref.objects
    assert calc.objects == objects
    assert [objects[t] for t in calc.translate] == [ref.shift(x, 1) for x in objects]
    ids = range(len(objects))
    masks = [(family, mask) for _, family, mask in families(ref)]
    for i in ids:
        for j in ids:
            x, y = objects[i], objects[j]
            assert calc.hom(i, j) == ref.hom(x, y), (x, y)
            for family, mask in masks:
                assert calc.ideal(i, j, mask) == ref.ideal(x, y, family), (x, y)
                assert calc.quotient(i, j, mask) == ref.quotient(x, y, family), (x, y)
            if ref.hom(x, y):
                for k in ids:
                    z = objects[k]
                    if ref.hom(y, z):
                        got = calc.composes(i, j, k)
                        assert got == ref.composes(x, y, z), (x, y, z)
            else:
                # a zero first or second factor, the other an identity
                for triple in ((i, j, j), (i, i, j)):
                    with pytest.raises(ContractError, match="needs nonzero morphisms"):
                        calc.composes(*triple)


@pytest.mark.parametrize("n,d", GRID)
def test_evaluators_match_tuple_reference(n, d):
    ref = reference(n, d)
    calc = calculator_for(ref.params)
    objects = ref.objects
    ids = range(len(objects))
    targets = [[j for j in ids if ref.hom(objects[i], objects[j])] for i in ids]
    chains = 0
    for w in ids:
        for x in targets[w]:
            for y in targets[x]:
                for z in targets[y]:
                    chains += 1
                    got = verify._associativity(calc, w, x, y, z)
                    chain = (objects[w], objects[x], objects[y], objects[z])
                    assert got == ref.associativity(*chain), chain
    assert chains == verify.check_associativity(ref.params).stats["triples"]
    for x in ids:
        for y in ids:
            got = verify._hom_symmetry(calc, x, y)
            assert got == ref.hom_symmetry(objects[x], objects[y])
    for tilting, family, mask in families(ref):
        if tilting is None:
            continue
        summands = tilting.ids
        for c in ids:
            index = index_of(objects[c], tilting, ref.params)
            for x in ids:
                pair = objects[c], objects[x]
                got = verify._ideal_quotient_duality(calc, mask, c, x)
                assert got == ref.ideal_quotient_duality(family, *pair), pair
                got = verify._disjointness(calc, mask, c, x)
                assert got == ref.disjointness(family, *pair), pair
                got = verify._dimension_formula(calc, summands, mask, index, c, x)
                want = ref.dimension_formula(tilting.summands, family, index, *pair)
                assert got == want, pair
