import random

import pytest
from hypothesis import given, settings, strategies as st

from gral.errors import StructuralError
from gral.combalg import (
    App, DiscreteAssembly, DiscreteMorphism, KConst, STAR, TCA, UNIT, Var,
    bracket_abstract, constant_realizer_iso, enumerate_normal_forms,
    free_vars, function_realizer_bridge, normalize, realizer_category_of,
    substitute, term_size, unit_augmentation,
)


@pytest.fixture(scope="module")
def tca():
    return TCA(("o",), ground=2)


@pytest.fixture(scope="module")
def utca():
    return unit_augmentation(TCA(("o",), ground=2))


def closed_terms(tca, typ, size=4):
    return enumerate_normal_forms(tca, typ, size)


def test_k_equation(tca):
    o = tca.base("o")
    for a in closed_terms(tca, o, 3):
        for b in closed_terms(tca, tca.arrow(o, o), 3)[:4]:
            t = App(App(tca.k(o, tca.arrow(o, o)), a), b)
            assert normalize(t) == normalize(a)


def test_s_equation(tca):
    o = tca.base("o")
    oo = tca.arrow(o, o)
    fs = closed_terms(tca, tca.arrow(o, oo), 5)[:3]
    gs = closed_terms(tca, oo, 4)[:3]
    xs = closed_terms(tca, o, 3)[:3]
    assert fs and gs and xs
    for f in fs:
        for g in gs:
            for x in xs:
                lhs = App(App(App(tca.s(o, o, o), f), g), x)
                rhs = App(App(f, x), App(g, x))
                assert normalize(lhs) == normalize(rhs)


def test_identity_combinator(tca):
    o = tca.base("o")
    for a in closed_terms(tca, o, 4):
        assert normalize(App(tca.i(o), a)) == normalize(a)


def test_unit_table(utca):
    o = utca.base("o")
    # k over the unit collapses to star / identity
    assert utca.k(UNIT, o) == STAR
    assert normalize(utca.k(o, UNIT)) == normalize(utca.i(o))
    assert utca.s(o, o, UNIT) == STAR
    # augmented application: a . * = a and * . a = *
    for a in closed_terms(utca, o, 3):
        assert normalize(App(a, STAR)) == normalize(a)
        assert normalize(App(STAR, a)) == STAR


def test_unit_type_normalization(utca):
    o = utca.base("o")
    assert utca.arrow(UNIT, o) == o
    assert utca.arrow(o, UNIT) == UNIT
    assert utca.type_of(STAR) == UNIT


def test_raw_unit_constant_rejected(utca):
    with pytest.raises(StructuralError):
        utca.check(KConst(UNIT, utca.base("o")))


def random_polynomial(tca, rng, var, depth):
    """A well-typed applicative polynomial over one free variable."""
    o = tca.base("o")
    pool = [var] + closed_terms(tca, var.type, 3)[:3] + closed_terms(tca, o, 3)[:3] \
        + closed_terms(tca, tca.arrow(o, o), 4)[:4] \
        + closed_terms(tca, tca.arrow(o, tca.arrow(o, o)), 5)[:3]
    for _ in range(40):
        t = rng.choice(pool)
        for _ in range(depth):
            u = rng.choice(pool)
            try:
                tca.app_type(tca.type_of(t), tca.type_of(u))
                t = App(t, u)
            except StructuralError:
                try:
                    tca.app_type(tca.type_of(u), tca.type_of(t))
                    t = App(u, t)
                except StructuralError:
                    continue
        if var.name in free_vars(t):
            return t
    return var


def test_bracket_abstraction_substitution_law(tca):
    """(lambda x. t) a and t[a/x] normalize identically, 200 random cases."""
    rng = random.Random(42)
    o = tca.base("o")
    args = closed_terms(tca, o, 4)
    checked = 0
    while checked < 200:
        var = Var("x", o)
        t = random_polynomial(tca, rng, var, rng.randrange(1, 4))
        lam = bracket_abstract(tca, t, var)
        assert var.name not in free_vars(lam)
        a = rng.choice(args)
        lhs = normalize(App(lam, a), fuel=100000)
        rhs = normalize(substitute(t, var, a), fuel=100000)
        assert lhs == rhs
        checked += 1


def test_bracket_abstraction_identity(tca):
    o = tca.base("o")
    var = Var("x", o)
    lam = bracket_abstract(tca, var, o and var)
    for a in closed_terms(tca, o, 4):
        assert normalize(App(lam, a)) == normalize(a)


_HYP_TCA = TCA(("o",), ground=2)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 30), st.integers(1, 3))
def test_bracket_abstraction_hypothesis(seed, depth):
    tca = _HYP_TCA
    rng = random.Random(seed)
    o = tca.base("o")
    var = Var("x", o)
    t = random_polynomial(tca, rng, var, depth)
    lam = bracket_abstract(tca, t, var)
    a = rng.choice(closed_terms(tca, o, 3))
    assert normalize(App(lam, a), fuel=100000) \
        == normalize(substitute(t, var, a), fuel=100000)


def test_fragment_enumeration_normal_forms(tca):
    o = tca.base("o")
    for t in closed_terms(tca, tca.arrow(o, o), 5):
        assert tca.type_of(t) == tca.arrow(o, o)
        assert normalize(t) == t
        assert term_size(t) <= 5


def test_unit_carrier_is_singleton(utca):
    assert closed_terms(utca, UNIT, 4) == [STAR]


def test_hom_from_unit_bijection(utca):
    cat = realizer_category_of(utca, carrier_size=3, witness_size=3)
    o = utca.base("o")
    hom = cat.hom(UNIT, o)
    carrier = cat.carrier(o)
    # hom(1, A) is in bijection with the carrier fragment
    values = sorted(repr(m.apply(STAR)) for m in hom)
    assert values == sorted(repr(t) for t in carrier)


def test_identity_representable(utca):
    cat = realizer_category_of(utca, carrier_size=3, witness_size=3)
    o = utca.base("o")
    idm = cat.identity(o)
    assert cat.validate(idm)
    for a, v in idm.graph:
        assert a == v


def test_composition_witness(utca):
    cat = realizer_category_of(utca, carrier_size=2, witness_size=4)
    o = utca.base("o")
    homs = cat.hom(o, o)
    assert homs
    count = 0
    for f in homs[:3]:
        for g in homs[:3]:
            c = cat.compose(g, f)
            assert cat.validate(c)
            for a, v in f.graph:
                assert c.apply(a) == g.apply(v)
            count += 1
    assert count > 0


def sample_assembly(utca, cat, names, rtype, rng):
    carrier = cat.carrier(rtype)
    return DiscreteAssembly(utca, tuple(names), rtype,
                            {n: rng.choice(carrier) for n in names})


def test_prop21_roundtrip(utca):
    cat = realizer_category_of(utca, carrier_size=3, witness_size=3)
    rng = random.Random(3)
    o = utca.base("o")
    for i in range(10):
        asm = DiscreteAssembly(utca, ("e0", "e1"), UNIT,
                               {"e0": STAR, "e1": STAR})
        a0 = rng.choice(cat.carrier(o))
        res = constant_realizer_iso(asm, a0)
        assert res.replaced.validate()
        assert res.fwd.validate()
        assert res.bwd.validate()
        # round trip is the identity on elements
        comp = {x: res.bwd.fun[res.fwd.fun[x]] for x in asm.carrier}
        assert comp == {x: x for x in asm.carrier}


def test_prop22_roundtrip(utca):
    cat = realizer_category_of(utca, carrier_size=2, witness_size=4)
    rng = random.Random(4)
    o = utca.base("o")
    checked = 0
    for _ in range(30):
        src = sample_assembly(utca, cat, ("a0", "a1"), o, rng)
        tgt = sample_assembly(utca, cat, ("b0", "b1"), o, rng)
        for e in enumerate_normal_forms(utca, utca.arrow(o, o), 4):
            fun = {}
            ok = True
            for x in src.carrier:
                v = normalize(App(e, src.realizer[x]), 4000)
                hits = [y for y in tgt.carrier if tgt.realizer[y] == v]
                if not hits:
                    ok = False
                    break
                fun[x] = hits[0]
            if not ok:
                continue
            m = DiscreteMorphism(src, tgt, fun, e)
            assert m.validate()
            res = function_realizer_bridge(cat, m)
            assert res.back.fun == m.fun
            assert res.back.validate()
            for x in src.carrier:
                assert res.as_function.apply(src.realizer[x]) \
                    == tgt.realizer[m.fun[x]]
            checked += 1
            break
        if checked >= 10:
            break
    assert checked >= 10


def test_assembly_bridges_report(utca):
    from gral.combalg import assembly_bridges
    rng = random.Random(9)
    cat = realizer_category_of(utca, carrier_size=3, witness_size=3)
    o = utca.base("o")
    carrier = cat.carrier(o)
    units = [(DiscreteAssembly(utca, ("e0", "e1"), UNIT,
                               {"e0": STAR, "e1": STAR}),
              rng.choice(carrier)) for _ in range(3)]
    idw = normalize(utca.i(o))
    src = DiscreteAssembly(utca, ("a0",), o, {"a0": carrier[0]})
    m = DiscreteMorphism(src, src, {"a0": "a0"}, utca.i(o))
    rep = assembly_bridges(cat, units, [m])
    assert rep.ok
    assert idw == normalize(m.witness)


def test_assembly_bridges_report_a_wrong_graph(utca):
    # the identity witness sends a0's realizer to itself, not to b0's
    from gral.combalg import assembly_bridges
    cat = realizer_category_of(utca, carrier_size=3, witness_size=3)
    o = utca.base("o")
    carrier = cat.carrier(o)
    src = DiscreteAssembly(utca, ("a0",), o, {"a0": carrier[0]})
    tgt = DiscreteAssembly(utca, ("b0",), o, {"b0": carrier[1]})
    rep = assembly_bridges(cat, [], [DiscreteMorphism(src, tgt, {"a0": "b0"},
                                                      utca.i(o))])
    assert ("function-graph", "morphism 0: graph disagrees at a0") in rep.failures


def test_recursive_one_type_presentation():
    u = TCA(("U",), recursive=True)
    t = u.base("U")
    assert u.arrow(t, t) == t
    k = u.k(t, t)
    a = u.i(t)
    assert normalize(App(App(k, a), a), fuel=2000) == normalize(a, fuel=2000)
