import itertools

import pytest
from hypothesis import given, settings, strategies as st

from gral.errors import SizeCapError, StructuralError
from gral.groupoids import (
    EquivalenceData, EquivalenceFailure, FinGroupoid, GFunctor,
    LiftFailure, NatIso, codiscrete, compose_functors, conjugate, cyclic_group,
    discrete, disjoint_union, equivalence_inverse, exponential, functors_between,
    identity_functor, is_functor, is_nat_iso, iso_comma,
    isofibration_cleavage, nat_isos_between, product, pullback,
    terminal_groupoid, validate_groupoid,
)


def walking_iso() -> FinGroupoid:
    """Two objects 0, 1 and a single isomorphism between them."""
    mors = {"id_0": ("0", "0"), "id_1": ("1", "1"), "i": ("0", "1"), "i'": ("1", "0")}
    comp = {
        ("id_0", "id_0"): "id_0", ("id_1", "id_1"): "id_1",
        ("i", "id_0"): "i", ("id_1", "i"): "i",
        ("i'", "id_1"): "i'", ("id_0", "i'"): "i'",
        ("i'", "i"): "id_0", ("i", "i'"): "id_1",
    }
    return FinGroupoid(["0", "1"], mors, comp, {"0": "id_0", "1": "id_1"},
                       {"id_0": "id_0", "id_1": "id_1", "i": "i'", "i'": "i"})


# --- independent oracle: brute-force functor enumeration -------------------

def brute_force_functors(x: FinGroupoid, y: FinGroupoid):
    """All functors x -> y by raw table search (oracle, no cleverness)."""
    found = []
    for objs in itertools.product(y.objects, repeat=len(x.objects)):
        omap = dict(zip(x.objects, objs))
        pools = []
        for m in x.morphisms:
            s, t = x.mors[m]
            pools.append([n for n in y.morphisms if y.mors[n] == (omap[s], omap[t])])
        for pick in itertools.product(*pools):
            mmap = dict(zip(x.morphisms, pick))
            ok = all(mmap[x.id_of(o)] == y.id_of(omap[o]) for o in x.objects)
            if ok:
                for (g, f), h in x.comp.items():
                    if y.compose(mmap[g], mmap[f]) != mmap[h]:
                        ok = False
                        break
            if ok:
                found.append((tuple(omap[o] for o in x.objects),
                              tuple(mmap[m] for m in x.morphisms)))
    return found


def functor_table(F: GFunctor):
    return (tuple(F.omap[o] for o in F.dom.objects),
            tuple(F.mmap[m] for m in F.dom.morphisms))


def test_validate_walking_iso():
    assert validate_groupoid(walking_iso()).ok


def test_validate_terminal():
    assert validate_groupoid(terminal_groupoid()).ok


def test_idempotent_endomorphism_breaks_inverse_law():
    mors = {"id_a": ("a", "a"), "t": ("a", "a")}
    comp = {("id_a", "id_a"): "id_a", ("id_a", "t"): "t",
            ("t", "id_a"): "t", ("t", "t"): "t"}
    g = FinGroupoid(["a"], mors, comp, {"a": "id_a"}, {"id_a": "id_a", "t": "t"})
    rep = validate_groupoid(g)
    assert not rep.ok
    assert any(kind.startswith("inv") for kind, _ in rep.failures)


def test_dangling_identifier_is_structural():
    with pytest.raises(StructuralError):
        FinGroupoid(["a"], {"f": ("a", "b")}, {}, {"a": "f"}, {"f": "f"})


def test_missing_comp_entry_is_structural():
    mors = {"id_a": ("a", "a"), "t": ("a", "a")}
    with pytest.raises(StructuralError):
        FinGroupoid(["a"], mors, {("id_a", "id_a"): "id_a"},
                    {"a": "id_a"}, {"id_a": "id_a", "t": "t"})


def _break(objects=None, mors=(), ident=(), inv=(), comp=(),
           drop_ident=(), drop_inv=(), drop_comp=()):
    """codiscrete(["a", "b"])'s tables with entries set or dropped."""
    g = codiscrete(["a", "b"])
    t = {"mors": dict(g.mors), "ident": dict(g.ident), "inv": dict(g.inv),
         "comp": dict(g.comp)}
    for name, sets in (("mors", mors), ("ident", ident), ("inv", inv),
                       ("comp", comp)):
        t[name].update(sets)
    for name, drops in (("ident", drop_ident), ("inv", drop_inv),
                        ("comp", drop_comp)):
        for k in drops:
            del t[name][k]
    return (objects or list(g.objects), t["mors"], t["comp"], t["ident"],
            t["inv"])


@pytest.mark.parametrize("tables,message", [
    (_break(objects=["a", "b", "a"]), "duplicate object identifier"),
    (_break(mors={"f": ("a", "c")}), "morphism 'f' has dangling endpoint"),
    (_break(drop_ident=["b"]), "object 'b' lacks an identity entry"),
    (_break(ident={"b": "nope"}), "identity of 'b' dangles: 'nope'"),
    (_break(ident={"a": "a~b"}), "identity of 'a' is not an endomorphism"),
    (_break(drop_inv=["a~b"]), "morphism 'a~b' lacks an inverse entry"),
    (_break(inv={"a~b": "nope"}), "inverse of 'a~b' dangles"),
    (_break(comp={("a~b", "nope"): "a~b"}), "comp entry ('a~b','nope') dangles"),
    (_break(comp={("a~b", "a~b"): "id_a"}),
     "comp entry ('a~b','a~b') is not composable"),
    (_break(drop_comp=[("b~a", "a~b")]), "comp table missing entry ('b~a','a~b')"),
], ids=["duplicate-object", "dangling-endpoint", "missing-identity",
        "dangling-identity", "identity-not-endo", "missing-inverse",
        "dangling-inverse", "dangling-comp", "non-composable-comp",
        "missing-comp"])
def test_structural_refusal_messages(tables, message):
    with pytest.raises(StructuralError) as exc:
        FinGroupoid(*tables)
    assert str(exc.value) == message


def test_builders_validate():
    for g in (codiscrete(["a", "b", "c"]), cyclic_group(4), discrete(["x", "y"]),
              disjoint_union([cyclic_group(2), codiscrete(["a", "b"])])):
        assert validate_groupoid(g).ok


def test_product_unit_law():
    t = terminal_groupoid()
    x = walking_iso()
    p = product(t, x)
    assert len(p.gpd.objects) == len(x.objects)
    assert len(p.gpd.morphisms) == len(x.morphisms)
    assert validate_groupoid(p.gpd).ok


def test_product_walking_iso_counts():
    i1 = walking_iso()
    p = product(i1, i1)
    assert len(p.gpd.objects) == 4
    assert len(p.gpd.morphisms) == 16
    assert validate_groupoid(p.gpd).ok
    assert is_functor(p.p1).ok and is_functor(p.p2).ok


def test_product_z2_counts():
    z2 = cyclic_group(2)
    p = product(z2, z2)
    assert len(p.gpd.objects) == 1
    assert len(p.gpd.morphisms) == 4


def test_product_pairing_universal():
    i1 = walking_iso()
    p = product(i1, i1)
    z2 = cyclic_group(2)
    candidates = functors_between(z2, p.gpd)
    legs = functors_between(z2, i1)
    for F in legs:
        for G in legs:
            h = p.pair(F, G)
            assert is_functor(h).ok
            assert compose_functors(p.p1, h) == F
            assert compose_functors(p.p2, h) == G
            # uniqueness: any functor with these projections equals h
            for cand in candidates:
                if (compose_functors(p.p1, cand) == F
                        and compose_functors(p.p2, cand) == G):
                    assert cand == h


def test_functor_enumeration_matches_brute_force():
    cases = [
        (walking_iso(), walking_iso()),
        (cyclic_group(2), cyclic_group(2)),
        (cyclic_group(2), cyclic_group(4)),
        (codiscrete(["a", "b"]), walking_iso()),
        (disjoint_union([terminal_groupoid(), cyclic_group(2)]), codiscrete(["a", "b"])),
    ]
    for x, y in cases:
        fast = sorted(functor_table(F) for F in functors_between(x, y))
        slow = sorted(brute_force_functors(x, y))
        assert fast == slow


def test_exponential_unit_law():
    e = exponential(terminal_groupoid(), walking_iso())
    assert len(e.gpd.objects) == 2
    assert len(e.gpd.morphisms) == 4
    assert validate_groupoid(e.gpd).ok


def test_exponential_walking_iso_codiscrete():
    i1 = walking_iso()
    e = exponential(i1, i1)
    assert len(e.gpd.objects) == 4
    # codiscrete: exactly one morphism in each hom-set
    for a in e.gpd.objects:
        for b in e.gpd.objects:
            assert len(e.gpd.hom(a, b)) == 1
    assert validate_groupoid(e.gpd).ok


def test_exponential_z2_two_objects():
    z2 = cyclic_group(2)
    e = exponential(z2, z2)
    assert len(e.gpd.objects) == 2  # trivial and identity homomorphism


def test_exponential_cap():
    from gral.groupoids import SizeCaps
    with pytest.raises(SizeCapError):
        exponential(codiscrete(["a", "b", "c"]), codiscrete(["x", "y", "z"]),
                    SizeCaps(max_objects=2, max_morphisms=10))


def test_nat_iso_enumeration():
    i1 = walking_iso()
    fs = functors_between(i1, i1)
    # between any two functors into a codiscrete-like target there is exactly
    # one natural iso here because hom-sets of the walking iso are singletons
    for F in fs:
        for G in fs:
            isos = nat_isos_between(F, G)
            assert len(isos) == 1
            assert is_nat_iso(isos[0]).ok


def test_pullback_identity():
    i1 = walking_iso()
    g = functors_between(cyclic_group(2), i1)[0]
    pb = pullback(identity_functor(i1), g)
    assert len(pb.gpd.objects) == len(g.dom.objects)
    assert len(pb.gpd.morphisms) == len(g.dom.morphisms)


def test_pullback_two_points():
    i1 = walking_iso()
    t = terminal_groupoid()
    pt0 = GFunctor(t, i1, {"*": "0"}, {"id_*": "id_0"})
    pb = pullback(pt0, pt0)
    assert len(pb.gpd.objects) == 1
    assert len(pb.gpd.morphisms) == 1


def test_pullback_counts_brute_force():
    i1 = walking_iso()
    p = product(i1, i1)
    pb = pullback(p.p1, p.p2)
    expected_objs = [(a, b) for a in p.gpd.objects for b in p.gpd.objects
                     if p.p1.omap[a] == p.p2.omap[b]]
    assert len(pb.gpd.objects) == len(expected_objs)
    assert validate_groupoid(pb.gpd).ok


def test_pullback_universal():
    i1 = walking_iso()
    g = identity_functor(i1)
    pb = pullback(g, g)
    w = cyclic_group(2)
    for F in functors_between(w, i1):
        h = pb.pair(F, F)
        assert is_functor(h).ok
        assert compose_functors(pb.p1, h) == F


def test_pullback_pair_rejects_legs_from_different_domains():
    i1 = walking_iso()
    g = identity_functor(i1)
    pb = pullback(g, g)
    F = functors_between(cyclic_group(2), i1)[0]
    G = functors_between(cyclic_group(2), i1)[0]
    with pytest.raises(StructuralError):
        pb.pair(F, G)


def test_iso_comma_walking_iso():
    i1 = walking_iso()
    ic = iso_comma(identity_functor(i1), identity_functor(i1))
    assert len(ic.gpd.objects) == 4  # one per morphism of the walking iso
    assert validate_groupoid(ic.gpd).ok
    assert is_nat_iso(ic.generic).ok


def test_iso_comma_z2():
    z2 = cyclic_group(2)
    ic = iso_comma(identity_functor(z2), identity_functor(z2))
    assert len(ic.gpd.objects) == 2
    assert validate_groupoid(ic.gpd).ok


def test_iso_comma_over_terminal_is_product():
    i1 = walking_iso()
    t = terminal_groupoid()
    bang = GFunctor(i1, t, {o: "*" for o in i1.objects},
                    {m: "id_*" for m in i1.morphisms})
    ic = iso_comma(bang, bang)
    p = product(i1, i1)
    assert len(ic.gpd.objects) == len(p.gpd.objects)
    assert len(ic.gpd.morphisms) == len(p.gpd.morphisms)


def test_iso_comma_universal():
    i1 = walking_iso()
    ic = iso_comma(identity_functor(i1), identity_functor(i1))
    # cone: S = T = id, phi = identity natural iso
    from gral.groupoids import identity_nat_iso
    s = identity_functor(i1)
    phi = identity_nat_iso(s)
    u = ic.pair(s, s, phi)
    assert is_functor(u).ok
    assert compose_functors(ic.p1, u) == s
    assert compose_functors(ic.p2, u) == s


def test_cleavage_into_terminal():
    i1 = walking_iso()
    t = terminal_groupoid()
    bang = GFunctor(i1, t, {o: "*" for o in i1.objects},
                    {m: "id_*" for m in i1.morphisms})
    assert isinstance(isofibration_cleavage(bang), dict)


def test_cleavage_endpoint_of_exponential():
    i1 = walking_iso()
    e = exponential(i1, i1)
    # endpoint functor F |-> F(0), n |-> n_0
    ev0 = GFunctor(e.gpd, i1,
                   {o: e.obj_to_functor[o].omap["0"] for o in e.gpd.objects},
                   {m: e.mor_to_natiso[m].components["0"] for m in e.gpd.morphisms})
    assert is_functor(ev0).ok
    c = isofibration_cleavage(ev0)
    assert isinstance(c, dict)
    for (y, q), m in c.items():
        assert ev0.mmap[m] == q
        assert e.gpd.src(m) == y
        if i1.is_identity(q):
            assert e.gpd.is_identity(m)


def test_point_zero_not_isofibration():
    i1 = walking_iso()
    t = terminal_groupoid()
    pt0 = GFunctor(t, i1, {"*": "0"}, {"id_*": "id_0"})
    res = isofibration_cleavage(pt0)
    assert isinstance(res, LiftFailure)
    assert res.arrow == "i"


def _assert_equivalence(eq: EquivalenceData) -> None:
    """unit: id => bwd . fwd and counit: id => fwd . bwd, both natural isos."""
    assert is_nat_iso(eq.unit).ok and is_nat_iso(eq.counit).ok
    assert eq.unit.src == identity_functor(eq.fwd.dom)
    assert eq.unit.tgt == compose_functors(eq.bwd, eq.fwd)
    assert eq.counit.src == identity_functor(eq.bwd.dom)
    assert eq.counit.tgt == compose_functors(eq.fwd, eq.bwd)


def test_equivalence_inverse_identity():
    i1 = walking_iso()
    eq = equivalence_inverse(identity_functor(i1))
    assert isinstance(eq, EquivalenceData)
    _assert_equivalence(eq)
    assert eq.bwd == identity_functor(i1)


def test_equivalence_point_into_walking_iso():
    i1 = walking_iso()
    t = terminal_groupoid()
    incl = GFunctor(t, i1, {"*": "0"}, {"id_*": "id_0"})
    eq = equivalence_inverse(incl)
    assert isinstance(eq, EquivalenceData)
    _assert_equivalence(eq)
    # the pseudoinverse is constant
    assert set(eq.bwd.omap.values()) == {"*"}


def test_z2_to_terminal_not_faithful():
    z2 = cyclic_group(2)
    t = terminal_groupoid()
    f = GFunctor(z2, t, {"z*": "*"}, {m: "id_*" for m in z2.morphisms})
    res = equivalence_inverse(f)
    assert isinstance(res, EquivalenceFailure)
    assert res.reason == "faithful"


# -- seed-driven properties ---------------------------------------------------

def _gen_pair(seed):
    from gral.generators import Gen
    from gral.groupoids import SizeCaps
    from gral.interval import gpd_interval
    gen = Gen(gpd_interval(), seed, SizeCaps())
    return gen, gen.small_groupoid(), gen.small_groupoid()


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 30))
def test_functor_enumeration_agrees_with_oracle(seed):
    _gen, x, y = _gen_pair(seed)
    fast = sorted(functor_table(F) for F in functors_between(x, y))
    slow = sorted(brute_force_functors(x, y))
    assert fast == slow


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 30))
def test_generated_groupoids_satisfy_axioms(seed):
    from gral.generators import Gen
    from gral.groupoids import SizeCaps
    from gral.interval import gpd_interval
    gen = Gen(gpd_interval(), seed, SizeCaps())
    g = gen.groupoid()
    assert validate_groupoid(g).ok


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 30))
def test_cleavage_laws_on_generated_projections(seed):
    from gral.generators import Gen
    from gral.groupoids import SizeCaps
    from gral.interval import gpd_interval
    gen = Gen(gpd_interval(), seed, SizeCaps())
    x = gen.small_groupoid()
    y = gen.small_groupoid()
    p = product(x, y)
    c = isofibration_cleavage(p.p1)
    for (o, q), m in c.items():
        assert p.p1.mmap[m] == q
        assert p.gpd.src(m) == o
        if x.is_identity(q):
            assert p.gpd.is_identity(m)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 30))
def test_pullback_over_terminal_is_product(seed):
    _gen, x, y = _gen_pair(seed)
    t = terminal_groupoid()

    def to_t(g):
        return GFunctor(g, t, {o: "*" for o in g.objects},
                        {m: "id_*" for m in g.morphisms})

    pb, p = pullback(to_t(x), to_t(y)), product(x, y)
    assert list(pb.gpd.objects) == list(p.gpd.objects)
    for table in ("mors", "comp", "ident", "inv"):
        # same entries in the same insertion order, so serializations agree
        assert list(getattr(pb.gpd, table).items()) == \
            list(getattr(p.gpd, table).items())
    for a, b in ((pb.p1, p.p1), (pb.p2, p.p2)):
        assert list(a.omap.items()) == list(b.omap.items())
        assert list(a.mmap.items()) == list(b.mmap.items())


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 30))
def test_conjugate_is_a_functor_naturally_isomorphic_to_its_source(seed):
    gen, x, y = _gen_pair(seed)
    F = gen.rng.choice(functors_between(x, y))
    theta = {o: gen.rng.choice(y.out_of(F.omap[o])) for o in x.objects}
    G = conjugate(F, theta)
    assert G.dom is x and G.cod is y
    assert is_functor(G).ok
    assert is_nat_iso(NatIso(F, G, theta)).ok
    assert conjugate(F, {o: y.id_of(F.omap[o]) for o in x.objects}) == F


def test_keys_of_partial_tables_raise_key_error():
    g = codiscrete(["a", "b"])
    ident = identity_functor(g)
    for omap, mmap in (({"a": "a"}, dict(ident.mmap)), (dict(ident.omap), {})):
        with pytest.raises(KeyError):
            GFunctor(g, g, omap, mmap).key()
    with pytest.raises(KeyError):
        NatIso(ident, ident, {"a": g.id_of("a")}).key()
