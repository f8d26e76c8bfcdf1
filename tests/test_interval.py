import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from gral.errors import BoundaryError
from gral.groupoids import (
    codiscrete, compose_functors, cyclic_group, disjoint_union,
    functors_between, identity_functor, is_functor, is_nat_iso,
    nat_isos_between, validate_groupoid,
)
from gral.interval import (
    GpdRealizer, HSquare, IntervalData, boundary, cell_hcomp, cell_vcomp,
    check_cogroupoid, gpd_interval, homotopy_from_nat_iso, identity_homotopy,
    inverse_homotopy, nat_iso_from_homotopy, path_of_morphism, pi_base_iso,
    pi_homotopy, pi_path_diagonal, square_hcomp, square_vcomp, vcomp,
)


@pytest.fixture(scope="module")
def r() -> GpdRealizer:
    return gpd_interval()


def test_interval_structure_maps(r):
    iv = r.interval
    # cocomposition picks out the composite of the two halves
    assert iv.two.mmap["p01"] == iv.I2.compose("p12", "p01")
    # the coinverse swaps the generator
    assert iv.sigma.mmap["p01"] == "p10"
    # j1 shifts both halves up by one
    assert iv.j1.mmap["p01"] == "p12"
    assert iv.j1.mmap["p12"] == "p23"
    for f in (iv.zero, iv.one, iv.star, iv.sigma, iv.two, iv.i0, iv.i1, iv.j0, iv.j1):
        assert is_functor(f).ok
    for g in (iv.I0, iv.I1, iv.I2, iv.I3):
        assert validate_groupoid(g).ok


def test_cogroupoid_axioms_all_pass(r):
    rep = check_cogroupoid(r)
    assert rep.ok, rep.failed()
    names = [e.name for e in rep.entries]
    assert len(names) == 12  # ten diagrams plus the two pushouts
    assert "pushout-I2" in names and "pushout-I3" in names


def test_mutated_sigma_fails_only_inverse_family(r):
    iv = r.interval
    bad = IntervalData(iv.I0, iv.I1, iv.I2, iv.I3, iv.zero, iv.one, iv.star,
                       identity_functor(iv.I1), iv.two, iv.i0, iv.i1, iv.j0, iv.j1)
    rep = check_cogroupoid(r, bad)
    assert set(rep.failed()) == {"sigma-endpoints", "coinverse-left", "coinverse-right"}


def test_path_compose_is_groupoid_composition(r):
    a = codiscrete(["x", "y", "z"])
    for m1 in a.morphisms:
        for m2 in a.morphisms:
            if a.src(m2) != a.tgt(m1):
                continue
            p1 = path_of_morphism(r, a, m1)
            p2 = path_of_morphism(r, a, m2)
            comp = r.path_compose(p2, p1)
            assert comp == path_of_morphism(r, a, a.compose(m2, m1))


def test_path_identity_and_inverse(r):
    a = cyclic_group(3)
    for m in a.morphisms:
        p = path_of_morphism(r, a, m)
        idp = r.path_id(r.path_src(p))
        assert r.path_compose(p, idp) == p
        assert r.path_compose(r.path_inv(p), p) == r.path_id(r.path_src(p))


def test_path_compose_rejects_mismatch(r):
    a = codiscrete(["x", "y", "z"])
    p = path_of_morphism(r, a, "x~y")
    with pytest.raises(BoundaryError):
        r.path_compose(p, p)


def _sample_homotopies(r, x, y, count, seed=0):
    rng = random.Random(seed)
    fs = functors_between(x, y)
    out = []
    while len(out) < count:
        F = rng.choice(fs)
        G = rng.choice(fs)
        isos = nat_isos_between(F, G)
        if isos:
            out.append(homotopy_from_nat_iso(r, rng.choice(isos)))
    return out


def test_homotopy_roundtrip_nat_iso(r):
    x = codiscrete(["a", "b"])
    y = cyclic_group(2)
    for h in _sample_homotopies(r, x, y, 5):
        h.check()
        n = nat_iso_from_homotopy(h)
        assert is_nat_iso(n).ok
        assert homotopy_from_nat_iso(r, n) == h


def test_vcomp_unit_and_inverse(r):
    x = codiscrete(["a", "b"])
    y = codiscrete(["u", "v", "w"])
    for h in _sample_homotopies(r, x, y, 4):
        idl = identity_homotopy(r, h.lhs)
        idr = identity_homotopy(r, h.rhs)
        assert vcomp(h, idl) == h
        assert vcomp(idr, h) == h
        assert vcomp(inverse_homotopy(h), h) == idl


def test_vcomp_constant(r):
    x = cyclic_group(2)
    y = codiscrete(["u", "v"])
    f = functors_between(x, y)[0]
    idh = identity_homotopy(r, f)
    assert vcomp(idh, idh) == idh


def test_vcomp_associative(r):
    x = codiscrete(["a", "b"])
    y = codiscrete(["u", "v"])
    rng = random.Random(1)
    fs = functors_between(x, y)
    for _ in range(5):
        F, G, H, K = (rng.choice(fs) for _ in range(4))
        h1 = homotopy_from_nat_iso(r, rng.choice(nat_isos_between(F, G)))
        h2 = homotopy_from_nat_iso(r, rng.choice(nat_isos_between(G, H)))
        h3 = homotopy_from_nat_iso(r, rng.choice(nat_isos_between(H, K)))
        assert vcomp(h3, vcomp(h2, h1)) == vcomp(vcomp(h3, h2), h1)


def test_fundamental_groupoid_terminal(r):
    p = r.pi(r.interval.I0)
    assert len(p.gpd.objects) == 1
    assert len(p.gpd.morphisms) == 1


def test_pi_iso_base(r):
    for a in (codiscrete(["x", "y"]), cyclic_group(3),
              disjoint_union([cyclic_group(2), codiscrete(["a", "b"])])):
        pa = r.pi(a)
        assert validate_groupoid(pa.gpd).ok
        iso = pi_base_iso(r, a)
        assert is_functor(iso).ok
        assert sorted(iso.omap.values()) == sorted(a.objects)
        assert sorted(iso.mmap.values()) == sorted(a.morphisms)
        assert len(pa.gpd.objects) == len(a.objects)
        assert len(pa.gpd.morphisms) == len(a.morphisms)


def test_label_of_a_path_is_its_morphism(r):
    # the label of a path I1 -> a is the morphism the generator goes to
    a = disjoint_union([cyclic_group(3), codiscrete(["a", "b"])])
    for m in a.morphisms:
        assert r.label(path_of_morphism(r, a, m)) == m


def test_pi_functor_laws(r):
    x = codiscrete(["a", "b"])
    y = cyclic_group(2)
    z = codiscrete(["u", "v"])
    assert r.pi_map(identity_functor(x)) == identity_functor(r.pi(x).gpd)
    for f in functors_between(x, y)[:4]:
        for g in functors_between(y, z)[:4]:
            assert r.pi_map(compose_functors(g, f)) \
                == compose_functors(r.pi_map(g), r.pi_map(f))


def test_pi_homotopy_is_natural(r):
    x = codiscrete(["a", "b"])
    y = codiscrete(["u", "v", "w"])
    for h in _sample_homotopies(r, x, y, 4, seed=5):
        n = pi_homotopy(h)
        assert is_nat_iso(n).ok
        assert n.src == r.pi_map(h.lhs)
        assert n.tgt == r.pi_map(h.rhs)


def test_boundary_lemma(r):
    """The diagonal of a homotopy naturality square equals both composites."""
    x = codiscrete(["a", "b"])
    y = codiscrete(["u", "v", "w"])
    rng = random.Random(6)
    for h in _sample_homotopies(r, x, y, 5, seed=7):
        for m in x.morphisms:
            alpha = path_of_morphism(r, x, m)
            diag = r.compose(h.body,
                             r.product(x, r.interval.I1).pair(
                                 alpha, r.identity(r.interval.I1)))
            assert diag == pi_path_diagonal(h, alpha)
            p = r.product(x, r.interval.I1)
            left = r.compose(h.body, p.pair(alpha, r.compose(r.interval.zero, r.terminal_map(r.interval.I1))))
            bottom = r.compose(h.body, p.pair(
                r.compose(r.path_tgt(alpha), r.interval.star),
                r.identity(r.interval.I1)))
            top = r.compose(h.body, p.pair(
                r.compose(r.path_src(alpha), r.interval.star),
                r.identity(r.interval.I1)))
            right = r.compose(h.body, p.pair(alpha, r.compose(r.interval.one, r.terminal_map(r.interval.I1))))
            assert r.path_compose(bottom, left) == diag
            assert r.path_compose(right, top) == diag


def _sample_squares(r, x, y, count, seed):
    """Commutative squares of homotopies with matching corners."""
    rng = random.Random(seed)
    fs = functors_between(x, y)
    out = []
    while len(out) < count:
        k00, k10, k01 = (rng.choice(fs) for _ in range(3))
        tops = nat_isos_between(k00, k10)
        lefts = nat_isos_between(k00, k01)
        if not tops or not lefts:
            continue
        top = rng.choice(tops)
        left = rng.choice(lefts)
        rights = []
        for k11 in fs:
            rights.extend(nat_isos_between(k10, k11))
        if not rights:
            continue
        right = rng.choice(rights)
        # force commutativity: bottom = right . top . left^{-1}
        from gral.groupoids import invert_nat_iso, vcompose_nat_isos
        bottom = vcompose_nat_isos(vcompose_nat_isos(right, top), invert_nat_iso(left))
        sq = HSquare(homotopy_from_nat_iso(r, top), homotopy_from_nat_iso(r, bottom),
                     homotopy_from_nat_iso(r, left), homotopy_from_nat_iso(r, right))
        sq.check()
        out.append(sq)
    return out


def test_boundary_roundtrip(r):
    x = codiscrete(["a", "b"])
    y = codiscrete(["u", "v"])
    for sq in _sample_squares(r, x, y, 10, seed=8):
        cell = r.boundary_inv(sq)
        assert is_functor(cell).ok
        back = boundary(r, cell, x)
        assert back == sq
        assert r.boundary_inv(back) == cell


def test_boundary_double_functoriality(r):
    x = codiscrete(["a", "b"])
    y = codiscrete(["u", "v"])
    sqs = _sample_squares(r, x, y, 12, seed=9)
    vpairs = [(s1, s2) for s1, s2 in itertools.product(sqs, sqs)
              if s1.bottom == s2.top]
    hpairs = [(s1, s2) for s1, s2 in itertools.product(sqs, sqs)
              if s1.right == s2.left]
    assert vpairs and hpairs
    for s1, s2 in vpairs[:5]:
        c1, c2 = r.boundary_inv(s1), r.boundary_inv(s2)
        comp = cell_vcomp(r, c2, c1, x)
        assert boundary(r, comp, x) == square_vcomp(s2, s1)
    for s1, s2 in hpairs[:5]:
        c1, c2 = r.boundary_inv(s1), r.boundary_inv(s2)
        comp = cell_hcomp(r, c2, c1, x)
        assert boundary(r, comp, x) == square_hcomp(s2, s1)


def test_constant_cell_boundary(r):
    x = codiscrete(["a", "b"])
    y = codiscrete(["u", "v"])
    f = functors_between(x, y)[0]
    pa = r.product(x, r.interval.I1)
    outer = r.product(pa.gpd, r.interval.I1)
    cell = r.compose(f, r.compose(pa.p1, outer.p1))
    sq = boundary(r, cell, x)
    idh = identity_homotopy(r, f)
    assert sq.top == idh and sq.bottom == idh
    assert sq.left == idh and sq.right == idh


def test_exponential_adjunction_exact(r):
    """eval . (lambda(k) x id) = k and the transpose is unique."""
    x = codiscrete(["a", "b"])
    y = cyclic_group(2)
    z = codiscrete(["p", "q"])
    pzx = r.product(z, x)
    e = r.exponential(x, y)
    ks = functors_between(pzx.gpd, y)
    rng = random.Random(10)
    for k in rng.sample(ks, k=min(6, len(ks))):
        lam = r.transpose(k, pzx, x, y)
        back = r.compose(e.ev, r.times(lam, r.identity(x)))
        assert back == k
        count = sum(
            1 for cand in functors_between(z, e.obj)
            if r.compose(e.ev, r.times(cand, r.identity(x))) == k)
        assert count == 1


def test_iso_comma_universal_scan(r):
    from gral.groupoids import iso_comma
    i1 = r.interval.I1
    ic = iso_comma(identity_functor(i1), identity_functor(i1))
    w = cyclic_group(2)
    for s in functors_between(w, i1)[:2]:
        for phi in nat_isos_between(s, s):
            u = ic.pair(s, s, phi)
            assert compose_functors(ic.p1, u) == s
            assert compose_functors(ic.p2, u) == s
            count = sum(
                1 for cand in functors_between(w, ic.gpd)
                if compose_functors(ic.p1, cand) == s
                and compose_functors(ic.p2, cand) == s
                and {o: ic.generic.components[cand.omap[o]]
                     for o in w.objects} == phi.components)
            assert count == 1


def test_fill_square_paths(r):
    a = codiscrete(["x", "y", "z"])
    top = path_of_morphism(r, a, "x~y")
    left = path_of_morphism(r, a, "x~z")
    right = path_of_morphism(r, a, "y~z")
    bottom = path_of_morphism(r, a, "id_z")
    cell = r.fill_square(top, bottom, left, right)
    assert is_functor(cell).ok
    prod = r.product(r.interval.I1, r.interval.I1)
    # restrictions recover the boundary
    sec0 = prod.pair(r.identity(r.interval.I1),
                     r.compose(r.interval.zero, r.terminal_map(r.interval.I1)))
    assert r.compose(cell, sec0) == top


_HYP_R = gpd_interval()


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 30))
def test_pi_functoriality_property(seed):
    from gral.generators import Gen
    from gral.groupoids import SizeCaps
    r = _HYP_R
    gen = Gen(r, seed, SizeCaps())
    x, y, z = gen.small_groupoid(), gen.small_groupoid(), gen.small_groupoid()
    f = gen.rng.choice(functors_between(x, y))
    g = gen.rng.choice(functors_between(y, z))
    assert r.pi_map(identity_functor(x)) == identity_functor(r.pi(x).gpd)
    assert r.pi_map(compose_functors(g, f)) \
        == compose_functors(r.pi_map(g), r.pi_map(f))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 30))
def test_vcomp_group_laws_property(seed):
    # the reparameterised composite routes through the exponential of the
    # bases, so keep them small enough for the default caps
    from gral.generators import Gen
    from gral.groupoids import SizeCaps
    r = _HYP_R
    gen = Gen(r, seed, SizeCaps())
    x, y = gen.small_groupoid(2), gen.small_groupoid(2)
    fs = functors_between(x, y)
    F, G = gen.rng.choice(fs), gen.rng.choice(fs)
    isos = nat_isos_between(F, G)
    if not isos:
        return
    h = homotopy_from_nat_iso(r, gen.rng.choice(isos))
    assert vcomp(h, identity_homotopy(r, h.lhs)) == h
    assert vcomp(inverse_homotopy(h), h) == identity_homotopy(r, h.lhs)
