import random

import pytest

from gral.groupoids import (
    GFunctor, NatIso, SizeCaps, codiscrete, compose_functors, cyclic_group, discrete,
    functors_between, identity_functor, nat_isos_between,
)
from gral.assemblies import (
    Assembly, PGAsmRealizer, RealizedMorphism, _identity_eps, bang, beta_holds,
    compose_morphisms, identity_morphism, identity_twocell,
    inverse_twocell, is_modest, pgasm_copair2, pgasm_interval,
    product_assembly, realize, terminal_assembly, transpose_morphism,
    twocell_from_iso, twocell_hcompose, twocell_vcompose, validate_assembly,
    validate_morphism, validate_twocell, weak_exponential,
)
from gral.errors import SizeCapError, StructuralError
from gral.interval import GpdRealizer, check_cogroupoid, gpd_interval


@pytest.fixture(scope="module")
def r():
    return gpd_interval()


@pytest.fixture(scope="module")
def pg(r):
    return pgasm_interval(r)


def mk_assembly(r, base, rtype, pick=0):
    """Assembly with the pick-th realizability functor in enumeration order."""
    pi = r.pi(rtype)
    funs = functors_between(base, pi.gpd)
    return Assembly(r, base, rtype, funs[pick % len(funs)])


def sample_assemblies(r, count, seed=0):
    rng = random.Random(seed)
    bases = [codiscrete(["a", "b"]), cyclic_group(2), discrete(["x", "y"]),
             codiscrete(["u", "v", "w"])]
    rtypes = [r.interval.I0, r.interval.I1, cyclic_group(2)]
    out = []
    while len(out) < count:
        base = rng.choice(bases)
        rtype = rng.choice(rtypes)
        a = mk_assembly(r, base, rtype, rng.randrange(64))
        out.append(a)
    return out


def sample_morphism(x, y, rng):
    for fun in rng.sample(functors_between(x.base, y.base),
                          k=len(functors_between(x.base, y.base))):
        m = realize(x, y, fun)
        if m is not None:
            return m
    return None


def test_assembly_validates(r):
    for a in sample_assemblies(r, 8):
        assert validate_assembly(a).ok


def test_partial_rfun_is_a_failure_not_a_traceback(r):
    base = codiscrete(["a", "b"])
    rfun = functors_between(base, r.pi(r.interval.I1).gpd)[0]
    omap = {x: p for x, p in rfun.omap.items() if x != "b"}
    a = Assembly(r, base, r.interval.I1, GFunctor(base, rfun.cod, omap, rfun.mmap))
    rep = validate_assembly(a)
    assert not rep.ok
    assert ("omap", "object b maps to nothing in codomain") in rep.failures


def test_identity_morphism_validates(r):
    for a in sample_assemblies(r, 5, seed=1):
        m = identity_morphism(a)
        assert validate_morphism(m).ok


def test_on_the_nose_witness_refuses_a_square_that_does_not_commute(r):
    # x sends a and b to different points, so swapping them is realized by
    # no identity components over the identity realizer
    base, rtype = discrete(["a", "b"]), discrete(["0", "1"])
    x = Assembly(r, base, rtype,
                 GFunctor(base, r.pi(rtype).gpd, {"a": "pt:0", "b": "pt:1"},
                          {"id_a": "path:id_0", "id_b": "path:id_1"}))
    swap = GFunctor(x.base, x.base, {"a": "b", "b": "a"},
                    {"id_a": "id_b", "id_b": "id_a"})
    with pytest.raises(StructuralError, match="does not commute on the nose"):
        _identity_eps(x, x, swap, r.identity(x.rtype))
    assert validate_morphism(_identity_eps(x, x, identity_functor(x.base),
                                           r.identity(x.rtype))).ok


def test_broken_eps_is_caught(r):
    a = mk_assembly(r, codiscrete(["a", "b"]), r.interval.I1)
    m = identity_morphism(a)
    pic = a.pi.gpd
    comps = dict(m.eps.components)
    # replace one component by a non-matching morphism where possible
    for o in a.base.objects:
        c = comps[o]
        others = [v for v in pic.morphisms
                  if v != c and pic.mors[v] == pic.mors[c]]
        alts = [v for v in pic.morphisms if pic.mors[v] != pic.mors[c]]
        if others or alts:
            comps[o] = (others or alts)[0]
            break
    bad = RealizedMorphism(a, a, m.fun, m.e, NatIso(m.eps.src, m.eps.tgt, comps))
    assert not validate_morphism(bad).ok


def test_composition_validates_and_associates(r):
    rng = random.Random(2)
    for _ in range(8):
        x, y, z = sample_assemblies(r, 3, seed=rng.randrange(999))
        m1 = sample_morphism(x, y, rng)
        m2 = sample_morphism(y, z, rng)
        if m1 is None or m2 is None:
            continue
        c = compose_morphisms(m2, m1)
        assert validate_morphism(c).ok
        assert c.fun == compose_functors(m2.fun, m1.fun)
        assert compose_morphisms(m2, identity_morphism(y)).fun == m2.fun
        w = sample_morphism(z, x, rng)
        if w is not None:
            left = compose_morphisms(w, compose_morphisms(m2, m1))
            right = compose_morphisms(compose_morphisms(w, m2), m1)
            assert left == right
            assert validate_morphism(left).ok and validate_morphism(right).ok


def test_composite_witness_matches_hand_pasting(r, pg):
    """The composite's filler is the pasting of the two squares, verified
    against components recomputed by hand."""
    rng = random.Random(11)
    i1a = pg.data.I1
    x = mk_assembly(r, codiscrete(["a", "b"]), r.interval.I1, 1)
    checked = 0
    for F in functors_between(i1a.base, x.base):
        m1 = realize(i1a, x, F)
        if m1 is None:
            continue
        for G in functors_between(x.base, i1a.base):
            m2 = realize(x, i1a, G)
            if m2 is None:
                continue
            comp = compose_morphisms(m2, m1)
            pi_e2 = r.pi_map(m2.e)
            pit = i1a.pi.gpd
            for o in i1a.base.objects:
                by_hand = pit.compose(m2.eps.components[m1.fun.omap[o]],
                                      pi_e2.mmap[m1.eps.components[o]])
                assert comp.eps.components[o] == by_hand
            assert validate_morphism(comp).ok
            checked += 1
        if checked >= 3:
            break
    assert checked > 0


def test_terminal_assembly(r):
    t = terminal_assembly(r)
    assert validate_assembly(t).ok
    for a in sample_assemblies(r, 3, seed=3):
        m = bang(a, t)
        assert validate_morphism(m).ok
    ok, _ = is_modest(t)
    assert ok


def test_product_assembly(r):
    x = mk_assembly(r, codiscrete(["a", "b"]), r.interval.I1, 1)
    y = mk_assembly(r, cyclic_group(2), r.interval.I1, 0)
    p = product_assembly(x, y)
    assert validate_assembly(p.asm).ok
    assert validate_morphism(p.p1).ok
    assert validate_morphism(p.p2).ok
    # realizers of a pair are the pairs of realizers
    for (a, b), oid in p.raw_base.opair.items():
        pt = p.asm.rfun.omap[oid]
        expected = r.pi_obj_id(p.rprod.pair(x.pi.point_of[x.rfun.omap[a]],
                                            y.pi.point_of[y.rfun.omap[b]]))
        assert pt == expected


def test_product_pairing_validates(r):
    rng = random.Random(4)
    x = mk_assembly(r, codiscrete(["a", "b"]), r.interval.I1, 1)
    y = mk_assembly(r, cyclic_group(2), r.interval.I1, 0)
    w = mk_assembly(r, codiscrete(["s", "t"]), r.interval.I1, 2)
    p = product_assembly(x, y)
    m1 = sample_morphism(w, x, rng)
    m2 = sample_morphism(w, y, rng)
    assert m1 is not None and m2 is not None
    h = p.pair(m1, m2)
    assert validate_morphism(h).ok
    assert compose_morphisms(p.p1, h) == m1
    assert compose_morphisms(p.p2, h) == m2


def test_product_with_terminal(r):
    t = terminal_assembly(r)
    x = mk_assembly(r, codiscrete(["a", "b"]), r.interval.I1, 1)
    p = product_assembly(t, x)
    assert len(p.asm.base.objects) == len(x.base.objects)
    # p2 is an isomorphism of assemblies: realized both ways
    back = p.pair(bang(x, t), identity_morphism(x))
    assert validate_morphism(back).ok
    assert compose_morphisms(p.p2, back).fun == identity_functor(x.base)


def test_is_modest_examples(r):
    t = terminal_assembly(r)
    assert is_modest(t)[0]
    # rfun an isomorphism onto Pi(A): modest
    i1 = mk_assembly(r, codiscrete(["0b", "1b"]), r.interval.I1, 0)
    funs = functors_between(i1.base, r.pi(r.interval.I1).gpd)
    iso = [f for f in funs if len(set(f.omap.values())) == 2]
    a = Assembly(r, i1.base, r.interval.I1, iso[0])
    assert is_modest(a)[0]
    # chaotic assembly over a 2-object discrete groupoid: not modest
    d2 = discrete(["x", "y"])
    pi0 = r.pi(r.interval.I0).gpd
    o = pi0.objects[0]
    from gral.groupoids import GFunctor
    chaotic = Assembly(r, d2, r.interval.I0,
                       GFunctor(d2, pi0, {"x": o, "y": o},
                                {m: pi0.id_of(o) for m in d2.morphisms}))
    ok, witness = is_modest(chaotic)
    assert not ok
    assert witness[0] == "full"


def test_weak_exponential_terminal_exponent(r):
    t = terminal_assembly(r)
    y = mk_assembly(r, codiscrete(["a", "b"]), r.interval.I1, 1)
    w = weak_exponential(t, y)
    assert validate_assembly(w.asm).ok
    assert validate_morphism(w.ev).ok
    # objects are (point-functor, e, eps) triples
    for oid, (F, po, eps) in w.obj_data.items():
        assert len(F.omap) == 1


def test_weak_exponential_beta_law(r):
    rng = random.Random(5)
    checked = 0
    attempts = 0
    while checked < 5 and attempts < 60:
        attempts += 1
        x = mk_assembly(r, codiscrete(["a", "b"]), r.interval.I1, rng.randrange(8))
        y = mk_assembly(r, codiscrete(["u", "v"]), r.interval.I1, rng.randrange(8))
        z = mk_assembly(r, cyclic_group(2), r.interval.I0, 0)
        w = weak_exponential(x, y)
        zp = product_assembly(z, x)
        k = sample_morphism(zp.asm, y, rng)
        if k is None:
            continue
        kt = transpose_morphism(w, k, zp)
        assert validate_morphism(kt).ok
        assert beta_holds(w, k, zp, kt)
        checked += 1
    assert checked >= 5


def test_weak_exponential_modesty(r):
    x = mk_assembly(r, codiscrete(["a", "b"]), r.interval.I1, 1)
    funs = functors_between(codiscrete(["u", "v"]), r.pi(r.interval.I1).gpd)
    iso = [f for f in funs if len(set(f.omap.values())) == 2][0]
    y = Assembly(r, iso.dom, r.interval.I1, iso)
    assert is_modest(y)[0]
    w = weak_exponential(x, y)
    ok, witness = is_modest(w.asm)
    assert ok, witness


@pytest.mark.parametrize("caps, refusal", [
    (SizeCaps(max_objects=31), "product objects: 32 exceeds cap 31"),
    (SizeCaps(max_morphisms=1023), "product morphisms: 1024 exceeds cap 1023"),
    (SizeCaps(max_objects=32, max_morphisms=1024), None),
], ids=["objects", "morphisms", "within-caps"])
def test_weak_exponential_refuses_the_product_its_evaluation_needs(caps, refusal):
    """The caps refuse a weak exponential whose evaluation's source, a
    product of 16 x 2 objects and 256 x 4 morphisms, exceeds them; the
    product itself is built only when the evaluation is read."""
    r = gpd_interval(caps)
    x = mk_assembly(r, codiscrete(["a", "b"]), r.interval.I1, 1)
    y = mk_assembly(r, codiscrete(["u", "v"]), r.interval.I1, 2)
    if refusal is not None:
        with pytest.raises(SizeCapError) as exc:
            weak_exponential(x, y)
        assert str(exc.value) == refusal
        return
    w = weak_exponential(x, y)
    key = (w.asm.base.serial, x.base.serial)
    assert key not in r._prod_cache
    assert w.ev_src.raw_base is r._prod_cache[key]


def test_weakexp_fillers_validate(r, pg):
    """Every exponential morphism's boundary-determined filler is natural."""
    from gral.assemblies import weakexp_cell, weakexp_object_morphism
    x = mk_assembly(r, codiscrete(["a", "b"]), r.interval.I1, 1)
    y = mk_assembly(r, codiscrete(["u", "v"]), r.interval.I1, 2)
    w = weak_exponential(x, y)
    for oid in w.asm.base.objects:
        assert validate_morphism(weakexp_object_morphism(w, oid)).ok
    checked = 0
    for mid in w.asm.base.morphisms:
        cell = weakexp_cell(w, pg, mid)
        assert validate_twocell(pg, cell).ok
        checked += 1
        if checked >= 20:
            break
    assert checked > 0


def test_pgasm_interval_realizer_table(r, pg):
    iv = r.interval
    i2 = pg.data.I2
    assert i2.rfun.omap["0"] == r.pi_obj_id(r.compose(iv.i0, iv.zero))
    assert i2.rfun.omap["2"] == r.pi_obj_id(r.compose(iv.i1, iv.one))
    for m in (pg.data.zero, pg.data.one, pg.data.star, pg.data.sigma,
              pg.data.two, pg.data.i0, pg.data.i1, pg.data.j0, pg.data.j1):
        assert validate_morphism(m).ok
    for a in (pg.data.I1, pg.data.I2, pg.data.I3, pg.terminal):
        assert validate_assembly(a).ok


def test_pgasm_cogroupoid(r):
    pr = PGAsmRealizer(r)
    rep = check_cogroupoid(pr)
    assert rep.ok, rep.failed()


def test_pgasm_pi_refuses_colliding_path_ids(r):
    # a constant realizer functor leaves three paths I1 -> x, one per
    # element of Z_3, that agree on objects; the assembly fragment has no
    # object-only label and no fundamental groupoid to conflate them in
    base = cyclic_group(3)
    const = next(f for f in functors_between(base, r.pi(r.interval.I1).gpd)
                 if len(set(f.mmap.values())) == 1)
    x = Assembly(r, base, r.interval.I1, const)
    pr = PGAsmRealizer(r)
    paths = pr.hom(pr.interval.I1, x)
    assert len(paths) == 3
    assert len({tuple(p.fun.omap.items()) for p in paths}) == 1
    assert len({tuple(p.fun.mmap.items()) for p in paths}) == 3
    assert not isinstance(pr, GpdRealizer)
    for name in ("pi", "pi_map", "label", "path_compose", "product"):
        assert not hasattr(pr, name)


def test_pgasm_copair_validates(r, pg):
    x = mk_assembly(r, codiscrete(["a", "b", "c"]), r.interval.I1, 3)
    paths = [m for m in (realize(pg.data.I1, x, f)
                         for f in functors_between(pg.data.I1.base, x.base))
             if m is not None]
    count = 0
    for alpha in paths:
        for beta in paths:
            if beta.fun.omap["0"] != alpha.fun.omap["1"]:
                continue
            cp = pgasm_copair2(pg, beta, alpha)
            assert validate_morphism(cp).ok
            assert compose_morphisms(cp, pg.data.i0) == alpha
            assert compose_morphisms(cp, pg.data.i1) == beta
            count += 1
            if count > 10:
                return
    assert count > 0


def test_pgasm_copair_identity_paths(r, pg):
    t = pg.terminal
    x = mk_assembly(r, codiscrete(["a", "b"]), r.interval.I1, 1)
    # constant path: compose a point with star
    const = compose_morphisms(
        [m for m in (realize(t, x, f) for f in functors_between(t.base, x.base))
         if m is not None][0],
        pg.data.star)
    cp = pgasm_copair2(pg, const, const)
    assert validate_morphism(cp).ok
    assert len(set(cp.fun.omap.values())) == 1


def sample_twocell(r, pg, x, y, rng):
    fs = functors_between(x.base, y.base)
    for _ in range(30):
        F = rng.choice(fs)
        G = rng.choice(fs)
        mf = realize(x, y, F)
        mg = realize(x, y, G)
        if mf is None or mg is None:
            continue
        isos = nat_isos_between(F, G)
        if not isos:
            continue
        return twocell_from_iso(pg, rng.choice(isos), mf, mg)
    return None


def test_twocell_validates(r, pg):
    rng = random.Random(7)
    x = mk_assembly(r, codiscrete(["a", "b"]), r.interval.I1, 1)
    y = mk_assembly(r, codiscrete(["u", "v"]), r.interval.I1, 2)
    for _ in range(5):
        c = sample_twocell(r, pg, x, y, rng)
        assert c is not None
        assert validate_twocell(pg, c).ok


def test_twocell_identity_and_inverse(r, pg):
    rng = random.Random(8)
    x = mk_assembly(r, codiscrete(["a", "b"]), r.interval.I1, 1)
    y = mk_assembly(r, codiscrete(["u", "v"]), r.interval.I1, 2)
    c = sample_twocell(r, pg, x, y, rng)
    idc = identity_twocell(pg, c.src)
    assert validate_twocell(pg, idc).ok
    v = twocell_vcompose(pg, c, idc)
    assert validate_twocell(pg, v).ok
    assert v.iso == c.iso
    inv = inverse_twocell(pg, c)
    assert validate_twocell(pg, inv).ok
    cyl = pg.cylinder(x)
    for xo in x.base.objects:
        assert inv.epsw.components[cyl.raw_base.opair[(xo, "0")]] \
            == c.epsw.components[cyl.raw_base.opair[(xo, "1")]]
    roundtrip = twocell_vcompose(pg, inv, c)
    assert roundtrip.iso == identity_twocell(pg, c.src).iso
    assert validate_twocell(pg, roundtrip).ok


def test_twocell_horizontal_and_interchange(r, pg):
    rng = random.Random(9)
    x = mk_assembly(r, codiscrete(["a", "b"]), r.interval.I1, 1)
    y = mk_assembly(r, codiscrete(["u", "v"]), r.interval.I1, 2)
    z = mk_assembly(r, codiscrete(["p", "q"]), r.interval.I1, 3)
    done = 0
    while done < 3:
        c1 = sample_twocell(r, pg, x, y, rng)
        c1b = sample_twocell(r, pg, x, y, rng)
        c2 = sample_twocell(r, pg, y, z, rng)
        c2b = sample_twocell(r, pg, y, z, rng)
        if None in (c1, c1b, c2, c2b):
            continue
        if c1b.src != c1.tgt or c2b.src != c2.tgt:
            # resample until vertically composable
            continue
        h = twocell_hcompose(pg, c2, c1)
        assert validate_twocell(pg, h).ok
        lhs = twocell_hcompose(pg, twocell_vcompose(pg, c2b, c2),
                               twocell_vcompose(pg, c1b, c1))
        rhs = twocell_vcompose(pg, twocell_hcompose(pg, c2b, c1b),
                               twocell_hcompose(pg, c2, c1))
        assert lhs.iso == rhs.iso
        assert validate_twocell(pg, lhs).ok and validate_twocell(pg, rhs).ok
        done += 1
