import random
from dataclasses import replace

import pytest

from gral.groupoids import (
    GFunctor, LiftFailure, NatIso, codiscrete, compose_functors, cyclic_group,
    functors_between, identity_functor, nat_isos_between,
)
from gral.assemblies import (
    Assembly, RealizedMorphism, TwoCell, bang, compose_morphisms,
    identity_morphism, pgasm_interval, product_assembly, realize,
    terminal_assembly, twocell_from_iso, validate_morphism, validate_twocell,
)
from gral.interval import gpd_interval
from gral.pathcat import (
    FibrationData, as_equivalence, brown_factor_check, is_fibration,
    path_object, pc1_isos_are_fibrations, pc3_terminal_fibration,
    pc4_isos_are_equivalences, pc5_two_out_of_six, pc7_section,
    pc8_pseudoinverse, pullback_assembly, pseudopullback_assembly,
    validate_asm_equivalence,
)


@pytest.fixture(scope="module")
def r():
    return gpd_interval()


@pytest.fixture(scope="module")
def pg(r):
    return pgasm_interval(r)


def mk_assembly(r, base, rtype, pick=0):
    pi = r.pi(rtype)
    funs = functors_between(base, pi.gpd)
    return Assembly(r, base, rtype, funs[pick % len(funs)])


def proj_fibration(r, y: Assembly, fibre_base, rtype_pick=0):
    """Split fibration: projection from a product assembly."""
    fb = mk_assembly(r, fibre_base, r.interval.I1, rtype_pick)
    p = product_assembly(y, fb)
    fib = is_fibration(p.p1)
    assert isinstance(fib, FibrationData)
    return fib, p, fb


def test_fibration_into_terminal(r, pg):
    for pick in range(3):
        x = mk_assembly(r, codiscrete(["a", "b"]), r.interval.I1, pick)
        assert pc3_terminal_fibration(x, pg)


def test_point_inclusion_not_fibration(r, pg):
    i1a = pg.interval.I1
    m = pg.interval.zero
    assert isinstance(is_fibration(m), LiftFailure)


def test_transport_realizers_validate(r):
    y = mk_assembly(r, codiscrete(["u", "v"]), r.interval.I1, 1)
    fib, p, fb = proj_fibration(r, y, codiscrete(["s", "t"]))
    for q in y.base.morphisms:
        t = fib.transport(q)
        assert validate_morphism(t).ok
        # lifts project correctly
        for (xo, qq), m in fib.lifts.items():
            assert fib.morphism.fun.mmap[m] == qq
            assert fib.src.base.src(m) == xo
            if y.base.is_identity(qq):
                assert fib.src.base.is_identity(m)


def test_pc8_identity_pullback_matches_pc7_section(r, pg):
    """Pulling back along the identity reproduces the section construction."""
    z = mk_assembly(r, codiscrete(["u", "v"]), r.interval.I1, 1)
    gfib, prod, fb = proj_fibration(r, z, codiscrete(["s", "t"]))
    geq = as_equivalence(pg, gfib.morphism)
    assert geq is not None
    idz = identity_morphism(z)
    pb, s_mor, sigma = pc8_pseudoinverse(gfib, geq, idz, pg)
    from gral.groupoids import invert_nat_iso
    psi = twocell_from_iso(pg, invert_nat_iso(geq.counit.iso),
                           compose_morphisms(gfib.morphism, geq.bwd),
                           identity_morphism(z))
    section = pc7_section(gfib, geq.bwd, psi)
    # the second pullback leg of S is exactly the section
    second = compose_morphisms(pb.p2, s_mor)
    assert second.fun == section.fun
    assert validate_twocell(pg, sigma).ok


def test_path_object_terminal(r, pg):
    t = terminal_assembly(r)
    pod = path_object(t, pg)
    assert len(pod.pobj.asm.base.objects) == 1
    assert validate_morphism(pod.r_mor).ok
    assert validate_morphism(pod.st).ok


def test_path_object_factorisation(r, pg):
    for pick in (0, 1, 2):
        x = mk_assembly(r, codiscrete(["a", "b"]), r.interval.I1, pick)
        pod = path_object(x, pg)
        assert validate_morphism(pod.r_mor).ok
        assert validate_morphism(pod.st).ok
        # st . r is the diagonal on the nose
        diag = pod.prod.pair(identity_morphism(x), identity_morphism(x))
        assert compose_morphisms(pod.st, pod.r_mor) == diag
        # r is an equivalence with validated 2-cells
        assert validate_asm_equivalence(pg, pod.r_equiv).ok
        assert compose_morphisms(pod.r_equiv.bwd, pod.r_equiv.fwd).fun \
            == identity_functor(x.base)


def _mistyped(n):
    """n with its first component replaced by one with other endpoints."""
    cod = n.src.cod
    x = n.src.dom.objects[0]
    c = n.components[x]
    wrong = next(v for v in cod.morphisms if cod.mors[v] != cod.mors[c])
    return NatIso(n.src, n.tgt, {**n.components, x: wrong})


def test_nested_validator_failures_keep_names_and_order(r, pg):
    # validate_morphism: the functor's and the witness's failures, in order
    z2 = cyclic_group(2)
    a = mk_assembly(r, z2, r.interval.I1, 1)
    m = identity_morphism(a)
    fun = GFunctor(z2, z2, dict(m.fun.omap), {v: "z1" for v in z2.morphisms})
    bad = RealizedMorphism(a, a, fun, m.e, _mistyped(m.eps))
    assert validate_morphism(bad).failures == [
        ("functor-id", "identity at z* not preserved"),
        ("functor-comp", "composition id_z*oid_z* not preserved"),
        ("functor-comp", "composition id_z*oz1 not preserved"),
        ("functor-comp", "composition z1oid_z* not preserved"),
        ("functor-comp", "composition z1oz1 not preserved"),
        ("component-typing", "component at z* has wrong endpoints"),
    ]
    # validate_asm_equivalence: fwd- and unit- prefixes over nested reports
    x = mk_assembly(r, codiscrete(["a", "b"]), r.interval.I1, 1)
    e = path_object(x, pg).r_equiv
    f, u = e.fwd, e.unit
    bad_asm = replace(
        e, fwd=RealizedMorphism(f.src, f.tgt, f.fun, f.e, _mistyped(f.eps)),
        unit=TwoCell(u.src, u.tgt, u.iso, u.body, u.ew, _mistyped(u.epsw)))
    assert validate_asm_equivalence(pg, bad_asm).failures == [
        ("fwd-component-typing", "component at a has wrong endpoints"),
        ("unit-component-typing", "component at (a,0) has wrong endpoints"),
    ]


def test_path_object_chosen_lifts(r, pg):
    x = mk_assembly(r, codiscrete(["a", "b"]), r.interval.I1, 1)
    pod = path_object(x, pg)
    w = pod.pobj
    prod_base = pod.prod.asm.base
    count = 0
    for oid in w.asm.base.objects:
        src_pair = pod.st.fun.omap[oid]
        for pm in prod_base.morphisms:
            if prod_base.src(pm) != src_pair:
                continue
            mid = pod.chosen_lift(oid, pm)
            assert pod.st.fun.mmap[mid] == pm
            assert w.asm.base.src(mid) == oid
            if prod_base.is_identity(pm):
                assert w.asm.base.is_identity(mid)
            count += 1
    assert count > 0


def test_pc7_section(r, pg):
    # acyclic fibration: projection X x C -> X with codiscrete C
    x = mk_assembly(r, codiscrete(["u", "v"]), r.interval.I1, 1)
    fib, prod, fb = proj_fibration(r, x, codiscrete(["s", "t"]))
    eq = as_equivalence(pg, fib.morphism)
    assert eq is not None
    from gral.groupoids import invert_nat_iso
    psi_iso = invert_nat_iso(eq.counit.iso)
    psi = twocell_from_iso(pg, psi_iso,
                           compose_morphisms(fib.morphism, eq.bwd),
                           identity_morphism(x))
    s = pc7_section(fib, eq.bwd, psi)
    assert compose_morphisms(fib.morphism, s).fun == identity_functor(x.base)
    assert validate_morphism(s).ok


def test_pc7_identity_fibration(r, pg):
    x = mk_assembly(r, codiscrete(["u", "v"]), r.interval.I1, 1)
    fib = is_fibration(identity_morphism(x))
    eq = as_equivalence(pg, fib.morphism)
    from gral.groupoids import invert_nat_iso
    psi = twocell_from_iso(pg, invert_nat_iso(eq.counit.iso),
                           compose_morphisms(fib.morphism, eq.bwd),
                           identity_morphism(x))
    s = pc7_section(fib, eq.bwd, psi)
    assert s.fun == identity_functor(x.base)


def test_pc8(r, pg):
    z = mk_assembly(r, codiscrete(["u", "v"]), r.interval.I1, 1)
    gfib, prod, fb = proj_fibration(r, z, codiscrete(["s", "t"]))
    geq = as_equivalence(pg, gfib.morphism)
    assert geq is not None
    x = mk_assembly(r, codiscrete(["a", "b"]), r.interval.I1, 0)
    for F in functors_between(x.base, z.base):
        f = realize(x, z, F)
        if f is None:
            continue
        pb, s_mor, sigma = pc8_pseudoinverse(gfib, geq, f, pg)
        assert compose_morphisms(pb.p1, s_mor).fun == identity_functor(x.base)
        assert validate_morphism(s_mor).ok
        assert validate_twocell(pg, sigma).ok
        break


def test_pullback_assembly_identity(r, pg):
    x = mk_assembly(r, codiscrete(["a", "b"]), r.interval.I1, 0)
    idm = identity_morphism(x)
    pb = pullback_assembly(idm, idm)
    assert len(pb.asm.base.objects) == len(x.base.objects)
    assert validate_morphism(pb.p1).ok and validate_morphism(pb.p2).ok


def test_pullback_universal(r, pg):
    rng = random.Random(1)
    z = mk_assembly(r, codiscrete(["u", "v"]), r.interval.I1, 1)
    fib, prod, fb = proj_fibration(r, z, codiscrete(["s", "t"]))
    x = mk_assembly(r, codiscrete(["a", "b"]), r.interval.I1, 0)
    f = next(m for m in (realize(x, z, F)
                         for F in functors_between(x.base, z.base)) if m)
    pb = pullback_assembly(f, fib.morphism)
    w = mk_assembly(r, cyclic_group(2), r.interval.I0, 0)
    mediated = 0
    for S in functors_between(w.base, x.base):
        s = realize(w, x, S)
        if s is None:
            continue
        for T in functors_between(w.base, prod.asm.base):
            if compose_functors(f.fun, S) != compose_functors(fib.morphism.fun, T):
                continue
            t = realize(w, prod.asm, T)
            if t is None:
                continue
            u = pb.pair(s, t)
            assert validate_morphism(u).ok
            assert compose_morphisms(pb.p1, u) == s
            assert compose_morphisms(pb.p2, u) == t
            # uniqueness at the functor level
            count = sum(1 for C in functors_between(w.base, pb.asm.base)
                        if compose_functors(pb.p1.fun, C) == S
                        and compose_functors(pb.p2.fun, C) == T)
            assert count == 1
            mediated += 1
            if mediated >= 3:
                return
    assert mediated > 0


def test_pseudopullback_over_terminal_is_product(r, pg):
    t = pg.interval.I0
    x = mk_assembly(r, codiscrete(["a", "b"]), r.interval.I1, 0)
    y = mk_assembly(r, cyclic_group(2), r.interval.I1, 0)
    pp = pseudopullback_assembly(bang(x, t), bang(y, t), pg)
    prod = product_assembly(x, y)
    assert len(pp.asm.base.objects) == len(prod.asm.base.objects)
    assert len(pp.asm.base.morphisms) == len(prod.asm.base.morphisms)
    assert validate_morphism(pp.p1).ok and validate_morphism(pp.p2).ok
    assert validate_twocell(pg, pp.conn).ok


def test_pseudopullback_universal(r, pg):
    z = mk_assembly(r, codiscrete(["u", "v"]), r.interval.I1, 1)
    x = mk_assembly(r, codiscrete(["a", "b"]), r.interval.I1, 0)
    y = mk_assembly(r, codiscrete(["c", "d"]), r.interval.I1, 2)
    f = next(m for m in (realize(x, z, F)
                         for F in functors_between(x.base, z.base)) if m)
    g = next(m for m in (realize(y, z, G)
                         for G in functors_between(y.base, z.base)) if m)
    pp = pseudopullback_assembly(f, g, pg)
    assert validate_morphism(pp.p1).ok and validate_morphism(pp.p2).ok
    assert validate_twocell(pg, pp.conn).ok
    w = mk_assembly(r, codiscrete(["w1", "w2"]), r.interval.I1, 1)
    checked = 0
    for S in functors_between(w.base, x.base):
        s = realize(w, x, S)
        if s is None:
            continue
        for T in functors_between(w.base, y.base):
            t = realize(w, y, T)
            if t is None:
                continue
            fs = compose_morphisms(f, s)
            gt = compose_morphisms(g, t)
            for iso in nat_isos_between(fs.fun, gt.fun):
                psi = twocell_from_iso(pg, iso, fs, gt)
                u = pp.pair(s, t, psi, pg)
                assert validate_morphism(u).ok
                assert compose_morphisms(pp.p1, u) == s
                assert compose_morphisms(pp.p2, u) == t
                # the pasted generic cell recovers psi
                comps = {wo: pp.conn.iso.components[u.fun.omap[wo]]
                         for wo in w.base.objects}
                assert comps == iso.components
                # uniqueness scan
                count = sum(
                    1 for C in functors_between(w.base, pp.asm.base)
                    if compose_functors(pp.p1.fun, C) == S
                    and compose_functors(pp.p2.fun, C) == T
                    and {wo: pp.conn.iso.components[C.omap[wo]]
                         for wo in w.base.objects} == iso.components)
                assert count == 1
                checked += 1
                if checked >= 3:
                    return
    assert checked > 0


def test_pc1_pc4_pc5(r, pg):
    x = mk_assembly(r, codiscrete(["a", "b"]), r.interval.I1, 1)
    y = mk_assembly(r, codiscrete(["u", "v"]), r.interval.I1, 2)
    ms = []
    for F in functors_between(x.base, y.base):
        m = realize(x, y, F)
        if m is not None:
            ms.append(m)
    ms.append(identity_morphism(x))
    assert pc1_isos_are_fibrations(ms)
    for m in ms:
        assert pc4_isos_are_equivalences(m, pg)
    triple = (identity_morphism(x), ms[0], identity_morphism(y))
    assert pc5_two_out_of_six(triple, pg)


def test_pc5_nontrivial_triple(r, pg):
    """2-out-of-6 on a genuine equivalence pair, not identity-bookended."""
    x = mk_assembly(r, codiscrete(["a", "b"]), r.interval.I1, 1)
    e = path_object(x, pg).r_equiv
    f = e.fwd                        # X -> PX, an equivalence
    g = e.bwd                        # PX -> X
    h = e.fwd
    assert len(f.tgt.base.objects) > len(x.base.objects)
    assert as_equivalence(pg, compose_morphisms(g, f)) is not None
    assert as_equivalence(pg, compose_morphisms(h, g)) is not None
    assert pc5_two_out_of_six((f, g, h), pg)


def test_brown(r, pg):
    z = mk_assembly(r, codiscrete(["u", "v"]), r.interval.I1, 1)
    fib, prod, fb = proj_fibration(r, z, codiscrete(["s", "t"]))
    geq = as_equivalence(pg, fib.morphism)
    x = mk_assembly(r, codiscrete(["a", "b"]), r.interval.I1, 0)
    f = next(m for m in (realize(x, z, F)
                         for F in functors_between(x.base, z.base)) if m)
    assert brown_factor_check(fib, fib, geq, f, pg)
