import pytest

from gral.errors import BoundaryError
from gral.groupoids import (
    codiscrete, compose_functors, discrete, functors_between,
    identity_functor,
)
from gral.assemblies import (
    Assembly, bang, identity_morphism, is_modest, pgasm_interval,
    product_assembly, realize, validate_assembly, validate_morphism,
)
from gral.interval import gpd_interval
from gral.depprod import (
    dependent_product, dp_transpose, fibre_map, fstar_map, homotopy_fibre,
    is_modest_fibration, nabla, realize_into_nabla,
)
from gral.pathcat import FibrationData, is_fibration, pullback_assembly


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


def proj_fibration(r, y: Assembly, fibre_base, rtype=None, pick=0):
    fb = Assembly(r, fibre_base, rtype if rtype is not None else r.interval.I0,
                  functors_between(fibre_base,
                                   r.pi(rtype if rtype is not None
                                        else r.interval.I0).gpd)[pick])
    p = product_assembly(y, fb)
    fib = is_fibration(p.p1)
    assert isinstance(fib, FibrationData)
    return fib, p, fb


def test_homotopy_fibre_sizes_brute_force(r):
    y = mk_assembly(r, codiscrete(["a", "b"]), r.interval.I1, 1)
    z = mk_assembly(r, codiscrete(["u", "v"]), r.interval.I1, 2)
    for F in functors_between(y.base, z.base):
        f = realize(y, z, F)
        if f is None:
            continue
        for zo in z.base.objects:
            hf = homotopy_fibre(f, zo)
            expected = [(yo, u) for yo in y.base.objects
                        for u in z.base.hom(F.omap[yo], zo)]
            assert len(hf.asm.base.objects) == len(expected)
            assert validate_assembly(hf.asm).ok
            assert validate_morphism(hf.proj).ok
        break


def test_homotopy_fibre_over_terminal(r, pg):
    y = mk_assembly(r, codiscrete(["a", "b"]), r.interval.I1, 1)
    t = pg.interval.I0
    f = bang(y, t)
    hf = homotopy_fibre(f, "T")
    # objects are pairs (y, loop at the unique point)
    assert len(hf.asm.base.objects) == len(y.base.objects)


def test_fibre_map_functorial(r):
    y = mk_assembly(r, codiscrete(["a", "b"]), r.interval.I1, 1)
    z = mk_assembly(r, codiscrete(["u", "v"]), r.interval.I1, 2)
    f = next(m for m in (realize(y, z, F)
                         for F in functors_between(y.base, z.base)) if m)
    hf = {zo: homotopy_fibre(f, zo) for zo in z.base.objects}
    for rm in z.base.morphisms:
        zs, zt = z.base.mors[rm]
        fm = fibre_map(hf[zs], hf[zt], rm)
        assert validate_morphism(fm).ok
        if z.base.is_identity(rm):
            assert fm.fun == identity_functor(hf[zs].asm.base)
    for r1 in z.base.morphisms:
        for r2 in z.base.morphisms:
            if z.base.src(r2) != z.base.tgt(r1):
                continue
            zs = z.base.src(r1)
            zm = z.base.tgt(r1)
            zt = z.base.tgt(r2)
            lhs = compose_functors(fibre_map(hf[zm], hf[zt], r2).fun,
                                   fibre_map(hf[zs], hf[zm], r1).fun)
            rhs = fibre_map(hf[zs], hf[zt], z.base.compose(r2, r1)).fun
            assert lhs == rhs


def small_dp(r, pg, y_objs=("u", "v"), x_extra=("s",)):
    """A small dependent-product input: G a projection, F into the terminal-ish Z."""
    z = mk_assembly(r, codiscrete(["z1"]), r.interval.I0, 0)
    y = mk_assembly(r, codiscrete(list(y_objs)), r.interval.I0, 0)
    gfib, gp, gfb = proj_fibration(r, y, discrete(list(x_extra)))
    f = realize(y, z, functors_between(y.base, z.base)[0])
    ffib = is_fibration(f)
    assert isinstance(ffib, FibrationData)
    return gfib, ffib


def test_dependent_product_builds_and_is_fibration(r, pg):
    gfib, ffib = small_dp(r, pg)
    dp = dependent_product(gfib, ffib, max_objects=4096)
    assert validate_assembly(dp.asm).ok
    assert validate_morphism(dp.fib.morphism).ok
    assert validate_morphism(dp.ev).ok
    got = is_fibration(dp.fib.morphism)
    assert isinstance(got, FibrationData)
    # chosen lifts project correctly; identity lifts are identities
    for (oid, rm), mid in dp.fib.lifts.items():
        assert dp.fib.morphism.fun.mmap[mid] == rm
        assert dp.asm.base.src(mid) == oid
        if ffib.tgt.base.is_identity(rm):
            assert dp.asm.base.is_identity(mid)


def test_ev_lies_over_y(r, pg):
    gfib, ffib = small_dp(r, pg)
    dp = dependent_product(gfib, ffib, max_objects=4096)
    lhs = compose_functors(gfib.morphism.fun, dp.ev.fun)
    assert lhs == dp.fstar.p1.fun


def test_beta_law(r, pg):
    gfib, ffib = small_dp(r, pg)
    dp = dependent_product(gfib, ffib, max_objects=4096)
    w = mk_assembly(r, codiscrete(["w1"]), r.interval.I0, 0)
    z_asm = ffib.tgt
    rw = realize(w, z_asm, functors_between(w.base, z_asm.base)[0])
    fw = pullback_assembly(ffib.morphism, rw)
    checked = 0
    for S in functors_between(fw.asm.base, gfib.src.base):
        if compose_functors(gfib.morphism.fun, S) != fw.p1.fun:
            continue
        s = realize(fw.asm, gfib.src, S)
        if s is None:
            continue
        t = dp_transpose(dp, rw, s, fw)
        assert validate_morphism(t).ok
        assert compose_functors(dp.fib.morphism.fun, t.fun) == rw.fun
        ft = fstar_map(dp, fw, t)
        assert validate_morphism(ft).ok
        assert compose_functors(dp.ev.fun, ft.fun) == S
        checked += 1
        if checked >= 3:
            break
    assert checked > 0


def test_dependent_product_nontrivial_base(r, pg):
    z = mk_assembly(r, codiscrete(["z1", "z2"]), r.interval.I0, 0)
    y = mk_assembly(r, codiscrete(["u", "v"]), r.interval.I0, 0)
    gfib, gp, gfb = proj_fibration(r, y, discrete(["s"]))
    ffib = next(fb for fb in (is_fibration(realize(y, z, F))
                              for F in functors_between(y.base, z.base))
                if isinstance(fb, FibrationData))
    dp = dependent_product(gfib, ffib, max_objects=4096)
    assert validate_assembly(dp.asm).ok
    assert validate_morphism(dp.fib.morphism).ok
    assert validate_morphism(dp.ev).ok
    # non-identity lifts exist and project correctly
    nontrivial = [(k, v) for k, v in dp.fib.lifts.items()
                  if not z.base.is_identity(k[1])]
    assert nontrivial
    for (oid, rm), mid in dp.fib.lifts.items():
        assert dp.fib.morphism.fun.mmap[mid] == rm
    # beta law over the richer base
    w = mk_assembly(r, codiscrete(["w1", "w2"]), r.interval.I0, 0)
    rw = realize(w, z, functors_between(w.base, z.base)[1])
    fw = pullback_assembly(ffib.morphism, rw)
    checked = 0
    for S in functors_between(fw.asm.base, gfib.src.base):
        if compose_functors(gfib.morphism.fun, S) != fw.p1.fun:
            continue
        s = realize(fw.asm, gfib.src, S)
        if s is None:
            continue
        t = dp_transpose(dp, rw, s, fw)
        assert validate_morphism(t).ok
        assert compose_functors(dp.fib.morphism.fun, t.fun) == rw.fun
        assert compose_functors(dp.ev.fun, fstar_map(dp, fw, t).fun) == S
        checked += 1
        if checked >= 2:
            break
    assert checked > 0


def test_constant_family_sections_match_weak_exponential(r, pg):
    """Over a point, the sections carried by the dependent product project
    to exactly the functors carried by the weak exponential of the fibre."""
    from gral.assemblies import weak_exponential
    z = mk_assembly(r, codiscrete(["pt"]), r.interval.I0, 0)
    y = mk_assembly(r, codiscrete(["u", "v"]), r.interval.I0, 0)
    gfib, gp, m_asm = proj_fibration(r, y, discrete(["m0", "m1"]))
    ffib = is_fibration(realize(y, z, functors_between(y.base, z.base)[0]))
    dp = dependent_product(gfib, ffib, max_objects=4096)
    w = weak_exponential(y, m_asm)
    hf = dp.fibres["pt"]
    id_pt = z.base.id_of("pt")
    proj_sections = set()
    for oid in dp.asm.base.objects:
        H = dp.obj_data[oid][1]
        proj_sections.add(tuple(gp.p2.fun.omap[H.omap[hf.obj_of[(yo, id_pt)]]]
                                for yo in y.base.objects))
    exps = {tuple(F.omap[yo] for yo in y.base.objects)
            for (F, po, eps) in w.obj_data.values()}
    assert proj_sections == exps


def test_dependent_product_path_valued_realizers(r, pg):
    """The chosen lifts fill genuine squares when the codomain realizer
    carries a non-degenerate path."""
    zbase = codiscrete(["z1", "z2"])
    pi1 = r.pi(r.interval.I1)
    zfun = next(F for F in functors_between(zbase, pi1.gpd)
                if len(set(F.omap.values())) == 2)
    z = Assembly(r, zbase, r.interval.I1, zfun)
    y = mk_assembly(r, codiscrete(["u", "v"]), r.interval.I0, 0)
    gfib, gp, gfb = proj_fibration(r, y, discrete(["s"]))
    ffib = next(fb for fb in (is_fibration(m) for m in
                              (realize(y, z, F)
                               for F in functors_between(y.base, z.base))
                              if m is not None)
                if isinstance(fb, FibrationData))
    dp = dependent_product(gfib, ffib, max_objects=4096)
    assert validate_assembly(dp.asm).ok
    assert validate_morphism(dp.fib.morphism).ok
    assert validate_morphism(dp.ev).ok
    nontrivial = [(k, v) for k, v in dp.fib.lifts.items()
                  if not zbase.is_identity(k[1])]
    assert nontrivial
    # transposition across the path-valued codomain
    w = mk_assembly(r, codiscrete(["w1"]), r.interval.I0, 0)
    rw = realize(w, z, functors_between(w.base, z.base)[1])
    fw = pullback_assembly(ffib.morphism, rw)
    for S in functors_between(fw.asm.base, gfib.src.base):
        if compose_functors(gfib.morphism.fun, S) != fw.p1.fun:
            continue
        s = realize(fw.asm, gfib.src, S)
        if s is None:
            continue
        t = dp_transpose(dp, rw, s, fw)
        assert validate_morphism(t).ok
        assert compose_functors(dp.ev.fun, fstar_map(dp, fw, t).fun) == S
        break
    else:
        pytest.fail("no section found over the path-valued base")


def test_dependent_product_filters_nonvertical_fillers(r, pg):
    """With loops in the middle base, candidate fillers that move along the
    base are rejected; every stored morphism stays fibrewise."""
    from gral.groupoids import cyclic_group
    z = mk_assembly(r, codiscrete(["pt"]), r.interval.I0, 0)
    ybase = cyclic_group(2)
    y = Assembly(r, ybase, r.interval.I0,
                 functors_between(ybase, r.pi(r.interval.I0).gpd)[0])
    gfib, gp, gfb = proj_fibration(r, y, codiscrete(["m0", "m1"]))
    ffib = is_fibration(realize(y, z, functors_between(y.base, z.base)[0]))
    dp = dependent_product(gfib, ffib, max_objects=4096)
    assert dp.asm.base.morphisms
    for mid, (rm, psi, fp) in dp.mor_data.items():
        src = dp.asm.base.mors[mid][0]
        zsrc = dp.obj_data[src][0]
        hf = dp.fibres[zsrc]
        for oid in hf.asm.base.objects:
            img = gfib.morphism.fun.mmap[psi.components[oid]]
            assert ybase.is_identity(img)
    assert validate_morphism(dp.fib.morphism).ok


def test_identity_fibration_dependent_product(r, pg):
    # g the identity fibration: every fibre of Pi_F(id) has one section
    y = mk_assembly(r, codiscrete(["u"]), r.interval.I0, 0)
    z = mk_assembly(r, codiscrete(["z1"]), r.interval.I0, 0)
    g = is_fibration(identity_morphism(y))
    f = is_fibration(realize(y, z, functors_between(y.base, z.base)[0]))
    dp = dependent_product(g, f, max_objects=4096)
    # each object's section functor is forced up to the chosen realizer data
    sections = {dp.obj_data[oid][1].key() for oid in dp.asm.base.objects}
    assert len(sections) == 1


def test_modest_fibration_examples(r, pg):
    x = mk_assembly(r, codiscrete(["a", "b"]), r.interval.I1, 1)
    idm = identity_morphism(x)
    fib = is_fibration(idm)
    ok, _ = is_modest_fibration(fib)
    assert ok
    # X -> terminal is modest iff X is modest
    t = pg.interval.I0
    fb = is_fibration(bang(x, t))
    assert is_modest_fibration(fb)[0] == is_modest(x)[0]


def test_modest_fibration_pullback_stable(r, pg):
    y = mk_assembly(r, codiscrete(["u", "v"]), r.interval.I1, 1)
    iso_rfun = [F for F in functors_between(codiscrete(["m1", "m2"]),
                                            r.pi(r.interval.I1).gpd)
                if len(set(F.omap.values())) == 2][0]
    fibre_asm = Assembly(r, iso_rfun.dom, r.interval.I1, iso_rfun)
    assert is_modest(fibre_asm)[0]
    p = product_assembly(y, fibre_asm)
    fib = is_fibration(p.p1)
    ok, witness = is_modest_fibration(fib)
    if ok:
        x = mk_assembly(r, codiscrete(["a", "b"]), r.interval.I1, 0)
        f = next(m for m in (realize(x, y, F)
                             for F in functors_between(x.base, y.base)) if m)
        pb = pullback_assembly(f, fib.morphism)
        fib2 = is_fibration(pb.p1)
        assert is_modest_fibration(fib2)[0]


def test_nabla(r, pg):
    d2 = discrete(["x", "y"])
    pi1 = r.pi(r.interval.I1)
    a0 = pi1.gpd.objects[0]
    nb = nabla(r, d2, r.interval.I1, a0)
    assert validate_assembly(nb).ok
    # any functor into nabla is realized by the constant witness
    w = mk_assembly(r, codiscrete(["p", "q"]), r.interval.I1, 1)
    for fun in functors_between(w.base, d2.objects and nb.base):
        m = realize_into_nabla(w, nb, fun)
        assert validate_morphism(m).ok
    # chaotic over a 2-object discrete groupoid is not modest
    ok, witness = is_modest(nb)
    assert not ok and witness[0] == "full"


def test_nabla_terminal(r):
    from gral.groupoids import terminal_groupoid
    t = terminal_groupoid("n")
    pi0 = r.pi(r.interval.I0)
    nb = nabla(r, t, r.interval.I0, pi0.gpd.objects[0])
    assert len(nb.base.objects) == 1
    assert is_modest(nb)[0]


def test_terminal_not_universal_for_discrete_pair(r):
    # exhaustive search: no (s, r, rho) works against a 2-object discrete probe
    iv = r.interval
    probe = discrete(["x", "y"])
    from gral.interval import homotopy_from_body
    prod = r.product(probe, iv.I1)
    found = False
    for s in r.hom(probe, iv.I0):
        for ret in r.hom(iv.I0, probe):
            rs = r.compose(ret, s)
            for body in r.hom(prod.gpd, probe):
                h = homotopy_from_body(r, body, probe)
                if h.lhs == rs and h.rhs == r.identity(probe):
                    found = True
    assert not found


def test_pullback_pair_rejects_legs_from_different_sources(r):
    x = mk_assembly(r, codiscrete(["a", "b"]), r.interval.I0, 0)
    w = mk_assembly(r, codiscrete(["w1"]), r.interval.I0, 0)
    idx = identity_morphism(x)
    pb = pullback_assembly(idx, idx)
    m = realize(w, x, functors_between(w.base, x.base)[0])
    with pytest.raises(BoundaryError):
        pb.pair(idx, m)
