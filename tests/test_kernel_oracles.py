"""The composable-pair scans against the all-pairs scans they replace.

Each reference below is the loop the kernel ran before it indexed morphisms
by source and target: it visits every pair (or triple) of morphisms and
skips the ones that do not compose.  The kernel must build the same tables,
in the same insertion order, and report the same failures.  The groupoid
instance's fundamental groupoid, built as the base groupoid relabelled, is
held to the generic construction the same way, and so are the composition
tables of the dependent product and the weak exponential, which the kernel
builds from component tuples instead of one natural isomorphism per pair.
The groupoid instance's filled squares and cells, built as the cylinders of
natural isos, are held to the hand-built tables they replace, and so are
its transposes and evaluations, built from the shared currying and
evaluation tables.  The JSON writer is held to the `json.dumps` call it
replaces, byte for byte.  Every transport along chosen lifts, now one
conjugation, is held to the hand-written loop it replaces.  Functors and
natural isos enumerated over a base are held to the full enumeration
filtered, order included, and a fibre's table, built on first read, to the
eager filter it replaces.  Functor enumeration, the vertex-group
homomorphism check, chain functors and `is_functor` out of full products,
which now work from generators, are held to copies of the per-functor,
all-pairs, per-entry and whole-table code they replace.  The fault
injections show that each faster check can still fail, and that a product
or pullback table, built and checked on its first read, fails there with
the message eager construction gives.  The weak exponential's evaluation,
built on first read, is held to the construction it replaces; paired Pi
ids, read from a memo, to the pairing done anew; and the tables of weak
exponentials and dependent products, whose paths are now each evaluated
once, to the tables that evaluating every path at every point gives.  A
Pi id of a pair, read off the product's tables, is held to the id of the
pair functor built and labelled; the assemblies' interval, the realizer's
own I1-I3 realized by themselves, to private copies realized by listed
corners and generators; and the path axioms' fibration closure, which
decides each pooled morphism once, to the loop that asked every time.
"""

import itertools
import json
import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gral import assemblies, depprod, suites
from gral import pathcat
from gral.assemblies import (
    Assembly, ProductAssembly, WeakExpObject, _identity_eps,
    compose_morphisms, identity_morphism, pgasm_interval, product_assembly,
    terminal_assembly, transpose_morphism, twocell_from_iso,
    validate_assembly, validate_morphism, weak_exponential,
)
from gral.depprod import DepProd, dependent_product, fibre_map
from gral.errors import BoundaryError, SizeCapError, StructuralError
from gral.generators import Gen
from gral import groupoids
from gral.groupoids import (
    EquivalenceFailure, FinGroupoid, GFunctor, NatIso, Report, SizeCaps,
    _generating_words, _group_homs, codiscrete, compose_functors,
    cyclic_group, discrete, disjoint_union, equivalence_inverse, exponential,
    functors_between, identity_functor, invert_nat_iso, is_functor, iso_comma,
    nat_isos_between, pair_id, product, pullback, triple_id, validate_groupoid,
    vcompose_nat_isos,
)
from gral.generators import SuiteConfig
from gral.interval import (
    GpdRealizer, IntervalData, PiData, _build_pi, _chain_functor, _pi_map,
    chain_groupoid, check_cogroupoid, gpd_interval, path_of_morphism,
    restriction_counts,
)
from gral.pathcat import (
    FibrationData, as_equivalence, is_fibration, path_object,
    pc1_isos_are_fibrations, pc7_section, pc8_pseudoinverse,
)
from gral.suites import _gen_square, replay_counterexample, run_suite
from gral.textfmt import (
    groupoid_from_json, groupoid_to_json, parse_groupoid, serialize_groupoid,
)

SEEDS = st.integers(min_value=0, max_value=2 ** 30)


# --- references -----------------------------------------------------------

def naive_paired_comp(x, y, ms):
    comp = {}
    for (m2, n2) in ms:
        for (m1, n1) in ms:
            if x.src(m2) == x.tgt(m1) and y.src(n2) == y.tgt(n1):
                comp[(pair_id(m2, n2), pair_id(m1, n1))] = \
                    pair_id(x.compose(m2, m1), y.compose(n2, n1))
    return comp


def naive_iso_comma_tables(f, g):
    x, y, z = f.dom, g.dom, f.cod
    triples = [(a, b, r) for a in x.objects for b in y.objects
               for r in z.hom(f.omap[a], g.omap[b])]
    mors, minfo, mpair = {}, {}, {}
    for (a, b, r) in triples:
        src = triple_id(a, b, r)
        for p in x.morphisms:
            if x.src(p) != a:
                continue
            for q in y.morphisms:
                if y.src(q) != b:
                    continue
                r2 = z.compose_path(g.mmap[q], r, z.inv_of(f.mmap[p]))
                mid = f"({p},{q})@{src}"
                mors[mid] = (src, triple_id(x.tgt(p), y.tgt(q), r2))
                minfo[mid] = (p, q, src, mors[mid][1])
                mpair[(p, q, src)] = mid
    comp = {}
    for m2, (p2, q2, s2, t2) in minfo.items():
        for m1, (p1, q1, s1, t1) in minfo.items():
            if t1 == s2:
                comp[(m2, m1)] = mpair[(x.compose(p2, p1), y.compose(q2, q1), s1)]
    return mors, comp


def naive_exponential_comp(e):
    mors = e.gpd.mors
    comp = {}
    for m2, n2 in e.mor_to_natiso.items():
        for m1, n1 in e.mor_to_natiso.items():
            if mors[m1][1] == mors[m2][0]:
                cmp_iso = vcompose_nat_isos(n2, n1)
                comp[(m2, m1)] = e.natiso_to_mor[(n1.src.key(), cmp_iso.key())]
    return comp


def naive_dependent_product_comp(dp):
    """Pi_F X's comp with a composite functor and natural iso per pair."""
    r = dp.asm.r
    xb, zb = dp.g.src.base, dp.f.tgt.base
    pieg = r.pi(dp.exp.obj).gpd
    mors = dp.asm.base.mors
    fmaps = {}

    def fmap(rm):
        if rm not in fmaps:
            zs, zt = zb.mors[rm]
            fmaps[rm] = fibre_map(dp.fibres[zs], dp.fibres[zt], rm)
        return fmaps[rm]

    comp = {}
    for m2 in mors:
        for m1 in mors:
            if mors[m1][1] != mors[m2][0]:
                continue
            r2, psi2, f2 = dp.mor_data[m2]
            r1, psi1, f1 = dp.mor_data[m1]
            src = mors[m1][0]
            fr1 = fmap(r1)
            comps = {o: xb.compose(psi2.components[fr1.fun.omap[o]],
                                   psi1.components[o])
                     for o in dp.fibres[dp.obj_data[src][0]].asm.base.objects}
            psi = NatIso(psi1.src,
                         compose_functors(dp.obj_data[mors[m2][1]][1],
                                          fmap(zb.compose(r2, r1)).fun),
                         comps)
            comp[(m2, m1)] = dp.mor_index[(src, zb.compose(r2, r1), psi.key(),
                                           pieg.compose(f2, f1))]
    return comp


def naive_weak_exponential_comp(w):
    """The weak exponential's comp with a vertical composite per pair."""
    mors = w.asm.base.mors
    pieg = w.asm.rfun.cod
    comp = {}
    for m2 in mors:
        for m1 in mors:
            if mors[m1][1] != mors[m2][0]:
                continue
            (psi2, f2), (psi1, f1) = w.mor_data[m2], w.mor_data[m1]
            comp[(m2, m1)] = w.mor_index[(mors[m1][0],
                                          vcompose_nat_isos(psi2, psi1).key(),
                                          pieg.compose(f2, f1))]
    return comp


def naive_validate(g):
    """Every axiom instance by scanning all pairs and triples."""
    out = []
    for (gg, ff), h in g.comp.items():
        if g.src(h) != g.src(ff) or g.tgt(h) != g.tgt(gg):
            out.append(("comp-typing", f"{gg}o{ff}={h} has wrong endpoints"))
    for f in g.morphisms:
        i_s, i_t = g.id_of(g.src(f)), g.id_of(g.tgt(f))
        if g.compose(f, i_s) != f:
            out.append(("id-right", f"{f}o{i_s} != {f}"))
        if g.compose(i_t, f) != f:
            out.append(("id-left", f"{i_t}o{f} != {f}"))
        v = g.inv_of(f)
        if g.mors[v] != (g.tgt(f), g.src(f)):
            out.append(("inv-typing", f"inverse of {f} has wrong endpoints"))
            continue
        if g.compose(v, f) != g.id_of(g.src(f)):
            out.append(("inv-left", f"{v}o{f} != id_{g.src(f)}"))
        if g.compose(f, v) != g.id_of(g.tgt(f)):
            out.append(("inv-right", f"{f}o{v} != id_{g.tgt(f)}"))

    def typed(b, a, ba):
        return g.mors[ba] == (g.src(a), g.tgt(b))

    for f in g.morphisms:
        for gg in g.morphisms:
            if g.src(gg) != g.tgt(f):
                continue
            gf = g.compose(gg, f)
            for h in g.morphisms:
                if g.src(h) != g.tgt(gg):
                    continue
                hg = g.compose(h, gg)
                if typed(gg, f, gf) and typed(h, gg, hg) \
                        and g.compose(h, gf) != g.compose(hg, f):
                    out.append(("assoc", f"({h}o{gg})o{f} != {h}o({gg}o{f})"))
    return out


def naive_missing_entry(mors, comp):
    """The message of the first missing comp entry, in scan order."""
    for f in mors:
        for g in mors:
            if mors[g][0] == mors[f][1] and (g, f) not in comp:
                return f"comp table missing entry ({g!r},{f!r})"
    return None


def naive_count(r, cands, e0, e1, legs):
    a, b = legs
    return sum(1 for m in cands
               if r.compose(m, e0) == a and r.compose(m, e1) == b)


def naive_fill_square(r, top, bottom, left, right):
    """`GpdRealizer.fill_square` as it was: corner maps and edge closures."""
    iv = r.interval
    c = top.cod
    prod = r.product(iv.I1, iv.I1)
    corner = {("0", "0"): left.omap["0"], ("0", "1"): left.omap["1"],
              ("1", "0"): right.omap["0"], ("1", "1"): right.omap["1"]}
    if (corner[("0", "0")] != top.omap["0"] or corner[("1", "0")] != top.omap["1"]
            or corner[("0", "1")] != bottom.omap["0"]
            or corner[("1", "1")] != bottom.omap["1"]):
        raise BoundaryError("square boundary paths do not share corners")
    if c.compose(right.mmap["p01"], top.mmap["p01"]) != \
            c.compose(bottom.mmap["p01"], left.mmap["p01"]):
        raise BoundaryError("square of paths does not commute")

    def horiz(u, t):
        if iv.I1.is_identity(u):
            return None
        m = (top if t == "0" else bottom).mmap["p01"]
        return m if u == "p01" else c.inv_of(m)

    def vert(s, v):
        if iv.I1.is_identity(v):
            return None
        m = (left if s == "0" else right).mmap["p01"]
        return m if v == "p01" else c.inv_of(m)

    omap = {prod.opair[st]: corner[st] for st in corner}
    mmap = {}
    for (u, vv), mid in prod.mpair.items():
        s, s2 = iv.I1.mors[u]
        t, _t2 = iv.I1.mors[vv]
        val = c.id_of(corner[(s, t)])
        h = horiz(u, t)
        if h is not None:
            val = c.compose(h, val)
        w = vert(s2, vv)
        if w is not None:
            val = c.compose(w, val)
        mmap[mid] = val
    return GFunctor(prod.p1.dom, c, omap, mmap)


def naive_boundary_inv(r, sq):
    """`GpdRealizer.boundary_inv` as it was: the cell table built by hand."""
    sq.check()
    iv = r.interval
    a, b = sq.top.a, sq.top.b
    pa = r.product(a, iv.I1)
    outer = r.product(pa.gpd, iv.I1)
    corners = {("0", "0"): sq.top.lhs, ("1", "0"): sq.top.rhs,
               ("0", "1"): sq.bottom.lhs, ("1", "1"): sq.bottom.rhs}

    def edge_at(edge, d, ao):
        if iv.I1.is_identity(d):
            return None
        m = edge.body.mmap[pa.mpair[(a.id_of(ao), "p01")]]
        return m if d == "p01" else b.inv_of(m)

    omap = {}
    for ao in a.objects:
        for s in ("0", "1"):
            for t in ("0", "1"):
                omap[outer.opair[(pa.opair[(ao, s)], t)]] = corners[(s, t)].omap[ao]
    split = {imid: (am, u) for (am, u), imid in pa.mpair.items()}
    mmap = {}
    for (inner_m, v), mid in outer.mpair.items():
        am, u = split[inner_m]
        s, s2 = iv.I1.mors[u]
        t, _t2 = iv.I1.mors[v]
        a_tgt = a.mors[am][1]
        val = corners[(s, t)].mmap[am]
        h = edge_at(sq.top if t == "0" else sq.bottom, u, a_tgt)
        if h is not None:
            val = b.compose(h, val)
        w = edge_at(sq.left if s2 == "0" else sq.right, v, a_tgt)
        if w is not None:
            val = b.compose(w, val)
        mmap[mid] = val
    return GFunctor(outer.p1.dom, b, omap, mmap)


def naive_transpose(r, k, raw, base, target):
    """`GpdRealizer.transpose` as it was: one NatIso per morphism of Z."""
    e = r.exponential(base, target)
    z = raw.p1.cod
    omap, kz = {}, {}
    for zo in z.objects:
        f = GFunctor(base, target,
                     {a: k.omap[raw.opair[(zo, a)]] for a in base.objects},
                     {m: k.mmap[raw.mpair[(z.id_of(zo), m)]] for m in base.morphisms})
        kz[zo] = f
        omap[zo] = e.raw.obj_of(f)
    mmap = {}
    for v in z.morphisms:
        s, t = z.mors[v]
        n = NatIso(kz[s], kz[t],
                   {a: k.mmap[raw.mpair[(v, base.id_of(a))]] for a in base.objects})
        mmap[v] = e.raw.natiso_to_mor[(n.src.key(), n.key())]
    return GFunctor(z, e.obj, omap, mmap)


def naive_eval(raw, target, fun_of, iso_of):
    """The evaluation table as `interval._gpd_eval` and `weak_exponential`
    each wrote it."""
    base = raw.p2.cod
    omap = {}
    for (fo, a), oid in raw.opair.items():
        omap[oid] = fun_of[fo].omap[a]
    mmap = {}
    for (n, m), mid in raw.mpair.items():
        iso = iso_of[n]
        s, _t = base.mors[m]
        mmap[mid] = target.compose(iso.tgt.mmap[m], iso.components[s])
    return GFunctor(raw.p1.dom, target, omap, mmap)


def naive_group_homs(dom, base, cod, cobase):
    """`_group_homs` as it was: the homomorphism law checked on all pairs."""
    G = dom.hom(base, base)
    H = cod.hom(cobase, cobase)
    gens, words = _generating_words(dom, base)
    out = []
    for images in itertools.product(H, repeat=len(gens)):
        table = dict(zip(gens, images))
        hom_map = {}
        ok = True
        for e in G:
            img = cod.id_of(cobase)
            for s in words[e]:
                img = cod.compose(img, table[s])
            hom_map[e] = img
        for a in G:
            for b in G:
                if cod.compose(hom_map[a], hom_map[b]) != hom_map[dom.compose(a, b)]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(hom_map)
    return out


def naive_functors_between(dom, cod, over=None):
    """`functors_between` as it was: every morphism's normal form, and its
    component, found again for each functor listed."""
    if over is not None:
        g, p = over
    comps = dom.components()
    per_comp = []
    for c in comps:
        choices = []
        bases = sorted(cod.objects)
        if over is not None:
            bases = [yb for yb in bases if g.omap[yb] == p.omap[c.base]]
        for yb in bases:
            rhos = naive_group_homs(dom, c.base, cod, yb)
            if over is not None:
                rhos = [rho for rho in rhos
                        if all(g.mmap[rho[e]] == p.mmap[e] for e in rho)]
            for rho in rhos:
                tree_imgs = []
                for x in c.objects:
                    if x == c.base:
                        continue
                    ms = sorted(cod.out_of(yb))
                    if over is not None:
                        px = p.mmap[c.tree[x]]
                        ms = [m for m in ms if g.mmap[m] == px]
                    tree_imgs.append([(x, m) for m in ms])
                for pick in itertools.product(*tree_imgs):
                    choices.append((yb, rho, dict(pick)))
        per_comp.append(choices)
    out = []
    for combo in itertools.product(*per_comp):
        omap, tree_map, rho_of = {}, {}, {}
        for c, (yb, rho, picks) in zip(comps, combo):
            for x in c.objects:
                rho_of[x] = rho
                if x == c.base:
                    omap[x] = yb
                    tree_map[x] = cod.id_of(yb)
                else:
                    m = picks[x]
                    omap[x] = cod.tgt(m)
                    tree_map[x] = m
        mmap = {}
        for f in dom.morphisms:
            s, t = dom.mors[f]
            c = next(cc for cc in comps if s in cc.objects)
            e = dom.compose_path(dom.inv_of(c.tree[t]), f, c.tree[s])
            mmap[f] = cod.compose_path(tree_map[t], rho_of[s][e], cod.inv_of(tree_map[s]))
        out.append(GFunctor(dom, cod, omap, mmap))
    return out


def naive_is_functor(f):
    """`is_functor` as it was: composition checked on the domain's whole table."""
    rep = Report()
    dom, cod = f.dom, f.cod
    for x in dom.objects:
        if f.omap.get(x) not in cod.ident:
            rep.add("omap", False, f"object {x} maps to nothing in codomain")
    for m in dom.morphisms:
        fm = f.mmap.get(m)
        if fm is None or fm not in cod.mors:
            rep.add("mmap", False, f"morphism {m} maps to nothing in codomain")
            continue
        s, t = dom.mors[m]
        if cod.mors[fm] != (f.omap.get(s), f.omap.get(t)):
            rep.add("mmap-typing", False, f"image of {m} has wrong endpoints")
    if not rep.ok:
        return rep
    for x in dom.objects:
        if f.mmap[dom.id_of(x)] != cod.id_of(f.omap[x]):
            rep.add("functor-id", False, f"identity at {x} not preserved")
    for (g, m), h in dom.comp.items():
        if cod.comp[(f.mmap[g], f.mmap[m])] != f.mmap[h]:
            rep.add("functor-comp", False, f"composition {g}o{m} not preserved")
    return rep


def naive_chain_functor(dom, cod, omap, gen):
    """`_chain_functor` as it was: each chain composed again from the
    generators, and again before it is inverted."""
    mmap = {}
    objs = sorted(dom.objects, key=int)
    for x in objs:
        mmap[dom.id_of(x)] = cod.id_of(omap[x])
    for i in range(len(objs)):
        for j in range(len(objs)):
            if i == j:
                continue
            lo, hi = min(i, j), max(i, j)
            m = cod.id_of(omap[str(lo)])
            for k in range(lo, hi):
                m = cod.compose(gen[f"p{k}{k + 1}"], m)
            if i > j:
                m = cod.inv_of(m)
            mmap[f"p{i}{j}"] = m
    return GFunctor(dom, cod, omap, mmap)


# --- generated inputs -----------------------------------------------------

def _gen(seed):
    return Gen(gpd_interval(), seed, SizeCaps())


def _cospan(gen):
    """Two functors into one small groupoid, picked by the generator."""
    x, y, z = gen.small_groupoid(), gen.small_groupoid(), gen.small_groupoid()
    return gen.rng.choice(functors_between(x, z)), gen.rng.choice(functors_between(y, z))


def _tables(g):
    return g.objects, dict(g.mors), dict(g.comp), dict(g.ident), dict(g.inv)


# --- tables ---------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(SEEDS)
def test_product_comp_matches_naive(seed):
    gen = _gen(seed)
    x, y = gen.groupoid(allow_product=False), gen.small_groupoid()
    ms = [(m, n) for m in x.morphisms for n in y.morphisms]
    gpd = product(x, y).gpd
    assert gpd._comp is None  # built on first read, not at construction
    assert list(gpd.comp.items()) == list(naive_paired_comp(x, y, ms).items())


@settings(max_examples=25, deadline=None)
@given(SEEDS)
def test_pullback_comp_matches_naive(seed):
    f, g = _cospan(_gen(seed))
    x, y = f.dom, g.dom
    ms = [(m, n) for m in x.morphisms for n in y.morphisms if f.mmap[m] == g.mmap[n]]
    gpd = pullback(f, g).gpd
    assert gpd._comp is None
    assert list(gpd.comp.items()) == list(naive_paired_comp(x, y, ms).items())


@settings(max_examples=25, deadline=None)
@given(SEEDS)
def test_iso_comma_tables_match_naive(seed):
    f, g = _cospan(_gen(seed))
    mors, comp = naive_iso_comma_tables(f, g)
    ic = iso_comma(f, g)
    assert list(ic.gpd.mors.items()) == list(mors.items())
    assert list(ic.gpd.comp.items()) == list(comp.items())


@settings(max_examples=20, deadline=None)
@given(SEEDS)
def test_exponential_comp_matches_naive(seed):
    gen = _gen(seed)
    x, y = gen.small_groupoid(max_objects=2), gen.small_groupoid()
    try:
        e = exponential(x, y)
    except SizeCapError:
        assume(False)
    assert list(e.gpd.comp.items()) == list(naive_exponential_comp(e).items())


def _pif(gen):
    """A dependent product of a modest fibration along a fibration, drawn
    like the modest-closure suite's but with a connected two-object base
    half the time, so that morphisms over non-identities occur."""
    iv = gen.r.interval

    def base():
        return gen.rng.choice([gen.small_groupoid(2),
                               codiscrete([gen._tag() + "a", gen._tag() + "b"])])

    for _ in range(20):
        z = gen.assembly(base=base(), rtype=gen.rng.choice([iv.I0, iv.I1]))
        y = gen.assembly(base=base(), rtype=iv.I0)
        gfib, _total = gen.modest_fibration(base=y)
        fm = gen.morphism(y, z)
        ffib = None if fm is None else is_fibration(fm)
        if isinstance(ffib, FibrationData):
            try:
                return dependent_product(gfib, ffib, max_objects=16)
            except SizeCapError:
                continue
    return None


@settings(max_examples=20, deadline=None)
@given(SEEDS)
def test_dependent_product_comp_matches_naive(seed):
    dp = _pif(_gen(seed))
    assume(dp is not None)
    assert list(dp.asm.base.comp.items()) == \
        list(naive_dependent_product_comp(dp).items())


@settings(max_examples=15, deadline=None)
@given(SEEDS)
def test_fibre_comp_matches_the_eager_filter(seed):
    dp = _pif(_gen(seed))
    assume(dp is not None)
    fib, total = dp.fib, dp.asm.base
    for z in fib.tgt.base.objects:
        fb = fib.fibre(z).base
        assert fb._comp is None  # built on first read, not at construction
        idz = fib.tgt.base.id_of(z)
        vertical = {m for m in total.morphisms if fib.morphism.fun.mmap[m] == idz}
        assert list(fb.comp.items()) == [
            ((g, f), h) for (g, f), h in total.comp.items()
            if g in vertical and f in vertical]


@settings(max_examples=20, deadline=None)
@given(SEEDS)
def test_weak_exponential_comp_matches_naive(seed):
    gen = _gen(seed)
    iv = gen.r.interval
    x = gen.assembly(base=gen.small_groupoid(2), rtype=iv.I1)
    y = gen.assembly(base=gen.small_groupoid(2),
                     rtype=gen.rng.choice([iv.I0, iv.I1]))
    try:
        w = weak_exponential(x, y)
    except SizeCapError:
        assume(False)
    assert list(w.asm.base.comp.items()) == \
        list(naive_weak_exponential_comp(w).items())


# --- enumeration over a base ----------------------------------------------

def _over_base(gen):
    """g: cod -> b and every functor dom -> cod, with dom possibly
    disconnected; g is a projection half the time, as when sections of a
    split fibration are enumerated, and otherwise any functor."""
    dom, b = gen.groupoid(allow_product=False), gen.small_groupoid(2)
    if gen.rng.random() < 0.5:
        pr = product(b, gen.small_groupoid(2))
        cod, g = pr.gpd, pr.p1
    else:
        cod = gen.small_groupoid()
        g = gen.rng.choice(functors_between(cod, b))
    return dom, cod, g, functors_between(dom, cod)


@settings(max_examples=60, deadline=None)
@given(SEEDS)
def test_functors_over_match_the_filtered_list(seed):
    gen = _gen(seed)
    dom, cod, g, every = _over_base(gen)
    # half the time p lies under some functor, so that the list is not empty
    p = compose_functors(g, gen.rng.choice(every)) if gen.rng.random() < 0.5 \
        else gen.rng.choice(functors_between(dom, g.cod))
    assert functors_between(dom, cod, over=(g, p)) == \
        [H for H in every if compose_functors(g, H) == p]


@settings(max_examples=60, deadline=None)
@given(SEEDS)
def test_nat_isos_over_match_the_vertical_filter(seed):
    gen = _gen(seed)
    dom, cod, g, every = _over_base(gen)
    F = gen.rng.choice(every)
    # half the time G lies over the functor F lies over, else over any
    gf = compose_functors(g, F)
    G = gen.rng.choice([H for H in every if compose_functors(g, H) == gf]
                       if gen.rng.random() < 0.5 else every)
    assert nat_isos_between(F, G, over=g) == [
        n for n in nat_isos_between(F, G)
        if all(g.mmap[n.components[x]] == g.cod.id_of(gf.omap[x])
               for x in dom.objects)]


# --- work from generators -------------------------------------------------

def _enumeration_pair(gen):
    """A domain of up to three components, one of them, half the time,
    with a vertex group that needs two generators, and a small codomain."""
    dom = gen.groupoid()
    if gen.rng.random() < 0.5:
        klein = product(cyclic_group(2, gen._tag()), cyclic_group(2, gen._tag()))
        dom = disjoint_union([dom, klein.gpd])
    return dom, gen.small_groupoid()


def _listed(fs):
    return [(F.dom.serial, F.cod.serial, list(F.omap.items()), list(F.mmap.items()))
            for F in fs]


@settings(max_examples=60, deadline=None)
@given(SEEDS)
def test_functors_between_matches_the_per_functor_loop(seed):
    dom, cod = _enumeration_pair(_gen(seed))
    try:
        fast = functors_between(dom, cod, cap=2000)
    except SizeCapError:
        assume(False)
    assert _listed(fast) == _listed(naive_functors_between(dom, cod))


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_functors_over_match_the_per_functor_loop(seed):
    gen = _gen(seed)
    dom, cod, g, every = _over_base(gen)
    p = compose_functors(g, gen.rng.choice(every)) if gen.rng.random() < 0.5 \
        else gen.rng.choice(functors_between(dom, g.cod))
    assert _listed(every) == _listed(naive_functors_between(dom, cod))
    assert _listed(functors_between(dom, cod, over=(g, p))) == \
        _listed(naive_functors_between(dom, cod, over=(g, p)))


@settings(max_examples=60, deadline=None)
@given(SEEDS)
def test_group_homs_match_the_all_pairs_check(seed):
    dom, cod = _enumeration_pair(_gen(seed))
    for c in dom.components():
        gens_words = _generating_words(dom, c.base)
        for yb in cod.objects:
            fast = _group_homs(dom, c.base, cod, yb, gens_words)
            ref = naive_group_homs(dom, c.base, cod, yb)
            assert [list(h.items()) for h in fast] == [list(h.items()) for h in ref]


def _swap_one_image(gen, F):
    """F with one morphism's image swapped for a parallel morphism, if any."""
    cod = F.cod
    swaps = [(m, v) for m in F.dom.morphisms
             for v in cod.hom(*cod.mors[F.mmap[m]]) if v != F.mmap[m]]
    if not swaps:
        return F
    m, v = gen.rng.choice(swaps)
    return GFunctor(F.dom, cod, F.omap, {**F.mmap, m: v})


def _product_functor(gen):
    """A functor out of a fresh full product x * y, its table unbuilt, and
    often broken: one of the hom-set with, half the time, one image
    swapped, or a pair of functors out of the factors with, half the time,
    one image of one of them swapped, so that composition fails along that
    factor alone."""
    x, y = gen.small_groupoid(), gen.small_groupoid()
    if gen.rng.random() < 0.5:
        try:
            F = gen.rng.choice(functors_between(product(x, y).gpd,
                                                gen.small_groupoid(), cap=500))
        except SizeCapError:
            pass
        else:
            F = GFunctor(product(x, y).gpd, F.cod, F.omap, F.mmap)
            return _swap_one_image(gen, F) if gen.rng.random() < 0.5 else F
    legs = [gen.rng.choice(functors_between(x, gen.small_groupoid())),
            gen.rng.choice(functors_between(y, gen.small_groupoid()))]
    if gen.rng.random() < 0.5:
        k = gen.rng.randrange(2)
        legs[k] = _swap_one_image(gen, legs[k])
    f, g = legs
    pr = product(x, y)
    return product(f.cod, g.cod).pair(compose_functors(f, pr.p1),
                                      compose_functors(g, pr.p2))


def _report_entries(rep):
    return [(e.name, e.ok, e.detail, e.counterexample) for e in rep.entries]


@settings(max_examples=100, deadline=None)
@given(SEEDS)
def test_is_functor_on_products_matches_the_whole_table_scan(seed):
    gen = _gen(seed)
    F = _product_functor(gen)
    assert F.dom.factors is not None and F.dom._comp is None
    built = gen.rng.random() < 0.5
    if built:
        F.dom.comp
    rep = is_functor(F)
    if rep.ok and not built:
        assert F.dom._comp is None  # checked on generators alone
    assert _report_entries(rep) == _report_entries(naive_is_functor(F))


@pytest.mark.parametrize("broken", [0, 1])
def test_is_functor_on_a_product_fails_along_either_factor(broken):
    # F = f x g with one image of leg `broken` swapped: composition then
    # fails along that factor's generators alone
    factors = [cyclic_group(3), codiscrete(["a", "b"])]
    if broken:
        factors.reverse()
    pr = product(*factors)
    legs = [identity_functor(x) for x in factors]
    z3 = legs[broken]
    legs[broken] = GFunctor(z3.dom, z3.cod, z3.omap, {**z3.mmap, "z1": "z2"})
    bad = product(*factors).pair(compose_functors(legs[0], pr.p1),
                                 compose_functors(legs[1], pr.p2))
    assert is_functor(pr.p1).ok and pr.gpd._comp is None
    rep = is_functor(bad)
    assert not rep.ok and {e.name for e in rep.entries} == {"functor-comp"}
    assert _report_entries(rep) == _report_entries(naive_is_functor(bad))
    # a pullback records no factors and keeps the whole-table scan
    assert pullback(pr.p1, pr.p1).gpd.factors is None


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_chain_functors_match_the_per_entry_loop(seed):
    gen = _gen(seed)
    cod = gen.groupoid()
    iv = gen.r.interval
    for dom in (iv.I1, iv.I2, iv.I3):
        omap, gens = {"0": gen.rng.choice(cod.objects)}, {}
        for k in range(len(dom.objects) - 1):
            m = gen.rng.choice(cod.out_of(omap[str(k)]))
            gens[f"p{k}{k + 1}"] = m
            omap[str(k + 1)] = cod.tgt(m)
        _same_functor(_chain_functor(dom, cod, omap, gens),
                      naive_chain_functor(dom, cod, omap, gens))


# --- validation and structure --------------------------------------------

@settings(max_examples=25, deadline=None)
@given(SEEDS)
def test_validate_matches_naive_on_valid_tables(seed):
    g = _gen(seed).groupoid(allow_product=False)
    assert validate_groupoid(g).failures == naive_validate(g) == []


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_validate_matches_naive_on_faulty_tables(seed):
    gen = _gen(seed)
    objects, mors, comp, ident, inv = _tables(gen.groupoid(allow_product=False))
    rng = random.Random(seed)
    names = list(mors)
    for key in rng.sample(list(comp), k=min(3, len(comp))):
        comp[key] = rng.choice(names)
    m = rng.choice(names)
    inv[m] = rng.choice(names)
    g = FinGroupoid(objects, mors, comp, ident, inv)
    assert validate_groupoid(g).failures == naive_validate(g)


@settings(max_examples=25, deadline=None)
@given(SEEDS)
def test_missing_comp_entry_names_the_naive_pair(seed):
    gen = _gen(seed)
    objects, mors, comp, ident, inv = _tables(gen.groupoid())
    del comp[gen.rng.choice(list(comp))]
    expected = naive_missing_entry(mors, comp)
    with pytest.raises(StructuralError) as exc:
        FinGroupoid(objects, mors, comp, ident, inv)
    assert str(exc.value) == expected


def _broken(g, how):
    """A copy of g's comp table with one fault: an entry missing, an entry
    naming no morphism, or an entry for a pair that does not compose."""
    comp = dict(g.comp)
    first = next(iter(comp))
    if how == "missing":
        del comp[first]
    elif how == "dangling":
        comp[first] = "nowhere"
    else:
        comp[next((a, b) for a in g.morphisms for b in g.morphisms
                  if g.src(a) != g.tgt(b))] = g.morphisms[0]
    return comp


def _deferred_eager_pair(g, how):
    """g rebuilt with a broken table, deferred, and the message that
    building it eagerly raises."""
    with pytest.raises(StructuralError) as eager:
        FinGroupoid(g.objects, g.mors, _broken(g, how), g.ident, g.inv)
    lazy = FinGroupoid(g.objects, g.mors, lambda: _broken(g, how),
                       g.ident, g.inv)
    return lazy, str(eager.value)


FAULTS = [("missing", "comp table missing entry"), ("dangling", "dangles"),
          ("not-composable", "is not composable")]


@pytest.mark.parametrize("how,fragment", FAULTS)
def test_deferred_comp_is_checked_on_first_read(how, fragment):
    p = product(codiscrete(["a", "b"]), cyclic_group(2)).gpd
    lazy, message = _deferred_eager_pair(p, how)
    assert fragment in message
    # construction passed; every read, of the table or of one composite,
    # raises the message that eager construction gives, and returns nothing
    for read in (lambda: lazy.comp, lambda: lazy.compose(*next(iter(p.comp))),
                 lambda: lazy.comp):
        with pytest.raises(StructuralError) as exc:
            read()
        assert str(exc.value) == message
    assert lazy._comp is None


@pytest.mark.parametrize("how,fragment", FAULTS)
def test_product_over_a_broken_factor_fails_on_first_read(how, fragment):
    x, message = _deferred_eager_pair(codiscrete(["a", "b"]), how)
    assert fragment in message
    xy = product(x, cyclic_group(3))
    pb = pullback(xy.p1, xy.p1)
    for g in (xy.gpd, pb.gpd):
        with pytest.raises(StructuralError) as exc:
            g.comp
        assert str(exc.value) == message


def test_squares_never_builds_its_largest_product(monkeypatch):
    made = []
    paired = groupoids._paired

    def spy(*args):
        res = paired(*args)
        made.append(res.gpd)
        return res

    monkeypatch.setattr(groupoids, "_paired", spy)
    # the acceptance counts
    assert run_suite("squares", SuiteConfig(seed=0, counts={"cells": 100})).ok
    sizes = [sum(len(g._adjacency()[1].get(x, ())) * len(g.out_of(x)) for x in g.objects)
             for g in made]
    big = made[sizes.index(max(sizes))]
    assert max(sizes) == 262_144
    # nothing reads its table, so its builder never runs
    assert big._comp is None and big._build_comp is not None


def test_pgasm_ccc_builds_no_large_table_on_first_read(monkeypatch):
    built = []
    read = FinGroupoid.comp.fget

    def spy(self):
        first = self._comp is None
        table = read(self)
        if first:
            built.append(len(table))
        return table

    monkeypatch.setattr(FinGroupoid, "comp", property(spy))
    # the acceptance counts
    assert run_suite("pgasm-ccc", SuiteConfig(seed=0,
                                              counts={"beta": 20, "modest": 10})).ok
    # checking the evaluation functors on generators leaves their product
    # domains' tables, up to 524,288 entries, unbuilt
    assert built and max(built) < 16_384


def _spy_dependent_products(monkeypatch, caps=SizeCaps()):
    """Run modest-closure at its acceptance counts (seed 0), recording each
    dependent product built and each size-cap refusal of one."""
    made, refused = [], []
    build = suites.dependent_product

    def spy(*args):
        try:
            dp = build(*args)
        except SizeCapError as exc:
            refused.append(str(exc))
            raise
        made.append(dp)
        return dp

    monkeypatch.setattr(suites, "dependent_product", spy)
    cfg = SuiteConfig(seed=0, caps=caps, counts={"instances": 10})
    return run_suite("modest-closure", cfg), made, refused


def test_modest_closure_never_builds_its_largest_dependent_product_table(monkeypatch):
    rep, made, refused = _spy_dependent_products(monkeypatch)
    assert rep.ok and not refused
    big = max(made, key=lambda dp: len(dp.asm.base.morphisms))
    assert len(big.asm.base.morphisms) == 1024
    # is_modest reads only hom-sets, so the table is never built ...
    assert all(dp.asm.base._comp is None for dp in made)
    # ... and reading it afterwards gives the reference table
    assert list(big.asm.base.comp.items()) == \
        list(naive_dependent_product_comp(big).items())


def test_dependent_product_refuses_more_morphisms_than_the_cap(monkeypatch):
    # at the default caps seed 0 draws a 1,024-morphism product; under a
    # 256-morphism cap it is refused and the suite draws another instance
    rep, made, refused = _spy_dependent_products(monkeypatch, SizeCaps(64, 256))
    assert rep.ok
    assert refused == ["dependent product morphisms: 257 exceeds cap 256"]
    assert max(len(dp.asm.base.morphisms) for dp in made) <= 256


# --- fundamental groupoid -------------------------------------------------

def _pi_entries(pd):
    g = pd.gpd
    return (list(g.objects), list(g.mors.items()), list(g.comp.items()),
            list(g.ident.items()), list(g.inv.items()),
            list(pd.point_of), list(pd.path_of))


@settings(max_examples=25, deadline=None)
@given(SEEDS)
def test_pi_tables_match_the_generic_build(seed):
    gen = _gen(seed)
    a = gen.groupoid()
    fast = gen.r.pi(a)
    assert fast.gpd._comp is None  # built on first read, not at construction
    ref = _build_pi(gen.r, a)
    assert _pi_entries(fast) == _pi_entries(ref)
    # the points and paths built from a's objects and morphisms are the
    # functors the generic build enumerates, entry order included
    for got, want in ((fast.point_of, ref.point_of), (fast.path_of, ref.path_of)):
        for key, F in want.items():
            assert got[key] == F
            _same_functor(got[key], F)


@settings(max_examples=25, deadline=None)
@given(SEEDS)
def test_pi_map_matches_the_generic_map(seed):
    gen = _gen(seed)
    r = gen.r
    f = gen.rng.choice(functors_between(gen.small_groupoid(), gen.small_groupoid()))
    fast, ref = r.pi_map(f), _pi_map(r, f)
    assert fast.dom is ref.dom and fast.cod is ref.cod
    assert list(fast.omap.items()) == list(ref.omap.items())
    assert list(fast.mmap.items()) == list(ref.mmap.items())


def test_reordered_pi_table_fails_only_pi_iso_base(monkeypatch):
    relabel = GpdRealizer.build_pi

    def reversed_mors(self, a):
        pd = relabel(self, a)
        g = pd.gpd
        mors = dict(reversed(g.mors.items()))
        return PiData(FinGroupoid(g.objects, mors, g.comp, g.ident, g.inv),
                      pd.point_of, pd.path_of)

    monkeypatch.setattr(GpdRealizer, "build_pi", reversed_mors)
    rep = run_suite("fundamental-groupoid", SuiteConfig(seed=0))
    assert [e.name for e in rep.entries if not e.ok] == ["pi-iso-base"]
    bad = next(e for e in rep.entries if not e.ok)
    assert bad.counterexample.startswith("GRAL 1 COUNTEREXAMPLE pi-iso-base\n")
    assert replay_counterexample(bad.counterexample) is False


# --- pushout uniqueness ---------------------------------------------------

def _pushout_legs(r, x):
    """The composable leg pairs of both pushout checks at probe x."""
    iv = r.interval
    paths, doubles = r.hom(iv.I1, x), r.hom(iv.I2, x)
    legs2 = [(a, b) for a in paths for b in paths
             if r.compose(b, iv.zero) == r.compose(a, iv.one)]
    legs3 = [(u, v) for u in doubles for v in doubles
             if r.compose(u, iv.i1) == r.compose(v, iv.i0)]
    return legs2, legs3


def _assert_counts_match(r, x):
    iv = r.interval
    legs2, legs3 = _pushout_legs(r, x)
    assert legs2 and legs3
    for cands, e0, e1, legs in ((r.hom(iv.I2, x), iv.i0, iv.i1, legs2),
                                (r.hom(iv.I3, x), iv.j0, iv.j1, legs3)):
        counts = restriction_counts(r, cands, e0, e1)
        for pair in legs:
            assert counts[pair] == naive_count(r, cands, e0, e1, pair)


@pytest.mark.parametrize("probe", ["I0", "I1", "I2", "I3"])
def test_pushout_counts_match_naive_on_standard_probes(probe):
    r = gpd_interval()
    _assert_counts_match(r, getattr(r.interval, probe))


def test_pushout_counts_match_naive_on_an_assembly_probe():
    pr = pgasm_interval(gpd_interval())
    _assert_counts_match(pr, pr.interval.I2)


class _Delegate:
    """A realizer that hands what it does not define to the realizer `_r`."""

    def __getattr__(self, name):
        return getattr(self._r, name)


class _SkewedHom(_Delegate):
    """A realizer whose hom(src, dst) is altered; everything else delegates."""

    def __init__(self, r, src, dst, alter):
        self._r, self._src, self._dst, self._alter = r, src, dst, alter

    def hom(self, a, b):
        out = self._r.hom(a, b)
        if a is self._src and b is self._dst:
            return self._alter(list(out))
        return out


@pytest.mark.parametrize("domain,name", [("I2", "pushout-I2"), ("I3", "pushout-I3")])
@pytest.mark.parametrize("alter,found", [
    (lambda hs: hs + hs[:1], 2),
    (lambda hs: hs[1:], 0),
])
def test_pushout_check_counts_every_candidate(domain, name, alter, found):
    r = gpd_interval()
    iv = r.interval
    rep = check_cogroupoid(_SkewedHom(r, getattr(iv, domain), iv.I1, alter))
    assert rep.failed() == [name]
    assert (name, False, f"expected a unique copairing, found {found}") \
        in [(e.name, e.ok, e.detail) for e in rep.entries]


# --- the JSON writer --------------------------------------------------------

def json_reference(g):
    """`groupoid_to_json` as it was: the five tables through `json.dumps`."""
    return json.dumps({
        "format": "gral-1-groupoid",
        "objects": list(g.objects),
        "morphisms": [[m, *g.mors[m]] for m in g.morphisms],
        "id": {x: g.ident[x] for x in g.objects},
        "inv": {m: g.inv[m] for m in g.morphisms},
        "comp": [[a, b, c] for (a, b), c in sorted(g.comp.items())],
    }, indent=0, sort_keys=True)


def relabel(g, label):
    """`g` with every object and morphism id x renamed to label(x)."""
    return FinGroupoid(
        [label(x) for x in g.objects],
        {label(m): (label(s), label(t)) for m, (s, t) in g.mors.items()},
        {(label(a), label(b)): label(c) for (a, b), c in g.comp.items()},
        {label(x): label(i) for x, i in g.ident.items()},
        {label(m): label(i) for m, i in g.inv.items()})


# quotes, backslashes, control characters, non-ASCII and astral characters
AWKWARD = st.text(st.sampled_from('"\\\x00\x08\n\x1f\x7f é \U0001f600')
                  | st.characters(), max_size=3)


@settings(max_examples=40, deadline=None)
@given(SEEDS, AWKWARD, AWKWARD)
@example(0, "", "")
@example(1, '"\\', "\x00é\U0001f600")
def test_json_writer_matches_json_dumps(seed, prefix, suffix):
    g = _gen(seed).groupoid()
    for h in (g, relabel(g, lambda x: prefix + x + suffix)):
        text = groupoid_to_json(h)
        assert text == json_reference(h)
        assert groupoid_from_json(text) == h


def text_reference(g):
    """`serialize_groupoid` as it was: COMP rows in the order of the sorted
    `(key, composite)` items."""
    return "\n".join([
        "GRAL 1 GROUPOID", "OBJECTS", *g.objects,
        "MORPHISMS", *(f"{m} {s} {t}" for m, (s, t) in g.mors.items()),
        "ID", *(f"{x} {g.ident[x]}" for x in g.objects),
        "INV", *(f"{m} {g.inv[m]}" for m in g.morphisms),
        "COMP", *(f"{a} {b} {c}" for (a, b), c in sorted(g.comp.items())),
        "END"]) + "\n"


@settings(max_examples=40, deadline=None)
@given(SEEDS, st.randoms(use_true_random=False),
       st.sampled_from(["\x01", "!", "0", "~", "é"]))
def test_text_writer_matches_the_items_sorted_writer(seed, rnd, tail):
    # ids that are prefixes of one another, grown by a character that sorts
    # before or after the space between a row's tokens: the order of the
    # rows as text is not the order of their keys
    g = _gen(seed).groupoid()
    ids = [*g.objects, *g.morphisms]
    rnd.shuffle(ids)
    names = {x: "a" + tail * k for k, x in enumerate(ids)}
    for h in (g, relabel(g, names.__getitem__)):
        text = serialize_groupoid(h)
        assert text == text_reference(h)
        assert parse_groupoid(text) == h


@pytest.mark.parametrize("g", [
    FinGroupoid([], {}, {}, {}, {}),
    discrete(['"', "\\", "\x01", "é", " ", "\U0001f600"]),
    codiscrete(['a"b', "c\\d", "\t"]),
], ids=["empty", "discrete", "codiscrete"])
def test_json_writer_on_hand_built_groupoids(g):
    assert groupoid_to_json(g) == json_reference(g)
    assert groupoid_from_json(groupoid_to_json(g)) == g


# --- cylinders, transposes and evaluations ---------------------------------

def _same_functor(fast, ref):
    assert fast.dom is ref.dom and fast.cod is ref.cod
    assert list(fast.omap.items()) == list(ref.omap.items())
    assert list(fast.mmap.items()) == list(ref.mmap.items())


def _fill_or_error(fill, *paths):
    try:
        return fill(*paths)
    except BoundaryError as exc:
        return str(exc)


@settings(max_examples=25, deadline=None)
@given(SEEDS)
def test_fill_square_matches_the_hand_built_table(seed):
    gen = _gen(seed)
    r = gen.r
    paths = r.hom(r.interval.I1, gen.small_groupoid())
    filled = 0
    for top in paths:
        for bottom in paths:
            for left in paths:
                for right in paths:
                    quad = (top, bottom, left, right)
                    fast = _fill_or_error(r.fill_square, *quad)
                    ref = _fill_or_error(lambda *q: naive_fill_square(r, *q), *quad)
                    if isinstance(ref, str):
                        assert fast == ref
                    else:
                        _same_functor(fast, ref)
                        filled += 1
    assert filled >= len(paths)


def test_fill_square_keeps_its_boundary_errors():
    r = gpd_interval()
    a = codiscrete(["a", "b"])
    top, back, same = (path_of_morphism(r, a, m) for m in ("a~b", "b~a", "id_a"))
    assert r.fill_square(top, same, same, back) == naive_fill_square(r, top, same,
                                                                     same, back)
    with pytest.raises(BoundaryError, match="^square boundary paths do not share "
                                            "corners$"):
        r.fill_square(top, path_of_morphism(r, a, "id_b"), same, back)
    z2 = cyclic_group(2)
    turn, stay = (path_of_morphism(r, z2, m) for m in ("z1", "id_z*"))
    with pytest.raises(BoundaryError, match="^square of paths does not commute$"):
        r.fill_square(turn, stay, stay, stay)


@settings(max_examples=15, deadline=None)
@given(SEEDS)
def test_boundary_inv_matches_the_hand_built_table(seed):
    gen = _gen(seed)
    r = gen.r
    x, y = gen.small_groupoid(2), gen.small_groupoid(2)
    squares = [sq for sq in (_gen_square(r, gen, x, y) for _ in range(4))
               if sq is not None]
    assume(squares)
    for sq in squares:
        _same_functor(r.boundary_inv(sq), naive_boundary_inv(r, sq))


@settings(max_examples=10, deadline=None)
@given(SEEDS)
def test_transposes_and_evaluations_match_the_hand_built_tables(seed):
    # the weak-exponential beta draw of pgasm-ccc, with every transpose the
    # realizer builds compared as it is built
    gen = _gen(seed)
    r = gen.r
    transposes = []

    def spy(k, prod, base, target):
        out = GpdRealizer.transpose(r, k, prod, base, target)
        transposes.append((out, naive_transpose(r, k, prod, base, target)))
        return out

    r.transpose = spy
    iv = r.interval
    x = gen.assembly(base=gen.small_groupoid(2), rtype=iv.I1)
    y = gen.assembly(base=gen.small_groupoid(2), rtype=iv.I1)
    z = gen.assembly(base=gen.small_groupoid(2), rtype=iv.I0)
    try:
        w = weak_exponential(x, y)
    except SizeCapError:
        assume(False)
    zp = product_assembly(z, x)
    k = gen.morphism(zp.asm, y)
    assume(k is not None)
    transpose_morphism(w, k, zp)
    assert transposes
    for fast, ref in transposes:
        _same_functor(fast, ref)
    for e in r._exp_cache.values():
        raw = next(p for p in r._prod_cache.values() if p.gpd is e.ev.dom)
        _same_functor(e.ev, naive_eval(raw, e.ev.cod,
                                       e.raw.obj_to_functor, e.raw.mor_to_natiso))
    _same_functor(w.ev.fun, naive_eval(
        w.ev_src.raw_base, y.base, {o: d[0] for o, d in w.obj_data.items()},
        {m: d[0] for m, d in w.mor_data.items()}))


# --- the cogroupoid check ----------------------------------------------------

COGROUPOID_ENTRIES = [
    ("I0-terminal", True, "hom(X, I0) is a singleton for every probe"),
    ("endpoint-cocomposition-0", True, ""),
    ("endpoint-cocomposition-1", True, ""),
    ("coidentity-endpoints", True, "star absorbs both endpoints"),
    ("sigma-endpoints", True, "sigma swaps the endpoints"),
    ("sigma-involution", True, ""),
    ("coidentity", True, "copairing with a degenerate path is neutral"),
    ("coassociativity", True, ""),
    ("coinverse-left", True, ""),
    ("coinverse-right", True, "checked with codomain I1 (symmetric form)"),
    ("pushout-I2", True, ""),
    ("pushout-I3", True, ""),
]


@pytest.mark.parametrize("make", [
    gpd_interval, lambda: pgasm_interval(gpd_interval()),
], ids=["groupoids", "assemblies"])
def test_cogroupoid_entries_are_pinned(make):
    rep = check_cogroupoid(make())
    assert [(e.name, e.ok, e.detail) for e in rep.entries] == COGROUPOID_ENTRIES


class _SwappedCopair(_Delegate):
    """A realizer whose copair on `domain` takes its legs the other way
    round wherever they also meet that way; everything else delegates."""

    def __init__(self, r, domain):
        self._r, self._domain = r, domain

    def copair2(self, beta, alpha):
        if self._domain == "I2":
            try:
                return self._r.copair2(alpha, beta)
            except BoundaryError:
                pass
        return self._r.copair2(beta, alpha)

    def copair3(self, u, v):
        if self._domain == "I3":
            try:
                return self._r.copair3(v, u)
            except BoundaryError:
                pass
        return self._r.copair3(u, v)


@pytest.mark.parametrize("domain", ["I2", "I3"])
def test_pushout_check_catches_a_copair_that_swaps_its_legs(domain):
    rep = check_cogroupoid(_SwappedCopair(gpd_interval(), domain))
    name = f"pushout-{domain}"
    assert (name, False, "copair does not restrict to its legs") \
        in [(e.name, e.ok, e.detail) for e in rep.entries]


# --- transports along a cleavage --------------------------------------------
#
# Each reference is the hand-written loop that built one transport along
# chosen lifts: G x = tgt theta_x, G m = theta_t . F m . theta_s^-1, and at
# the assembly level the witness rfun(theta_x) . eps_x.

def naive_transport(fib, q):
    y, y2 = fib.tgt.base.mors[q]
    fy, fy2 = fib.fibre(y), fib.fibre(y2)
    base = fib.src.base
    omap = {o: base.tgt(fib.lift(o, q)) for o in fy.base.objects}
    mmap = {}
    for m in fy.base.morphisms:
        s, t = fy.base.mors[m]
        mmap[m] = base.compose_path(fib.lift(t, q), m,
                                    base.inv_of(fib.lift(s, q)))
    comps = {o: fib.src.rfun.mmap[fib.lift(o, q)] for o in fy.base.objects}
    return fy, fy2, omap, mmap, comps


def naive_pc7_section(f, pinv, psi):
    y_asm, x_asm = f.tgt, f.src
    lifts = {yo: f.lift(pinv.fun.omap[yo], psi.iso.components[yo])
             for yo in y_asm.base.objects}
    omap = {yo: x_asm.base.tgt(lifts[yo]) for yo in y_asm.base.objects}
    mmap = {}
    for q in y_asm.base.morphisms:
        s, t = y_asm.base.mors[q]
        mmap[q] = x_asm.base.compose_path(lifts[t], pinv.fun.mmap[q],
                                          x_asm.base.inv_of(lifts[s]))
    pix = x_asm.pi.gpd
    comps = {yo: pix.compose(x_asm.rfun.mmap[lifts[yo]], pinv.eps.components[yo])
             for yo in y_asm.base.objects}
    return omap, mmap, comps


def naive_pc8_t(g, g_equiv, f):
    h = g_equiv.bwd
    psi = invert_nat_iso(g_equiv.counit.iso)
    x_asm, y_asm = f.src, g.src
    lifts = {xo: g.lift(h.fun.omap[f.fun.omap[xo]],
                        psi.components[f.fun.omap[xo]])
             for xo in x_asm.base.objects}
    omap = {xo: y_asm.base.tgt(lifts[xo]) for xo in x_asm.base.objects}
    mmap = {}
    for p in x_asm.base.morphisms:
        s, t = x_asm.base.mors[p]
        mmap[p] = y_asm.base.compose_path(
            lifts[t], h.fun.mmap[f.fun.mmap[p]], y_asm.base.inv_of(lifts[s]))
    r = x_asm.r
    pih = r.pi_map(h.e)
    piy = y_asm.pi.gpd
    comps = {xo: piy.compose(y_asm.rfun.mmap[lifts[xo]],
                             piy.compose(h.eps.components[f.fun.omap[xo]],
                                         pih.mmap[f.eps.components[xo]]))
             for xo in x_asm.base.objects}
    return omap, mmap, comps, r.compose(h.e, f.e)


def naive_chosen_lift_functor(pod, oid, pmor):
    x, w = pod.x, pod.pobj
    split = {mid: pq for pq, mid in pod.prod.raw_base.mpair.items()}
    F = w.obj_data[oid][0]
    p1, p2 = split[pmor]
    gi = x.base.compose_path(p2, F.mmap["p01"], x.base.inv_of(p1))
    return GFunctor(F.dom, x.base,
                    {"0": x.base.tgt(p1), "1": x.base.tgt(p2)},
                    {"id_0": x.base.id_of(x.base.tgt(p1)),
                     "id_1": x.base.id_of(x.base.tgt(p2)),
                     "p01": gi, "p10": x.base.inv_of(gi)})


def naive_dp_sections(dp, r_mor, s, fw):
    """The functor H carried by T w, for each object w of W in turn."""
    g, f = dp.g, dp.f
    x_asm, y_asm = g.src, g.tgt
    raw = fw.raw_base
    out = []
    for w in r_mor.src.base.objects:
        hf = dp.fibres[r_mor.fun.omap[w]]
        lifts, etas, h_omap = {}, {}, {}
        for oid, (y, u) in hf.data_of.items():
            l = f.lift(y, u)
            s_obj = s.fun.omap[raw.opair[(y_asm.base.tgt(l), w)]]
            et = g.lift(s_obj, y_asm.base.inv_of(l))
            lifts[oid], etas[oid] = l, et
            h_omap[oid] = x_asm.base.tgt(et)
        h_mmap = {}
        for (q, u), mid in hf.mor_of.items():
            src_oid, tgt_oid = hf.asm.base.mors[mid]
            l1, l2 = lifts[src_oid], lifts[tgt_oid]
            sigma1 = y_asm.base.compose_path(l2, q, y_asm.base.inv_of(l1))
            smor = s.fun.mmap[raw.mpair[(sigma1, r_mor.src.base.id_of(w))]]
            h_mmap[mid] = x_asm.base.compose_path(
                etas[tgt_oid], smor, x_asm.base.inv_of(etas[src_oid]))
        out.append(GFunctor(hf.asm.base, x_asm.base, h_omap, h_mmap))
    return out


def naive_equivalence_inverse(f):
    dom, cod = f.dom, f.cod
    for a in dom.objects:
        for b in dom.objects:
            seen = {}
            for m in dom.hom(a, b):
                fm = f.mmap[m]
                if fm in seen:
                    return EquivalenceFailure("faithful", f"{seen[fm]} and {m} collapse")
                seen[fm] = m
            for v in cod.hom(f.omap[a], f.omap[b]):
                if v not in seen:
                    return EquivalenceFailure("full", f"{v} has no preimage in hom({a},{b})")
    theta, bwd_o = {}, {}
    for y in sorted(cod.objects):
        for a in sorted(dom.objects, key=lambda a: (f.omap[a] != y, a)):
            isos = sorted(cod.hom(y, f.omap[a]),
                          key=lambda m: (not cod.is_identity(m), m))
            if isos:
                bwd_o[y] = a
                theta[y] = isos[0]
                break
        else:
            return EquivalenceFailure("essentially-surjective",
                                      f"{y} not isomorphic to any image")

    def preimage(a, b, v):
        return next(m for m in dom.hom(a, b) if f.mmap[m] == v)
    bwd_m = {}
    for q in cod.morphisms:
        y, y2 = cod.mors[q]
        v = cod.compose_path(theta[y2], q, cod.inv_of(theta[y]))
        bwd_m[q] = preimage(bwd_o[y], bwd_o[y2], v)
    unit_c = {a: preimage(a, bwd_o[f.omap[a]], theta[f.omap[a]]) for a in dom.objects}
    return bwd_o, bwd_m, unit_c, theta


def _same_entries(fun, omap, mmap):
    assert list(fun.omap.items()) == list(omap.items())
    assert list(fun.mmap.items()) == list(mmap.items())


def _same_realized(m, src, tgt, omap, mmap, e, comps):
    assert m.src is src and m.tgt is tgt
    assert m.fun.dom is src.base and m.fun.cod is tgt.base
    _same_entries(m.fun, omap, mmap)
    assert m.e == e
    assert list(m.eps.components.items()) == list(comps.items())


def _acyclic(gen, pg):
    """An acyclic fibration drawn as path-axioms draws one, but with rich
    realizer types so that the witnesses are not all identities, and its
    equivalence data, or None."""
    fib = gen.acyclic_fibration(base=gen.assembly(base=gen.small_groupoid(2)))
    eq = as_equivalence(pg, fib.morphism)
    return None if eq is None else (fib, eq)


@settings(max_examples=15, deadline=None)
@given(SEEDS)
def test_transports_match_the_hand_built_tables(seed):
    gen = _gen(seed)
    fib, _total = gen.split_fibration()
    r = gen.r
    for q in fib.tgt.base.morphisms:
        fy, fy2, omap, mmap, comps = naive_transport(fib, q)
        _same_realized(fib.transport(q), fy, fy2, omap, mmap,
                       r.identity(fib.src.rtype), comps)


@settings(max_examples=15, deadline=None)
@given(SEEDS)
def test_sections_match_the_hand_built_tables(seed):
    gen = _gen(seed)
    pg = pgasm_interval(gen.r)
    drawn = _acyclic(gen, pg)
    assume(drawn is not None)
    fib, eq = drawn
    # any psi: F.G => id will do; the counit's inverse is the identity
    # wherever G picks strict preimages, so draw one of all of them
    fg, idy = compose_morphisms(fib.morphism, eq.bwd), identity_morphism(fib.tgt)
    psi = twocell_from_iso(pg, gen.rng.choice(nat_isos_between(fg.fun, idy.fun)),
                           fg, idy)
    omap, mmap, comps = naive_pc7_section(fib, eq.bwd, psi)
    _same_realized(pc7_section(fib, eq.bwd, psi), fib.tgt, fib.src,
                   omap, mmap, eq.bwd.e, comps)


@settings(max_examples=15, deadline=None)
@given(SEEDS)
def test_pullback_pseudoinverses_match_the_hand_built_tables(seed):
    gen = _gen(seed)
    pg = pgasm_interval(gen.r)
    drawn = _acyclic(gen, pg)
    assume(drawn is not None)
    gfib, geq = drawn
    x = gen.assembly(base=gen.small_groupoid(2))
    f = gen.morphism(x, gfib.tgt)
    assume(f is not None)
    pairs = []
    pair = ProductAssembly.pair

    def spy(self, m1, m2):
        pairs.append((self, m2))
        return pair(self, m1, m2)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ProductAssembly, "pair", spy)
        pb, _s_mor, _sigma = pc8_pseudoinverse(gfib, geq, f, pg)
    [t_mor] = [m2 for prod, m2 in pairs if prod is pb]
    omap, mmap, comps, e = naive_pc8_t(gfib, geq, f)
    _same_realized(t_mor, x, gfib.src, omap, mmap, e, comps)


@settings(max_examples=10, deadline=None)
@given(SEEDS)
def test_chosen_path_lifts_match_the_hand_built_functors(seed):
    gen = _gen(seed)
    pg = pgasm_interval(gen.r)
    pod = path_object(gen.assembly(base=gen.small_groupoid(2)), pg)
    found = []
    obj_id = WeakExpObject.obj_id

    def spy(self, F, point_id, eps):
        found.append(F)
        return obj_id(self, F, point_id, eps)

    prod_base = pod.prod.asm.base
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(WeakExpObject, "obj_id", spy)
        for oid in list(pod.pobj.asm.base.objects)[:3]:
            for pm in prod_base.out_of(pod.st.fun.omap[oid]):
                found.clear()
                pod.chosen_lift(oid, pm)
                ref = naive_chosen_lift_functor(pod, oid, pm)
                # the reference lists the identities first; the lift lists
                # the interval's morphisms in order, and the object index
                # reads them in that order
                assert found[-1] == ref
                assert found[-1].omap == ref.omap and found[-1].mmap == ref.mmap


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 16))
@example(seed=2733)  # its first draw exceeds the default caps, its next does not
def test_dependent_transposes_match_the_hand_built_sections(seed):
    # the weak-pi draws, with the sections of every transpose compared
    drawn = []
    transpose, obj_id = suites.dp_transpose, DepProd.obj_id

    def spy_transpose(dp, r_mor, s, fw):
        found = []
        with pytest.MonkeyPatch.context() as inner:
            inner.setattr(DepProd, "obj_id",
                          lambda self, z, H, point, eps:
                          found.append(H) or obj_id(self, z, H, point, eps))
            out = transpose(dp, r_mor, s, fw)
        drawn.append((found, naive_dp_sections(dp, r_mor, s, fw)))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(suites, "dp_transpose", spy_transpose)
        run_suite("weak-pi", SuiteConfig(seed=seed, counts={"instances": 2}))
    assume(drawn)
    for found, refs in drawn:
        assert len(found) == len(refs)
        for fast, ref in zip(found, refs):
            assert fast.dom is ref.dom and fast.cod is ref.cod
            _same_entries(fast, ref.omap, ref.mmap)


@settings(max_examples=25, deadline=None)
@given(SEEDS)
def test_equivalence_inverses_match_the_hand_built_tables(seed):
    gen = _gen(seed)
    x = gen.small_groupoid()
    blow = codiscrete([f"{gen._tag()}b{i}" for i in range(gen.rng.randrange(1, 3))])
    funs = [product(x, blow).p1,
            gen.rng.choice(functors_between(x, gen.small_groupoid()))]
    for fun in funs:
        got, ref = equivalence_inverse(fun), naive_equivalence_inverse(fun)
        if isinstance(ref, EquivalenceFailure):
            assert got == ref
            continue
        bwd_o, bwd_m, unit_c, theta = ref
        assert got.bwd.dom is fun.cod and got.bwd.cod is fun.dom
        _same_entries(got.bwd, bwd_o, bwd_m)
        assert list(got.unit.components.items()) == list(unit_c.items())
        assert list(got.counit.components.items()) == list(theta.items())


# --- evaluations, paired realizers and paths evaluated once ---------------

def naive_paired_rfun(x, y, raw):
    """`_paired_assembly`'s realizer tables as it built them: every pair of
    points and paths paired anew."""
    r = x.r
    rprod = r.product(x.rtype, y.rtype)
    pix, piy = x.pi, y.pi
    omap = {}
    mmap = {}
    for (a, b), oid in raw.opair.items():
        omap[oid] = r.pi_obj_id(rprod.pair(pix.point_of[x.rfun.omap[a]],
                                           piy.point_of[y.rfun.omap[b]]))
    for (m, n), mid in raw.mpair.items():
        mmap[mid] = r.pi_mor_id(rprod.pair(pix.path_of[x.rfun.mmap[m]],
                                           piy.path_of[y.rfun.mmap[n]]))
    return omap, mmap


def naive_weak_evaluation(w):
    """The evaluation as `weak_exponential` built it at construction: the
    base product, the evaluation functor, the realizer and the witness."""
    x, y, r = w.exponent, w.target, w.asm.r
    raw = r.product(w.asm.base, x.base)
    fun = naive_eval(raw, y.base, {o: d[0] for o, d in w.obj_data.items()},
                     {m: d[0] for m, d in w.mor_data.items()})
    comps = {}
    for (o, xo), oid in raw.opair.items():
        comps[oid] = w.obj_data[o][2].components[xo]
    return raw, fun, r.exponential(x.rtype, y.rtype).ev, comps


def naive_evaluate_paths(r, paths, points, base, target):
    """Every path evaluated at every point, one uncurrying per pair, as
    `_eval_path_at_point` did."""
    iv = r.interval
    out = {}
    for mo, pf in paths.items():
        per = {}
        for k, pt in points.items():
            mu = r.uncurry(pf, base, target)
            p = r.product(iv.I1, base)
            leg = p.pair(r.identity(iv.I1), r.compose(pt, r.terminal_map(iv.I1)))
            per[k] = r.pi_mor_id(r.compose(mu, leg))
        out[mo] = per
    return out


def _weak_exponential(gen):
    iv = gen.r.interval
    x = gen.assembly(base=gen.small_groupoid(2), rtype=iv.I1)
    y = gen.assembly(base=gen.small_groupoid(2),
                     rtype=gen.rng.choice([iv.I0, iv.I1]))
    try:
        return weak_exponential(x, y)
    except SizeCapError:
        return None


@settings(max_examples=15, deadline=None)
@given(SEEDS)
def test_evaluation_on_first_read_matches_the_eager_construction(seed):
    w = _weak_exponential(_gen(seed))
    assume(w is not None)
    assert "ev" not in vars(w) and "ev_src" not in vars(w)
    raw, fun, e, comps = naive_weak_evaluation(w)
    src = w.ev_src
    assert src.raw_base is raw and src.asm.base is raw.gpd
    assert src.rprod is w.asm.r.product(w.asm.rtype, w.exponent.rtype)
    _same_entries(src.asm.rfun, *naive_paired_rfun(w.asm, w.exponent, raw))
    assert (src.p1.fun, src.p2.fun) == (raw.p1, raw.p2)
    assert (src.p1.e, src.p2.e) == (src.rprod.p1, src.rprod.p2)
    _same_realized(w.ev, src.asm, w.target, fun.omap, fun.mmap, e, comps)
    assert w.ev is w.ev and w.ev_src is src  # built once


@settings(max_examples=20, deadline=None)
@given(SEEDS)
def test_paired_assemblies_match_the_unmemoized_pairing(seed):
    gen = _gen(seed)
    rx, ry = gen.rtype(), gen.rtype()
    xs = [gen.assembly(rtype=rx) for _ in range(2)]
    ys = [gen.assembly(rtype=ry) for _ in range(2)]
    key = (rx.serial, ry.serial)
    assert key not in gen.r._pi_pairs
    # the first product fills the memo; the others over the same realizer
    # types read what it left there
    for x, y in ((xs[0], ys[0]), (xs[1], ys[1]), (xs[0], ys[1]), (xs[1], ys[0])):
        p = product_assembly(x, y)
        _same_entries(p.asm.rfun, *naive_paired_rfun(x, y, p.raw_base))
        points, paths = gen.r._pi_pairs[key]
        assert points and paths


def _tables_of(asm, mor_data):
    g = asm.base
    return (g.objects, list(g.mors.items()), list(g.comp.items()),
            list(g.ident.items()), list(g.inv.items()),
            list(asm.rfun.omap.items()), list(asm.rfun.mmap.items()),
            [(m, d[:-2], d[-2].key(), d[-1]) for m, d in mor_data.items()])


def _with_paths_evaluated_per_point(build, module):
    """build() twice: as it is, and with every path evaluated at every point;
    the second run records the points evaluated at."""
    seen = []

    def per_point(r, paths, points, base, target):
        seen.append(points)
        return naive_evaluate_paths(r, paths, points, base, target)

    fast = build()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "_evaluate_paths", per_point)
        ref = build()
    return fast, ref, seen


@settings(max_examples=15, deadline=None)
@given(SEEDS)
def test_weak_exponential_tables_match_the_per_point_evaluation(seed):
    fast, ref, seen = _with_paths_evaluated_per_point(
        lambda: _weak_exponential(_gen(seed)), assemblies)
    assume(fast is not None)
    assert _tables_of(fast.asm, fast.mor_data) == _tables_of(ref.asm, ref.mor_data)
    # the points are those of the exponent's realizer at its objects
    x = ref.exponent
    assert [(xo, pt.omap) for xo, pt in seen[-1].items()] == [
        (xo, x.pi.point_of[x.rfun.omap[xo]].omap) for xo in x.base.objects]


@settings(max_examples=15, deadline=None)
@given(SEEDS)
def test_dependent_product_tables_match_the_per_point_evaluation(seed):
    fast, ref, seen = _with_paths_evaluated_per_point(
        lambda: _pif(_gen(seed)), depprod)
    assume(fast is not None)
    assert _tables_of(fast.asm, fast.mor_data) == _tables_of(ref.asm, ref.mor_data)
    # every realizer point of every fibre object is evaluated at
    assert set(seen[-1]) == {hf.asm.rfun.omap[o] for hf in ref.fibres.values()
                             for o in hf.data_of}


def test_path_objects_and_modesty_build_no_evaluation(monkeypatch):
    evaluated, checked, path_objects = [], [], []
    build, modest, path_obj = (assemblies.product_assembly, suites.is_modest,
                               suites.path_object)

    def spy_product(x, y):
        evaluated.append(x)
        return build(x, y)

    monkeypatch.setattr(assemblies, "product_assembly", spy_product)
    monkeypatch.setattr(suites, "is_modest",
                        lambda a: checked.append(a) or modest(a))
    monkeypatch.setattr(suites, "path_object",
                        lambda *args: path_objects.append(path_obj(*args))
                        or path_objects[-1])
    # the acceptance counts
    assert run_suite("pgasm-ccc", SuiteConfig(seed=0,
                                              counts={"beta": 20, "modest": 10})).ok
    assert run_suite("path-axioms", SuiteConfig(seed=0, counts={
        "assemblies": 20, "fibrations": 30, "pc7": 20, "pc8": 20, "brown": 10})).ok
    assert len(checked) >= 10 and len(path_objects) >= 20
    # the beta check reads its evaluations, and the spy sees them built ...
    assert evaluated
    # ... but no modesty instance builds one, and a path object's assembly
    # is paired only once, with I1, for the cylinder of its counit, which
    # the evaluation's source would repeat
    assert not any(a is b for a in checked for b in evaluated)
    assert [sum(pod.pobj.asm is b for b in evaluated) for pod in path_objects] == \
        [1] * len(path_objects)
    assert not any({"ev", "ev_src"} & set(vars(pod.pobj)) for pod in path_objects)


# --- the self-realized interval, paired Pi ids, fibration closure -----------

def naive_pgasm_interval(r):
    """The assemblies' interval as `pgasm_interval` built it: private copies
    of I1-I3 realized by listed corners and generators, and the table of
    every chain structure map written out."""
    iv = r.interval
    term = terminal_assembly(r)
    c = r.compose

    def chain_assembly(k, corners, gens):
        base = chain_groupoid(k)
        rtype = gens[0].cod
        rfun = _chain_functor(base, r.pi(rtype).gpd,
                              {str(j): r.pi_obj_id(p) for j, p in enumerate(corners)},
                              {f"p{j}{j + 1}": r.pi_mor_id(g) for j, g in enumerate(gens)})
        return Assembly(r, base, rtype, rfun)

    i1a = chain_assembly(1, [iv.zero, iv.one], [r.identity(iv.I1)])
    i2a = chain_assembly(2, [c(iv.i0, iv.zero), c(iv.i0, iv.one), c(iv.i1, iv.one)],
                         [iv.i0, iv.i1])
    i3a = chain_assembly(3, [c(iv.j0, c(iv.i0, iv.zero)), c(iv.j0, c(iv.i0, iv.one)),
                             c(iv.j0, c(iv.i1, iv.one)), c(iv.j1, c(iv.i1, iv.one))],
                         [c(iv.j0, iv.i0), c(iv.j0, iv.i1), c(iv.j1, iv.i1)])

    def chain_map(src, tgt, omap, gen, e):
        return _identity_eps(src, tgt, _chain_functor(src.base, tgt.base, omap, gen), e)

    def point_map(tgt, obj, e):
        fun = GFunctor(term.base, tgt.base, {"T": obj},
                       {term.base.id_of("T"): tgt.base.id_of(obj)})
        return _identity_eps(term, tgt, fun, e)

    star_fun = GFunctor(i1a.base, term.base, {o: "T" for o in i1a.base.objects},
                        {m: term.base.id_of("T") for m in i1a.base.morphisms})
    return IntervalData(
        term, i1a, i2a, i3a, point_map(i1a, "0", iv.zero), point_map(i1a, "1", iv.one),
        _identity_eps(i1a, term, star_fun, iv.star),
        chain_map(i1a, i1a, {"0": "1", "1": "0"}, {"p01": "p10"}, iv.sigma),
        chain_map(i1a, i2a, {"0": "0", "1": "2"}, {"p01": "p02"}, iv.two),
        chain_map(i1a, i2a, {"0": "0", "1": "1"}, {"p01": "p01"}, iv.i0),
        chain_map(i1a, i2a, {"0": "1", "1": "2"}, {"p01": "p12"}, iv.i1),
        chain_map(i2a, i3a, {"0": "0", "1": "1", "2": "2"},
                  {"p01": "p01", "p12": "p12"}, iv.j0),
        chain_map(i2a, i3a, {"0": "1", "1": "2", "2": "3"},
                  {"p01": "p12", "p12": "p23"}, iv.j1))


def _asm_entries(a):
    g = a.base
    return (g.objects, dict(g.mors), dict(g.comp), dict(g.ident), dict(g.inv),
            a.rtype.serial, dict(a.rfun.omap), dict(a.rfun.mmap))


def _ends(data, m):
    """The names of m's source and target among data's assemblies."""
    names = ("I0", "I1", "I2", "I3")
    return tuple(next(k for k in names if getattr(data, k) is a) for a in (m.src, m.tgt))


def test_self_realized_interval_matches_the_listed_corners():
    r = gpd_interval()
    iv = r.interval
    got, ref = pgasm_interval(r).interval, naive_pgasm_interval(r)
    for name in ("I0", "I1", "I2", "I3"):
        assert _asm_entries(getattr(got, name)) == _asm_entries(getattr(ref, name)), name
        assert validate_assembly(getattr(got, name)).ok
    assert got.I1.base is iv.I1 and got.I2.base is iv.I2 and got.I3.base is iv.I3
    for name in ("zero", "one", "star", "sigma", "two", "i0", "i1", "j0", "j1"):
        m, n = getattr(got, name), getattr(ref, name)
        s, t = _ends(ref, n)
        assert m.src is getattr(got, s) and m.tgt is getattr(got, t), name
        assert m.fun.dom is m.src.base and m.fun.cod is m.tgt.base
        assert (m.fun.omap, m.fun.mmap, m.e, m.eps.components) == \
            (n.fun.omap, n.fun.mmap, n.e, n.eps.components), name
        assert validate_morphism(m).ok


@settings(max_examples=25, deadline=None)
@given(SEEDS)
def test_pi_pair_matches_the_labelled_pair_functor(seed):
    gen = _gen(seed)
    r = gen.r
    a = gen.rng.choice([gen.rtype(), gen.small_groupoid()])
    b = gen.rng.choice([gen.rtype(), gen.small_groupoid()])
    prod = r.product(a, b)
    pa, pb = r.pi(a), r.pi(b)
    for u, pu in pa.point_of.items():
        for v, pv in pb.point_of.items():
            assert r.pi_pair(prod, u, v) == r.pi_obj_id(prod.pair(pu, pv))
    for u, pu in pa.path_of.items():
        for v, pv in pb.path_of.items():
            assert r.pi_pair(prod, u, v) == r.pi_mor_id(prod.pair(pu, pv))


def naive_pc1(morphisms):
    """`pc1_isos_are_fibrations` as it was: every pooled morphism's
    fibration verdict decided anew wherever it is asked for."""
    for m in morphisms:
        if pathcat._is_iso_functor(m.fun) and not isinstance(is_fibration(m), FibrationData):
            return False
    for m1 in morphisms:
        for m2 in morphisms:
            if m1.tgt != m2.src:
                continue
            if isinstance(is_fibration(m1), FibrationData) \
                    and isinstance(is_fibration(m2), FibrationData):
                if not isinstance(is_fibration(compose_morphisms(m2, m1)),
                                  FibrationData):
                    return False
    return True


@settings(max_examples=10, deadline=None)
@given(SEEDS)
def test_fibration_closure_decides_each_pooled_morphism_once(seed):
    gen = _gen(seed)
    xs = [gen.assembly(base=gen.small_groupoid(2)) for _ in range(4)]
    pool = [m for m in (gen.morphism(gen.rng.choice(xs), gen.rng.choice(xs))
                        for _ in range(8)) if m is not None]
    pool += [identity_morphism(x) for x in xs[:2]]
    asked = []
    decide = pathcat.is_fibration
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pathcat, "is_fibration", lambda m: asked.append(m) or decide(m))
        got = pc1_isos_are_fibrations(pool)
    assert got == naive_pc1(pool)
    pooled = [id(m) for m in asked if any(m is p for p in pool)]
    assert len(pooled) == len(set(pooled))
