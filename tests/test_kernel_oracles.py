"""The composable-pair scans against the all-pairs scans they replace.

Each reference below is the loop the kernel ran before it indexed morphisms
by source and target: it visits every pair (or triple) of morphisms and
skips the ones that do not compose.  The kernel must build the same tables,
in the same insertion order, and report the same failures.  The groupoid
instance's fundamental groupoid, built as the base groupoid relabelled, is
held to the generic construction the same way, and so are the composition
tables of the dependent product and the weak exponential, which the kernel
builds from component tuples instead of one natural isomorphism per pair.
The JSON writer is held to the `json.dumps` call it replaces, byte for byte.
The fault injections show that each faster check can still fail.
"""

import json
import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gral.assemblies import PGAsmRealizer, weak_exponential
from gral.depprod import dependent_product, fibre_map
from gral.errors import SizeCapError, StructuralError
from gral.generators import Gen
from gral.groupoids import (
    FinGroupoid, NatIso, SizeCaps, codiscrete, compose_functors, discrete,
    exponential, functors_between, iso_comma, pair_id, product, pullback,
    triple_id, validate_groupoid, vcompose_nat_isos,
)
from gral.generators import SuiteConfig
from gral.interval import (
    GpdRealizer, PiData, RealizerCategory, _build_pi, check_cogroupoid,
    gpd_interval, restriction_counts,
)
from gral.pathcat import FibrationData, is_fibration
from gral.suites import replay_counterexample, run_suite
from gral.textfmt import groupoid_from_json, groupoid_to_json

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
               if r.map_eq(r.compose(m, e0), a) and r.map_eq(r.compose(m, e1), b))


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
    assert list(product(x, y).gpd.comp.items()) == \
        list(naive_paired_comp(x, y, ms).items())


@settings(max_examples=25, deadline=None)
@given(SEEDS)
def test_pullback_comp_matches_naive(seed):
    f, g = _cospan(_gen(seed))
    x, y = f.dom, g.dom
    ms = [(m, n) for m in x.morphisms for n in y.morphisms if f.mmap[m] == g.mmap[n]]
    assert list(pullback(f, g).gpd.comp.items()) == \
        list(naive_paired_comp(x, y, ms).items())


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
    assert _pi_entries(gen.r.pi(a)) == _pi_entries(_build_pi(gen.r, a))


@settings(max_examples=25, deadline=None)
@given(SEEDS)
def test_pi_map_matches_the_generic_map(seed):
    gen = _gen(seed)
    r = gen.r
    f = gen.rng.choice(functors_between(gen.small_groupoid(), gen.small_groupoid()))
    fast, ref = r.pi_map(f), RealizerCategory.pi_map(r, f)
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
             if r.map_eq(r.compose(b, iv.zero), r.compose(a, iv.one))]
    legs3 = [(u, v) for u in doubles for v in doubles
             if r.map_eq(r.compose(u, iv.i1), r.compose(v, iv.i0))]
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
    pr = PGAsmRealizer(gpd_interval())
    _assert_counts_match(pr, pr.interval.I2)


class _SkewedHom:
    """A realizer whose hom(src, dst) is altered; everything else delegates."""

    def __init__(self, r, src, dst, alter):
        self._r, self._src, self._dst, self._alter = r, src, dst, alter

    def hom(self, a, b):
        out = self._r.hom(a, b)
        if a is self._src and b is self._dst:
            return self._alter(list(out))
        return out

    def __getattr__(self, name):
        return getattr(self._r, name)


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


@pytest.mark.parametrize("g", [
    FinGroupoid([], {}, {}, {}, {}),
    discrete(['"', "\\", "\x01", "é", " ", "\U0001f600"]),
    codiscrete(['a"b', "c\\d", "\t"]),
], ids=["empty", "discrete", "codiscrete"])
def test_json_writer_on_hand_built_groupoids(g):
    assert groupoid_to_json(g) == json_reference(g)
    assert groupoid_from_json(groupoid_to_json(g)) == g
