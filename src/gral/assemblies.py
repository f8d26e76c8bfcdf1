"""Partitioned groupoidal assemblies over a realizer category.

An assembly is a finite groupoid whose objects and isomorphisms carry
chosen realizers: points and paths in the fundamental groupoid of a
realizer object.  Morphisms and 2-cells carry explicit witnesses (a
realizer map plus a natural isomorphism filling the realizability
square); equality is always equality of underlying functors, and a
validator replaces the existence quantifier of the quotient description.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Optional

from .errors import BoundaryError, SizeCapError, StructuralError
from .groupoids import (
    FinGroupoid, GFunctor, NatIso, ProductGpd, Report,
    check_product_caps, composable_pairs, compose_functors, curry, evaluation,
    fully_faithful_failure, functors_between, identity_functor,
    identity_nat_iso, invert_nat_iso, is_functor, is_nat_iso,
    nat_isos_between, terminal_groupoid, vcompose_nat_isos, whisker_left,
    whisker_right,
)
from .interval import GpdRealizer, IntervalData, Map, nat_iso_functor_form

_asm_counter = itertools.count()


class Assembly:
    """Triple (base groupoid, realizer object, realizability functor)."""

    __slots__ = ("r", "base", "rtype", "rfun", "serial")

    def __init__(self, r: GpdRealizer, base: FinGroupoid, rtype: Any,
                 rfun: GFunctor):
        self.r = r
        self.base = base
        self.rtype = rtype
        self.rfun = rfun
        self.serial = next(_asm_counter)

    @property
    def pi(self):
        return self.r.pi(self.rtype)

    def key(self) -> tuple:
        return (self.base.serial, self.rtype.serial, self.rfun.key())

    def __eq__(self, other) -> bool:
        return isinstance(other, Assembly) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"Assembly({len(self.base.objects)} objects over {self.rtype!r})"


def validate_assembly(a: Assembly) -> Report:
    rep = is_functor(a.rfun)
    if a.rfun.dom.serial != a.base.serial:
        rep.add("rfun-dom", False, "realizability functor not defined on the base")
    if a.rfun.cod.serial != a.pi.gpd.serial:
        rep.add("rfun-cod", False, "realizability functor does not land in Pi(rtype)")
    return rep


class RealizedMorphism:
    """A functor of bases together with a carried witness (e, eps).

    eps has components eps_x : Pi(e)(|x|) -> |F x| and witnesses that e
    implements F up to natural isomorphism.  Witnesses never participate
    in equality.
    """

    __slots__ = ("src", "tgt", "fun", "e", "eps")

    def __init__(self, src: Assembly, tgt: Assembly, fun: GFunctor,
                 e: Map, eps: NatIso):
        self.src = src
        self.tgt = tgt
        self.fun = fun
        self.e = e
        self.eps = eps

    def __eq__(self, other) -> bool:
        return (isinstance(other, RealizedMorphism)
                and self.src == other.src and self.tgt == other.tgt
                and self.fun == other.fun)

    def __hash__(self) -> int:
        return hash((self.src.key(), self.tgt.key(), self.fun.key()))

    def __repr__(self) -> str:
        return f"RealizedMorphism({self.fun!r})"


def validate_morphism(m: RealizedMorphism) -> Report:
    rep = Report()
    r = m.src.r
    if m.fun.dom.serial != m.src.base.serial or m.fun.cod.serial != m.tgt.base.serial:
        rep.add("fun-boundary", False, "underlying functor boundary mismatch")
        return rep
    rep.merge(is_functor(m.fun))
    if m.e.dom.serial != m.src.rtype.serial \
            or m.e.cod.serial != m.tgt.rtype.serial:
        rep.add("realizer-boundary", False, "realizer map boundary mismatch")
        return rep
    left = compose_functors(r.pi_map(m.e), m.src.rfun)
    right = compose_functors(m.tgt.rfun, m.fun)
    if m.eps.src != left:
        rep.add("eps-src", False, "eps does not start at Pi(e) . rfun")
    if m.eps.tgt != right:
        rep.add("eps-tgt", False, "eps does not end at rfun . F")
    rep.merge(is_nat_iso(m.eps))
    return rep


def realized(src: Assembly, tgt: Assembly, fun: GFunctor, e: Map,
             comps: dict[str, str]) -> RealizedMorphism:
    """fun tracked by e, its realizability square filled by `comps`.

    The witness eps runs Pi(e) . |-|_src => |-|_tgt . fun with eps_x =
    comps[x].  Every constructed witness gets its boundary here;
    validate_morphism checks that the components fill it.
    """
    left = compose_functors(src.r.pi_map(e), src.rfun)
    right = compose_functors(tgt.rfun, fun)
    return RealizedMorphism(src, tgt, fun, e, NatIso(left, right, comps))


def _identity_eps(src: Assembly, tgt: Assembly, fun: GFunctor, e: Map
                  ) -> RealizedMorphism:
    """fun tracked by e with identity components; Pi(e).rfun must equal
    rfun.F exactly."""
    comps: dict[str, str] = {}      # filled once the boundary is built
    m = realized(src, tgt, fun, e, comps)
    left = m.eps.src
    if left != m.eps.tgt:
        raise StructuralError("realizability square does not commute on the nose")
    pi = tgt.pi.gpd
    comps.update((x, pi.id_of(left.omap[x])) for x in src.base.objects)
    return m


def identity_morphism(x: Assembly) -> RealizedMorphism:
    return _identity_eps(x, x, identity_functor(x.base), x.r.identity(x.rtype))


def compose_morphisms(m2: RealizedMorphism, m1: RealizedMorphism) -> RealizedMorphism:
    """Composite with witness obtained by pasting the two squares."""
    if m1.tgt != m2.src:
        raise BoundaryError("composition boundary mismatch")
    r = m1.src.r
    fun = compose_functors(m2.fun, m1.fun)
    e = r.compose(m2.e, m1.e)
    pi_e2 = r.pi_map(m2.e)
    pi_t = m2.tgt.pi.gpd
    comps = {x: pi_t.compose(m2.eps.components[m1.fun.omap[x]],
                             pi_e2.mmap[m1.eps.components[x]])
             for x in m1.src.base.objects}
    return realized(m1.src, m2.tgt, fun, e, comps)


def find_realizer(src: Assembly, tgt: Assembly, fun: GFunctor
                  ) -> Optional[tuple[Map, NatIso]]:
    """Search for a witness (e, eps), least in enumeration order."""
    r = src.r
    right = compose_functors(tgt.rfun, fun)
    for e in r.hom(src.rtype, tgt.rtype):
        left = compose_functors(r.pi_map(e), src.rfun)
        isos = nat_isos_between(left, right)
        if isos:
            return e, isos[0]
    return None


def realize(src: Assembly, tgt: Assembly, fun: GFunctor) -> Optional[RealizedMorphism]:
    """Wrap a functor as a realized morphism if a witness exists.

    Bases whose hom-sets are all singletons (the interval shapes) admit a
    constant realizer with transported components, which avoids the search.
    """
    cheap = _constant_realizer(src, tgt, fun)
    if cheap is not None:
        return cheap
    got = find_realizer(src, tgt, fun)
    if got is None:
        return None
    e, eps = got
    return RealizedMorphism(src, tgt, fun, e, eps)


def _constant_realizer(src: Assembly, tgt: Assembly, fun: GFunctor
                       ) -> Optional[RealizedMorphism]:
    base = src.base
    comps = base.components()
    if len(comps) != 1:
        return None
    for a in base.objects:
        for b in base.objects:
            if len(base.hom(a, b)) != 1:
                return None
    c = comps[0]
    r = src.r
    pt = tgt.pi.point_of[tgt.rfun.omap[fun.omap[c.base]]]
    d = r.compose(pt, r.terminal_map(src.rtype))
    eps_c = {x: tgt.rfun.mmap[fun.mmap[c.tree[x]]] for x in base.objects}
    return realized(src, tgt, fun, d, eps_c)


def is_modest(x: Assembly):
    """Fully faithful realizability functor; returns (ok, witness)."""
    witness = fully_faithful_failure(x.rfun)
    return witness is None, witness


# -- terminal and products ----------------------------------------------------

def terminal_assembly(r: GpdRealizer) -> Assembly:
    base = terminal_groupoid("T")
    pi0 = r.pi(r.interval.I0)
    o = pi0.gpd.objects[0]
    rfun = GFunctor(base, pi0.gpd, {"T": o}, {base.id_of("T"): pi0.gpd.id_of(o)})
    return Assembly(r, base, r.interval.I0, rfun)


def bang(x: Assembly, t: Assembly) -> RealizedMorphism:
    """The unique morphism into the terminal assembly."""
    fun = GFunctor(x.base, t.base,
                   {o: "T" for o in x.base.objects},
                   {m: t.base.id_of("T") for m in x.base.morphisms})
    return _identity_eps(x, t, fun, x.r.terminal_map(x.rtype))


@dataclass
class ProductAssembly:
    """A product assembly with its projections and the paired realizer.

    It also serves strict pullbacks: the base is then the pullback of the
    base groupoids, realized by the same pairs of realizers.
    """

    asm: Assembly
    p1: RealizedMorphism
    p2: RealizedMorphism
    raw_base: ProductGpd     # of the bases
    rprod: ProductGpd        # of the realizer types

    def pair(self, m1: RealizedMorphism, m2: RealizedMorphism) -> RealizedMorphism:
        """Universal map <m1, m2> with the paired witness."""
        if m1.src != m2.src:
            raise BoundaryError("pairing legs have different sources")
        r = self.asm.r
        fun = self.raw_base.pair(m1.fun, m2.fun)
        e = self.rprod.pair(m1.e, m2.e)
        c1, c2 = m1.eps.components, m2.eps.components
        comps = {w: r.pi_pair(self.rprod, c1[w], c2[w]) for w in m1.src.base.objects}
        return realized(m1.src, self.asm, fun, e, comps)


def _paired_assembly(x: Assembly, y: Assembly, raw: ProductGpd) -> ProductAssembly:
    """Realize `raw`, a product over x.base and y.base, by paired realizers.

    The Pi id of a pair depends only on the two Pi ids paired (`pi_pair`),
    so it is read from the realizer's memo for the product of the two
    realizer types, shared by every such assembly.
    """
    r = x.r
    key = (x.rtype.serial, y.rtype.serial)
    rprod = r.product(x.rtype, y.rtype)
    points, paths = r._pi_pairs.setdefault(key, ({}, {}))
    omap = {}
    mmap = {}
    for (a, b), oid in raw.opair.items():
        ab = (x.rfun.omap[a], y.rfun.omap[b])
        if ab not in points:
            points[ab] = r.pi_pair(rprod, *ab)
        omap[oid] = points[ab]
    for (m, n), mid in raw.mpair.items():
        mn = (x.rfun.mmap[m], y.rfun.mmap[n])
        if mn not in paths:
            paths[mn] = r.pi_pair(rprod, *mn)
        mmap[mid] = paths[mn]
    pi_xy = r.pi(rprod.gpd)
    rfun = GFunctor(raw.gpd, pi_xy.gpd, omap, mmap)
    asm = Assembly(r, raw.gpd, rprod.gpd, rfun)
    p1 = _identity_eps(asm, x, raw.p1, rprod.p1)
    p2 = _identity_eps(asm, y, raw.p2, rprod.p2)
    return ProductAssembly(asm, p1, p2, raw, rprod)


def product_assembly(x: Assembly, y: Assembly) -> ProductAssembly:
    """Product with componentwise realizers.

    The base product is taken from the realizer's cache, so bodies of
    2-cells built over the same cylinder share their tables.
    """
    return _paired_assembly(x, y, x.r.product(x.base, y.base))


# -- two-cells ----------------------------------------------------------------

class TwoCell:
    """A realized homotopy between parallel realized morphisms.

    `iso` is the componentwise natural isomorphism, `body` its functor form
    on base x I1, and (ew, epsw) the carried witness realizing the body as
    a morphism out of the cylinder assembly.
    """

    __slots__ = ("src", "tgt", "iso", "body", "ew", "epsw")

    def __init__(self, src: RealizedMorphism, tgt: RealizedMorphism,
                 iso: NatIso, body: GFunctor, ew: Map, epsw: NatIso):
        self.src = src
        self.tgt = tgt
        self.iso = iso
        self.body = body
        self.ew = ew
        self.epsw = epsw

    def __eq__(self, other) -> bool:
        return (isinstance(other, TwoCell) and self.src == other.src
                and self.tgt == other.tgt and self.iso == other.iso)

    def __repr__(self) -> str:
        return f"TwoCell({self.iso!r})"


@dataclass
class PGAsmInterval:
    """The interval internal to the category of assemblies.

    `interval` is the realizer's interval with each I_k realized by itself
    (I0 is the terminal assembly) and its structure maps realized by
    themselves.  `check_cogroupoid` reads `interval`, `identity`,
    `compose`, `hom`, `copair2` and `copair3`, and nothing else; hom-sets
    hold one realized morphism per realizable functor (morphism equality
    is functor equality).  It is not a realizer category: `GpdRealizer` is
    the one, and this fragment has no products, exponentials, fundamental
    groupoids or path algebra.
    """

    r: GpdRealizer
    interval: IntervalData        # assemblies and realized structure maps

    def __post_init__(self):
        self._cylinders: dict[Any, ProductAssembly] = {}
        self._hom_cache: dict = {}

    def cylinder(self, x: Assembly) -> ProductAssembly:
        key = x.key()
        if key not in self._cylinders:
            self._cylinders[key] = product_assembly(x, self.interval.I1)
        return self._cylinders[key]

    def identity(self, a: Assembly) -> RealizedMorphism:
        return identity_morphism(a)

    def compose(self, g: RealizedMorphism, f: RealizedMorphism) -> RealizedMorphism:
        return compose_morphisms(g, f)

    def hom(self, a: Assembly, b: Assembly) -> list[RealizedMorphism]:
        key = (a.key(), b.key())
        if key not in self._hom_cache:
            got = (realize(a, b, fun) for fun in functors_between(a.base, b.base))
            self._hom_cache[key] = [m for m in got if m is not None]
        return self._hom_cache[key]

    def copair2(self, beta: RealizedMorphism, alpha: RealizedMorphism) -> RealizedMorphism:
        """[beta, alpha]: I2 -> X realized by the constant map at alpha's start.

        delta_0 is alpha's witness component at 0; the other components are
        the composites forced by naturality.
        """
        r, iv, a = self.r, self.r.interval, self.interval
        x = alpha.tgt
        if beta.tgt != x or alpha.src != a.I1 or beta.src != a.I1:
            raise BoundaryError("copair legs must be paths into a common assembly")
        fun = r.copair2(beta.fun, alpha.fun)
        d = r.compose(alpha.e, r.compose(iv.zero, r.terminal_map(iv.I2)))
        pix = x.pi.gpd
        e_path = r.pi_mor_id(alpha.e)   # alpha's realizer map, seen as a path
        d0 = alpha.eps.components["0"]
        d1 = pix.compose(alpha.eps.components["1"], e_path)
        d2 = pix.compose(x.rfun.mmap[beta.fun.mmap["p01"]], d1)
        return realized(a.I2, x, fun, d, {"0": d0, "1": d1, "2": d2})

    def copair3(self, u: RealizedMorphism, v: RealizedMorphism) -> RealizedMorphism:
        """[u, v]: I3 -> X for double paths agreeing on the shared half."""
        r, iv, a = self.r, self.r.interval, self.interval
        x = u.tgt
        fun = r.copair3(u.fun, v.fun)
        d = r.compose(u.e, r.compose(iv.i0, r.compose(iv.zero, r.terminal_map(iv.I3))))
        pix = x.pi.gpd
        pe = r.pi_map(u.e)
        q = {j: pe.mmap[a.I2.rfun.mmap[f"p0{j}"]] for j in (1, 2)}
        d0 = u.eps.components["0"]
        d1 = pix.compose(u.eps.components["1"], q[1])
        d2 = pix.compose(u.eps.components["2"], q[2])
        d3 = pix.compose(x.rfun.mmap[v.fun.mmap["p12"]], d2)
        return realized(a.I3, x, fun, d, {"0": d0, "1": d1, "2": d2, "3": d3})


def _self_realized(r: GpdRealizer, g: FinGroupoid) -> Assembly:
    """g realized by itself: each object by its point, each morphism by its
    path (the inverse of `interval.pi_base_iso`)."""
    rfun = GFunctor(g, r.pi(g).gpd, {x: "pt:" + x for x in g.objects},
                    {m: "path:" + m for m in g.morphisms})
    return Assembly(r, g, g, rfun)


def pgasm_interval(r: GpdRealizer) -> PGAsmInterval:
    """The realizer's interval realized by itself, as assemblies.

    I1-I3 are `_self_realized`, and the chain structure maps sigma, two,
    i0, i1, j0, j1 are realized by themselves; zero and one are the
    endpoints out of the terminal assembly, star the map into it.
    """
    iv = r.interval
    term = terminal_assembly(r)
    i1, i2, i3 = (_self_realized(r, g) for g in (iv.I1, iv.I2, iv.I3))

    def point(e: Map) -> RealizedMorphism:
        return _identity_eps(term, i1, r.compose(e, r.terminal_map(term.base)), e)

    def itself(src: Assembly, tgt: Assembly, m: Map) -> RealizedMorphism:
        return _identity_eps(src, tgt, m, m)

    return PGAsmInterval(r, IntervalData(
        term, i1, i2, i3, point(iv.zero), point(iv.one), bang(i1, term),
        itself(i1, i1, iv.sigma), itself(i1, i2, iv.two), itself(i1, i2, iv.i0),
        itself(i1, i2, iv.i1), itself(i2, i3, iv.j0), itself(i2, i3, iv.j1)))


def validate_twocell(pg: PGAsmInterval, c: TwoCell) -> Report:
    """Boundary restrictions plus realizability of the cylinder morphism."""
    rep = Report()
    x = c.src.src
    y = c.src.tgt
    if c.tgt.src != x or c.tgt.tgt != y:
        rep.add("parallel", False, "2-cell boundary morphisms are not parallel")
        return rep
    cyl = pg.cylinder(x)
    raw = cyl.raw_base
    for xo in x.base.objects:
        if c.body.omap[raw.opair[(xo, "0")]] != c.src.fun.omap[xo]:
            rep.add("boundary-0", False, f"body at ({xo},0) differs from the source")
        if c.body.omap[raw.opair[(xo, "1")]] != c.tgt.fun.omap[xo]:
            rep.add("boundary-1", False, f"body at ({xo},1) differs from the target")
    wrapped = RealizedMorphism(cyl.asm, y, c.body, c.ew, c.epsw)
    rep.merge(validate_morphism(wrapped))
    return rep


def _cell(pg: PGAsmInterval, src: RealizedMorphism, tgt: RealizedMorphism,
          iso: NatIso, ew: Map, at0: dict[str, str], at1: dict[str, str]) -> TwoCell:
    """The 2-cell src => tgt along iso, its body realized on the cylinder.

    ew realizes the body out of the cylinder assembly; the witness
    components at (x, 0) and (x, 1) are at0[x] and at1[x].
    """
    x = src.src
    body = nat_iso_functor_form(pg.r, iso)
    cyl = pg.cylinder(x)
    opair = cyl.raw_base.opair
    comps = {}
    for xo in x.base.objects:
        comps[opair[(xo, "0")]] = at0[xo]
        comps[opair[(xo, "1")]] = at1[xo]
    w = realized(cyl.asm, src.tgt, body, ew, comps)
    return TwoCell(src, tgt, iso, body, ew, w.eps)


def _cell_ends(pg: PGAsmInterval, c: TwoCell) -> list[dict[str, str]]:
    """c's witness components at the two ends of the cylinder, per object."""
    x = c.src.src
    opair = pg.cylinder(x).raw_base.opair
    return [{xo: c.epsw.components[opair[(xo, k)]] for xo in x.base.objects}
            for k in "01"]


def twocell_from_iso(pg: PGAsmInterval, phi: NatIso, src: RealizedMorphism,
                     tgt: RealizedMorphism) -> TwoCell:
    """Realize a 2-cell using its source's witness and transport.

    ew is src.e composed with the projection; the witness components at
    level 1 are whiskered by the realizers of phi's components.
    """
    r = pg.r
    x, y = src.src, src.tgt
    if phi.src != src.fun or phi.tgt != tgt.fun:
        raise BoundaryError("iso boundary does not match the 2-cell boundary")
    ew = r.compose(src.e, r.product(x.rtype, r.interval.I1).p1)
    piy = y.pi.gpd
    eps = src.eps.components
    at1 = {xo: piy.compose(y.rfun.mmap[phi.components[xo]], eps[xo])
           for xo in x.base.objects}
    return _cell(pg, src, tgt, phi, ew, eps, at1)


def identity_twocell(pg: PGAsmInterval, m: RealizedMorphism) -> TwoCell:
    return twocell_from_iso(pg, identity_nat_iso(m.fun), m, m)


def inverse_twocell(pg: PGAsmInterval, c: TwoCell) -> TwoCell:
    """Swap the witness components at the two ends."""
    at0, at1 = _cell_ends(pg, c)
    return _cell(pg, c.tgt, c.src, invert_nat_iso(c.iso), c.ew, at1, at0)


def twocell_vcompose(pg: PGAsmInterval, c2: TwoCell, c1: TwoCell) -> TwoCell:
    """Vertical composition c2 . c1 with the pasted witnesses."""
    if c2.src != c1.tgt:
        raise BoundaryError("vertical composition boundary mismatch")
    iso = vcompose_nat_isos(c2.iso, c1.iso)
    y = c1.src.tgt
    piy = y.pi.gpd
    at0, at1 = _cell_ends(pg, c1)
    at1 = {xo: piy.compose(y.rfun.mmap[c2.iso.components[xo]], c)
           for xo, c in at1.items()}
    return _cell(pg, c1.src, c2.tgt, iso, c1.ew, at0, at1)


def twocell_hcompose(pg: PGAsmInterval, c2: TwoCell, c1: TwoCell) -> TwoCell:
    """Horizontal composition c2 * c1 with the pasted witnesses."""
    r = pg.r
    h = c2.src
    z = h.tgt
    iso = vcompose_nat_isos(whisker_right(c2.iso, c1.tgt.fun),
                            whisker_left(h.fun, c1.iso))
    piz = z.pi.gpd
    pih = r.pi_map(h.e)
    ends0, ends1 = _cell_ends(pg, c1)
    at0, at1 = {}, {}
    for xo in c1.src.src.base.objects:
        at0[xo] = piz.compose(h.eps.components[c1.src.fun.omap[xo]],
                              pih.mmap[ends0[xo]])
        fxo = c1.tgt.fun.omap[xo]
        at1[xo] = piz.compose(z.rfun.mmap[c2.iso.components[fxo]],
                              piz.compose(h.eps.components[fxo],
                                          pih.mmap[ends1[xo]]))
    return _cell(pg, compose_morphisms(c2.src, c1.src),
                 compose_morphisms(c2.tgt, c1.tgt), iso,
                 r.compose(h.e, c1.ew), at0, at1)


# -- weak exponentials --------------------------------------------------------

@dataclass
class WeakExpObject:
    """The assembly of realized functors with chosen realizer points.

    The evaluation `ev` and its source `ev_src` are built on first read.
    """

    asm: Assembly
    exponent: Assembly
    target: Assembly
    obj_data: dict[str, tuple[GFunctor, str, NatIso]]   # id -> (F, point, eps)
    mor_data: dict[str, tuple[NatIso, str]]             # id -> (psi, path)
    obj_index: dict[tuple, str]
    mor_index: dict[tuple, str]

    # eps and psi are given by their components at the exponent's objects,
    # in order: the tuples the indexes are keyed by

    def obj_id(self, F: GFunctor, point_id: str, eps: tuple[str, ...]) -> str:
        return self.obj_index[(F.key(), point_id, eps)]

    def mor_id(self, src_id: str, psi: tuple[str, ...], path_id: str) -> str:
        return self.mor_index[(src_id, psi, path_id)]

    @cached_property
    def ev_src(self) -> ProductAssembly:
        return product_assembly(self.asm, self.exponent)

    @cached_property
    def ev(self) -> RealizedMorphism:
        raw, data, x, y = self.ev_src.raw_base, self.obj_data, self.exponent, self.target
        fun = evaluation(raw, y.base, {w: d[0] for w, d in data.items()},
                         {m: d[0] for m, d in self.mor_data.items()})
        comps = {oid: data[w][2].components[xo] for (w, xo), oid in raw.opair.items()}
        e = self.asm.r.exponential(x.rtype, y.rtype).ev
        return realized(self.ev_src.asm, y, fun, e, comps)


def _evaluate_paths(r: GpdRealizer, paths: dict[str, Map],
                    points: dict[Any, Map], base, target) -> dict[str, dict[Any, str]]:
    """The Pi id of each path of target^base evaluated at each point of base.

    Each path is uncurried once, to mu: I1 x base -> target, and each point
    pt gives one leg <id, pt . !>: I1 -> I1 x base; the value is mu . leg.
    """
    iv = r.interval
    p = r.product(iv.I1, base)
    to_i0, ident = r.terminal_map(iv.I1), r.identity(iv.I1)
    legs = {k: p.pair(ident, r.compose(pt, to_i0)) for k, pt in points.items()}
    out = {}
    for mo, pf in paths.items():
        mu = r.uncurry(pf, base, target)
        out[mo] = {k: r.pi_mor_id(r.compose(mu, leg)) for k, leg in legs.items()}
    return out


def weak_exponential(x: Assembly, y: Assembly) -> WeakExpObject:
    """The assembly Real(Y^X) together with evaluation.

    Objects are triples (F, e, eps) where the point e of the realizer
    exponential implements F via eps; morphisms are pairs (psi, f) whose
    unique filler is determined by the boundary witnesses.
    """
    r = x.r
    caps_limit = r.caps.max_objects
    exp = r.exponential(x.rtype, y.rtype)
    pie = r.pi(exp.obj)
    pix, piy = x.pi, y.pi

    point_fun: dict[str, GFunctor] = {}
    for po, pt in pie.point_of.items():
        point_fun[po] = compose_functors(r.pi_map(r.point_as_map(pt, x.rtype, y.rtype)),
                                         x.rfun)
    obj_data: dict[str, tuple[GFunctor, str, NatIso]] = {}
    obj_index: dict[tuple, str] = {}
    count = 0
    for F in functors_between(x.base, y.base):
        right = compose_functors(y.rfun, F)
        for po in pie.gpd.objects:
            for eps in nat_isos_between(point_fun[po], right):
                oid = f"w{count}"
                count += 1
                if count > caps_limit:
                    raise SizeCapError("weak exponential objects", count, caps_limit)
                obj_data[oid] = (F, po, eps)
                obj_index[(F.key(), po, eps.key())] = oid

    path_eval = _evaluate_paths(
        r, pie.path_of, {xo: pix.point_of[x.rfun.omap[xo]] for xo in x.base.objects},
        x.rtype, y.rtype)

    mors: dict[str, tuple[str, str]] = {}
    mor_data: dict[str, tuple[NatIso, str]] = {}
    mor_index: dict[tuple, str] = {}
    mcount = 0
    pyg = piy.gpd
    iso_cache: dict[tuple, list[NatIso]] = {}
    for oa, (F, po, eps) in obj_data.items():
        for ob, (G, qo, eps2) in obj_data.items():
            ikey = (F.key(), G.key())
            if ikey not in iso_cache:
                iso_cache[ikey] = nat_isos_between(F, G)
            for f in pie.gpd.hom(po, qo):
                ev_f = path_eval[f]
                for psi in iso_cache[ikey]:
                    ok = all(
                        pyg.compose(eps2.components[xo], ev_f[xo])
                        == pyg.compose(y.rfun.mmap[psi.components[xo]],
                                       eps.components[xo])
                        for xo in x.base.objects)
                    if not ok:
                        continue
                    mid = f"m{mcount}"
                    mcount += 1
                    mors[mid] = (oa, ob)
                    mor_data[mid] = (psi, f)
                    mor_index[(oa, psi.key(), f)] = mid

    # a composite, identity or inverse is looked up by its key, whose psi
    # part is the tuple of its components at the objects of x
    ycomp, yident, yinv = y.base.comp, y.base.ident, y.base.inv
    ecomp, eident, einv = pie.gpd.comp, pie.gpd.ident, pie.gpd.inv
    comps = {m: (psi.key(), f) for m, (psi, f) in mor_data.items()}
    comp = {}
    for m2, m1 in composable_pairs(mors):
        (c2, f2), (c1, f1) = comps[m2], comps[m1]
        comp[(m2, m1)] = mor_index[(mors[m1][0], tuple(map(ycomp.__getitem__, zip(c2, c1))),
                                    ecomp[(f2, f1)])]
    ident = {oid: mor_index[(oid, tuple([yident[F.omap[a]] for a in x.base.objects]),
                             eident[po])] for oid, (F, po, _eps) in obj_data.items()}
    inv = {m: mor_index[(mors[m][1], tuple(map(yinv.__getitem__, c)), einv[f])]
           for m, (c, f) in comps.items()}
    base = FinGroupoid(list(obj_data), mors, comp, ident, inv)
    rfun = GFunctor(base, pie.gpd, {o: obj_data[o][1] for o in obj_data},
                    {m: mor_data[m][1] for m in mor_data})
    asm = Assembly(r, base, exp.obj, rfun)
    check_product_caps(base, x.base, r.caps)  # the base of ev's source
    return WeakExpObject(asm, x, y, obj_data, mor_data, obj_index, mor_index)


def transpose_morphism(w: WeakExpObject, k: RealizedMorphism,
                       k_src: ProductAssembly) -> RealizedMorphism:
    """The transpose Z -> Real(Y^X) of k: Z x X -> Y using k's witness."""
    r = w.asm.r
    x, y = w.exponent, w.target
    z = k_src.p1.tgt
    raw = k_src.raw_base
    rprod = k_src.rprod
    piz = z.pi
    pie = r.pi(w.asm.rtype)

    def e_slice(zr: Map) -> Map:
        # e . (|z| x A) transposed, for a point or path zr of Z's realizer
        prod_dom = r.product(zr.dom, x.rtype)
        lifted = r.compose(k.e, rprod.pair(r.compose(zr, prod_dom.p1), prod_dom.p2))
        return r.transpose(lifted, prod_dom, x.rtype, y.rtype)

    slices, psis = curry(k.fun, raw, x.base)
    omap = {}
    for zo, F in slices.items():
        e_z = e_slice(piz.point_of[z.rfun.omap[zo]])
        eps = tuple([k.eps.components[raw.opair[(zo, a)]] for a in x.base.objects])
        omap[zo] = w.obj_id(F, r.pi_obj_id(e_z), eps)
    mmap = {}
    for v, psi in psis.items():
        f_path = e_slice(piz.path_of[z.rfun.mmap[v]])
        mmap[v] = w.mor_id(omap[z.base.src(v)], psi, r.pi_mor_id(f_path))
    fun = GFunctor(z.base, w.asm.base, omap, mmap)
    e = r.transpose(k.e, rprod, x.rtype, y.rtype)
    comps = {}
    for zo in z.base.objects:
        ez = w.asm.rfun.omap[omap[zo]]
        src_pt = r.pi_obj_id(r.compose(e, piz.point_of[z.rfun.omap[zo]]))
        if src_pt != ez:
            raise StructuralError("transpose realizer does not match the chosen point")
        comps[zo] = pie.gpd.id_of(ez)
    return realized(z, w.asm, fun, e, comps)


def weakexp_object_morphism(w: WeakExpObject, oid: str) -> RealizedMorphism:
    """The realized functor carried by an exponential object."""
    r = w.asm.r
    x, y = w.exponent, w.target
    F, po, eps = w.obj_data[oid]
    pt = r.pi(w.asm.rtype).point_of[po]
    return realized(x, y, F, r.point_as_map(pt, x.rtype, y.rtype), eps.components)


def weakexp_cell(w: WeakExpObject, pg: PGAsmInterval, mid: str) -> TwoCell:
    """The filler of an exponential morphism, as a realized 2-cell.

    The witness map is the uncurried path (swapped onto the cylinder) and
    the filler's components at the two ends are exactly the boundary
    witnesses of the two objects; validating the cell checks that this
    boundary-determined filler is natural.
    """
    r = w.asm.r
    x, y = w.exponent, w.target
    psi, fpath = w.mor_data[mid]
    src_o, tgt_o = w.asm.base.mors[mid]
    src_m = weakexp_object_morphism(w, src_o)
    tgt_m = weakexp_object_morphism(w, tgt_o)
    pf = r.pi(w.asm.rtype).path_of[fpath]
    iv = r.interval
    mu = r.uncurry(pf, x.rtype, y.rtype)            # I1 x A -> B
    ew = r.compose(mu, r.swap(x.rtype, iv.I1))
    return _cell(pg, src_m, tgt_m, psi, ew, src_m.eps.components,
                 tgt_m.eps.components)


def beta_holds(w: WeakExpObject, k: RealizedMorphism, k_src: ProductAssembly,
               kt: RealizedMorphism) -> bool:
    """ev . (transpose x id) = k, exactly, on underlying functors."""
    raw_src = k_src.raw_base
    raw_ev = w.ev_src.raw_base
    lift = raw_ev.pair(compose_functors(kt.fun, raw_src.p1), raw_src.p2)
    return compose_functors(w.ev.fun, lift) == k.fun
