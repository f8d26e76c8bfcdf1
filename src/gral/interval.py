"""Interval structure, homotopy calculus, fundamental groupoids, squares.

`GpdRealizer` is the realizer category: finite groupoids and functors, a
cartesian closed category with enumerable hom-sets, carrying the walking
isomorphism as its interval object family I0..I3, with structure maps and
copairing witnesses for the two interval pushouts.  The homotopy calculus
and the squares are written against its operations.  `_build_pi` and
`_pi_map` are the paper's generic construction of the fundamental groupoid
and of its action on maps, from hom-sets and path algebra alone; they are
kept as the reference that `GpdRealizer`'s relabelled tables are checked
against.  The interval-diagram checker also runs on
`assemblies.PGAsmInterval`, this same interval with each I_k realized by
itself, which provides only what that checker reads.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Optional

from .errors import BoundaryError, StructuralError
from .groupoids import (
    DEFAULT_CAPS, ExpGpd, FinGroupoid, GFunctor, NatIso, ProductGpd, Report,
    SizeCaps, _codiscrete, composable_pairs, compose_functors, curry,
    evaluation, exponential as gpd_exponential, functors_between, identity_functor,
    product as gpd_product, terminal_groupoid,
)

Map = Any  # a GFunctor; a realized morphism in the assemblies' own interval


@dataclass
class IntervalData:
    """The interval object family with its nine structure maps.

    I0 is terminal; zero/one are the cosource/cotarget, star the coidentity,
    sigma the coinverse, two the cocomposition, i0/i1 and j0/j1 the pushout
    injections of the double- and triple-length intervals.
    """

    I0: Any
    I1: Any
    I2: Any
    I3: Any
    zero: Map
    one: Map
    star: Map
    sigma: Map
    two: Map
    i0: Map
    i1: Map
    j0: Map
    j1: Map


@dataclass
class ExpObj:
    """The exponential target^base with its evaluation."""

    obj: FinGroupoid
    ev: GFunctor                  # over product(obj, base).gpd
    raw: ExpGpd


@dataclass
class PiData:
    """Fundamental groupoid of an object: points and paths, with lookups."""

    gpd: FinGroupoid
    point_of: dict[str, Map]
    path_of: dict[str, Map]


def _build_pi(r: GpdRealizer, a) -> PiData:
    """Pi(a) by the paper's construction, from the hom-sets alone."""
    iv = r.interval
    point_maps, path_maps = r.hom(iv.I0, a), r.hom(iv.I1, a)
    points = {r.pi_obj_id(p): p for p in point_maps}
    paths = {r.pi_mor_id(al): al for al in path_maps}
    if len(points) < len(point_maps) or len(paths) < len(path_maps):
        raise StructuralError("fundamental groupoid: two points or two paths "
                              "share an identifier")
    mors = {m: (r.pi_obj_id(r.path_src(al)), r.pi_obj_id(r.path_tgt(al)))
            for m, al in paths.items()}
    comp = {(m2, m1): r.pi_mor_id(r.path_compose(paths[m2], paths[m1]))
            for m2, m1 in composable_pairs(mors)}
    ident = {o: r.pi_mor_id(r.path_id(p)) for o, p in points.items()}
    inv = {m: r.pi_mor_id(r.path_inv(al)) for m, al in paths.items()}
    gpd = FinGroupoid(sorted(points), mors, comp, ident, inv)
    return PiData(gpd, points, paths)


def _pi_map(r: GpdRealizer, f: Map) -> GFunctor:
    """Pi(f) by the paper's construction: post-composition with f."""
    pa = r.pi(f.dom)
    pb = r.pi(f.cod)
    omap = {o: r.pi_obj_id(r.compose(f, pa.point_of[o]))
            for o in pa.gpd.objects}
    mmap = {m: r.pi_mor_id(r.compose(f, pa.path_of[m]))
            for m in pa.gpd.morphisms}
    return GFunctor(pa.gpd, pb.gpd, omap, mmap)


# -- homotopies -------------------------------------------------------------

@dataclass
class Homotopy:
    """A homotopy lhs => rhs between maps a -> b, carried by its body.

    The body is a map (a x I1) -> b on the canonical product, restricting
    to lhs at 0 and rhs at 1.
    """

    r: GpdRealizer
    lhs: Map
    rhs: Map
    body: Map

    @property
    def a(self):
        return self.lhs.dom

    @property
    def b(self):
        return self.lhs.cod

    def check(self) -> None:
        if not (homotopy_dom(self) == self.lhs
                and homotopy_cod(self) == self.rhs):
            raise BoundaryError("homotopy body does not restrict to its boundary")

    def __eq__(self, other) -> bool:
        return isinstance(other, Homotopy) and self.body == other.body


def _end_section(r: GpdRealizer, a, end: Map) -> Map:
    """<id_a, end . !>: a -> a x I1 for an endpoint I0 -> I1."""
    p = r.product(a, r.interval.I1)
    return p.pair(r.identity(a), r.compose(end, r.terminal_map(a)))


def homotopy_dom(h: Homotopy) -> Map:
    return h.r.compose(h.body, _end_section(h.r, h.a, h.r.interval.zero))


def homotopy_cod(h: Homotopy) -> Map:
    return h.r.compose(h.body, _end_section(h.r, h.a, h.r.interval.one))


def identity_homotopy(r: GpdRealizer, f: Map) -> Homotopy:
    p = r.product(f.dom, r.interval.I1)
    return Homotopy(r, f, f, r.compose(f, p.p1))


def inverse_homotopy(h: Homotopy) -> Homotopy:
    r = h.r
    body = r.compose(h.body, r.times(r.identity(h.a), r.interval.sigma))
    return Homotopy(r, h.rhs, h.lhs, body)


def homotopy_copair(h2: Homotopy, h1: Homotopy) -> Map:
    """[H', H]: a x I2 -> b via the exponential transpose trick."""
    r = h1.r
    iv = r.interval
    a, b = h1.a, h1.b
    lam1 = r.transpose(r.compose(h1.body, r.swap(iv.I1, a)),
                       r.product(iv.I1, a), a, b)
    lam2 = r.transpose(r.compose(h2.body, r.swap(iv.I1, a)),
                       r.product(iv.I1, a), a, b)
    cp = r.copair2(lam2, lam1)                       # I2 -> b^a
    return r.compose(r.uncurry(cp, a, b), r.swap(a, iv.I2))


def vcomp(h2: Homotopy, h1: Homotopy) -> Homotopy:
    """Vertical composition h2 . h1 (requires dom(h2) = cod(h1))."""
    r = h1.r
    if h2.lhs != h1.rhs:
        raise BoundaryError("vertical composition: boundaries do not match")
    body = r.compose(homotopy_copair(h2, h1),
                     r.times(r.identity(h1.a), r.interval.two))
    return Homotopy(r, h1.lhs, h2.rhs, body)


def pi_homotopy(h: Homotopy) -> NatIso:
    """The natural isomorphism Pi(lhs) => Pi(rhs) induced by a homotopy."""
    r = h.r
    pa = r.pi(h.a)
    pf = r.pi_map(h.lhs)
    pg = r.pi_map(h.rhs)
    comps = {}
    for o, pt in pa.point_of.items():
        p = r.product(h.a, r.interval.I1)
        leg = p.pair(r.compose(pt, r.interval.star), r.identity(r.interval.I1))
        comps[o] = r.pi_mor_id(r.compose(h.body, leg))
    return NatIso(pf, pg, comps)


def pi_path_diagonal(h: Homotopy, alpha: Map) -> Map:
    """Pi(H)(alpha, i): the diagonal path through the naturality square."""
    r = h.r
    p = r.product(h.a, r.interval.I1)
    return r.compose(h.body, p.pair(alpha, r.identity(r.interval.I1)))


# -- squares ----------------------------------------------------------------

@dataclass
class HSquare:
    """A commutative square of homotopies (a 2-cell of the square category).

    top/bottom run in the first interval direction, left/right in the
    second; commutativity means vcomp(right, top) = vcomp(bottom, left).
    """

    top: Homotopy
    bottom: Homotopy
    left: Homotopy
    right: Homotopy

    def check(self) -> None:
        if not (self.top.lhs == self.left.lhs
                and self.top.rhs == self.right.lhs
                and self.bottom.lhs == self.left.rhs
                and self.bottom.rhs == self.right.rhs):
            raise BoundaryError("square corners do not match")
        if vcomp(self.right, self.top) != vcomp(self.bottom, self.left):
            raise BoundaryError("square does not commute")

    def __eq__(self, other) -> bool:
        return (isinstance(other, HSquare)
                and self.top == other.top and self.bottom == other.bottom
                and self.left == other.left and self.right == other.right)


def _corner_section(r: GpdRealizer, a, s: Optional[Map], t: Optional[Map]):
    """Section of (a x I1) x I1 fixing interval coordinates where given."""
    iv = r.interval
    pa = r.product(a, iv.I1)
    outer = r.product(pa.gpd, iv.I1)
    if s is None and t is not None:
        # a x I1 -> (a x I1) x I1 freezing the second coordinate at t
        return outer.pair(r.identity(pa.gpd), r.compose(t, r.terminal_map(pa.gpd)))
    if s is not None and t is None:
        # a x I1 -> (a x I1) x I1 freezing the first coordinate at s
        leg1 = pa.pair(pa.p1, r.compose(s, r.terminal_map(pa.gpd)))
        return outer.pair(leg1, pa.p2)
    raise StructuralError("exactly one coordinate must be frozen")


def homotopy_from_body(r: GpdRealizer, body: Map, base) -> Homotopy:
    """Wrap a map base x I1 -> b as a homotopy, reading off its boundary."""
    lhs = r.compose(body, _end_section(r, base, r.interval.zero))
    rhs = r.compose(body, _end_section(r, base, r.interval.one))
    return Homotopy(r, lhs, rhs, body)


def boundary(r: GpdRealizer, cell: Map, a) -> HSquare:
    """The four edges of a cell (a x I1) x I1 -> b."""
    iv = r.interval

    def edge(s, t):
        return homotopy_from_body(r, r.compose(cell, _corner_section(r, a, s, t)), a)

    return HSquare(edge(None, iv.zero), edge(None, iv.one),
                   edge(iv.zero, None), edge(iv.one, None))


def cell_vcomp(r: GpdRealizer, c2: Map, c1: Map, a) -> Map:
    """Compose cells in the second interval direction (as homotopies over a x I1)."""
    pa = r.product(a, r.interval.I1)
    return vcomp(homotopy_from_body(r, c2, pa.gpd),
                 homotopy_from_body(r, c1, pa.gpd)).body


def _swap_cell_coords(r: GpdRealizer, a) -> Map:
    """(a x I1) x I1 -> (a x I1) x I1 exchanging the two interval coordinates."""
    iv = r.interval
    pa = r.product(a, iv.I1)
    outer = r.product(pa.gpd, iv.I1)
    leg1 = pa.pair(r.compose(pa.p1, outer.p1), outer.p2)
    leg2 = r.compose(pa.p2, outer.p1)
    return outer.pair(leg1, leg2)


def cell_hcomp(r: GpdRealizer, c2: Map, c1: Map, a) -> Map:
    """Compose cells in the first interval direction."""
    sw = _swap_cell_coords(r, a)
    out = cell_vcomp(r, r.compose(c2, sw), r.compose(c1, sw), a)
    return r.compose(out, sw)


def square_vcomp(s2: HSquare, s1: HSquare) -> HSquare:
    """Stack squares in the second direction (s1 on top of s2)."""
    return HSquare(s1.top, s2.bottom,
                   vcomp(s2.left, s1.left), vcomp(s2.right, s1.right))


def square_hcomp(s2: HSquare, s1: HSquare) -> HSquare:
    """Paste squares side by side in the first direction."""
    return HSquare(vcomp(s2.top, s1.top), vcomp(s2.bottom, s1.bottom),
                   s1.left, s2.right)


# -- the groupoid instance ---------------------------------------------------

def chain_groupoid(n: int) -> FinGroupoid:
    """Codiscrete groupoid on objects 0..n with morphisms named p{a}{b}."""
    return _codiscrete([str(k) for k in range(n + 1)], _chain_mid)


def _chain_mid(a: str, b: str) -> str:
    return f"id_{a}" if a == b else f"p{a}{b}"


class GpdRealizer:
    """The realizer category: finite groupoids with the walking-isomorphism
    interval.

    Maps are functors, compared with `==`.  Hom-sets, products,
    exponentials and fundamental groupoids are cached by the serials of the
    groupoids they are built from.
    """

    def __init__(self, caps: SizeCaps = DEFAULT_CAPS):
        self.caps = caps
        self._hom_cache: dict = {}
        self._prod_cache: dict = {}
        # Pi ids of paired points and of paired paths, by the two Pi ids
        # paired: one pair of memos per product of realizer types, keyed as
        # in `_prod_cache`; `assemblies._paired_assembly` fills them
        self._pi_pairs: dict = {}
        self._exp_cache: dict = {}
        self._pi_cache: dict = {}
        self.interval = _standard_interval()

    # primitives

    def identity(self, a: FinGroupoid) -> GFunctor:
        return identity_functor(a)

    def compose(self, g: GFunctor, f: GFunctor) -> GFunctor:
        return compose_functors(g, f)

    def hom(self, a: FinGroupoid, b: FinGroupoid) -> list[GFunctor]:
        key = (a.serial, b.serial)
        if key not in self._hom_cache:
            self._hom_cache[key] = functors_between(a, b)
        return self._hom_cache[key]

    def label(self, f: GFunctor) -> str:
        iv = self.interval
        if f.dom.serial == iv.I0.serial:
            return f.omap[f.dom.objects[0]]
        if f.dom.serial == iv.I1.serial:
            return f.mmap["p01"]
        objs = ",".join(f"{x}>{f.omap[x]}" for x in f.dom.objects)
        mors = ",".join(f"{m}>{f.mmap[m]}" for m in f.dom.morphisms)
        return f"[{objs}|{mors}]"

    def terminal_map(self, a: FinGroupoid) -> GFunctor:
        t = self.interval.I0
        o = t.objects[0]
        return GFunctor(a, t, {x: o for x in a.objects},
                        {m: t.id_of(o) for m in a.morphisms})

    def product(self, a: FinGroupoid, b: FinGroupoid) -> ProductGpd:
        key = (a.serial, b.serial)
        if key not in self._prod_cache:
            self._prod_cache[key] = gpd_product(a, b, self.caps)
        return self._prod_cache[key]

    def exponential(self, base: FinGroupoid, target: FinGroupoid) -> ExpObj:
        """Exponential target^base with evaluation."""
        key = (base.serial, target.serial)
        if key not in self._exp_cache:
            e = gpd_exponential(base, target, self.caps)
            ev = evaluation(self.product(e.gpd, base), target,
                            e.obj_to_functor, e.mor_to_natiso)
            self._exp_cache[key] = ExpObj(e.gpd, ev, e)
        return self._exp_cache[key]

    def transpose(self, k: GFunctor, prod: ProductGpd, base, target) -> GFunctor:
        """lambda(k): Z -> target^base for k: Z x base -> target."""
        e = self.exponential(base, target)
        z = prod.p1.cod
        slices, comps = curry(k, prod, base)
        omap = {zo: e.raw.obj_of(f) for zo, f in slices.items()}
        mor_of = e.raw.natiso_to_mor
        mmap = {v: mor_of[(slices[z.mors[v][0]].key(), comps[v])] for v in z.morphisms}
        return GFunctor(z, e.obj, omap, mmap)

    def copair2(self, beta: GFunctor, alpha: GFunctor) -> GFunctor:
        """[beta, alpha]: I2 -> A with .i0 = alpha, .i1 = beta."""
        iv = self.interval
        if self.compose(beta, iv.zero) != self.compose(alpha, iv.one):
            raise BoundaryError("copair legs do not match nose to tail")
        a = alpha.cod
        omap = {"0": alpha.omap["0"], "1": alpha.omap["1"], "2": beta.omap["1"]}
        gen = {"p01": alpha.mmap["p01"], "p12": beta.mmap["p01"]}
        return _chain_functor(iv.I2, a, omap, gen)

    def copair3(self, u: GFunctor, v: GFunctor) -> GFunctor:
        """[u, v]: I3 -> A with .j0 = u, .j1 = v (requires u.i1 = v.i0)."""
        iv = self.interval
        if self.compose(u, iv.i1) != self.compose(v, iv.i0):
            raise BoundaryError("copair legs do not agree on the shared half")
        a = u.cod
        omap = {"0": u.omap["0"], "1": u.omap["1"], "2": u.omap["2"],
                "3": v.omap["2"]}
        gen = {"p01": u.mmap["p01"], "p12": u.mmap["p12"], "p23": v.mmap["p12"]}
        return _chain_functor(iv.I3, a, omap, gen)

    def fill_square(self, top, bottom, left, right) -> GFunctor:
        """The unique I1 x I1 -> A restricting to the given boundary paths:
        the cylinder of top => bottom, with components left and right.

        Convention: restriction at second coordinate 0/1 is top/bottom, at
        first coordinate 0/1 is left/right; requires right.top = bottom.left
        as path composites.
        """
        c = top.cod
        if (left.omap["0"] != top.omap["0"] or right.omap["0"] != top.omap["1"]
                or left.omap["1"] != bottom.omap["0"]
                or right.omap["1"] != bottom.omap["1"]):
            raise BoundaryError("square boundary paths do not share corners")
        if c.compose(right.mmap["p01"], top.mmap["p01"]) != \
                c.compose(bottom.mmap["p01"], left.mmap["p01"]):
            raise BoundaryError("square of paths does not commute")
        return nat_iso_functor_form(self, NatIso(
            top, bottom, {"0": left.mmap["p01"], "1": right.mmap["p01"]}))

    def boundary_inv(self, sq: HSquare) -> GFunctor:
        """The unique cell with the given boundary: the cylinder of
        top.body => bottom.body, with the components of left and right."""
        sq.check()
        pa = self.product(sq.top.a, self.interval.I1)
        sides = {"0": nat_iso_from_homotopy(sq.left).components,
                 "1": nat_iso_from_homotopy(sq.right).components}
        comps = {oid: sides[s][ao] for (ao, s), oid in pa.opair.items()}
        return nat_iso_functor_form(self, NatIso(sq.top.body, sq.bottom.body, comps))

    # derived combinators

    def swap(self, a, b) -> GFunctor:
        pab = self.product(a, b)
        return self.product(b, a).pair(pab.p2, pab.p1)

    def times(self, f: GFunctor, g: GFunctor) -> GFunctor:
        """f x g on the canonical products."""
        p = self.product(f.dom, g.dom)
        q = self.product(f.cod, g.cod)
        return q.pair(self.compose(f, p.p1), self.compose(g, p.p2))

    def uncurry(self, f: GFunctor, base, target) -> GFunctor:
        """mu(f) = ev . (f x id): Z x base -> target for f: Z -> target^base."""
        e = self.exponential(base, target)
        return self.compose(e.ev, self.times(f, self.identity(base)))

    def point_as_map(self, e: GFunctor, base, target) -> GFunctor:
        """Convert a point of target^base into a map base -> target."""
        iv = self.interval
        mu = self.uncurry(e, base, target)          # I0 x base -> target
        p = self.product(iv.I0, base)
        section = p.pair(self.terminal_map(base), self.identity(base))
        return self.compose(mu, section)

    def const_path_map(self, a) -> GFunctor:
        """lambda(p1): a -> a^I1, sending a point to its constant path."""
        iv = self.interval
        p = self.product(a, iv.I1)
        return self.transpose(p.p1, p, iv.I1, a)

    # path algebra

    def path_src(self, alpha: GFunctor) -> GFunctor:
        return self.compose(alpha, self.interval.zero)

    def path_tgt(self, alpha: GFunctor) -> GFunctor:
        return self.compose(alpha, self.interval.one)

    def path_id(self, pt: GFunctor) -> GFunctor:
        return self.compose(pt, self.interval.star)

    def path_inv(self, alpha: GFunctor) -> GFunctor:
        return self.compose(alpha, self.interval.sigma)

    def path_compose(self, beta: GFunctor, alpha: GFunctor) -> GFunctor:
        """The concatenation [beta, alpha]: I2 -> A of nose-to-tail paths
        (beta.0 = alpha.1), reparameterised back to a single path; `copair2`
        refuses paths that are not nose to tail."""
        return self.compose(self.copair2(beta, alpha), self.interval.two)

    # fundamental groupoid

    def pi(self, a: FinGroupoid) -> PiData:
        key = a.serial
        cache = self._pi_cache
        if key not in cache:
            cache[key] = self.build_pi(a)
        return cache[key]

    def pi_obj_id(self, pt: GFunctor) -> str:
        return "pt:" + self.label(pt)

    def pi_mor_id(self, path: GFunctor) -> str:
        return "path:" + self.label(path)

    def pi_pair(self, prod: ProductGpd, u: str, v: str) -> str:
        """The Pi id of the pair of the points (or paths) with Pi ids u and v
        into prod's factors: what `pi_obj_id` (or `pi_mor_id`) gives for
        `prod.pair` of them, read off the product's tables."""
        if u.startswith("pt:"):
            return "pt:" + prod.opair[(u[3:], v[3:])]
        return "path:" + prod.mpair[(u[5:], v[5:])]

    def build_pi(self, a: FinGroupoid) -> PiData:
        """Pi(a), uncached, as a's tables relabelled.

        A point I0 -> a is fixed by the object x it picks, and its id is
        "pt:" + x; a path I1 -> a is fixed by the morphism g it sends the
        generator to, and its id is "path:" + g.  So the points and paths
        are built from a's objects and morphisms, in the order
        `functors_between` lists them, and each table of Pi(a) is a's table
        relabelled, in the entry order `_build_pi` gives it; the composition
        table is built on first read.
        """
        iv = self.interval
        points, ident, paths, gen, mors = {}, {}, {}, {}, {}
        for x in sorted(a.objects):
            points["pt:" + x] = GFunctor(iv.I0, a, {"0": x}, {"id_0": a.id_of(x)})
            ident["pt:" + x] = "path:" + a.id_of(x)
            for g in sorted(a.out_of(x)):
                t, m = a.tgt(g), "path:" + g
                # entries in I1.morphisms order, as functors_between gives them
                paths[m] = GFunctor(iv.I1, a, {"0": x, "1": t},
                                    {"id_0": a.id_of(x), "p01": g,
                                     "p10": a.inv_of(g), "id_1": a.id_of(t)})
                gen[m] = g
                mors[m] = ("pt:" + x, "pt:" + t)

        def build():
            return {(m2, m1): "path:" + a.compose(gen[m2], gen[m1])
                    for m2, m1 in composable_pairs(mors)}

        inv = {m: "path:" + a.inv_of(g) for m, g in gen.items()}
        gpd = FinGroupoid(sorted(points), mors, build, ident, inv)
        return PiData(gpd, points, paths)

    def pi_map(self, f: GFunctor) -> GFunctor:
        """Pi(f) as f relabelled, in the entry order of `_pi_map`."""
        pa, pb = self.pi(f.dom), self.pi(f.cod)
        omap = {o: "pt:" + f.omap[pa.point_of[o].omap["0"]]
                for o in pa.gpd.objects}
        mmap = {m: "path:" + f.mmap[pa.path_of[m].mmap["p01"]]
                for m in pa.gpd.morphisms}
        return GFunctor(pa.gpd, pb.gpd, omap, mmap)


# `benchmarks/tracing.py` wraps `RealizerCategory.pi` by this name
RealizerCategory = GpdRealizer


def _chain_functor(dom: FinGroupoid, cod: FinGroupoid,
                   omap: dict[str, str], gen: dict[str, str]) -> GFunctor:
    """Extend generator images p{k}{k+1} to the full chain groupoid table.

    p{i}{j} for i < j is gen[p{j-1}{j}] . p{i}{j-1}, from p{i}{i} the
    identity, and p{j}{i} is its inverse; the entries come identities
    first, then i-major.
    """
    objs = sorted(dom.objects, key=int)
    mmap = {dom.id_of(x): cod.id_of(omap[x]) for x in objs}
    up: dict[tuple[int, int], str] = {}
    for i in range(len(objs)):
        m = cod.id_of(omap[str(i)])
        for j in range(i + 1, len(objs)):
            m = up[i, j] = cod.compose(gen[f"p{j - 1}{j}"], m)
    for i in range(len(objs)):
        for j in range(len(objs)):
            if i < j:
                mmap[f"p{i}{j}"] = up[i, j]
            elif i > j:
                mmap[f"p{i}{j}"] = cod.inv_of(up[j, i])
    return GFunctor(dom, cod, omap, mmap)


def _standard_interval() -> IntervalData:
    I0 = terminal_groupoid("0")
    I1 = chain_groupoid(1)
    I2 = chain_groupoid(2)
    I3 = chain_groupoid(3)
    pt = I0.objects[0]

    def point(cod: FinGroupoid, obj: str) -> GFunctor:
        return GFunctor(I0, cod, {pt: obj}, {I0.id_of(pt): cod.id_of(obj)})

    zero = point(I1, "0")
    one = point(I1, "1")
    star = GFunctor(I1, I0, {"0": pt, "1": pt},
                    {m: I0.id_of(pt) for m in I1.morphisms})
    sigma = _chain_functor(I1, I1, {"0": "1", "1": "0"}, {"p01": "p10"})
    two = _chain_functor(I1, I2, {"0": "0", "1": "2"}, {"p01": "p02"})
    i0 = _chain_functor(I1, I2, {"0": "0", "1": "1"}, {"p01": "p01"})
    i1 = _chain_functor(I1, I2, {"0": "1", "1": "2"}, {"p01": "p12"})
    j0 = _chain_functor(I2, I3, {"0": "0", "1": "1", "2": "2"},
                        {"p01": "p01", "p12": "p12"})
    j1 = _chain_functor(I2, I3, {"0": "1", "1": "2", "2": "3"},
                        {"p01": "p12", "p12": "p23"})
    return IntervalData(I0, I1, I2, I3, zero, one, star, sigma, two, i0, i1, j0, j1)


def gpd_interval(caps: SizeCaps = DEFAULT_CAPS) -> GpdRealizer:
    """The shipped instance: groupoids with the walking-isomorphism interval."""
    return GpdRealizer(caps=caps)


def path_of_morphism(r: GpdRealizer, a: FinGroupoid, m: str) -> GFunctor:
    """The path I1 -> a tracing the morphism m."""
    s, t = a.mors[m]
    return _chain_functor(r.interval.I1, a, {"0": s, "1": t}, {"p01": m})


def nat_iso_functor_form(r: GpdRealizer, n: NatIso) -> GFunctor:
    """The functor X x I1 -> Y packaging a natural isomorphism."""
    i1 = r.interval.I1
    F, G = n.src, n.tgt
    x, y = F.dom, F.cod
    pa = r.product(x, i1)
    omap = {}
    for xo in x.objects:
        omap[pa.opair[(xo, "0")]] = F.omap[xo]
        omap[pa.opair[(xo, "1")]] = G.omap[xo]
    mmap = {}
    for (m, u), mid in pa.mpair.items():
        s, s2 = i1.mors[u]
        xt = x.mors[m][1]
        base = F.mmap[m] if s == "0" else G.mmap[m]
        if s == s2:
            mmap[mid] = base
        elif (s, s2) == ("0", "1"):
            mmap[mid] = y.compose(n.components[xt], base)
        else:
            mmap[mid] = y.compose(y.inv_of(n.components[xt]), base)
    return GFunctor(pa.p1.dom, y, omap, mmap)


def homotopy_from_nat_iso(r: GpdRealizer, n: NatIso) -> Homotopy:
    """Package a natural isomorphism as a homotopy (its functor form)."""
    return Homotopy(r, n.src, n.tgt, nat_iso_functor_form(r, n))


def nat_iso_from_homotopy(h: Homotopy) -> NatIso:
    """Extract the componentwise natural isomorphism from a homotopy."""
    r: GpdRealizer = h.r
    x = h.a
    pa = r.product(x, r.interval.I1)
    comps = {xo: h.body.mmap[pa.mpair[(x.id_of(xo), "p01")]] for xo in x.objects}
    return NatIso(h.lhs, h.rhs, comps)


def pi_base_iso(r: GpdRealizer, a: FinGroupoid) -> GFunctor:
    """The explicit isomorphism Pi(A) -> A in the groupoid instance."""
    pa = r.pi(a)
    omap = {o: p.omap[r.interval.I0.objects[0]] for o, p in pa.point_of.items()}
    mmap = {m: al.mmap["p01"] for m, al in pa.path_of.items()}
    return GFunctor(pa.gpd, a, omap, mmap)


# -- cogroupoid axiom checking ----------------------------------------------

def check_cogroupoid(r, iv: Optional[IntervalData] = None) -> Report:
    """Scan the interval diagrams and both pushout universal properties.

    `r` is the realizer category `GpdRealizer`, or
    `assemblies.PGAsmInterval` for the assemblies' own interval (the
    realizer's, each I_k realized by itself); the scan reads of it only
    `interval`, `hom`, `compose`, `identity`, `copair2` and `copair3`.
    The second coinverse diagram is checked in its symmetric form with
    codomain I1 (the asymmetric printed form does not typecheck); the
    detail of its entry says so.
    """
    iv = iv or r.interval
    rep = Report()
    probes = [iv.I0, iv.I1, iv.I2, iv.I3]

    def check(name: str, run: Callable[[], bool], detail: str = ""):
        # a copair whose legs fail to match is itself an axiom violation
        try:
            ok = run()
        except BoundaryError as exc:
            ok = False
            detail = str(exc)
        rep.add(name, ok, detail)

    c = r.compose
    ident = r.identity
    check("I0-terminal", lambda: all(len(r.hom(x, iv.I0)) == 1 for x in probes),
          "hom(X, I0) is a singleton for every probe")
    check("endpoint-cocomposition-0",
          lambda: c(iv.two, iv.zero) == c(iv.i0, iv.zero))
    check("endpoint-cocomposition-1",
          lambda: c(iv.two, iv.one) == c(iv.i1, iv.one))
    check("coidentity-endpoints",
          lambda: c(iv.star, iv.zero) == ident(iv.I0)
          and c(iv.star, iv.one) == ident(iv.I0),
          "star absorbs both endpoints")
    check("sigma-endpoints",
          lambda: c(iv.sigma, iv.zero) == iv.one
          and c(iv.sigma, iv.one) == iv.zero,
          "sigma swaps the endpoints")
    check("sigma-involution",
          lambda: c(iv.sigma, iv.sigma) == ident(iv.I1))
    check("coidentity",
          lambda: c(r.copair2(ident(iv.I1), c(iv.zero, iv.star)), iv.two)
          == ident(iv.I1)
          and c(r.copair2(c(iv.one, iv.star), ident(iv.I1)), iv.two)
          == ident(iv.I1),
          "copairing with a degenerate path is neutral")
    check("coassociativity",
          lambda: c(r.copair2(c(iv.j1, iv.two), c(iv.j0, iv.i0)), iv.two)
          == c(r.copair2(c(iv.j1, iv.i1), c(iv.j0, iv.two)), iv.two))
    check("coinverse-left",
          lambda: c(r.copair2(ident(iv.I1), iv.sigma), iv.two)
          == c(iv.one, iv.star))
    check("coinverse-right",
          lambda: c(r.copair2(iv.sigma, ident(iv.I1)), iv.two)
          == c(iv.zero, iv.star),
          "checked with codomain I1 (symmetric form)")
    _check_pushout(rep, "pushout-I2", r, probes, iv.I1, iv.I2, iv.i0, iv.i1,
                   iv.one, iv.zero, lambda u, v: r.copair2(v, u))
    _check_pushout(rep, "pushout-I3", r, probes, iv.I2, iv.I3, iv.j0, iv.j1,
                   iv.i1, iv.i0, r.copair3)
    return rep


def restriction_counts(r, cands, e0: Map, e1: Map) -> Counter:
    """How many of `cands` restrict along (e0, e1) to each pair of legs.

    The pushout checks look up every pair of legs here, so each candidate is
    composed once per probe.  Lookup stands in for `==`: maps hash
    consistently with it.
    """
    return Counter((r.compose(m, e0), r.compose(m, e1)) for m in cands)


def _check_pushout(rep: Report, name: str, r, probes, legs,
                   cop, e0: Map, e1: Map, ea: Map, eb: Map,
                   copair: Callable[[Map, Map], Map]) -> None:
    """The pushout property of `cop` with injections e0, e1, at each probe x.

    Legs u, v: legs -> x meet when u . ea = v . eb.  For each meeting pair,
    `copair(u, v)` must restrict to u along e0 and to v along e1, and be the
    only map cop -> x that does.
    """
    for x in probes:
        us = r.hom(legs, x)
        ends = [(r.compose(u, ea), r.compose(u, eb)) for u in us]
        counts = restriction_counts(r, r.hom(cop, x), e0, e1)
        for u, (ua, _ub) in zip(us, ends):
            for v, (_va, vb) in zip(us, ends):
                if ua != vb:
                    continue
                cp = copair(u, v)
                if not (r.compose(cp, e0) == u
                        and r.compose(cp, e1) == v):
                    rep.add(name, False, "copair does not restrict to its legs")
                    return
                n = counts[(u, v)]
                if n != 1:
                    rep.add(name, False, f"expected a unique copairing, found {n}")
                    return
    rep.add(name, True)
