"""Path-category structure on assemblies: fibrations, path objects, limits.

Fibrations are isofibrations of the underlying groupoids; the carried
cleavage supplies transports realized by (identity, lift-image) pairs.
Every transport along a cleavage goes through `_lift`.
Acyclicity is always certified by explicitly carried equivalence data,
mirroring the hypotheses under which the constructions are stated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, Optional

from .errors import BoundaryError, StructuralError
from .groupoids import (
    EquivalenceData, FinGroupoid, GFunctor, LiftFailure, NatIso, ProductGpd,
    Report, compose_functors, conjugate, equivalence_inverse,
    identity_functor, identity_nat_iso, invert_nat_iso, iso_comma,
    isofibration_cleavage, pullback as gpd_pullback,
)
from .assemblies import (
    Assembly, PGAsmInterval, ProductAssembly, RealizedMorphism, TwoCell,
    WeakExpObject, _cell, _identity_eps, _paired_assembly, bang,
    compose_morphisms, identity_morphism, product_assembly, realize, realized,
    twocell_from_iso, validate_morphism, validate_twocell, weak_exponential,
)


@dataclass
class FibrationData:
    """A realized morphism with a deterministic cleavage.

    lifts[(x, q)] is the chosen morphism over q with source x; transports
    between fibres are realized by (identity, lift-image) witnesses.
    """

    morphism: RealizedMorphism
    lifts: dict[tuple[str, str], str]

    def __post_init__(self):
        self._fibres: dict[str, Assembly] = {}

    @property
    def src(self) -> Assembly:
        return self.morphism.src

    @property
    def tgt(self) -> Assembly:
        return self.morphism.tgt

    def lift(self, x: str, q: str) -> str:
        return self.lifts[(x, q)]

    def fibre(self, y: str) -> Assembly:
        """The fibre assembly over a base object, with restricted realizers."""
        if y not in self._fibres:
            total = self.src
            fun = self.morphism.fun
            base = total.base
            idy = self.tgt.base.id_of(y)
            objs = [o for o in base.objects if fun.omap[o] == y]
            mors = {m: base.mors[m] for m in base.morphisms if fun.mmap[m] == idy}
            ident = {o: base.ident[o] for o in objs}
            inv = {m: base.inv[m] for m in mors}
            fb = FinGroupoid(objs, mors, lambda: {
                (g, f): h for (g, f), h in base.comp.items()
                if g in mors and f in mors}, ident, inv)
            rfun = GFunctor(fb, total.pi.gpd,
                            {o: total.rfun.omap[o] for o in objs},
                            {m: total.rfun.mmap[m] for m in mors})
            self._fibres[y] = Assembly(total.r, fb, total.rtype, rfun)
        return self._fibres[y]

    def transport(self, q: str) -> RealizedMorphism:
        """The transport functor along q, realized by (id, lift images)."""
        y, y2 = self.tgt.base.mors[q]
        fy, total = self.fibre(y), self.src
        incl = GFunctor(fy.base, total.base, {o: o for o in fy.base.objects},
                        {m: m for m in fy.base.morphisms})
        incl_m = _identity_eps(fy, total, incl, total.r.identity(total.rtype))
        over = dict.fromkeys(fy.base.objects, q)
        return _lift(self, incl_m, over, self.fibre(y2))[0]


def _lift(p: FibrationData, m: RealizedMorphism, over: dict[str, str],
          tgt: Optional[Assembly] = None) -> tuple[RealizedMorphism, dict[str, str]]:
    """m transported along the chosen lifts of over[x] at m x: (m', lifts).

    lifts[x] runs m x -> m' x in p's total assembly, and m'.fun is m.fun
    conjugated along them.  m' keeps m's realizer e; its witness at x is
    the realizer of lifts[x] after m's.  m' lands in `tgt`, a sub-assembly
    of the total assembly holding its image, or else in the total assembly.
    """
    total = p.src
    lifts = {x: p.lift(m.fun.omap[x], over[x]) for x in m.src.base.objects}
    fun = conjugate(m.fun, lifts, None if tgt is None else tgt.base)
    pit, rm, eps = total.pi.gpd, total.rfun.mmap, m.eps.components
    comps = {x: pit.compose(rm[lift], eps[x]) for x, lift in lifts.items()}
    return realized(m.src, total if tgt is None else tgt, fun, m.e, comps), lifts


def is_fibration(m: RealizedMorphism):
    """FibrationData when the underlying functor is an isofibration."""
    res = isofibration_cleavage(m.fun)
    if isinstance(res, LiftFailure):
        return res
    return FibrationData(m, res)


@dataclass
class AsmEquivalence:
    """An equivalence of assemblies with realized unit and counit 2-cells.

    unit: identity => bwd . fwd, counit: identity => fwd . bwd.
    """

    fwd: RealizedMorphism
    bwd: RealizedMorphism
    unit: TwoCell
    counit: TwoCell


def validate_asm_equivalence(pg: PGAsmInterval, eq: AsmEquivalence) -> Report:
    rep = Report()
    for m, nm in ((eq.fwd, "fwd"), (eq.bwd, "bwd")):
        rep.merge(validate_morphism(m), f"{nm}-")
    for c, nm in ((eq.unit, "unit"), (eq.counit, "counit")):
        rep.merge(validate_twocell(pg, c), f"{nm}-")
    if eq.unit.src.fun != identity_functor(eq.fwd.src.base) \
            or eq.unit.tgt.fun != compose_functors(eq.bwd.fun, eq.fwd.fun):
        rep.add("unit-boundary", False, "unit does not run id => bwd.fwd")
    if eq.counit.src.fun != identity_functor(eq.bwd.src.base) \
            or eq.counit.tgt.fun != compose_functors(eq.fwd.fun, eq.bwd.fun):
        rep.add("counit-boundary", False, "counit does not run id => fwd.bwd")
    return rep


def as_equivalence(pg: PGAsmInterval, m: RealizedMorphism) -> Optional[AsmEquivalence]:
    """Equivalence data for m, if its underlying functor is one and a
    pseudoinverse is realizable."""
    eq = equivalence_inverse(m.fun)
    if not isinstance(eq, EquivalenceData):
        return None
    bwd = realize(m.tgt, m.src, eq.bwd)
    if bwd is None:
        return None
    idx = identity_morphism(m.src)
    idy = identity_morphism(m.tgt)
    unit = twocell_from_iso(pg, eq.unit, idx, compose_morphisms(bwd, m))
    counit = twocell_from_iso(pg, eq.counit, idy, compose_morphisms(m, bwd))
    return AsmEquivalence(m, bwd, unit, counit)


# -- PC6: path objects --------------------------------------------------------

@dataclass
class PathObjectData:
    """Factorisation of the diagonal through the interval exponential."""

    x: Assembly
    pobj: WeakExpObject
    r_mor: RealizedMorphism              # X -> PX
    st: RealizedMorphism                 # PX -> X x X, a fibration
    prod: ProductAssembly                # X x X
    r_equiv: AsmEquivalence
    chosen_lift: Callable[[str, str], str]   # (object of PX, morphism of XxX) -> morphism of PX


def path_object(x: Assembly, pg: PGAsmInterval) -> PathObjectData:
    r = x.r
    iv = r.interval
    w = weak_exponential(pg.interval.I1, x)
    pix = x.pi
    pie = r.pi(w.asm.rtype)
    i1a = pg.interval.I1
    i1b = i1a.base

    def loop_functor(xo: str) -> GFunctor:
        return GFunctor(i1b, x.base,
                        {"0": xo, "1": xo},
                        {"id_0": x.base.id_of(xo), "id_1": x.base.id_of(xo),
                         "p01": x.base.id_of(xo), "p10": x.base.id_of(xo)})

    # r: X -> PX, the constant loops with identity witnesses
    omap = {}
    for xo in x.base.objects:
        e = _path_point(r, pix.path_of[pix.gpd.id_of(x.rfun.omap[xo])])
        pe = r.pi_map(r.point_as_map(e, i1a.rtype, x.rtype))
        eps = tuple([pix.gpd.id_of(pe.omap[i1a.rfun.omap[o]]) for o in i1b.objects])
        omap[xo] = w.obj_id(loop_functor(xo), r.pi_obj_id(e), eps)
    mmap = {}
    for m in x.base.morphisms:
        s, t = x.base.mors[m]
        pm = pix.path_of[x.rfun.mmap[m]]
        ids = pix.path_of[pix.gpd.id_of(x.rfun.omap[s])]
        idt = pix.path_of[pix.gpd.id_of(x.rfun.omap[t])]
        f_path = _square_path(r, pm, pm, ids, idt, x.rtype)
        mmap[m] = w.mor_id(omap[s], (m, m), r.pi_mor_id(f_path))
    r_fun = GFunctor(x.base, w.asm.base, omap, mmap)
    e_r = r.const_path_map(x.rtype)
    pe = r.pi_map(e_r)
    r_mor = realized(x, w.asm, r_fun, e_r, {o: pie.gpd.id_of(pe.omap[x.rfun.omap[o]])
                                            for o in x.base.objects})

    # (s,t): PX -> X x X
    prod = product_assembly(x, x)
    st_omap = {}
    st_mmap = {}
    for oid, (F, po, eps) in w.obj_data.items():
        st_omap[oid] = prod.raw_base.opair[(F.omap["0"], F.omap["1"])]
    for mid, (psi, f) in w.mor_data.items():
        st_mmap[mid] = prod.raw_base.mpair[(psi.components["0"], psi.components["1"])]
    st_fun = GFunctor(w.asm.base, prod.asm.base, st_omap, st_mmap)
    E = w.asm.rtype
    pe1 = r.product(E, iv.I1)

    def end_leg(end):
        sec = pe1.pair(r.identity(E), r.compose(end, r.terminal_map(E)))
        return r.compose(r.exponential(iv.I1, x.rtype).ev, sec)

    e_st = prod.rprod.pair(end_leg(iv.zero), end_leg(iv.one))
    comps = {}
    for oid, (F, po, eps) in w.obj_data.items():
        comps[oid] = r.pi_pair(prod.rprod, eps.components["0"], eps.components["1"])
    st = realized(w.asm, prod.asm, st_fun, e_st, comps)
    if isinstance(is_fibration(st), LiftFailure):
        raise StructuralError("the path-object boundary map failed to be a fibration")

    # chosen lift of a pair (p1, p2) of base morphisms at an object of PX
    split = {mid: pq for pq, mid in prod.raw_base.mpair.items()}

    def chosen_lift(oid: str, pmor: str) -> str:
        F, po, eps = w.obj_data[oid]
        p1, p2 = split[pmor]
        if x.base.src(p1) != F.omap["0"] or x.base.src(p2) != F.omap["1"]:
            raise BoundaryError("lift source mismatch")
        G = conjugate(F, {"0": p1, "1": p2})
        pxg = pix.gpd
        delta = (pxg.compose(x.rfun.mmap[p1], eps.components["0"]),
                 pxg.compose(x.rfun.mmap[p2], eps.components["1"]))
        m_e = r.point_as_map(pie.point_of[po], iv.I1, x.rtype)
        top = pix.path_of[pxg.id_of(r.pi_obj_id(r.path_src(m_e)))]
        bottom = pix.path_of[pxg.id_of(r.pi_obj_id(r.path_tgt(m_e)))]
        f_path = _square_path(r, top, bottom, m_e, m_e, x.rtype)
        tgt_oid = w.obj_id(G, po, delta)
        mid = w.mor_id(oid, (p1, p2), r.pi_mor_id(f_path))
        if w.asm.base.mors[mid][1] != tgt_oid:
            raise StructuralError("chosen lift does not land at the forced target")
        return mid

    # the pseudoinverse of r: first projection s = pr1 . st
    s_mor = compose_morphisms(prod.p1, st)
    unit = twocell_from_iso(pg, identity_nat_iso(identity_functor(x.base)),
                            identity_morphism(x),
                            compose_morphisms(s_mor, r_mor))
    counit_comps = {}
    for oid, (F, po, eps) in w.obj_data.items():
        x0 = F.omap["0"]
        psi_hat = (x.base.id_of(x0), x.base.inv_of(F.mmap["p01"]))
        m_e = r.point_as_map(pie.point_of[po], iv.I1, x.rtype)
        pxg = pix.gpd
        top = pix.path_of[eps.components["0"]]
        bottom = pix.path_of[pxg.compose(pxg.inv_of(x.rfun.mmap[F.mmap["p01"]]),
                                         eps.components["1"])]
        right_edge = pix.path_of[pxg.id_of(x.rfun.omap[x0])]
        f_hat = _square_path(r, top, bottom, m_e, right_edge, x.rtype)
        counit_comps[oid] = w.mor_id(oid, psi_hat, r.pi_mor_id(f_hat))
    counit_iso = NatIso(identity_functor(w.asm.base),
                        compose_functors(r_fun, s_mor.fun), counit_comps)
    counit = twocell_from_iso(pg, counit_iso, identity_morphism(w.asm),
                              compose_morphisms(r_mor, s_mor))
    requiv = AsmEquivalence(r_mor, s_mor, unit, counit)
    return PathObjectData(x, w, r_mor, st, prod, requiv, chosen_lift)


# -- PC7 and PC8 --------------------------------------------------------------

def pc7_section(f: FibrationData, pinv: RealizedMorphism,
                psi: TwoCell) -> RealizedMorphism:
    """A section of an acyclic fibration, from its certified inverse.

    psi runs F . G => id on the base of the codomain; the section sends y
    to the transport of G y along psi_y.
    """
    if psi.src.fun != compose_functors(f.morphism.fun, pinv.fun) \
            or psi.tgt.fun != identity_functor(f.tgt.base):
        raise BoundaryError("the 2-cell must run F.G => id")
    return _lift(f, pinv, psi.iso.components)[0]


def pullback_assembly(f: RealizedMorphism, g: RealizedMorphism) -> ProductAssembly:
    """Strict pullback with the paired realizer type."""
    if f.tgt != g.tgt:
        raise BoundaryError("pullback: codomain mismatch")
    return _paired_assembly(f.src, g.src, gpd_pullback(f.fun, g.fun))


def _path_point(r, path):
    """Transpose a path I1 -> C into a point of C^I1."""
    iv = r.interval
    pr = r.product(iv.I0, iv.I1)
    return r.transpose(r.compose(path, pr.p2), pr, iv.I1, path.cod)


def _square_path(r, top, bottom, left, right, target):
    """Transpose a filled square into a path of C^I1."""
    iv = r.interval
    fill = r.fill_square(top, bottom, left, right)
    return r.transpose(fill, r.product(iv.I1, iv.I1), iv.I1, target)


@dataclass
class PseudoPullbackAssembly:
    asm: Assembly
    p1: RealizedMorphism
    p2: RealizedMorphism
    conn: TwoCell                  # the generic connecting 2-cell
    raw: object                    # IsoCommaGpd of the bases
    rab: ProductGpd                # A x B
    rtriple: ProductGpd            # (A x B) x C^I1
    f: RealizedMorphism
    g: RealizedMorphism

    def pair(self, s: RealizedMorphism, t: RealizedMorphism,
             psi: TwoCell, pg: PGAsmInterval) -> RealizedMorphism:
        """[S, T, psi] realized by the triple of witnesses."""
        r = self.asm.r
        iv = r.interval
        z = self.f.tgt
        w_asm = s.src
        if psi.src.fun != compose_functors(self.f.fun, s.fun) \
                or psi.tgt.fun != compose_functors(self.g.fun, t.fun):
            raise BoundaryError("the 2-cell must run F.S => G.T")
        fun = self.raw.pair(s.fun, t.fun, psi.iso)
        e = self.rtriple.pair(self.rab.pair(s.e, t.e),
                              r.transpose(psi.ew,
                                          r.product(w_asm.rtype, iv.I1),
                                          iv.I1, z.rtype))
        piz = z.pi
        cylp = r.product(w_asm.rtype, iv.I1)
        comps = {}
        for wo in w_asm.base.objects:
            pt_w = w_asm.pi.point_of[w_asm.rfun.omap[wo]]
            left_edge = r.compose(psi.ew, cylp.pair(
                r.compose(pt_w, r.terminal_map(iv.I1)), r.identity(iv.I1)))
            cyl = pg.cylinder(w_asm)
            top = piz.path_of[psi.epsw.components[cyl.raw_base.opair[(wo, "0")]]]
            bottom = piz.path_of[psi.epsw.components[cyl.raw_base.opair[(wo, "1")]]]
            right_edge = piz.path_of[z.rfun.mmap[psi.iso.components[wo]]]
            lam = _square_path(r, top, bottom, left_edge, right_edge, z.rtype)
            comps[wo] = r.pi_pair(self.rtriple,
                                  r.pi_pair(self.rab, s.eps.components[wo],
                                            t.eps.components[wo]),
                                  r.pi_mor_id(lam))
        return realized(w_asm, self.asm, fun, e, comps)


def pseudopullback_assembly(f: RealizedMorphism, g: RealizedMorphism,
                            pg: PGAsmInterval) -> PseudoPullbackAssembly:
    """Iso-comma assembly whose third realizer component carries the path."""
    if f.tgt != g.tgt:
        raise BoundaryError("pseudopullback: codomain mismatch")
    r = f.src.r
    iv = r.interval
    z = f.tgt
    raw = iso_comma(f.fun, g.fun)
    cexp = r.exponential(iv.I1, z.rtype)
    rab = r.product(f.src.rtype, g.src.rtype)
    rtriple = r.product(rab.gpd, cexp.obj)
    piz = z.pi
    omap = {}
    for (a, b, rho), oid in raw.otriple.items():
        lam = _path_point(r, piz.path_of[z.rfun.mmap[rho]])
        omap[oid] = r.pi_pair(rtriple, r.pi_pair(rab, f.src.rfun.omap[a],
                                                 g.src.rfun.omap[b]),
                              r.pi_obj_id(lam))
    mmap = {}
    rho_of = {oid: rho for (a, b, rho), oid in raw.otriple.items()}
    for (p, q, src_oid), mid in raw.mpair.items():
        tgt_oid = raw.gpd.mors[mid][1]
        lam = _square_path(
            r,
            piz.path_of[z.rfun.mmap[f.fun.mmap[p]]],
            piz.path_of[z.rfun.mmap[g.fun.mmap[q]]],
            piz.path_of[z.rfun.mmap[rho_of[src_oid]]],
            piz.path_of[z.rfun.mmap[rho_of[tgt_oid]]],
            z.rtype)
        mmap[mid] = r.pi_pair(rtriple, r.pi_pair(rab, f.src.rfun.mmap[p],
                                                 g.src.rfun.mmap[q]),
                              r.pi_mor_id(lam))
    pi_t = r.pi(rtriple.gpd)
    rfun = GFunctor(raw.gpd, pi_t.gpd, omap, mmap)
    asm = Assembly(r, raw.gpd, rtriple.gpd, rfun)
    p1 = _identity_eps(asm, f.src, raw.p1, r.compose(rab.p1, rtriple.p1))
    p2 = _identity_eps(asm, g.src, raw.p2, r.compose(rab.p2, rtriple.p1))
    # the generic 2-cell, realized by evaluating the stored path component
    pe1 = r.product(cexp.obj, iv.I1)
    outer = r.product(rtriple.gpd, iv.I1)
    ew = r.compose(cexp.ev, pe1.pair(r.compose(rtriple.p2, outer.p1), outer.p2))
    # identity components at the image under Pi(ew) of each cylinder end
    cyl = pg.cylinder(asm)
    pe, ends = r.pi_map(ew), cyl.asm.rfun.omap
    at0, at1 = ({o: piz.gpd.id_of(pe.omap[ends[cyl.raw_base.opair[(o, k)]]])
                 for o in raw.gpd.objects} for k in "01")
    conn = _cell(pg, compose_morphisms(f, p1), compose_morphisms(g, p2),
                 raw.generic, ew, at0, at1)
    return PseudoPullbackAssembly(asm, p1, p2, conn, raw, rab, rtriple, f, g)


# -- PC8 -----------------------------------------------------------------------

def pc8_pseudoinverse(g: FibrationData, g_equiv: AsmEquivalence,
                      f: RealizedMorphism, pg: PGAsmInterval):
    """Pseudoinverse of the pullback of an acyclic fibration along f.

    g: Y -> Z acyclic with pseudoinverse data; f: X -> Z arbitrary.
    Returns (pullback, S, sigma) with pullback.p1 . S = id_X exactly and
    sigma: id => S . (pulled-back g).
    """
    G = g.morphism
    if g_equiv.fwd != G:
        raise BoundaryError("equivalence data is not for the given fibration")
    h = g_equiv.bwd                      # H: Z -> Y
    # psi: G.H => id_Z is the inverse of the carried counit id => G.H
    psi = invert_nat_iso(g_equiv.counit.iso)
    pb = pullback_assembly(f, G)
    x_asm, y_asm = f.src, G.src
    t_mor, lifts = _lift(g, compose_morphisms(h, f),
                         {xo: psi.components[f.fun.omap[xo]]
                          for xo in x_asm.base.objects})
    s_mor = pb.pair(identity_morphism(x_asm), t_mor)
    # sigma: id_{F*Y} => S . F*(G)
    fstar_g = pb.p1
    comp = compose_morphisms(s_mor, fstar_g)
    sigma_comps = {}
    for oid, (xo, yo) in ((oid, ab) for ab, oid in pb.raw_base.opair.items()):
        phi_y = g_equiv.unit.iso.components[yo]     # y -> H G y = H F x
        sigma_y = y_asm.base.compose(lifts[xo], phi_y)
        sigma_comps[oid] = pb.raw_base.mpair[(x_asm.base.id_of(xo), sigma_y)]
    sigma_iso = NatIso(identity_functor(pb.asm.base), comp.fun, sigma_comps)
    sigma = twocell_from_iso(pg, sigma_iso, identity_morphism(pb.asm), comp)
    return pb, s_mor, sigma


# -- PC1-PC5 and Brown's lemma as checkable predicates -------------------------

def pc1_isos_are_fibrations(morphisms: list[RealizedMorphism]) -> bool:
    """Isomorphisms are fibrations; fibrations compose.

    Whether a pooled morphism is a fibration is decided once, when first
    asked.
    """
    @cache
    def fib(i: int) -> bool:
        return isinstance(is_fibration(morphisms[i]), FibrationData)

    if any(_is_iso_functor(m.fun) and not fib(i) for i, m in enumerate(morphisms)):
        return False
    return not any(
        m1.tgt == m2.src and fib(i) and fib(j)
        and not isinstance(is_fibration(compose_morphisms(m2, m1)), FibrationData)
        for i, m1 in enumerate(morphisms) for j, m2 in enumerate(morphisms))


def _is_iso_functor(f: GFunctor) -> bool:
    return (sorted(f.omap.values()) == sorted(f.cod.objects)
            and len(set(f.omap.values())) == len(f.cod.objects)
            and sorted(f.mmap.values()) == sorted(f.cod.morphisms)
            and len(set(f.mmap.values())) == len(f.cod.morphisms))


def pc2_pullback_of_fibration(fib: FibrationData, f: RealizedMorphism) -> bool:
    """The pullback of a fibration is a fibration."""
    pb = pullback_assembly(f, fib.morphism)
    got = is_fibration(pb.p1)
    return isinstance(got, FibrationData) and validate_morphism(pb.p1).ok


def pc3_terminal_fibration(x: Assembly, pg: PGAsmInterval) -> bool:
    return isinstance(is_fibration(bang(x, pg.interval.I0)), FibrationData)


def pc4_isos_are_equivalences(m: RealizedMorphism, pg: PGAsmInterval) -> bool:
    if not _is_iso_functor(m.fun):
        return True
    eq = as_equivalence(pg, m)
    return eq is not None and validate_asm_equivalence(pg, eq).ok


def pc5_two_out_of_six(ms: tuple[RealizedMorphism, RealizedMorphism,
                                 RealizedMorphism], pg: PGAsmInterval) -> bool:
    """For composable f, g, h with gf and hg equivalences, all of
    f, g, h, hgf are equivalences."""
    f, g, h = ms
    if f.tgt != g.src or g.tgt != h.src:
        raise BoundaryError("the three morphisms must be composable")
    gf = compose_morphisms(g, f)
    hg = compose_morphisms(h, g)
    if as_equivalence(pg, gf) is None or as_equivalence(pg, hg) is None:
        return True
    return all(as_equivalence(pg, m) is not None
               for m in (f, g, h, compose_morphisms(h, gf)))


def brown_factor_check(fib: FibrationData, equiv_fib: FibrationData,
                       eq_data: AsmEquivalence, f: RealizedMorphism,
                       pg: PGAsmInterval) -> bool:
    """Pulling back preserves fibrations and (acyclic-fibration) equivalences."""
    if not pc2_pullback_of_fibration(fib, f):
        return False
    pb, s_mor, sigma = pc8_pseudoinverse(equiv_fib, eq_data, f, pg)
    ok = compose_morphisms(pb.p1, s_mor).fun == identity_functor(f.src.base)
    return ok and validate_twocell(pg, sigma).ok and validate_morphism(s_mor).ok
