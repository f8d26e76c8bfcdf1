"""Weak dependent products and modest fibrations.

Objects of the dependent product carry an explicit section of the homotopy
fibre together with a chosen realizer point and filler; the product is
weak precisely because those choices are data.  Everything is enumerated
per fibre under the ambient size caps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from .errors import BoundaryError, SizeCapError, StructuralError
from .groupoids import (
    FinGroupoid, GFunctor, NatIso, composable_pairs, compose_functors,
    conjugate, functors_between, nat_isos_between,
)
from .assemblies import (
    Assembly, ProductAssembly, RealizedMorphism, _evaluate_paths,
    _identity_eps, compose_morphisms, is_modest, realized,
)
from .interval import GpdRealizer
from .pathcat import FibrationData, _path_point, _square_path, pullback_assembly


def _fibre_obj_id(y: str, u: str) -> str:
    return f"({y}|{u})"


def _fibre_mor_id(q: str, u: str) -> str:
    return f"({q}|{u})"


@dataclass
class HomotopyFibre:
    """The homotopy fibre of f over a point, as a pseudopullback.

    Objects are pairs (y, u: F y -> z); the realizer type is the product of
    the domain realizer type with the path object of the codomain type.
    """

    asm: Assembly
    proj: RealizedMorphism          # to the domain of f
    z: str
    f: RealizedMorphism
    obj_of: dict[tuple[str, str], str]
    mor_of: dict[tuple[str, str], str]
    data_of: dict[str, tuple[str, str]]


def homotopy_fibre(f: RealizedMorphism, z: str) -> HomotopyFibre:
    r = f.src.r
    iv = r.interval
    y_asm, z_asm = f.src, f.tgt
    if z not in z_asm.base.objects:
        raise StructuralError(f"{z!r} is not an object of the codomain")
    zb = z_asm.base
    cexp = r.exponential(iv.I1, z_asm.rtype)
    rprod = r.product(y_asm.rtype, cexp.obj)
    piz = z_asm.pi

    objs: dict[tuple[str, str], str] = {}
    for y in y_asm.base.objects:
        for u in zb.hom(f.fun.omap[y], z):
            objs[(y, u)] = _fibre_obj_id(y, u)
    mors: dict[str, tuple[str, str]] = {}
    mor_of: dict[tuple[str, str], str] = {}
    minfo: dict[str, tuple[str, str, str]] = {}     # mid -> (q, u_src, u_tgt)
    for (y, u), oid in objs.items():
        for q in y_asm.base.out_of(y):
            u2 = zb.compose(u, zb.inv_of(f.fun.mmap[q]))
            mid = _fibre_mor_id(q, u)
            mors[mid] = (oid, objs[(y_asm.base.tgt(q), u2)])
            mor_of[(q, u)] = mid
            minfo[mid] = (q, u, u2)
    comp = {}
    for m2, m1 in composable_pairs(mors):
        (q2, _, _), (q1, us1, _) = minfo[m2], minfo[m1]
        comp[(m2, m1)] = mor_of[(y_asm.base.compose(q2, q1), us1)]
    ident = {objs[(y, u)]: mor_of[(y_asm.base.id_of(y), u)] for (y, u) in objs}
    inv = {m: mor_of[(y_asm.base.inv_of(q), ut)] for m, (q, us, ut) in minfo.items()}
    base = FinGroupoid(list(objs.values()), mors, comp, ident, inv)

    omap = {}
    for (y, u), oid in objs.items():
        omap[oid] = r.pi_pair(rprod, y_asm.rfun.omap[y], r.pi_obj_id(
            _path_point(r, piz.path_of[z_asm.rfun.mmap[u]])))
    mmap = {}
    for mid, (q, u, u2) in minfo.items():
        lam = _square_path(
            r,
            piz.path_of[z_asm.rfun.mmap[f.fun.mmap[q]]],
            piz.path_of[piz.gpd.id_of(z_asm.rfun.omap[z])],
            piz.path_of[z_asm.rfun.mmap[u]],
            piz.path_of[z_asm.rfun.mmap[u2]],
            z_asm.rtype)
        mmap[mid] = r.pi_pair(rprod, y_asm.rfun.mmap[q], r.pi_mor_id(lam))
    pi_t = r.pi(rprod.gpd)
    rfun = GFunctor(base, pi_t.gpd, omap, mmap)
    asm = Assembly(r, base, rprod.gpd, rfun)
    proj_fun = GFunctor(base, y_asm.base,
                        {oid: y for (y, u), oid in objs.items()},
                        {mid: q for mid, (q, _u, _u2) in minfo.items()})
    proj = _identity_eps(asm, y_asm, proj_fun, rprod.p1)
    return HomotopyFibre(asm, proj, z, f, objs, mor_of,
                         {oid: yu for yu, oid in objs.items()})


def fibre_map(hf_src: HomotopyFibre, hf_tgt: HomotopyFibre,
              rmor: str) -> RealizedMorphism:
    """F|r : F|z -> F|z', post-composing the connecting path with r."""
    f = hf_src.f
    r = f.src.r
    zb = f.tgt.base
    if zb.mors[rmor] != (hf_src.z, hf_tgt.z):
        raise BoundaryError("the connecting morphism does not match the fibres")
    omap = {}
    mmap = {}
    for oid, (y, u) in hf_src.data_of.items():
        omap[oid] = hf_tgt.obj_of[(y, zb.compose(rmor, u))]
    for (q, u), mid in hf_src.mor_of.items():
        mmap[mid] = hf_tgt.mor_of[(q, zb.compose(rmor, u))]
    fun = GFunctor(hf_src.asm.base, hf_tgt.asm.base, omap, mmap)
    piz = f.tgt.pi
    rprod = r.product(f.src.rtype, r.exponential(r.interval.I1, f.tgt.rtype).obj)
    piy = f.src.pi
    comps = {}
    for oid, (y, u) in hf_src.data_of.items():
        ru = zb.compose(rmor, u)
        lam = _square_path(
            r,
            piz.path_of[piz.gpd.id_of(f.tgt.rfun.omap[zb.src(u)])],
            piz.path_of[f.tgt.rfun.mmap[rmor]],
            piz.path_of[f.tgt.rfun.mmap[u]],
            piz.path_of[f.tgt.rfun.mmap[ru]],
            f.tgt.rtype)
        comps[oid] = r.pi_pair(rprod, piy.gpd.id_of(f.src.rfun.omap[y]),
                               r.pi_mor_id(lam))
    return realized(hf_src.asm, hf_tgt.asm, fun, r.identity(hf_src.asm.rtype), comps)


@dataclass
class DepProd:
    """The dependent product of g: X -> Y along f: Y -> Z, with evaluation."""

    g: FibrationData
    f: FibrationData
    asm: Assembly                               # Pi_F X
    fib: FibrationData                          # Pi_F(G): Pi_F X -> Z
    fibres: dict[str, HomotopyFibre]
    obj_data: dict[str, tuple[str, GFunctor, str, NatIso]]   # (z, H, point, eps)
    mor_data: dict[str, tuple[str, NatIso, str]]             # (r, psi, f-path)
    obj_index: dict[tuple, str]
    mor_index: dict[tuple, str]
    rt_prod: Any                                 # C x A^(B x C^I1)
    exp: Any                                     # the realizer exponential
    fstar: ProductAssembly                       # F* Pi_F X
    ev: RealizedMorphism                         # F* Pi_F X -> X, over Y

    # eps and psi are given by their components at the objects of the
    # fibre, in order: the tuples the indexes are keyed by

    def obj_id(self, z: str, H: GFunctor, point: str, eps: tuple[str, ...]) -> str:
        return self.obj_index[(z, H.key(), point, eps)]

    def mor_id(self, src: str, rmor: str, psi: tuple[str, ...], fpath: str) -> str:
        return self.mor_index[(src, rmor, psi, fpath)]


def dependent_product(g: FibrationData, f: FibrationData,
                      max_objects: Optional[int] = None) -> DepProd:
    """Enumerate Pi_F X with its fibration, chosen lifts, and evaluation.

    g: X -> Y and f: Y -> Z are fibrations.  Objects over z are tuples of a
    strictly-over-Y section H of the homotopy fibre, a realizer point e and
    a filler eps with (mu(e), eps) realizing H.  The objects are capped by
    max_objects, or else by the realizer's caps, and the morphisms by the
    realizer's caps; the composition table is built on its first read.
    """
    if g.tgt != f.src:
        raise BoundaryError("the fibrations are not composable")
    r = g.src.r
    caps = r.caps
    cap = max_objects if max_objects is not None else caps.max_objects
    x_asm, z_asm = g.src, f.tgt
    fibres = {z: homotopy_fibre(f.morphism, z) for z in z_asm.base.objects}
    bc = next(iter(fibres.values())).asm.rtype
    exp = r.exponential(bc, x_asm.rtype)
    pie = r.pi(exp.obj)
    pix = x_asm.pi

    obj_data: dict[str, tuple[str, GFunctor, str, NatIso]] = {}
    obj_index: dict[tuple, str] = {}
    count = 0
    point_left: dict[tuple[str, str], GFunctor] = {}
    # Pi of each realizer point, as a map bc -> x_asm.rtype
    pe_of = {po: r.pi_map(r.point_as_map(pie.point_of[po], bc, x_asm.rtype))
             for po in pie.gpd.objects}
    for z, hf in fibres.items():
        sections = functors_between(hf.asm.base, x_asm.base,
                                    over=(g.morphism.fun, hf.proj.fun))
        for po in pie.gpd.objects:
            point_left[(z, po)] = compose_functors(pe_of[po], hf.asm.rfun)
        for H in sections:
            right = compose_functors(x_asm.rfun, H)
            for po in pie.gpd.objects:
                for eps in nat_isos_between(point_left[(z, po)], right):
                    oid = f"d{count}"
                    count += 1
                    if count > cap:
                        raise SizeCapError("dependent product objects", count, cap)
                    obj_data[oid] = (z, H, po, eps)
                    obj_index[(z, H.key(), po, eps.key())] = oid

    # evaluate exponential paths at the realizer points of fibre objects
    pib = r.pi(bc)
    path_eval = _evaluate_paths(r, pie.path_of, {
        p: pib.point_of[p] for hf in fibres.values() for p in hf.asm.rfun.omap.values()},
        bc, x_asm.rtype)

    fmaps: dict[tuple[str, str], RealizedMorphism] = {}

    def fmap(rmor: str) -> RealizedMorphism:
        zs, zt = z_asm.base.mors[rmor]
        if (rmor, zs) not in fmaps:
            fmaps[(rmor, zs)] = fibre_map(fibres[zs], fibres[zt], rmor)
        return fmaps[(rmor, zs)]

    mors: dict[str, tuple[str, str]] = {}
    mor_data: dict[str, tuple[str, NatIso, str]] = {}
    mor_index: dict[tuple, str] = {}
    mcount = 0
    pxg = pix.gpd

    # the target functor and the zeta boundary at level 1 depend only on the
    # target object and the base morphism
    boundary: dict[tuple[str, str], tuple[GFunctor, dict[str, str]]] = {}
    for oa, (z, H, po, eps) in obj_data.items():
        hf = fibres[z]
        for ob, (z2, H2, po2, eps2) in obj_data.items():
            for rmor in z_asm.base.hom(z, z2):
                if (ob, rmor) not in boundary:
                    fr = fmap(rmor)
                    pe2 = pe_of[po2]
                    boundary[(ob, rmor)] = (compose_functors(H2, fr.fun), {
                        oid2: pxg.compose(eps2.components[fr.fun.omap[oid2]],
                                          pe2.mmap[fr.eps.components[oid2]])
                        for oid2 in hf.asm.base.objects})
                target_fun, zeta1 = boundary[(ob, rmor)]
                for psi in nat_isos_between(H, target_fun, over=g.morphism.fun):
                    for fpath in pie.gpd.hom(po, po2):
                        ok = all(
                            pxg.compose(zeta1[oid2],
                                        path_eval[fpath][hf.asm.rfun.omap[oid2]])
                            == pxg.compose(x_asm.rfun.mmap[psi.components[oid2]],
                                           eps.components[oid2])
                            for oid2 in hf.asm.base.objects)
                        if not ok:
                            continue
                        mid = f"e{mcount}"
                        mcount += 1
                        if mcount > caps.max_morphisms:
                            raise SizeCapError("dependent product morphisms",
                                               mcount, caps.max_morphisms)
                        mors[mid] = (oa, ob)
                        mor_data[mid] = (rmor, psi, fpath)
                        mor_index[(oa, rmor, psi.key(), fpath)] = mid

    def build_comp() -> dict[tuple[str, str], str]:
        # a composite is looked up by its key, whose psi part is the tuple of
        # components psi2 after psi1 at the fibre objects of its source; per
        # first factor m1 keep its source, r1, f1 and the pairs (F|r1 o, psi1 o)
        xcomp, zcomp, fcomp = x_asm.base.comp, z_asm.base.comp, pie.gpd.comp
        first: dict[str, tuple[str, str, str, list[tuple[str, str]]]] = {}
        for m1, (r1, psi1, f1) in mor_data.items():
            src = mors[m1][0]
            fr1 = fmap(r1).fun.omap
            first[m1] = (src, r1, f1, [
                (fr1[o], psi1.components[o])
                for o in fibres[obj_data[src][0]].asm.base.objects])
        comp = {}
        for m2, m1 in composable_pairs(mors):
            r2, psi2, f2 = mor_data[m2]
            c2 = psi2.components
            src, r1, f1, cs = first[m1]
            comp[(m2, m1)] = mor_index[(src, zcomp[(r2, r1)],
                                        tuple([xcomp[(c2[o], c1)] for o, c1 in cs]),
                                        fcomp[(f2, f1)])]
        return comp

    ident = {}
    for oid, (z, H, po, eps) in obj_data.items():
        ident[oid] = mor_index[(oid, z_asm.base.id_of(z),
                                tuple([x_asm.base.id_of(H.omap[o])
                                       for o in fibres[z].asm.base.objects]),
                                pie.gpd.id_of(po))]
    inv = {}
    for mid, (rm, psi, fp) in mor_data.items():
        tgt = mors[mid][1]
        frinv = fmap(z_asm.base.inv_of(rm))
        psi_inv = tuple([x_asm.base.inv_of(psi.components[frinv.fun.omap[oid2]])
                         for oid2 in fibres[obj_data[tgt][0]].asm.base.objects])
        inv[mid] = mor_index[(tgt, z_asm.base.inv_of(rm), psi_inv,
                              pie.gpd.inv_of(fp))]
    base = FinGroupoid(list(obj_data), mors, build_comp, ident, inv)

    rt_prod = r.product(z_asm.rtype, exp.obj)
    omap = {oid: r.pi_pair(rt_prod, z_asm.rfun.omap[z], po)
            for oid, (z, H, po, eps) in obj_data.items()}
    mmap = {mid: r.pi_pair(rt_prod, z_asm.rfun.mmap[rm], fp)
            for mid, (rm, psi, fp) in mor_data.items()}
    pi_t = r.pi(rt_prod.gpd)
    rfun = GFunctor(base, pi_t.gpd, omap, mmap)
    asm = Assembly(r, base, rt_prod.gpd, rfun)

    proj_fun = GFunctor(base, z_asm.base,
                        {oid: obj_data[oid][0] for oid in obj_data},
                        {mid: mor_data[mid][0] for mid in mor_data})
    proj = _identity_eps(asm, z_asm, proj_fun, rt_prod.p1)

    # chosen lifts: reindex the section backwards, keep the realizer point
    lifts: dict[tuple[str, str], str] = {}
    for oid, (z, H, po, eps) in obj_data.items():
        pe = pe_of[po]
        for rmor in z_asm.base.out_of(z):
            if z_asm.base.is_identity(rmor):
                lifts[(oid, rmor)] = base.id_of(oid)
                continue
            z2 = z_asm.base.tgt(rmor)
            rinv = z_asm.base.inv_of(rmor)
            frinv = fmap(rinv)
            h2 = compose_functors(H, frinv.fun)
            eps2 = tuple([pxg.compose(eps.components[frinv.fun.omap[oid2]],
                                      pe.mmap[frinv.eps.components[oid2]])
                          for oid2 in fibres[z2].asm.base.objects])
            tgt_oid = obj_index[(z2, h2.key(), po, eps2)]
            psi = tuple([x_asm.base.id_of(H.omap[o])
                         for o in fibres[z].asm.base.objects])
            mid = mor_index[(oid, rmor, psi, pie.gpd.id_of(po))]
            if mors[mid][1] != tgt_oid:
                raise StructuralError("chosen lift misses the forced target")
            lifts[(oid, rmor)] = mid
    fib = FibrationData(proj, lifts)

    fstar = pullback_assembly(f.morphism, proj)
    ev = _build_ev(r, g, f, fibres, obj_data, mor_data, fstar, exp, bc, rt_prod)
    return DepProd(g, f, asm, fib, fibres, obj_data, mor_data, obj_index,
                   mor_index, rt_prod, exp, fstar, ev)


def _build_ev(r, g, f, fibres, obj_data, mor_data, fstar, exp, bc, rt_prod):
    x_asm, y_asm, z_asm = g.src, g.tgt, f.tgt
    raw = fstar.raw_base
    omap = {}
    for (y, doid), oid in raw.opair.items():
        z, H, po, eps = obj_data[doid]
        omap[oid] = H.omap[fibres[z].obj_of[(y, z_asm.base.id_of(z))]]
    mmap = {}
    for (q, dmid), mid in raw.mpair.items():
        src_pb, tgt_pb = raw.gpd.mors[mid]
        y = fstar.p1.fun.omap[src_pb]
        z, H, po, eps = obj_data[fstar.p2.fun.omap[src_pb]]
        H2 = obj_data[fstar.p2.fun.omap[tgt_pb]][1]
        rm, psi, fp = mor_data[dmid]
        qhat = fibres[z_asm.base.tgt(rm)].mor_of[(q, rm)]
        mmap[mid] = x_asm.base.compose(
            H2.mmap[qhat],
            psi.components[fibres[z].obj_of[(y, z_asm.base.id_of(z))]])
    ev_fun = GFunctor(raw.gpd, x_asm.base, omap, mmap)

    iv = r.interval
    rtriple = fstar.rprod                    # B x (C x E)
    cpath = r.const_path_map(z_asm.rtype)
    pi_b = rtriple.p1
    pi_ce = rtriple.p2
    pi_c = r.compose(rt_prod.p1, pi_ce)
    pi_e = r.compose(rt_prod.p2, pi_ce)
    bc_prod = r.product(y_asm.rtype, r.exponential(iv.I1, z_asm.rtype).obj)
    leg_bc = bc_prod.pair(pi_b, r.compose(cpath, pi_c))
    epair = r.product(exp.obj, bc)
    e_ev = r.compose(exp.ev, epair.pair(pi_e, leg_bc))
    comps = {}
    for (y, doid), oid in raw.opair.items():
        z, H, po, eps = obj_data[doid]
        comps[oid] = eps.components[fibres[z].obj_of[(y, z_asm.base.id_of(z))]]
    return realized(fstar.asm, x_asm, ev_fun, e_ev, comps)


def dp_transpose(dp: DepProd, r_mor: RealizedMorphism, s: RealizedMorphism,
                 fw: ProductAssembly) -> RealizedMorphism:
    """The universal map T: W -> Pi_F X for s: F*W -> X over Y.

    The section carried by T w straightens s along the cleavages of f and
    g, so that it lies strictly over Y and evaluation recovers s exactly.
    """
    r = dp.asm.r
    iv = r.interval
    g, f = dp.g, dp.f
    x_asm, y_asm, z_asm = g.src, g.tgt, f.tgt
    w_asm = r_mor.src
    if compose_functors(f.morphism.fun, fw.p1.fun) \
            != compose_functors(r_mor.fun, fw.p2.fun):
        raise BoundaryError("the pullback does not match the cospan")
    if compose_functors(g.morphism.fun, s.fun) != fw.p1.fun:
        raise BoundaryError("s must lie over Y")
    bc = dp.fibres[next(iter(dp.fibres))].asm.rtype
    pie = r.pi(dp.exp.obj)
    pix, piw = x_asm.pi, w_asm.pi
    pxg = pix.gpd
    raw = fw.raw_base
    rprod_bd = fw.rprod                      # B x D

    def ell(y: str, u: str) -> str:
        return f.lift(y, u)

    def slice_point(zr, dom_obj):
        pd = r.product(dom_obj, bc)
        bcp = r.product(y_asm.rtype, r.exponential(iv.I1, z_asm.rtype).obj)
        lifted = r.compose(s.e, rprod_bd.pair(
            r.compose(bcp.p1, pd.p2), r.compose(zr, pd.p1)))
        return r.transpose(lifted, pd, bc, x_asm.rtype)

    pse = r.pi_map(s.e)
    omap: dict[str, str] = {}
    eta_of: dict[str, dict[str, str]] = {}
    for w in w_asm.base.objects:
        z = r_mor.fun.omap[w]
        hf = dp.fibres[z]
        # straighten the fibre projection along f's lifts into the fibre of
        # Y over z, apply s there beside w, and straighten back along g's
        lifts = {oid: ell(y, u) for oid, (y, u) in hf.data_of.items()}
        over_z = conjugate(hf.proj.fun, lifts)
        idw = w_asm.base.id_of(w)
        s_w = GFunctor(hf.asm.base, x_asm.base,
                       {oid: s.fun.omap[raw.opair[(uy, w)]]
                        for oid, uy in over_z.omap.items()},
                       {mid: s.fun.mmap[raw.mpair[(q, idw)]]
                        for mid, q in over_z.mmap.items()})
        etas = {oid: g.lift(s_w.omap[oid], y_asm.base.inv_of(l))
                for oid, l in lifts.items()}
        H = conjugate(s_w, etas)
        eta_of[w] = etas
        e_w = slice_point(piw.point_of[w_asm.rfun.omap[w]], iv.I0)
        eps = []
        for oid in hf.asm.base.objects:
            t1 = pse.mmap[r.pi_pair(rprod_bd, y_asm.rfun.mmap[lifts[oid]],
                                    piw.gpd.id_of(w_asm.rfun.omap[w]))]
            t2 = s.eps.components[raw.opair[(y_asm.base.tgt(lifts[oid]), w)]]
            t3 = x_asm.rfun.mmap[etas[oid]]
            eps.append(pxg.compose(t3, pxg.compose(t2, t1)))
        omap[w] = dp.obj_id(z, H, r.pi_obj_id(e_w), tuple(eps))

    mmap: dict[str, str] = {}
    for v in w_asm.base.morphisms:
        ws, wt = w_asm.base.mors[v]
        rv = r_mor.fun.mmap[v]
        z = r_mor.fun.omap[ws]
        tgt_hf = dp.fibres[r_mor.fun.omap[wt]]
        psi = []
        for oid, (y, u) in dp.fibres[z].data_of.items():
            l_u = ell(y, u)
            l_rvu = ell(y, f.tgt.base.compose(rv, u))
            qv = y_asm.base.compose(l_rvu, y_asm.base.inv_of(l_u))
            smor = s.fun.mmap[raw.mpair[(qv, v)]]
            tgt_oid = tgt_hf.obj_of[(y, f.tgt.base.compose(rv, u))]
            psi.append(x_asm.base.compose_path(
                eta_of[wt][tgt_oid], smor, x_asm.base.inv_of(eta_of[ws][oid])))
        fpath = slice_point(piw.path_of[w_asm.rfun.mmap[v]], iv.I1)
        mmap[v] = dp.mor_id(omap[ws], rv, tuple(psi), r.pi_mor_id(fpath))
    fun = GFunctor(w_asm.base, dp.asm.base, omap, mmap)

    pd_full = r.product(w_asm.rtype, bc)
    bcp = r.product(y_asm.rtype, r.exponential(iv.I1, z_asm.rtype).obj)
    k_g = r.compose(s.e, rprod_bd.pair(r.compose(bcp.p1, pd_full.p2),
                                       pd_full.p1))
    lam_g = r.transpose(k_g, pd_full, bc, x_asm.rtype)
    e_t = dp.rt_prod.pair(r_mor.e, lam_g)
    comps = {}
    for w in w_asm.base.objects:
        po_stored = dp.obj_data[omap[w]][2]
        po_found = r.pi_obj_id(r.compose(lam_g, piw.point_of[w_asm.rfun.omap[w]]))
        if po_found != po_stored:
            raise StructuralError("transpose realizer misses the chosen point")
        comps[w] = r.pi_pair(dp.rt_prod, r_mor.eps.components[w],
                             pie.gpd.id_of(po_stored))
    return realized(w_asm, dp.asm, fun, e_t, comps)


def fstar_map(dp: DepProd, fw: ProductAssembly,
              t: RealizedMorphism) -> RealizedMorphism:
    """F*T: F*W -> F* Pi_F X induced by T on the pullbacks."""
    return dp.fstar.pair(fw.p1, compose_morphisms(t, fw.p2))


# -- modest fibrations ---------------------------------------------------------

def is_modest_fibration(fib: FibrationData):
    """Every fibre assembly has a fully faithful realizability functor."""
    for z in fib.tgt.base.objects:
        ok, witness = is_modest(fib.fibre(z))
        if not ok:
            return False, (z, witness)
    return True, None


# -- the chaotic inclusion -----------------------------------------------------

def nabla(r: GpdRealizer, x: FinGroupoid, rtype, a0: str) -> Assembly:
    """Constant realizers: every object gets the point a0."""
    pi = r.pi(rtype)
    if a0 not in pi.gpd.objects:
        raise StructuralError(f"{a0!r} is not a point of the realizer object")
    rfun = GFunctor(x, pi.gpd, {o: a0 for o in x.objects},
                    {m: pi.gpd.id_of(a0) for m in x.morphisms})
    return Assembly(r, x, rtype, rfun)


def realize_into_nabla(w: Assembly, target: Assembly,
                       fun: GFunctor) -> RealizedMorphism:
    """Any functor into a chaotic assembly, realized by (a0 . !, id)."""
    r = w.r
    pi_t = target.pi
    a0 = next(iter(set(target.rfun.omap.values())))
    e = r.compose(pi_t.point_of[a0], r.terminal_map(w.rtype))
    return _identity_eps(w, target, fun, e)
