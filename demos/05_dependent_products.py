"""Homotopy fibres, dependent products, and modest fibrations.

Run:  python3 demos/05_dependent_products.py
"""

from gral.groupoids import codiscrete, discrete, functors_between, \
    compose_functors
from gral.interval import gpd_interval
from gral.assemblies import (
    Assembly, is_modest, pgasm_interval, product_assembly, realize,
    validate_morphism,
)
from gral.pathcat import FibrationData, is_fibration, pullback_assembly
from gral.depprod import (
    dependent_product, dp_transpose, fibre_map, fstar_map, homotopy_fibre,
    is_modest_fibration, nabla, realize_into_nabla,
)

r = gpd_interval()
pg = pgasm_interval(r)
pi0 = r.pi(r.interval.I0)


def mk(names, rtype=None):
    base = codiscrete(names)
    rt = rtype if rtype is not None else r.interval.I0
    return Assembly(r, base, rt, functors_between(base, r.pi(rt).gpd)[0])


# The homotopy fibre of f over z collects pairs (y, u: F y -> z); the
# connecting isomorphism is stored as a path in the realizer.
y = mk(["u", "v"], r.interval.I1)
z = mk(["z1", "z2"], r.interval.I1)
f = next(m for m in (realize(y, z, F)
                     for F in functors_between(y.base, z.base))
         if m is not None and isinstance(is_fibration(m), FibrationData))
hf1 = homotopy_fibre(f, "z1")
hf2 = homotopy_fibre(f, "z2")
print("homotopy fibre over z1:", len(hf1.asm.base.objects), "objects")
fm = fibre_map(hf1, hf2, "z1~z2")
print("reindexing along z1~z2 validates:", validate_morphism(fm).ok)

# The dependent product of g: X -> Y along f: Y -> Z enumerates sections
# of the homotopy fibre together with their chosen realizer points.
zz = mk(["c1"])
yy = mk(["u", "v"])
gfib = is_fibration(product_assembly(yy, mk(["s"])).p1)
ffib = is_fibration(realize(yy, zz, functors_between(yy.base, zz.base)[0]))
dp = dependent_product(gfib, ffib)
print("\ndependent product objects:", len(dp.asm.base.objects))
print("its projection is a fibration:",
      isinstance(is_fibration(dp.fib.morphism), FibrationData))
print("evaluation lies over the middle base:",
      compose_functors(gfib.morphism.fun, dp.ev.fun) == dp.fstar.p1.fun)

# Transposition: a section over a pullback factors through the product,
# and evaluation recovers it on the nose.
w = mk(["w1"])
rw = realize(w, zz, functors_between(w.base, zz.base)[0])
fw = pullback_assembly(ffib.morphism, rw)
s = next(realize(fw.asm, gfib.src, S)
         for S in functors_between(fw.asm.base, gfib.src.base)
         if compose_functors(gfib.morphism.fun, S) == fw.p1.fun)
t = dp_transpose(dp, rw, s, fw)
print("beta law: ev . F*T = S exactly:",
      compose_functors(dp.ev.fun, fstar_map(dp, fw, t).fun) == s.fun)

# Modest fibrations have fully faithful realizers on every fibre; the
# chaotic inclusion produces the canonical non-example.
from gral.assemblies import identity_morphism
idfib = is_fibration(identity_morphism(yy))
print("\nidentity fibration modest:", is_modest_fibration(idfib)[0])
chaotic = nabla(r, discrete(["n0", "n1"]), r.interval.I0, pi0.gpd.objects[0])
k_asm = mk(["k1", "k2"])
m = realize_into_nabla(k_asm, chaotic,
                       functors_between(k_asm.base, chaotic.base)[0])
print("any map into a chaotic assembly is realized:", validate_morphism(m).ok)
print("the chaotic assembly is modest:", is_modest(chaotic)[0])
pfib = is_fibration(product_assembly(mk(["b"]), chaotic).p1)
got, witness = is_modest_fibration(pfib)
print("a fibration with chaotic fibre is modest:", got)
