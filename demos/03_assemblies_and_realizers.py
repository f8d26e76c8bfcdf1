"""Assemblies: groupoids whose objects and isomorphisms carry realizers.

Run:  python3 demos/03_assemblies_and_realizers.py
"""

import random

from gral.groupoids import codiscrete, discrete, functors_between
from gral.interval import check_cogroupoid, gpd_interval
from gral.assemblies import (
    Assembly, beta_holds, compose_morphisms, is_modest,
    pgasm_interval, product_assembly, realize, terminal_assembly,
    transpose_morphism, validate_morphism, weak_exponential,
)

r = gpd_interval()
rng = random.Random(1)

# An assembly pairs a base groupoid with a functor into the fundamental
# groupoid of a realizer object: objects get points, isomorphisms get paths.
base = codiscrete(["a", "b"])
pi1 = r.pi(r.interval.I1)
x = Assembly(r, base, r.interval.I1, functors_between(base, pi1.gpd)[1])
print("assembly:", x)
print("object 'a' is realized by", x.rfun.omap["a"])

# Morphisms carry a witness (e, eps): e maps realizers, eps fills the
# square up to natural isomorphism.  Equality ignores the witness.
ybase = codiscrete(["u", "v"])
y = Assembly(r, ybase, r.interval.I1, functors_between(ybase, pi1.gpd)[2])
m = next(mm for mm in (realize(x, y, F)
                       for F in functors_between(x.base, y.base)) if mm)
print("\na realized morphism validates:", validate_morphism(m).ok)

# Products pair realizers; the terminal assembly sits over the point.
t = terminal_assembly(r)
p = product_assembly(x, y)
print("product realizer of (a,u):", p.asm.rfun.omap[p.raw_base.opair[("a", "u")]])

# The weak exponential collects triples (functor, realizer point, filler);
# evaluation and transposition satisfy the beta law on the nose.
zbase = discrete(["w"])
z = Assembly(r, zbase, r.interval.I0,
             functors_between(zbase, r.pi(r.interval.I0).gpd)[0])
w = weak_exponential(x, y)
print("\nweak exponential objects:", len(w.asm.base.objects))
zp = product_assembly(z, x)
k = next(mm for mm in (realize(zp.asm, y, F)
                       for F in functors_between(zp.asm.base, y.base)) if mm)
kt = transpose_morphism(w, k, zp)
print("beta law exact:", beta_holds(w, k, zp, kt))

# Modesty: the realizability functor is fully faithful.  A chaotic
# two-point assembly fails fullness.
print("\nterminal assembly modest:", is_modest(t)[0])
from gral.groupoids import GFunctor
d2 = discrete(["p", "q"])
pi0 = r.pi(r.interval.I0).gpd
chaotic = Assembly(r, d2, r.interval.I0,
                   GFunctor(d2, pi0, {o: pi0.objects[0] for o in d2.objects},
                            {mm: pi0.id_of(pi0.objects[0]) for mm in d2.morphisms}))
ok, witness = is_modest(chaotic)
print("chaotic assembly modest:", ok, "; witness:", witness)

# Assemblies host their own interval, and it again satisfies every
# coalgebraic diagram, with realized structure maps.
pg = pgasm_interval(r)
print("\ninternal interval diagrams all pass:", check_cogroupoid(pg).ok)
