"""The path-category structure: fibrations, path objects, sections.

Run:  python3 demos/04_path_category.py
"""

from gral.groupoids import codiscrete, functors_between, identity_functor, \
    invert_nat_iso
from gral.interval import gpd_interval
from gral.assemblies import (
    Assembly, compose_morphisms, identity_morphism, pgasm_interval,
    product_assembly, realize, validate_morphism, validate_twocell,
    twocell_from_iso,
)
from gral.pathcat import (
    as_equivalence, is_fibration, path_object, pc7_section,
    pc8_pseudoinverse, pullback_assembly, pseudopullback_assembly,
    validate_asm_equivalence,
)

r = gpd_interval()
pg = pgasm_interval(r)
pi1 = r.pi(r.interval.I1)


def mk(names, pick):
    base = codiscrete(names)
    return Assembly(r, base, r.interval.I1,
                    functors_between(base, pi1.gpd)[pick])


x = mk(["a", "b"], 1)
y = mk(["u", "v"], 2)

# Fibrations are isofibrations of the bases; the projection from a product
# is the basic example, and its transports are realized by identity maps.
fib = is_fibration(product_assembly(y, x).p1)
q = y.base.morphisms[1]
t = fib.transport(q)
print("transport along", q, "validates:", validate_morphism(t).ok)

# Path objects factor the diagonal: a weak exponential by the interval,
# an equivalence r into it, and a boundary fibration (s, t) out of it.
pod = path_object(x, pg)
diag = pod.prod.pair(identity_morphism(x), identity_morphism(x))
print("\npath object size:", len(pod.pobj.asm.base.objects))
print("(s,t) . r equals the diagonal:",
      compose_morphisms(pod.st, pod.r_mor) == diag)
print("r carries a validated pseudoinverse:",
      validate_asm_equivalence(pg, pod.r_equiv).ok)

# An acyclic fibration (here: projection with a contractible fibre) has a
# section, constructed by transporting the pseudoinverse along the counit.
afib = is_fibration(product_assembly(x, mk(["s1", "s2"], 0)).p1)
eq = as_equivalence(pg, afib.morphism)
psi = twocell_from_iso(pg, invert_nat_iso(eq.counit.iso),
                       compose_morphisms(afib.morphism, eq.bwd),
                       identity_morphism(x))
s = pc7_section(afib, eq.bwd, psi)
print("\nsection: F . S = id exactly:",
      compose_morphisms(afib.morphism, s).fun == identity_functor(x.base))

# Pulling an acyclic fibration back along any map yields another acyclic
# fibration, with the pseudoinverse and its 2-cell constructed explicitly.
f = next(m for m in (realize(y, x, F)
                     for F in functors_between(y.base, x.base)) if m)
pb, s_mor, sigma = pc8_pseudoinverse(afib, eq, f, pg)
print("pullback pseudoinverse: projection . S = id:",
      compose_morphisms(pb.p1, s_mor).fun == identity_functor(y.base))
print("connecting 2-cell validates:", validate_twocell(pg, sigma).ok)

# Pseudopullbacks store the connecting isomorphism as a third realizer
# component: a path object of the codomain realizer.
z = mk(["p", "q"], 3)
g = next(m for m in (realize(y, z, G)
                     for G in functors_between(y.base, z.base)) if m)
h = next(m for m in (realize(x, z, H)
                     for H in functors_between(x.base, z.base)) if m)
pp = pseudopullback_assembly(h, g, pg)
print("\npseudopullback objects:", len(pp.asm.base.objects),
      "; generic 2-cell validates:", validate_twocell(pg, pp.conn).ok)
