"""The interval, its coalgebraic diagrams, and the homotopy calculus.

Run:  python3 demos/02_interval_and_homotopies.py
"""

import random

from gral.groupoids import codiscrete, cyclic_group, functors_between, \
    identity_functor, nat_isos_between
from gral.interval import (
    IntervalData, _build_pi, _pi_map, check_cogroupoid, gpd_interval,
    homotopy_from_nat_iso, identity_homotopy, inverse_homotopy,
    nat_iso_from_homotopy, path_of_morphism, pi_base_iso, vcomp,
)

r = gpd_interval()
iv = r.interval

# The interval family: I0 is a point, I1 the walking isomorphism, I2 and
# I3 its double- and triple-length versions.  The structure maps implement
# endpoints, degeneracy, reversal and concatenation.
print("interval objects:", [len(g.objects) for g in (iv.I0, iv.I1, iv.I2, iv.I3)])
print("reversal sends the generator to:", iv.sigma.mmap["p01"])
print("concatenation lands on the composite:", iv.two.mmap["p01"])

# Every diagram (and both pushout universal properties) is machine-checked.
report = check_cogroupoid(r)
for e in report.entries:
    print(f"  {'ok ' if e.ok else 'FAIL'} {e.name}")
    if e.name == "coinverse-right":
        print("       note:", e.detail)

# Sabotage the reversal and watch exactly the inverse-law family fail.
bad = IntervalData(iv.I0, iv.I1, iv.I2, iv.I3, iv.zero, iv.one, iv.star,
                   identity_functor(iv.I1), iv.two, iv.i0, iv.i1, iv.j0, iv.j1)
print("\nwith sigma := id, failures:", check_cogroupoid(r, bad).failed())

# Paths in an object are maps out of I1; composition reparameterises the
# concatenated double path, and agrees with groupoid composition.
a = codiscrete(["x", "y", "z"])
p1 = path_of_morphism(r, a, "x~y")
p2 = path_of_morphism(r, a, "y~z")
print("\npath composition:", r.path_compose(p2, p1).mmap["p01"])

# Homotopies are cylinder maps; vertical composition, identities and
# inverses obey the groupoid laws strictly.
rng = random.Random(0)
x, y = codiscrete(["a", "b"]), cyclic_group(2)
fs = functors_between(x, y)
F, G = rng.choice(fs), rng.choice(fs)
iso = rng.choice(nat_isos_between(F, G))
h = homotopy_from_nat_iso(r, iso)
print("vcomp with the inverse is the identity homotopy:",
      vcomp(inverse_homotopy(h), h) == identity_homotopy(r, h.lhs))
print("roundtrip through the natural isomorphism:",
      nat_iso_from_homotopy(h) == iso)

# The fundamental groupoid of a groupoid is the groupoid itself, via an
# explicit isomorphism.
g = cyclic_group(3)
iso_fun = pi_base_iso(r, g)
print("\nPi(Z3) has", len(r.pi(g).gpd.morphisms), "paths; iso onto Z3:",
      sorted(iso_fun.mmap.values()) == sorted(g.morphisms))

# The paper builds Pi(A) and Pi(f) from hom-sets and path algebra alone
# (`_build_pi`, `_pi_map`); the groupoid instance relabels A's and f's own
# tables instead, and the two constructions give the same tables.
f = rng.choice(functors_between(g, a))
print("generic Pi(Z3) equals the relabelled one:",
      _build_pi(r, g).gpd.key() == r.pi(g).gpd.key())
print("generic Pi(f) equals the relabelled one:", _pi_map(r, f) == r.pi_map(f))
