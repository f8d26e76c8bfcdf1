"""Finite groupoids as total tables: validation, products, exponentials.

Run:  python3 demos/01_groupoids_and_functors.py
"""

from gral.groupoids import (
    FinGroupoid, codiscrete, cyclic_group, equivalence_inverse, exponential,
    functors_between, identity_functor, iso_comma, isofibration_cleavage,
    product, pullback, validate_groupoid,
)

# The walking isomorphism: two objects and a single isomorphism between
# them.  Everything downstream is built out of groupoids like this one.
walking = codiscrete(["0", "1"])
print("walking isomorphism:", walking)
print("valid:", validate_groupoid(walking).ok)

# A deliberately broken table: an idempotent endomorphism t with t.t = t
# cannot have an inverse, and the validator pinpoints the law that fails.
broken = FinGroupoid(
    ["a"],
    {"id_a": ("a", "a"), "t": ("a", "a")},
    {("id_a", "id_a"): "id_a", ("id_a", "t"): "t",
     ("t", "id_a"): "t", ("t", "t"): "t"},
    {"a": "id_a"},
    {"id_a": "id_a", "t": "t"},
)
report = validate_groupoid(broken)
print("\nidempotent endomorphism:", report.failures[:2], "…")

# Products and exponentials are computed as explicit tables.
z2 = cyclic_group(2)
p = product(walking, walking)
print("\nwalking x walking:", len(p.gpd.objects), "objects,",
      len(p.gpd.morphisms), "morphisms")
e = exponential(walking, walking)
print("walking ^ walking:", len(e.gpd.objects), "objects (codiscrete)")
print("Z2 ^ Z2:", len(exponential(z2, z2).gpd.objects),
      "objects (the trivial and the identity homomorphism)")

# Functor enumeration is the workhorse: every construction that quantifies
# over maps scans a finite list like this one.
fs = functors_between(z2, z2)
print("\nfunctors Z2 -> Z2:", len(fs))

# Pullbacks and iso-comma objects (pseudopullbacks) with their projections.
pb = pullback(identity_functor(walking), identity_functor(walking))
print("pullback of the identity cospan:", len(pb.gpd.objects), "objects")
ic = iso_comma(identity_functor(walking), identity_functor(walking))
print("iso-comma of the identity cospan:", len(ic.gpd.objects),
      "objects (one per morphism)")

# Isofibrations come with deterministic cleavages; equivalences come with
# constructed pseudoinverses.
cleav = isofibration_cleavage(p.p1)
print("\nfirst projection cleavage lifts:", len(cleav))
eq = equivalence_inverse(identity_functor(walking))
print("identity pseudoinverse found:", eq.bwd == identity_functor(walking))
