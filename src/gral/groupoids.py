"""Finite groupoids as total tables, with the categorical toolkit on top.

Everything downstream (intervals, assemblies, fibrations, dependent
products) reduces to finite scans over the tables defined here.  All values
are immutable after construction and safe to share.

Identifier conventions: objects and morphisms are opaque strings; composite
constructions build deterministic synthetic ids (tupled names for products,
enumeration-indexed names for exponentials), so golden files are stable.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional

from .errors import SizeCapError, StructuralError

_serial_counter = itertools.count()


@dataclass(frozen=True)
class SizeCaps:
    """Limits enforced by the enumerating constructions."""

    max_objects: int = 64
    max_morphisms: int = 4096


DEFAULT_CAPS = SizeCaps()


@dataclass
class CheckResult:
    """One named check: its outcome, a detail line and, when it fails, an
    optional counterexample payload that `suites.replay_counterexample`
    re-runs."""

    name: str
    ok: bool
    detail: str = ""
    counterexample: Optional[str] = None


@dataclass
class Report:
    """Named check results.  Suites record every check; validators record
    only failures, so an empty validator report means valid."""

    suite: str = ""
    seed: int = 0
    entries: list[CheckResult] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    @property
    def failures(self) -> list[tuple[str, str]]:
        """The failing (name, detail) pairs, in entry order."""
        return [(e.name, e.detail) for e in self.entries if not e.ok]

    def failed(self) -> list[str]:
        return [e.name for e in self.entries if not e.ok]

    def add(self, name: str, ok: bool, detail: str = "",
            counterexample: Optional[str] = None) -> None:
        self.entries.append(CheckResult(name, ok, detail, counterexample))

    def merge(self, sub: Report, prefix: str = "") -> None:
        """Append the entries of `sub`, each name prefixed by `prefix`."""
        for e in sub.entries:
            self.add(prefix + e.name, e.ok, e.detail, e.counterexample)

    def to_text(self) -> str:
        lines = [f"suite {self.suite} seed {self.seed}"]
        for e in sorted(self.entries, key=lambda e: e.name):
            status = "pass" if e.ok else "FAIL"
            lines.append(f"  {status}  {e.name}" + (f"  {e.detail}" if e.detail else ""))
            if e.counterexample:
                lines.append("  counterexample:")
                lines.extend("    " + ln for ln in e.counterexample.splitlines())
        lines.append(f"result {'pass' if self.ok else 'FAIL'}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps({
            "suite": self.suite,
            "seed": self.seed,
            "ok": self.ok,
            "checks": [
                {"name": e.name, "ok": e.ok, "detail": e.detail,
                 "counterexample": e.counterexample}
                for e in sorted(self.entries, key=lambda e: e.name)
            ],
        }, indent=2, sort_keys=True)


class FinGroupoid:
    """A finite groupoid given by total composition/identity/inverse tables.

    `comp[(g, f)]` is defined exactly when target(f) == source(g) and holds
    the composite g after f.  Construction checks the objects, morphism
    endpoints, identities and inverses (no duplicate or dangling
    identifiers, total tables).  The `comp` table (no dangling or
    non-composable entry, one entry per composable pair) is checked at
    construction when it is given as a dict, and at the first read of
    `comp`, before any entry is returned, when it is given as a zero-argument
    function that builds it then.  The groupoid axioms themselves are
    checked by `validate_groupoid`, so deliberately broken tables can be
    built for fault-injection tests.  `factors` is the pair (X, Y) when
    `product` made this groupoid as the full product X x Y, and else None.

    The scans over the tables visit only composable pairs: `out_of` and
    `_adjacency` list the morphisms out of and into an object (an index
    built on first use), and completeness is checked by counting.
    Universal properties and axioms are still checked on every instance.
    """

    __slots__ = (
        "objects", "morphisms", "mors", "_comp", "_build_comp", "ident", "inv",
        "serial", "_hom", "_adj", "_components", "_key", "factors",
    )

    def __init__(
        self,
        objects: Iterable[str],
        mors: dict[str, tuple[str, str]],
        comp: dict[tuple[str, str], str] | Callable[[], dict],
        ident: dict[str, str],
        inv: dict[str, str],
    ):
        self.objects: tuple[str, ...] = tuple(objects)
        self.mors: dict[str, tuple[str, str]] = dict(mors)
        self.morphisms: tuple[str, ...] = tuple(self.mors)
        self.ident: dict[str, str] = dict(ident)
        self.inv: dict[str, str] = dict(inv)
        self.serial: int = next(_serial_counter)
        self._hom: Optional[dict[tuple[str, str], tuple[str, ...]]] = None
        self._adj: Optional[tuple[dict, dict]] = None  # by source, by target
        self._components = None
        self._key = None
        self.factors: Optional[tuple[FinGroupoid, FinGroupoid]] = None
        self._check_structure()
        if callable(comp):
            self._comp = None  # built and checked on the first read of `comp`
            self._build_comp = comp
        else:
            self._comp = self._checked_comp(dict(comp))
            self._build_comp = None

    @property
    def comp(self) -> dict[tuple[str, str], str]:
        comp = self._comp
        if comp is None:
            self._comp = comp = self._checked_comp(self._build_comp())
            self._build_comp = None
        return comp

    def _check_structure(self) -> None:
        objects, mors = self.objects, self.mors
        ident, inv = self.ident, self.inv
        oset = set(objects)
        if len(oset) != len(objects):
            raise StructuralError("duplicate object identifier")
        for m, (s, t) in mors.items():
            if s not in oset or t not in oset:
                raise StructuralError(f"morphism {m!r} has dangling endpoint")
        for x in objects:
            if x not in ident:
                raise StructuralError(f"object {x!r} lacks an identity entry")
            i = ident[x]
            if i not in mors:
                raise StructuralError(f"identity of {x!r} dangles: {i!r}")
            if mors[i] != (x, x):
                raise StructuralError(f"identity of {x!r} is not an endomorphism")
        for m in mors:
            if m not in inv:
                raise StructuralError(f"morphism {m!r} lacks an inverse entry")
            if inv[m] not in mors:
                raise StructuralError(f"inverse of {m!r} dangles")

    def _checked_comp(self, comp: dict[tuple[str, str], str]
                      ) -> dict[tuple[str, str], str]:
        """`comp`, once it is checked to be a total table of composites."""
        objects, mors = self.objects, self.mors
        # every value of `mors` is an endpoint pair, so `get` is None exactly
        # for an identifier that is not a morphism
        mget = mors.get
        for (g, f), h in comp.items():
            gends, fends = mget(g), mget(f)
            if gends is None or fends is None or h not in mors:
                raise StructuralError(f"comp entry ({g!r},{f!r}) dangles")
            if gends[0] != fends[1]:
                raise StructuralError(f"comp entry ({g!r},{f!r}) is not composable")
        # every entry is a distinct composable pair, so the table is total
        # exactly when it has one entry per (in-arrow, out-arrow) at each object
        n_out = Counter(s for s, _ in mors.values())
        n_in = Counter(t for _, t in mors.values())
        if len(comp) != sum(n_in[x] * n_out[x] for x in objects):
            for f in mors:
                for g in mors:
                    if mors[g][0] == mors[f][1] and (g, f) not in comp:
                        raise StructuralError(f"comp table missing entry ({g!r},{f!r})")
        return comp

    # -- basic accessors -------------------------------------------------

    def src(self, m: str) -> str:
        return self.mors[m][0]

    def tgt(self, m: str) -> str:
        return self.mors[m][1]

    def compose(self, g: str, f: str) -> str:
        """Composite g after f."""
        try:
            return self._comp[(g, f)]
        except TypeError:  # `_comp` is None: a deferred table not yet read
            pass
        return self.comp[(g, f)]

    def compose_path(self, *ms: str) -> str:
        """Compose a sequence listed codomain-first: compose_path(h, g, f)."""
        out = ms[-1]
        for m in reversed(ms[:-1]):
            out = self.compose(m, out)
        return out

    def id_of(self, x: str) -> str:
        return self.ident[x]

    def inv_of(self, m: str) -> str:
        return self.inv[m]

    def is_identity(self, m: str) -> bool:
        return self.ident[self.src(m)] == m

    def hom(self, a: str, b: str) -> tuple[str, ...]:
        if self._hom is None:
            table: dict[tuple[str, str], list[str]] = {}
            for m in self.morphisms:
                table.setdefault(self.mors[m], []).append(m)
            self._hom = {k: tuple(v) for k, v in table.items()}
        return self._hom.get((a, b), ())

    def out_of(self, x: str) -> tuple[str, ...]:
        """Morphisms with source x, in `morphisms` order."""
        return self._adjacency()[0].get(x, ())

    def _adjacency(self) -> tuple[dict, dict]:
        if self._adj is None:
            out: dict[str, list[str]] = {}
            into: dict[str, list[str]] = {}
            for m, (s, t) in self.mors.items():
                out.setdefault(s, []).append(m)
                into.setdefault(t, []).append(m)
            self._adj = ({x: tuple(v) for x, v in out.items()},
                         {x: tuple(v) for x, v in into.items()})
        return self._adj

    def key(self) -> tuple:
        """Canonical structural fingerprint (extensional table equality)."""
        if self._key is None:
            self._key = (
                tuple(sorted(self.objects)),
                tuple(sorted((m, s, t) for m, (s, t) in self.mors.items())),
                tuple(sorted((g, f, h) for (g, f), h in self.comp.items())),
                tuple(sorted(self.ident.items())),
                tuple(sorted(self.inv.items())),
            )
        return self._key

    def __eq__(self, other) -> bool:
        if not isinstance(other, FinGroupoid):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"FinGroupoid({len(self.objects)} objects, {len(self.morphisms)} morphisms)"

    # -- component structure ---------------------------------------------

    def components(self) -> list["_Component"]:
        """Connected components with spanning data, cached.

        Each component carries a base object, a composite tree morphism
        base -> x for every object x in it, and the vertex group at the
        base.  This is the backbone of functor/natural-iso enumeration.
        """
        if self._components is None:
            self._components = _split_components(self)
        return self._components


@dataclass
class _Component:
    base: str
    objects: tuple[str, ...]
    tree: dict[str, str]          # x -> composite morphism base -> x


def _split_components(g: FinGroupoid) -> list[_Component]:
    seen: set[str] = set()
    comps: list[_Component] = []
    for base in sorted(g.objects):
        if base in seen:
            continue
        tree: dict[str, str] = {base: g.id_of(base)}
        order = [base]
        seen.add(base)
        frontier = [base]
        while frontier:
            nxt: list[str] = []
            for x in frontier:
                for (t, m) in sorted((g.tgt(m), m) for m in g.out_of(x)):
                    if t not in seen:
                        seen.add(t)
                        tree[t] = g.compose(m, tree[x])
                        order.append(t)
                        nxt.append(t)
            frontier = nxt
        comps.append(_Component(base, tuple(sorted(order)), tree))
    return comps


# -- validation -----------------------------------------------------------

def validate_groupoid(g: FinGroupoid) -> Report:
    """Scan every axiom instance; report violations (empty report = valid)."""
    rep = Report()
    comp = g.comp
    mistyped: set[tuple[str, str]] = set()
    for (gg, ff), h in comp.items():
        if g.src(h) != g.src(ff) or g.tgt(h) != g.tgt(gg):
            rep.add("comp-typing", False, f"{gg}o{ff}={h} has wrong endpoints")
            mistyped.add((gg, ff))
    for f in g.morphisms:
        i_s, i_t = g.id_of(g.src(f)), g.id_of(g.tgt(f))
        if comp[(f, i_s)] != f:
            rep.add("id-right", False, f"{f}o{i_s} != {f}")
        if comp[(i_t, f)] != f:
            rep.add("id-left", False, f"{i_t}o{f} != {f}")
        v = g.inv_of(f)
        if g.mors[v] != (g.tgt(f), g.src(f)):
            rep.add("inv-typing", False, f"inverse of {f} has wrong endpoints")
            continue
        if comp[(v, f)] != g.id_of(g.src(f)):
            rep.add("inv-left", False, f"{v}o{f} != id_{g.src(f)}")
        if comp[(f, v)] != g.id_of(g.tgt(f)):
            rep.add("inv-right", False, f"{f}o{v} != id_{g.tgt(f)}")
    # an instance with a mistyped composite is already a comp-typing failure,
    # and its outer composite may not exist
    for f in g.morphisms:
        for gg in g.out_of(g.tgt(f)):
            if mistyped and (gg, f) in mistyped:
                continue
            gf = comp[(gg, f)]
            for h in g.out_of(g.tgt(gg)):
                if mistyped and (h, gg) in mistyped:
                    continue
                if comp[(h, gf)] != comp[(comp[(h, gg)], f)]:
                    rep.add("assoc", False, f"({h}o{gg})o{f} != {h}o({gg}o{f})")
    return rep


def composable_pairs(mors: dict[str, tuple[str, str]]):
    """Every (g, f) with target(f) == source(g), for a morphism table.

    Pairs come g-major, each coordinate in `mors` order: the order of a
    nested scan over all pairs that skips the non-composable ones.
    """
    into: dict[str, list[str]] = {}
    for m, (_, t) in mors.items():
        into.setdefault(t, []).append(m)
    for g, (s, _) in mors.items():
        for f in into.get(s, ()):
            yield g, f


# -- small builders --------------------------------------------------------

def terminal_groupoid(name: str = "*") -> FinGroupoid:
    i = f"id_{name}"
    return FinGroupoid([name], {i: (name, name)}, {(i, i): i}, {name: i}, {i: i})


def discrete(objects: Iterable[str]) -> FinGroupoid:
    objs = list(objects)
    mors = {f"id_{x}": (x, x) for x in objs}
    comp = {(f"id_{x}", f"id_{x}"): f"id_{x}" for x in objs}
    return FinGroupoid(objs, mors, comp, {x: f"id_{x}" for x in objs},
                       {f"id_{x}": f"id_{x}" for x in objs})


def codiscrete(objects: Iterable[str]) -> FinGroupoid:
    """Exactly one morphism in every hom-set."""
    return _codiscrete(list(objects), _cod_mid)


def _codiscrete(objs: list[str], mid: Callable[[str, str], str]) -> FinGroupoid:
    """The codiscrete groupoid on `objs`, its morphism a -> b named mid(a, b)."""
    mors = {}
    for a in objs:
        for b in objs:
            mors[mid(a, b)] = (a, b)
    comp = {}
    for a in objs:
        for b in objs:
            for c in objs:
                comp[(mid(b, c), mid(a, b))] = mid(a, c)
    ident = {a: mid(a, a) for a in objs}
    inv = {mid(a, b): mid(b, a) for a in objs for b in objs}
    return FinGroupoid(objs, mors, comp, ident, inv)


def _cod_mid(a: str, b: str) -> str:
    return f"id_{a}" if a == b else f"{a}~{b}"


def cyclic_group(n: int, prefix: str = "z") -> FinGroupoid:
    """One-object groupoid with vertex group Z_n."""
    if n < 1:
        raise StructuralError("cyclic group order must be >= 1")
    obj = f"{prefix}*"
    names = [f"id_{obj}" if k == 0 else f"{prefix}{k}" for k in range(n)]
    mors = {names[k]: (obj, obj) for k in range(n)}
    comp = {}
    for a in range(n):
        for b in range(n):
            comp[(names[a], names[b])] = names[(a + b) % n]
    return FinGroupoid([obj], mors, comp, {obj: names[0]},
                       {names[k]: names[(-k) % n] for k in range(n)})


def disjoint_union(parts: list[FinGroupoid], tags: Optional[list[str]] = None) -> FinGroupoid:
    tags = tags or [f"u{i}" for i in range(len(parts))]
    objs: list[str] = []
    mors: dict[str, tuple[str, str]] = {}
    comp: dict[tuple[str, str], str] = {}
    ident: dict[str, str] = {}
    inv: dict[str, str] = {}
    for tag, p in zip(tags, parts):
        ob = {x: f"{tag}.{x}" for x in p.objects}
        mo = {m: f"{tag}.{m}" for m in p.morphisms}
        objs.extend(ob[x] for x in p.objects)
        for m, (s, t) in p.mors.items():
            mors[mo[m]] = (ob[s], ob[t])
        for (g, f), h in p.comp.items():
            comp[(mo[g], mo[f])] = mo[h]
        for x, i in p.ident.items():
            ident[ob[x]] = mo[i]
        for m, v in p.inv.items():
            inv[mo[m]] = mo[v]
    return FinGroupoid(objs, mors, comp, ident, inv)


# -- functors and natural isomorphisms ------------------------------------

class GFunctor:
    """A functor between finite groupoids, as total object/morphism tables."""

    __slots__ = ("dom", "cod", "omap", "mmap", "_key")

    def __init__(self, dom: FinGroupoid, cod: FinGroupoid,
                 omap: dict[str, str], mmap: dict[str, str]):
        self.dom = dom
        self.cod = cod
        self.omap = omap
        self.mmap = mmap
        self._key = None

    def key(self) -> tuple:
        if self._key is None:
            self._key = (tuple(map(self.omap.__getitem__, self.dom.objects)),
                         tuple(map(self.mmap.__getitem__, self.dom.morphisms)))
        return self._key

    def __eq__(self, other) -> bool:
        if not isinstance(other, GFunctor):
            return NotImplemented
        return (self.dom.serial == other.dom.serial
                and self.cod.serial == other.cod.serial
                and self.key() == other.key())

    def __hash__(self) -> int:
        return hash((self.dom.serial, self.cod.serial, self.key()))

    def __repr__(self) -> str:
        return f"GFunctor({len(self.dom.objects)}obj -> {len(self.cod.objects)}obj)"


def identity_functor(g: FinGroupoid) -> GFunctor:
    return GFunctor(g, g, {x: x for x in g.objects}, {m: m for m in g.morphisms})


def compose_functors(g: GFunctor, f: GFunctor) -> GFunctor:
    if g.dom.serial != f.cod.serial:
        raise StructuralError("functor composition: boundary mismatch")
    return GFunctor(f.dom, g.cod,
                    {x: g.omap[f.omap[x]] for x in f.dom.objects},
                    {m: g.mmap[f.mmap[m]] for m in f.dom.morphisms})


def is_functor(f: GFunctor) -> Report:
    """Scan of the functor laws over the total tables.

    Out of a full product, composition is first checked on a generating set
    (`_preserves_product_generators`), which leaves the product's own table
    unbuilt; only when that check fails does the whole table get scanned,
    so a failing report names the pairs it always named.
    """
    rep = Report()
    dom, cod = f.dom, f.cod
    for x in dom.objects:
        if f.omap.get(x) not in cod.ident:
            rep.add("omap", False, f"object {x} maps to nothing in codomain")
    for m in dom.morphisms:
        fm = f.mmap.get(m)
        if fm is None or fm not in cod.mors:
            rep.add("mmap", False, f"morphism {m} maps to nothing in codomain")
            continue
        s, t = dom.mors[m]
        if cod.mors[fm] != (f.omap.get(s), f.omap.get(t)):
            rep.add("mmap-typing", False, f"image of {m} has wrong endpoints")
    if not rep.ok:
        return rep
    for x in dom.objects:
        if f.mmap[dom.id_of(x)] != cod.id_of(f.omap[x]):
            rep.add("functor-id", False, f"identity at {x} not preserved")
    if rep.ok and dom.factors is not None and _preserves_product_generators(f):
        return rep
    ccomp = cod.comp
    for (g, m), h in dom.comp.items():
        if ccomp[(f.mmap[g], f.mmap[m])] != f.mmap[h]:
            rep.add("functor-comp", False, f"composition {g}o{m} not preserved")
    return rep


def _preserves_product_generators(f: GFunctor) -> bool:
    """Whether F(s . p) = F(s) . F(p) for every generator s of the full
    product X x Y = F.dom, (m, id_b) or (id_a, n), and every p composable
    with s.

    For an F that preserves identities this is every composite: each
    morphism (m, n) is (m, id) . (id, n), so induction on the length of a
    word in the generators gives F(q . p) = F(q) . F(p).  Each s . p is read
    off the factor tables, so the product's own table is not built.
    """
    x, y = f.dom.factors
    ccomp = f.cod.comp
    xcomp, ycomp = x.comp, y.comp
    xinto, yinto = x._adjacency()[1], y._adjacency()[1]
    # F (m, n) is row[m][n]
    row = {m: {n: f.mmap[pair_id(m, n)] for n in y.morphisms} for m in x.morphisms}
    # s = (g, id_b): s . (m, n) = (g . m, id_b . n)
    for b in y.objects:
        idb = y.ident[b]
        ns = [(n, ycomp[(idb, n)]) for n in yinto.get(b, ())]
        for g, (a, _) in x.mors.items():
            fs = row[g][idb]
            for m in xinto.get(a, ()):
                fm, fgm = row[m], row[xcomp[(g, m)]]
                for n, sn in ns:
                    if ccomp[(fs, fm[n])] != fgm[sn]:
                        return False
    # s = (id_a, h): s . (m, n) = (id_a . m, h . n)
    for a in x.objects:
        ida = x.ident[a]
        ms = [(row[m], row[xcomp[(ida, m)]]) for m in xinto.get(a, ())]
        for h, (b, _) in y.mors.items():
            fs = row[ida][h]
            for n in yinto.get(b, ()):
                hn = ycomp[(h, n)]
                for fm, fsm in ms:
                    if ccomp[(fs, fm[n])] != fsm[hn]:
                        return False
    return True


class NatIso:
    """A natural isomorphism between parallel functors, componentwise."""

    __slots__ = ("src", "tgt", "components", "_key")

    def __init__(self, src: GFunctor, tgt: GFunctor, components: dict[str, str]):
        self.src = src
        self.tgt = tgt
        self.components = components
        self._key = None

    def key(self) -> tuple:
        if self._key is None:
            self._key = tuple(map(self.components.__getitem__, self.src.dom.objects))
        return self._key

    def __eq__(self, other) -> bool:
        if not isinstance(other, NatIso):
            return NotImplemented
        return self.src == other.src and self.tgt == other.tgt and self.key() == other.key()

    def __hash__(self) -> int:
        return hash((self.src.dom.serial, self.key()))

    def __repr__(self) -> str:
        return f"NatIso({len(self.components)} components)"


def is_nat_iso(n: NatIso) -> Report:
    rep = Report()
    F, G = n.src, n.tgt
    if F.dom.serial != G.dom.serial or F.cod.serial != G.cod.serial:
        rep.add("parallel", False, "source and target functors are not parallel")
        return rep
    cod = F.cod
    for x in F.dom.objects:
        c = n.components.get(x)
        if c is None or c not in cod.mors:
            rep.add("component", False, f"component at {x} dangles")
            continue
        if cod.mors[c] != (F.omap[x], G.omap[x]):
            rep.add("component-typing", False, f"component at {x} has wrong endpoints")
    if not rep.ok:
        return rep
    for m in F.dom.morphisms:
        s, t = F.dom.mors[m]
        if cod.compose(n.components[t], F.mmap[m]) != cod.compose(G.mmap[m], n.components[s]):
            rep.add("naturality", False, f"naturality square at {m} does not commute")
    return rep


def identity_nat_iso(f: GFunctor) -> NatIso:
    return NatIso(f, f, {x: f.cod.id_of(f.omap[x]) for x in f.dom.objects})


def vcompose_nat_isos(b: NatIso, a: NatIso) -> NatIso:
    """Vertical composite b after a (componentwise composition)."""
    cod = a.src.cod
    return NatIso(a.src, b.tgt,
                  {x: cod.compose(b.components[x], a.components[x])
                   for x in a.src.dom.objects})


def invert_nat_iso(n: NatIso) -> NatIso:
    cod = n.src.cod
    return NatIso(n.tgt, n.src, {x: cod.inv_of(n.components[x]) for x in n.src.dom.objects})


def whisker_left(g: GFunctor, n: NatIso) -> NatIso:
    """g * n for n between functors into dom(g)."""
    return NatIso(compose_functors(g, n.src), compose_functors(g, n.tgt),
                  {x: g.mmap[n.components[x]] for x in n.src.dom.objects})


def whisker_right(n: NatIso, f: GFunctor) -> NatIso:
    """n * f for f into the domain of n's boundary functors."""
    return NatIso(compose_functors(n.src, f), compose_functors(n.tgt, f),
                  {x: n.components[f.omap[x]] for x in f.dom.objects})


def conjugate(f: GFunctor, theta: Mapping[str, str],
              cod: Optional[FinGroupoid] = None) -> GFunctor:
    """The functor G that the isomorphisms theta_x: f x -> G x carry f to.

    G x = tgt theta_x and G m = theta_t . f m . theta_s^-1, so theta is a
    natural isomorphism f => G.  `cod` is a subgroupoid of f.cod holding
    every G m; it defaults to f.cod.
    """
    dom, c = f.dom, f.cod
    compose, tgt, inv, fm = c.compose, c.tgt, c.inv, f.mmap
    mmap = {}
    for m in dom.morphisms:
        s, t = dom.mors[m]
        mmap[m] = compose(theta[t], compose(fm[m], inv[theta[s]]))
    return GFunctor(dom, c if cod is None else cod,
                    {x: tgt(theta[x]) for x in dom.objects}, mmap)


# -- enumeration -----------------------------------------------------------

def _generating_words(g: FinGroupoid, base: str) -> tuple[list[str], dict[str, list[str]]]:
    """Greedy generating set of the vertex group plus a word for each element."""
    elems = g.hom(base, base)
    words: dict[str, list[str]] = {g.id_of(base): []}
    gens: list[str] = []
    while len(words) < len(elems):
        fresh = min(e for e in elems if e not in words)
        gens.append(fresh)
        frontier = True
        while frontier:
            frontier = False
            for e in list(words):
                for s in gens:
                    n = g.compose(e, s)
                    if n not in words:
                        words[n] = words[e] + [s]
                        frontier = True
                    n2 = g.compose(s, e)
                    if n2 not in words:
                        words[n2] = [s] + words[e]
                        frontier = True
    return gens, words


def _group_homs(dom: FinGroupoid, base: str, cod: FinGroupoid, cobase: str,
                gens_words: tuple[list[str], dict[str, list[str]]]
                ) -> list[dict[str, str]]:
    """All group homomorphisms hom(base,base) -> hom(cobase,cobase), given
    `_generating_words(dom, base)`.

    The map a choice of generator images induces on words is checked only
    at the products a . s with s a generator: the words cover the group and
    the identity's word is empty, so by induction on word length it then
    respects every product a . b.
    """
    G = dom.hom(base, base)
    H = cod.hom(cobase, cobase)
    gens, words = gens_words
    steps = [(a, s, dom.compose(a, s)) for a in G for s in gens]
    out: list[dict[str, str]] = []
    for images in itertools.product(H, repeat=len(gens)):
        table = dict(zip(gens, images))
        hom_map = {}
        for e in G:
            img = cod.id_of(cobase)
            for s in words[e]:
                img = cod.compose(img, table[s])
            hom_map[e] = img
        if all(cod.compose(hom_map[a], hom_map[s]) == hom_map[a_s]
               for a, s, a_s in steps):
            out.append(hom_map)
    return out


def functors_between(dom: FinGroupoid, cod: FinGroupoid,
                     cap: Optional[int] = None,
                     over: Optional[tuple[GFunctor, GFunctor]] = None
                     ) -> list[GFunctor]:
    """Every functor dom -> cod, enumerated deterministically.

    Per connected component: an image for the base object, a group
    homomorphism between vertex groups, and an image morphism for each
    spanning-tree edge; the rest of the table is forced.  With over=(g, p)
    only the functors H with g . H = p are listed, in the same order: a
    choice is kept when g sends it where p sends what it is the image of,
    which, g and p being functors, holds for all of H exactly when it holds
    for these choices.
    """
    if over is not None:
        g, p = over
        if (g.dom.serial, p.dom.serial) != (cod.serial, dom.serial) \
                or g.cod.serial != p.cod.serial:
            raise StructuralError("functor enumeration: boundary mismatch")
    comps = dom.components()
    per_comp: list[list[tuple]] = []
    for c in comps:
        choices: list[tuple] = []
        bases = sorted(cod.objects)
        if over is not None:
            bases = [yb for yb in bases if g.omap[yb] == p.omap[c.base]]
        gens_words = _generating_words(dom, c.base)
        for yb in bases:
            rhos = _group_homs(dom, c.base, cod, yb, gens_words)
            if over is not None:
                rhos = [rho for rho in rhos
                        if all(g.mmap[rho[e]] == p.mmap[e] for e in rho)]
            for rho in rhos:
                tree_imgs: list[list[tuple[str, str]]] = []
                for x in c.objects:
                    if x == c.base:
                        continue
                    ms = sorted(cod.out_of(yb))
                    if over is not None:
                        px = p.mmap[c.tree[x]]
                        ms = [m for m in ms if g.mmap[m] == px]
                    tree_imgs.append([(x, m) for m in ms])
                for pick in itertools.product(*tree_imgs):
                    choices.append((yb, rho, dict(pick)))
        per_comp.append(choices)
    # each morphism f: s -> t as tree[t] . e . tree[s]^-1, e in the vertex
    # group of its component's base, with the index of that component
    at = {x: i for i, c in enumerate(comps) for x in c.objects}
    forms = []
    for f, (s, t) in dom.mors.items():
        tree = comps[at[s]].tree
        forms.append((f, s, t, at[s],
                      dom.compose_path(dom.inv_of(tree[t]), f, tree[s])))
    out: list[GFunctor] = []
    for combo in itertools.product(*per_comp):
        omap: dict[str, str] = {}
        tree_map: dict[str, str] = {}
        for c, (yb, rho, picks) in zip(comps, combo):
            for x in c.objects:
                if x == c.base:
                    omap[x] = yb
                    tree_map[x] = cod.id_of(yb)
                else:
                    m = picks[x]
                    omap[x] = cod.tgt(m)
                    tree_map[x] = m
        mmap: dict[str, str] = {}
        for f, s, t, i, e in forms:
            mmap[f] = cod.compose_path(tree_map[t], combo[i][1][e],
                                       cod.inv_of(tree_map[s]))
        out.append(GFunctor(dom, cod, omap, mmap))
        if cap is not None and len(out) > cap:
            raise SizeCapError("functor enumeration", len(out), cap)
    return out


def nat_isos_between(F: GFunctor, G: GFunctor,
                     over: Optional[GFunctor] = None) -> list[NatIso]:
    """Every natural isomorphism F => G (empty if none).

    With over=g only the isos whose components g sends to identities are
    listed, in the same order; each component is checked as it is built.
    """
    if F.dom.serial != G.dom.serial or F.cod.serial != G.cod.serial:
        return []
    dom, cod = F.dom, F.cod
    comps = dom.components()
    per_comp: list[list[dict[str, str]]] = []
    for c in comps:
        options: list[dict[str, str]] = []
        for cb in cod.hom(F.omap[c.base], G.omap[c.base]):
            assign = {}
            for x in c.objects:
                t = c.tree[x]
                a = cod.compose_path(G.mmap[t], cb, cod.inv_of(F.mmap[t]))
                if over is not None and not over.cod.is_identity(over.mmap[a]):
                    break
                assign[x] = a
            else:
                options.append(assign)
        per_comp.append(options)
    out: list[NatIso] = []
    for combo in itertools.product(*per_comp):
        components: dict[str, str] = {}
        for assign in combo:
            components.update(assign)
        cand = NatIso(F, G, components)
        good = True
        for m in dom.morphisms:
            s, t = dom.mors[m]
            if cod.compose(components[t], F.mmap[m]) != cod.compose(G.mmap[m], components[s]):
                good = False
                break
        if good:
            out.append(cand)
    return out


# -- products, pullbacks, exponentials -------------------------------------

def pair_id(a: str, b: str) -> str:
    return f"({a},{b})"


@dataclass
class ProductGpd:
    """A binary product with its projections and pairing data.

    It also serves strict pullbacks: the full subgroupoid of the product on
    the pairs that agree over the base.
    """

    gpd: FinGroupoid
    p1: GFunctor
    p2: GFunctor
    opair: dict[tuple[str, str], str]
    mpair: dict[tuple[str, str], str]

    def pair(self, f: GFunctor, g: GFunctor) -> GFunctor:
        """Universal map <f,g> for a cone f: Z -> X, g: Z -> Y."""
        if f.dom.serial != g.dom.serial:
            raise StructuralError("pairing: cone legs have different domains")
        return GFunctor(
            f.dom, self.gpd,
            {z: self.opair[(f.omap[z], g.omap[z])] for z in f.dom.objects},
            {m: self.mpair[(f.mmap[m], g.mmap[m])] for m in f.dom.morphisms},
        )


def _paired(x: FinGroupoid, y: FinGroupoid, objs: list[tuple[str, str]],
            ms: list[tuple[str, str]]) -> ProductGpd:
    """The full subgroupoid of x * y on the given object and morphism pairs.

    Its `comp` table is built, and checked, on first read.
    """
    opair = {ab: pair_id(*ab) for ab in objs}
    mpair = {mn: pair_id(*mn) for mn in ms}
    xmors, ymors = x.mors, y.mors
    mors = {mpair[(m, n)]: (opair[(xmors[m][0], ymors[n][0])],
                            opair[(xmors[m][1], ymors[n][1])])
            for (m, n) in ms}

    def build_comp() -> dict[tuple[str, str], str]:
        xcomp, ycomp = x.comp, y.comp
        xinto, yinto = x._adjacency()[1], y._adjacency()[1]
        mget = mpair.get
        comp = {}
        # `mpair` lists pairs in factor order, so this visits them in `ms` order
        for (m2, n2), gn in mpair.items():
            n1s = yinto.get(ymors[n2][0], ())
            for m1 in xinto.get(xmors[m2][0], ()):
                for n1 in n1s:
                    fn = mget((m1, n1))
                    if fn is not None:
                        comp[(gn, fn)] = mpair[(xcomp[(m2, m1)], ycomp[(n2, n1)])]
        return comp

    ident = {opair[(a, b)]: mpair[(x.ident[a], y.ident[b])] for (a, b) in objs}
    inv = {mpair[(m, n)]: mpair[(x.inv[m], y.inv[n])] for (m, n) in ms}
    gpd = FinGroupoid([opair[ab] for ab in objs], mors, build_comp, ident, inv)
    p1 = GFunctor(gpd, x, {opair[ab]: ab[0] for ab in objs}, {mpair[mn]: mn[0] for mn in ms})
    p2 = GFunctor(gpd, y, {opair[ab]: ab[1] for ab in objs}, {mpair[mn]: mn[1] for mn in ms})
    return ProductGpd(gpd, p1, p2, opair, mpair)


def check_product_caps(x: FinGroupoid, y: FinGroupoid, caps: SizeCaps) -> None:
    """Refuse, with SizeCapError, a product x * y with more objects or
    morphisms than `caps` allows."""
    n_obj = len(x.objects) * len(y.objects)
    n_mor = len(x.morphisms) * len(y.morphisms)
    if n_obj > caps.max_objects:
        raise SizeCapError("product objects", n_obj, caps.max_objects)
    if n_mor > caps.max_morphisms:
        raise SizeCapError("product morphisms", n_mor, caps.max_morphisms)


def product(x: FinGroupoid, y: FinGroupoid, caps: SizeCaps = DEFAULT_CAPS) -> ProductGpd:
    check_product_caps(x, y, caps)
    p = _paired(x, y, [(a, b) for a in x.objects for b in y.objects],
                [(m, n) for m in x.morphisms for n in y.morphisms])
    p.gpd.factors = (x, y)
    return p


def pullback(f: GFunctor, g: GFunctor) -> ProductGpd:
    """Strict pullback of the cospan f: X -> Z <- Y : g."""
    if f.cod.serial != g.cod.serial:
        raise StructuralError("pullback: codomain mismatch")
    x, y = f.dom, g.dom
    return _paired(
        x, y, [(a, b) for a in x.objects for b in y.objects if f.omap[a] == g.omap[b]],
        [(m, n) for m in x.morphisms for n in y.morphisms if f.mmap[m] == g.mmap[n]])


def triple_id(a: str, b: str, r: str) -> str:
    return f"({a},{b};{r})"


@dataclass
class IsoCommaGpd:
    """Pseudopullback: objects carry a connecting isomorphism."""

    gpd: FinGroupoid
    p1: GFunctor
    p2: GFunctor
    generic: NatIso
    otriple: dict[tuple[str, str, str], str]
    mpair: dict[tuple[str, str, str], str]  # (p, q, source triple id) -> id

    def pair(self, s: GFunctor, t: GFunctor, phi: NatIso) -> GFunctor:
        """Universal map [s,t,phi] for a cone with connecting 2-cell."""
        omap = {w: self.otriple[(s.omap[w], t.omap[w], phi.components[w])]
                for w in s.dom.objects}
        mmap = {}
        for m in s.dom.morphisms:
            src = omap[s.dom.src(m)]
            mmap[m] = self.mpair[(s.mmap[m], t.mmap[m], src)]
        return GFunctor(s.dom, self.gpd, omap, mmap)


def iso_comma(f: GFunctor, g: GFunctor) -> IsoCommaGpd:
    """Objects (a, b, r: f a -> g b); morphisms (p, q) with g q . r = r' . f p."""
    if f.cod.serial != g.cod.serial:
        raise StructuralError("iso-comma: codomain mismatch")
    x, y, z = f.dom, g.dom, f.cod
    triples = [(a, b, r) for a in x.objects for b in y.objects
               for r in z.hom(f.omap[a], g.omap[b])]
    otriple = {t: triple_id(*t) for t in triples}
    conn = {otriple[t]: t[2] for t in triples}
    objs = [otriple[t] for t in triples]
    mors: dict[str, tuple[str, str]] = {}
    minfo: dict[str, tuple[str, str, str, str]] = {}  # id -> (p, q, src, tgt)
    mpair: dict[tuple[str, str, str], str] = {}
    for (a, b, r) in triples:
        src = otriple[(a, b, r)]
        for p in x.out_of(a):
            for q in y.out_of(b):
                r2 = z.compose_path(g.mmap[q], r, z.inv_of(f.mmap[p]))
                tgt = otriple[(x.tgt(p), y.tgt(q), r2)]
                mid = f"({p},{q})@{src}"
                mors[mid] = (src, tgt)
                minfo[mid] = (p, q, src, tgt)
                mpair[(p, q, src)] = mid
    comp = {}
    for m2, m1 in composable_pairs(mors):
        p2, q2 = minfo[m2][:2]
        p1, q1, s1 = minfo[m1][:3]
        comp[(m2, m1)] = mpair[(x.compose(p2, p1), y.compose(q2, q1), s1)]
    ident = {otriple[(a, b, r)]: mpair[(x.id_of(a), y.id_of(b), otriple[(a, b, r)])]
             for (a, b, r) in triples}
    inv = {}
    for m, (p, q, s, t) in minfo.items():
        inv[m] = mpair[(x.inv_of(p), y.inv_of(q), t)]
    gpd = FinGroupoid(objs, mors, comp, ident, inv)
    p1f = GFunctor(gpd, x, {otriple[t]: t[0] for t in triples},
                   {m: minfo[m][0] for m in mors})
    p2f = GFunctor(gpd, y, {otriple[t]: t[1] for t in triples},
                   {m: minfo[m][1] for m in mors})
    generic = NatIso(compose_functors(f, p1f), compose_functors(g, p2f), dict(conn))
    return IsoCommaGpd(gpd, p1f, p2f, generic, otriple, mpair)


@dataclass
class ExpGpd:
    """Exponential y^x: objects are functors, morphisms natural isomorphisms."""

    gpd: FinGroupoid
    obj_to_functor: dict[str, GFunctor]
    mor_to_natiso: dict[str, NatIso]
    functor_to_obj: dict[tuple, str]
    natiso_to_mor: dict[tuple, str]     # by (n.src.key(), n.key())

    def obj_of(self, f: GFunctor) -> str:
        return self.functor_to_obj[f.key()]


def exponential(x: FinGroupoid, y: FinGroupoid, caps: SizeCaps = DEFAULT_CAPS) -> ExpGpd:
    fs = functors_between(x, y)
    if len(fs) > caps.max_objects:
        raise SizeCapError("exponential objects", len(fs), caps.max_objects)
    obj_to_functor = {f"f{i}": F for i, F in enumerate(fs)}
    functor_to_obj = {F.key(): o for o, F in obj_to_functor.items()}
    mors: dict[str, tuple[str, str]] = {}
    mor_to_natiso: dict[str, NatIso] = {}
    natiso_to_mor: dict[tuple, str] = {}
    # composites, identities and inverses are looked up by source object
    # and the tuple of components at the objects of x, in order
    mor_index: dict[tuple[str, tuple], str] = {}
    count = 0
    for oa, F in obj_to_functor.items():
        fkey = F.key()
        for ob, G in obj_to_functor.items():
            for n in nat_isos_between(F, G):
                mid = f"t{count}"
                count += 1
                if count > caps.max_morphisms:
                    raise SizeCapError("exponential morphisms", count, caps.max_morphisms)
                mors[mid] = (oa, ob)
                mor_to_natiso[mid] = n
                natiso_to_mor[(fkey, n.key())] = mid
                mor_index[(oa, n.key())] = mid
    ycomp, yident, yinv = y.comp, y.ident, y.inv
    comps = {m: n.key() for m, n in mor_to_natiso.items()}
    comp = {(m2, m1): mor_index[(mors[m1][0], tuple(map(ycomp.__getitem__,
                                                        zip(comps[m2], comps[m1]))))]
            for m2, m1 in composable_pairs(mors)}
    ident = {o: mor_index[(o, tuple([yident[F.omap[a]] for a in x.objects]))]
             for o, F in obj_to_functor.items()}
    inv = {m: mor_index[(mors[m][1], tuple(map(yinv.__getitem__, c)))]
           for m, c in comps.items()}
    gpd = FinGroupoid(list(obj_to_functor), mors, comp, ident, inv)
    return ExpGpd(gpd, obj_to_functor, mor_to_natiso, functor_to_obj, natiso_to_mor)


def evaluation(raw: ProductGpd, target: FinGroupoid, fun_of: Mapping[str, GFunctor],
               iso_of: Mapping[str, NatIso]) -> GFunctor:
    """Evaluation E x X -> target, for an E whose objects stand for the
    functors `fun_of` and whose morphisms for the natural isos `iso_of`.

    (F, x) goes to F x, and (n, m) for m: x -> x' to n_x' . F m, in the
    entry order of the product `raw` of E and X.
    """
    base = raw.p2.cod
    omap = {oid: fun_of[fo].omap[a] for (fo, a), oid in raw.opair.items()}
    mmap = {}
    for (n, m), mid in raw.mpair.items():
        iso = iso_of[n]
        mmap[mid] = target.compose(iso.tgt.mmap[m], iso.components[base.mors[m][0]])
    return GFunctor(raw.gpd, target, omap, mmap)


def curry(k: GFunctor, raw: ProductGpd, base: FinGroupoid
          ) -> tuple[dict[str, GFunctor], dict[str, tuple[str, ...]]]:
    """k: Z x base -> Y sliced along Z, with `raw` the product Z x base.

    Returns the functor base -> Y at each object of Z, and at each morphism
    v of Z the components k(v, id_a) at the objects a of base, in order:
    the natural iso from the slice at v's source to the one at its target.
    """
    z = raw.p1.cod
    slices = {zo: GFunctor(base, k.cod,
                           {a: k.omap[raw.opair[(zo, a)]] for a in base.objects},
                           {m: k.mmap[raw.mpair[(z.id_of(zo), m)]]
                            for m in base.morphisms})
              for zo in z.objects}
    comps = {v: tuple([k.mmap[raw.mpair[(v, base.id_of(a))]] for a in base.objects])
             for v in z.morphisms}
    return slices, comps


# -- isofibrations and equivalences ----------------------------------------

@dataclass
class LiftFailure:
    obj: str
    arrow: str


def isofibration_cleavage(f: GFunctor):
    """Deterministic lifts if f is an isofibration, else the witnessing failure.

    The lifts map (y, q: f y -> z') to a morphism from y over q: the
    lexicographically least candidate, except that identities lift to
    identities.
    """
    dom, cod = f.dom, f.cod
    lifts: dict[tuple[str, str], str] = {}
    for y in dom.objects:
        fy = f.omap[y]
        for q in cod.out_of(fy):
            if cod.is_identity(q):
                lifts[(y, q)] = dom.id_of(y)
                continue
            cands = sorted(m for m in dom.out_of(y) if f.mmap[m] == q)
            if not cands:
                return LiftFailure(y, q)
            lifts[(y, q)] = cands[0]
    return lifts


@dataclass
class EquivalenceData:
    """An adjoint-free equivalence: both functors plus unit/counit isos.

    unit: identity => bwd . fwd, counit: identity => fwd . bwd.
    """

    fwd: GFunctor
    bwd: GFunctor
    unit: NatIso
    counit: NatIso


@dataclass
class EquivalenceFailure:
    reason: str
    detail: str


def fully_faithful_failure(f: GFunctor) -> Optional[tuple]:
    """None if f is fully faithful, else its first failure in a scan of
    the hom-sets: ("faithful", a, b, m1, m2) for two morphisms a -> b that
    f identifies, or ("full", a, b, v) for a v: fa -> fb it misses."""
    dom, cod = f.dom, f.cod
    for a in dom.objects:
        for b in dom.objects:
            seen: dict[str, str] = {}
            for m in dom.hom(a, b):
                fm = f.mmap[m]
                if fm in seen:
                    return ("faithful", a, b, seen[fm], m)
                seen[fm] = m
            for v in cod.hom(f.omap[a], f.omap[b]):
                if v not in seen:
                    return ("full", a, b, v)
    return None


def equivalence_inverse(f: GFunctor):
    """Pseudoinverse data if f is an equivalence, else the failing condition.

    Representatives are chosen lexicographically.
    """
    dom, cod = f.dom, f.cod
    failure = fully_faithful_failure(f)
    if failure is not None and failure[0] == "faithful":
        return EquivalenceFailure("faithful", "{3} and {4} collapse".format(*failure))
    if failure is not None:
        return EquivalenceFailure("full",
                                  "{3} has no preimage in hom({1},{2})".format(*failure))
    theta: dict[str, str] = {}   # y -> iso y -> f(bwd y)
    bwd_o: dict[str, str] = {}
    for y in sorted(cod.objects):
        found = False
        # prefer a strict preimage (so the inverse of an identity-like
        # functor is identity-like), then lexicographic order
        for a in sorted(dom.objects, key=lambda a: (f.omap[a] != y, a)):
            isos = sorted(cod.hom(y, f.omap[a]),
                          key=lambda m: (not cod.is_identity(m), m))
            if isos:
                bwd_o[y] = a
                theta[y] = isos[0]
                found = True
                break
        if not found:
            return EquivalenceFailure("essentially-surjective", f"{y} not isomorphic to any image")
    # preimage lookup for full+faithful f
    def preimage(a: str, b: str, v: str) -> str:
        for m in dom.hom(a, b):
            if f.mmap[m] == v:
                return m
        raise StructuralError("fullness lookup failed")  # unreachable after checks
    moved = conjugate(identity_functor(cod), theta).mmap
    bwd_m = {q: preimage(bwd_o[y], bwd_o[y2], moved[q])
             for q, (y, y2) in cod.mors.items()}
    bwd = GFunctor(cod, dom, bwd_o, bwd_m)
    unit_c = {a: preimage(a, bwd_o[f.omap[a]], theta[f.omap[a]]) for a in dom.objects}
    unit = NatIso(identity_functor(dom), compose_functors(bwd, f), unit_c)
    counit = NatIso(identity_functor(cod), compose_functors(f, bwd), dict(theta))
    return EquivalenceData(f, bwd, unit, counit)
