"""Typed combinatory algebras, bracket abstraction, and their realizer
category of finite fragments.

The concrete instance is typed SK over one base type: strongly normalizing,
so normal-form comparison is a decidable equality oracle for every equation
in sight.  A unit type can be adjoined; the unit laws are applied as type
normalization, and the unit-involving combinators are given by the usual
table (the K and S constants themselves never mention the unit).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Union

from .errors import FragmentError, StructuralError
from .groupoids import Report

# -- types ---------------------------------------------------------------------


@dataclass(frozen=True)
class TBase:
    name: str

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class TUnit:
    def __repr__(self):
        return "1"


@dataclass(frozen=True)
class TArrow:
    a: "TypeExpr"
    b: "TypeExpr"

    def __repr__(self):
        return f"({self.a!r}->{self.b!r})"


TypeExpr = Union[TBase, TUnit, TArrow]
UNIT = TUnit()


# -- terms ---------------------------------------------------------------------

@dataclass(frozen=True)
class KConst:
    a: TypeExpr
    b: TypeExpr

    def __repr__(self):
        return f"K[{self.a!r},{self.b!r}]"


@dataclass(frozen=True)
class SConst:
    a: TypeExpr
    b: TypeExpr
    c: TypeExpr

    def __repr__(self):
        return f"S[{self.a!r},{self.b!r},{self.c!r}]"


@dataclass(frozen=True)
class Star:
    def __repr__(self):
        return "*"


@dataclass(frozen=True)
class Const:
    """An opaque typed constant; keeps the ground carriers inhabited."""

    name: str
    type: TypeExpr

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class Var:
    name: str
    type: TypeExpr

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class App:
    f: "Term"
    x: "Term"

    def __repr__(self):
        return f"({self.f!r} {self.x!r})"


Term = Union[KConst, SConst, Star, Const, Var, App]
STAR = Star()


class TCA:
    """A typed SK algebra over named base types.

    `unital=True` adjoins the unit type with the normalizing laws
    1->A = A and A->1 = 1 plus the table of unit combinators.
    `recursive=True` instead identifies U->U with the single base type U,
    giving the one-type presentation of an untyped algebra (normalization
    is then fuel-bounded).
    """

    def __init__(self, bases: tuple[str, ...] = ("o",), unital: bool = False,
                 recursive: bool = False, ground: int = 0):
        if recursive and (unital or len(bases) != 1):
            raise StructuralError("the recursive presentation has exactly one type")
        self.bases = tuple(bases)
        self.unital = unital
        self.recursive = recursive
        self.ground = ground
        self.constants = tuple(Const(f"c{i}", TBase(self.bases[0]))
                               for i in range(ground))
        self._nf_cache: dict = {}

    def base(self, name: str) -> TypeExpr:
        if name not in self.bases:
            raise StructuralError(f"unknown base type {name!r}")
        return TBase(name)

    def arrow(self, a: TypeExpr, b: TypeExpr) -> TypeExpr:
        if self.unital:
            if a == UNIT:
                return b
            if b == UNIT:
                return UNIT
        if self.recursive and a == TBase(self.bases[0]) and b == a:
            return a
        return TArrow(a, b)

    # combinators, with the unit table folded in

    def k(self, a: TypeExpr, b: TypeExpr) -> Term:
        if self.unital and a == UNIT:
            return STAR
        if self.unital and b == UNIT:
            return self.i(a)
        return KConst(a, b)

    def s(self, a: TypeExpr, b: TypeExpr, c: TypeExpr) -> Term:
        if self.unital and c == UNIT:
            return STAR
        if self.unital and a == UNIT:
            return self.i(self.arrow(b, c))
        if self.unital and b == UNIT:
            return self.i(self.arrow(a, c))
        return SConst(a, b, c)

    def i(self, a: TypeExpr) -> Term:
        if self.unital and a == UNIT:
            return STAR
        aa = self.arrow(a, a)
        return App(App(SConst(a, aa, a), KConst(a, aa)), KConst(a, a))

    def type_of(self, t: Term) -> TypeExpr:
        if isinstance(t, KConst):
            return self.arrow(t.a, self.arrow(t.b, t.a))
        if isinstance(t, SConst):
            return self.arrow(self.arrow(t.a, self.arrow(t.b, t.c)),
                              self.arrow(self.arrow(t.a, t.b),
                                         self.arrow(t.a, t.c)))
        if isinstance(t, Star):
            return UNIT
        if isinstance(t, (Var, Const)):
            return t.type
        if isinstance(t, App):
            tf = self.type_of(t.f)
            tx = self.type_of(t.x)
            return self.app_type(tf, tx)
        raise StructuralError(f"not a term: {t!r}")

    def app_type(self, tf: TypeExpr, tx: TypeExpr) -> TypeExpr:
        if isinstance(tf, TArrow) and tf.a == tx:
            return tf.b
        if self.recursive and tf == TBase(self.bases[0]) and tx == tf:
            return tf
        if self.unital and tx == UNIT:
            return tf                       # tf = 1 -> tf
        if self.unital and tf == UNIT:
            return UNIT                     # 1 = tx -> 1
        raise StructuralError(f"ill-typed application: {tf!r} to {tx!r}")

    def check(self, t: Term) -> TypeExpr:
        """Type the term, rejecting unit-typed raw constants."""
        if self.unital:
            for sub in subterms(t):
                if isinstance(sub, KConst) and UNIT in (sub.a, sub.b):
                    raise StructuralError("raw K constant at a unit type")
                if isinstance(sub, SConst) and UNIT in (sub.a, sub.b, sub.c):
                    raise StructuralError("raw S constant at a unit type")
        return self.type_of(t)


def subterms(t: Term):
    yield t
    if isinstance(t, App):
        yield from subterms(t.f)
        yield from subterms(t.x)


def free_vars(t: Term) -> set[str]:
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, App):
        return free_vars(t.f) | free_vars(t.x)
    return set()


def substitute(t: Term, x: Var, a: Term) -> Term:
    if isinstance(t, Var):
        return a if t.name == x.name else t
    if isinstance(t, App):
        return App(substitute(t.f, x, a), substitute(t.x, x, a))
    return t


def _step(t: Term) -> Optional[Term]:
    """One outermost reduction step, or None at a normal form.

    The unit laws fire first: a well-typed argument of a K- or S-redex can
    never itself be star (the constants carry no unit types), so the rules
    do not overlap.
    """
    if not isinstance(t, App):
        return None
    f, x = t.f, t.x
    if isinstance(x, Star) and not isinstance(f, Star):
        return f                                        # a . * = a
    if isinstance(f, Star):
        return STAR                                     # * . a = *
    if isinstance(f, App) and isinstance(f.f, KConst):
        return f.x                                      # K u v = u
    if isinstance(f, App) and isinstance(f.f, App) \
            and isinstance(f.f.f, SConst):
        return App(App(f.f.x, x), App(f.x, x))          # S u v w = u w (v w)
    fr = _step(f)
    if fr is not None:
        return App(fr, x)
    xr = _step(x)
    if xr is not None:
        return App(f, xr)
    return None


def _apply_all(t: Term, args: list[Term]) -> Term:
    for a in args:
        t = App(t, a)
    return t


def normalize(t: Term, fuel: int = 10000) -> Term:
    """Reduce to the normal form; typed fragments always terminate."""
    for _ in range(fuel):
        nxt = _step(t)
        if nxt is None:
            return t
        t = nxt
    raise FragmentError(f"no normal form within {fuel} steps")


def bracket_abstract(tca: TCA, t: Term, x: Var) -> Term:
    """lambda x. t via the standard K/S/identity clauses.

    Satisfies (lambda x. t) a = t[a/x] up to normalization for closed a.
    """
    if tca.unital and x.type == UNIT:
        return substitute(t, x, STAR)
    if isinstance(t, Var) and t.name == x.name:
        return tca.i(x.type)
    if x.name not in free_vars(t):
        return App(tca.k(tca.type_of(t), x.type), t)
    if isinstance(t, App):
        tu = tca.type_of(t.f)
        tv = tca.type_of(t.x)
        res = tca.app_type(tu, tv)
        lu = bracket_abstract(tca, t.f, x)
        lv = bracket_abstract(tca, t.x, x)
        return App(App(tca.s(x.type, tv, res), lu), lv)
    raise StructuralError("variable occurs freely in an atomic non-variable term")


def unit_augmentation(tca: TCA) -> TCA:
    """Adjoin the unit type (the categories of assemblies agree up to
    equivalence)."""
    if tca.unital:
        return tca
    if tca.recursive:
        raise StructuralError("the one-type presentation has no unit extension")
    return TCA(tca.bases, unital=True, ground=tca.ground)


# -- finite fragments and the induced category ----------------------------------

def type_pool(tca: TCA, depth: int) -> list[TypeExpr]:
    """All types of arrow depth at most `depth` (plus the unit if present)."""
    pool: list[TypeExpr] = [TBase(b) for b in tca.bases]
    if tca.unital:
        pool.append(UNIT)
    current = list(pool)
    for _ in range(depth):
        fresh = []
        for a in current:
            for b in current:
                t = tca.arrow(a, b)
                if t not in pool and t not in fresh:
                    fresh.append(t)
        pool.extend(fresh)
        current = list(pool)
    return pool


def term_size(t: Term) -> int:
    if isinstance(t, App):
        return term_size(t.f) + term_size(t.x)
    return 1


def enumerate_normal_forms(tca: TCA, typ: TypeExpr, max_size: int) -> list[Term]:
    """Closed normal forms of the given type, by size then repr (cached)."""
    cache_key = (typ, max_size)
    if cache_key in tca._nf_cache:
        return tca._nf_cache[cache_key]
    pool = type_pool(tca, 2)
    out: dict[Term, None] = {}

    # heads with the number of arguments they accept before reducing;
    # ground constants are inert, so they take any number of arguments
    heads: list[tuple[Term, TypeExpr, int]] = []
    if tca.unital:
        heads.append((STAR, UNIT, 1))
    for c in tca.constants:
        heads.append((c, c.type, 99))
    for a in pool:
        for b in pool:
            if tca.unital and UNIT in (a, b):
                continue
            k = KConst(a, b)
            heads.append((k, tca.type_of(k), 2))
    for a in pool:
        for b in pool:
            for c in pool:
                if tca.unital and UNIT in (a, b, c):
                    continue
                sc = SConst(a, b, c)
                heads.append((sc, tca.type_of(sc), 3))

    def terms_of(target: TypeExpr, size: int) -> list[Term]:
        key = (target, size)
        if key in memo:
            return memo[key]
        found: list[Term] = []
        for head, htype, max_args in heads:
            # at most max_args - 1 arguments: the full application reduces
            shapes: list[list[TypeExpr]] = [[]]
            cur = htype
            for _ in range(max(0, max_args - 1)):
                if not isinstance(cur, TArrow):
                    break
                shapes.append(shapes[-1] + [cur.a])
                cur = cur.b
            res = htype
            for arg_types in shapes:
                if res == target:
                    budget = size - 1
                    if len(arg_types) == 0:
                        if term_size(head) <= size:
                            found.append(head)
                    else:
                        for sizes in _compositions(budget, len(arg_types)):
                            pools = [terms_of(at, s)
                                     for at, s in zip(arg_types, sizes)]
                            for combo in itertools.product(*pools):
                                t = _apply_all(head, list(combo))
                                if term_size(t) <= size and _step(t) is None:
                                    found.append(t)
                if isinstance(res, TArrow):
                    res = res.b
        memo[key] = found
        return found

    memo: dict = {}
    for s in range(1, max_size + 1):
        for t in terms_of(typ, s):
            if term_size(t) == s and t not in out:
                out[t] = None
    result = sorted(out, key=lambda t: (term_size(t), repr(t)))
    tca._nf_cache[cache_key] = result
    return result


def _compositions(total: int, parts: int):
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@dataclass(frozen=True)
class FragMorphism:
    """A computable function between fragment carriers, with its witness."""

    dom: TypeExpr
    cod: TypeExpr
    graph: tuple[tuple[Term, Term], ...]
    witness: Term

    def apply(self, a: Term) -> Term:
        for k, v in self.graph:
            if k == a:
                return v
        raise FragmentError(f"{a!r} is outside the fragment carrier")


# normalization fuel for applying a witness inside the fragment
FRAGMENT_FUEL = 4000


@dataclass
class FragmentCategory:
    """The category of fragment carriers and representable functions."""

    tca: TCA
    carrier_size: int
    witness_size: int
    carriers: dict[TypeExpr, list[Term]] = field(default_factory=dict)

    def carrier(self, a: TypeExpr) -> list[Term]:
        if a not in self.carriers:
            self.carriers[a] = enumerate_normal_forms(self.tca, a,
                                                      self.carrier_size)
        return self.carriers[a]

    def hom(self, a: TypeExpr, b: TypeExpr) -> list[FragMorphism]:
        """Distinct representable functions, each carrying its least witness."""
        dom = self.carrier(a)
        codset = set(self.carrier(b))
        seen: dict[tuple, FragMorphism] = {}
        for e in enumerate_normal_forms(self.tca, self.tca.arrow(a, b),
                                        self.witness_size):
            graph = []
            ok = True
            for arg in dom:
                try:
                    v = normalize(App(e, arg), FRAGMENT_FUEL)
                except FragmentError:
                    ok = False
                    break
                if v not in codset:
                    ok = False
                    break
                graph.append((arg, v))
            if not ok:
                continue
            key = tuple(graph)
            if key not in seen:
                seen[key] = FragMorphism(a, b, key, e)
        return list(seen.values())

    def identity(self, a: TypeExpr) -> FragMorphism:
        e = self.tca.i(a)
        graph = tuple((t, normalize(App(e, t), FRAGMENT_FUEL))
                      for t in self.carrier(a))
        return FragMorphism(a, a, graph, normalize(e, FRAGMENT_FUEL))

    def compose(self, g: FragMorphism, f: FragMorphism) -> FragMorphism:
        """g . f witnessed by lambda x. g_e (f_e x)."""
        if f.cod != g.dom:
            raise StructuralError("fragment composition boundary mismatch")
        x = Var("x", f.dom)
        w = normalize(bracket_abstract(self.tca, App(g.witness,
                                                     App(f.witness, x)), x),
                      FRAGMENT_FUEL)
        graph = tuple((a, g.apply(v)) for a, v in f.graph)
        return FragMorphism(f.dom, g.cod, graph, w)

    def validate(self, m: FragMorphism) -> bool:
        return all(normalize(App(m.witness, a), FRAGMENT_FUEL) == v
                   for a, v in m.graph)


def realizer_category_of(tca: TCA, carrier_size: int = 3, witness_size: int = 5,
                         ) -> FragmentCategory:
    if not tca.unital:
        raise StructuralError("the realizer category needs a unit type")
    return FragmentCategory(tca, carrier_size, witness_size)


# -- discrete assemblies and the bridges ----------------------------------------

@dataclass
class DiscreteAssembly:
    """Finite carrier with exactly one realizer term per element."""

    tca: TCA
    carrier: tuple[str, ...]
    rtype: TypeExpr
    realizer: dict[str, Term]

    def validate(self) -> bool:
        return all(self.tca.type_of(self.realizer[x]) == self.rtype
                   and _step(self.realizer[x]) is None
                   for x in self.carrier)


@dataclass
class DiscreteMorphism:
    src: DiscreteAssembly
    tgt: DiscreteAssembly
    fun: dict[str, str]
    witness: Term

    def validate(self) -> bool:
        for x in self.src.carrier:
            got = normalize(App(self.witness, self.src.realizer[x]), FRAGMENT_FUEL)
            if got != self.tgt.realizer[self.fun[x]]:
                return False
        return True


@dataclass
class Prop21Result:
    """The unit-type replacement isomorphism and its two witnesses."""

    original: DiscreteAssembly
    replaced: DiscreteAssembly
    fwd: DiscreteMorphism
    bwd: DiscreteMorphism


def constant_realizer_iso(asm: DiscreteAssembly, a0: Term) -> Prop21Result:
    """Replace unit-typed realizers by a chosen constant a0 of any type.

    The identity is realized forward by a0 itself and backward by star.
    """
    tca = asm.tca
    if asm.rtype != UNIT:
        raise StructuralError("the replacement starts from a unit-typed assembly")
    rtype = tca.type_of(a0)
    replaced = DiscreteAssembly(tca, asm.carrier, rtype,
                                {x: a0 for x in asm.carrier})
    fwd = DiscreteMorphism(asm, replaced, {x: x for x in asm.carrier}, a0)
    bwd = DiscreteMorphism(replaced, asm, {x: x for x in asm.carrier}, STAR)
    return Prop21Result(asm, replaced, fwd, bwd)


@dataclass
class Prop22Result:
    """Round trip between term realizers and computable-function realizers."""

    morphism: DiscreteMorphism
    as_function: FragMorphism
    back: DiscreteMorphism


def function_realizer_bridge(cat: FragmentCategory,
                             m: DiscreteMorphism) -> Prop22Result:
    """e-realized morphisms become (e . -)-realized and back, identically."""
    tca = cat.tca
    graph = []
    for a in cat.carrier(m.src.rtype):
        graph.append((a, normalize(App(m.witness, a), FRAGMENT_FUEL)))
    fn = FragMorphism(m.src.rtype, m.tgt.rtype, tuple(graph), m.witness)
    back = DiscreteMorphism(m.src, m.tgt, dict(m.fun), fn.witness)
    return Prop22Result(m, fn, back)


def assembly_bridges(cat: FragmentCategory,
                     unit_assemblies: list[tuple[DiscreteAssembly, Term]],
                     morphisms: list[DiscreteMorphism]):
    """Run both realizer translations and report the round-trip laws.

    unit_assemblies pair each unit-typed assembly with the constant that
    replaces its realizers; morphisms are translated to computable
    functions and back.  The report is empty when every direction realizes
    and every round trip is the identity.
    """
    rep = Report()
    for i, (asm, a0) in enumerate(unit_assemblies):
        res = constant_realizer_iso(asm, a0)
        if not res.fwd.validate():
            rep.add("constant-forward", False, f"assembly {i}: forward witness fails")
        if not res.bwd.validate():
            rep.add("constant-backward", False, f"assembly {i}: backward witness fails")
        roundtrip = {x: res.bwd.fun[res.fwd.fun[x]] for x in asm.carrier}
        if roundtrip != {x: x for x in asm.carrier}:
            rep.add("constant-roundtrip", False, f"assembly {i}: not the identity")
    for i, m in enumerate(morphisms):
        res = function_realizer_bridge(cat, m)
        if res.back.fun != m.fun:
            rep.add("function-roundtrip", False, f"morphism {i}: underlying map changed")
        if not res.back.validate():
            rep.add("function-witness", False, f"morphism {i}: witness fails")
        for x in m.src.carrier:
            if res.as_function.apply(m.src.realizer[x]) \
                    != m.tgt.realizer[m.fun[x]]:
                rep.add("function-graph", False, f"morphism {i}: graph disagrees at {x}")
    return rep
