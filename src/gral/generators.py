"""Seeded instance generators for the verification suites.

Groupoids are finite disjoint unions of codiscrete blocks and one-object
cyclic groups (and products of such); assemblies sample realizability
functors into the fundamental groupoid of a generated realizer object;
fibrations are split (projections, up to relabelling).  Everything is a
deterministic function of the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, TypeVar

from .errors import SizeCapError, StructuralError
from .groupoids import (
    FinGroupoid, SizeCaps, codiscrete, cyclic_group, discrete,
    disjoint_union, functors_between, nat_isos_between,
    product as gpd_product,
)
from .assemblies import (
    Assembly, PGAsmInterval, RealizedMorphism, TwoCell, is_modest,
    pgasm_interval, product_assembly, realize, twocell_from_iso,
)
from .interval import GpdRealizer, gpd_interval
from .pathcat import FibrationData, as_equivalence, is_fibration

T = TypeVar("T")


@dataclass
class SuiteConfig:
    """Seed, caps and counts; the seed fully determines the instances."""

    seed: int = 0
    caps: SizeCaps = field(default_factory=SizeCaps)
    counts: dict = field(default_factory=dict)
    inject: Optional[str] = None

    def __post_init__(self):
        if self.caps.max_objects <= 0 or self.caps.max_morphisms <= 0:
            raise StructuralError("size caps must be positive")

    def count(self, name: str, default: int) -> int:
        return self.counts.get(name, default)


class Gen:
    """Stateful deterministic generator bound to one realizer instance."""

    def __init__(self, r: GpdRealizer, seed: int, caps: SizeCaps):
        self.r = r
        self.rng = random.Random(seed)
        self.caps = caps
        self._uid = 0

    def _tag(self) -> str:
        self._uid += 1
        return f"g{self._uid}"

    # -- groupoids ---------------------------------------------------------

    def block(self) -> FinGroupoid:
        kind = self.rng.randrange(3)
        if kind == 0:
            n = self.rng.randrange(1, 4)
            return codiscrete([f"{self._tag()}o{i}" for i in range(n)])
        if kind == 1:
            return cyclic_group(self.rng.randrange(1, 5), prefix=self._tag())
        n = self.rng.randrange(1, 3)
        return discrete([f"{self._tag()}d{i}" for i in range(n)])

    def groupoid(self, max_components: int = 2, allow_product: bool = True) -> FinGroupoid:
        parts = [self.block()
                 for _ in range(self.rng.randrange(1, max_components + 1))]
        g = parts[0] if len(parts) == 1 else disjoint_union(parts)
        if allow_product and self.rng.random() < 0.25:
            other = self.block()
            if (len(g.objects) * len(other.objects) <= self.caps.max_objects
                    and len(g.morphisms) * len(other.morphisms)
                    <= self.caps.max_morphisms):
                g = gpd_product(g, other, self.caps).gpd
        return g

    def small_groupoid(self, max_objects: int = 3) -> FinGroupoid:
        for _ in range(20):
            g = self.groupoid(max_components=1, allow_product=False)
            if len(g.objects) <= max_objects:
                return g
        return codiscrete([f"{self._tag()}o0"])

    # -- assemblies ----------------------------------------------------------

    def rtype(self, rich: bool = True) -> FinGroupoid:
        iv = self.r.interval
        pool = [iv.I0, iv.I1] if rich else [iv.I0]
        if rich and self.rng.random() < 0.3:
            return cyclic_group(2, prefix=self._tag())
        return self.rng.choice(pool)

    def assembly(self, base: Optional[FinGroupoid] = None,
                 rtype: Optional[FinGroupoid] = None,
                 rich: bool = True) -> Assembly:
        base = base if base is not None else self.small_groupoid()
        rt = rtype if rtype is not None else self.rtype(rich)
        pi = self.r.pi(rt)
        funs = functors_between(base, pi.gpd)
        return Assembly(self.r, base, rt, self.rng.choice(funs))

    def morphism(self, x: Assembly, y: Assembly) -> Optional[RealizedMorphism]:
        funs = functors_between(x.base, y.base)
        order = self.rng.sample(funs, k=len(funs))
        for fun in order[:30]:
            m = realize(x, y, fun)
            if m is not None:
                return m
        return None

    def twocell(self, pg: PGAsmInterval, x: Assembly, y: Assembly) -> Optional[TwoCell]:
        funs = functors_between(x.base, y.base)
        for _ in range(40):
            F = self.rng.choice(funs)
            G = self.rng.choice(funs)
            mf = realize(x, y, F)
            mg = realize(x, y, G)
            if mf is None or mg is None:
                continue
            isos = nat_isos_between(F, G)
            if not isos:
                continue
            return twocell_from_iso(pg, self.rng.choice(isos), mf, mg)
        return None

    def twocell_from(self, pg: PGAsmInterval, src: RealizedMorphism) -> Optional[TwoCell]:
        """A 2-cell whose source is the given realized morphism."""
        x, y = src.src, src.tgt
        funs = functors_between(x.base, y.base)
        for _ in range(40):
            G = self.rng.choice(funs)
            mg = realize(x, y, G)
            if mg is None:
                continue
            isos = nat_isos_between(src.fun, G)
            if not isos:
                continue
            return twocell_from_iso(pg, self.rng.choice(isos), src, mg)
        return None

    # -- fibrations ------------------------------------------------------------

    def split_fibration(self, base: Optional[Assembly] = None,
                        fibre_base: Optional[FinGroupoid] = None,
                        rich: bool = True) -> tuple[FibrationData, Assembly]:
        """A projection fibration X x F -> X with its total assembly."""
        y = base if base is not None else self.assembly(rich=rich)
        fb = self.assembly(
            base=fibre_base if fibre_base is not None else self.small_groupoid(2),
            rich=rich)
        return _projection(y, fb)

    def acyclic_fibration(self, base: Optional[Assembly] = None,
                          rich: bool = True) -> FibrationData:
        """A projection with a connected codiscrete fibre (an equivalence)."""
        y = base if base is not None else self.assembly(rich=rich)
        n = self.rng.randrange(1, 3)
        fb_base = codiscrete([f"{self._tag()}f{i}" for i in range(n)])
        fib, _total = self.split_fibration(base=y, fibre_base=fb_base, rich=rich)
        return fib

    def modest_assembly(self) -> Assembly:
        """An assembly whose realizability functor is fully faithful."""
        for _ in range(40):
            a = self.assembly(base=self.small_groupoid(2))
            if is_modest(a)[0]:
                return a
        # fall back to a point-like assembly, which is always modest
        iv = self.r.interval
        pi = self.r.pi(iv.I0)
        base = codiscrete([f"{self._tag()}m0"])
        fun = functors_between(base, pi.gpd)[0]
        return Assembly(self.r, base, iv.I0, fun)

    def modest_fibration(self, base: Optional[Assembly] = None
                         ) -> tuple[FibrationData, Assembly]:
        """A projection whose fibres are modest assemblies."""
        y = base if base is not None else self.assembly(rich=False)
        return _projection(y, self.modest_assembly())


def _projection(y: Assembly, fb: Assembly) -> tuple[FibrationData, Assembly]:
    """The projection Y x F -> Y as a fibration, with its total assembly."""
    p = product_assembly(y, fb)
    fib = is_fibration(p.p1)
    if not isinstance(fib, FibrationData):
        raise StructuralError("projection failed to be a fibration")
    return fib, p.asm


def _sample(n: int, make: Callable[[], Optional[T]]) -> Iterator[T]:
    """Yield up to n instances of make(), calling it at most 20 * n times.

    make() returns None to skip an attempt, and a SizeCapError skips it
    too, so that one draw over the caps does not refuse a check that the
    next draw can run.  A second SizeCapError before the first instance
    means the caps are too tight for the check, and the first propagates;
    so it does when the attempts run out with no instance.  Every other
    error propagates.
    """
    got = 0
    refused: Optional[SizeCapError] = None  # the first, before any instance
    for _ in range(20 * n):
        try:
            inst = make()
        except SizeCapError as exc:
            if got == 0:
                if refused is not None:
                    raise refused from None
                refused = exc
            continue
        if inst is not None:
            yield inst
            got += 1
            if got == n:
                return
    if got == 0 and refused is not None:
        raise refused


def generate(kind: str, cfg: SuiteConfig, count: Optional[int] = None) -> list:
    """Deterministic instances of the named kind under cfg.seed."""
    r = gpd_interval(cfg.caps)
    gen = Gen(r, cfg.seed, cfg.caps)
    n = count if count is not None else cfg.count(kind, 10)
    if kind == "groupoid":
        return [gen.groupoid() for _ in range(n)]
    if kind == "assembly":
        return [gen.assembly() for _ in range(n)]
    if kind == "fibration":
        return [gen.split_fibration()[0] for _ in range(n)]
    if kind == "equivalence":
        pg = pgasm_interval(r)

        def equivalence():
            fib = gen.acyclic_fibration(rich=False)
            eq = as_equivalence(pg, fib.morphism)
            return None if eq is None else (fib, eq)
        return list(_sample(n, equivalence))
    raise StructuralError(f"unknown instance kind {kind!r}")
