"""Groupoid checks written apart from gral, for judging its outputs.

Everything here works on plain tables (objects, morphisms with endpoints,
composition, identities, inverses) and on the line-oriented text format,
read with a parser of its own.  Nothing calls into gral, so a fault in
gral's own validators or parser cannot hide a fault in what it builds.
"""

from __future__ import annotations

import itertools
import random


class Tables:
    """A groupoid as five plain tables."""

    def __init__(self, objects, mors, comp, ident, inv):
        self.objects = list(objects)
        self.mors = dict(mors)
        self.comp = dict(comp)
        self.ident = dict(ident)
        self.inv = dict(inv)

    @classmethod
    def of(cls, g) -> "Tables":
        """Copy the tables of a gral FinGroupoid (attribute reads only)."""
        return cls(g.objects, g.mors, g.comp, g.ident, g.inv)

    def same_as(self, other: "Tables") -> bool:
        return (set(self.objects) == set(other.objects)
                and len(self.objects) == len(other.objects)
                and self.mors == other.mors and self.comp == other.comp
                and self.ident == other.ident and self.inv == other.inv)


def groupoid_text(t: Tables) -> str:
    """The GRAL 1 GROUPOID text of the tables, composites sorted."""
    lines = ["GRAL 1 GROUPOID", "OBJECTS", *t.objects, "MORPHISMS"]
    lines += [f"{m} {s} {d}" for m, (s, d) in t.mors.items()]
    lines += ["ID", *(f"{x} {t.ident[x]}" for x in t.objects)]
    lines += ["INV", *(f"{m} {t.inv[m]}" for m in t.mors)]
    lines += ["COMP", *(f"{g} {f} {h}" for (g, f), h in sorted(t.comp.items()))]
    return "\n".join(lines + ["END"]) + "\n"


def read_groupoid_text(text: str) -> Tables:
    """Parse the GRAL 1 GROUPOID text format; raise ValueError if malformed."""
    rows = [ln.split() for ln in text.splitlines()
            if ln.strip() and not ln.strip().startswith("#")]
    if not rows or rows[0] != ["GRAL", "1", "GROUPOID"] or rows[-1] != ["END"]:
        raise ValueError("not a GRAL 1 GROUPOID file")
    widths = {"OBJECTS": 1, "MORPHISMS": 3, "ID": 2, "INV": 2, "COMP": 3}
    sections: dict[str, list[list[str]]] = {}
    current = None
    for row in rows[1:-1]:
        if len(row) == 1 and row[0] in widths:
            current = row[0]
            sections.setdefault(current, [])
            continue
        if current is None or len(row) != widths[current]:
            raise ValueError(f"malformed row {row!r}")
        sections[current].append(row)
    if set(sections) != set(widths):
        raise ValueError("missing section")
    return Tables(
        [r[0] for r in sections["OBJECTS"]],
        {m: (s, t) for m, s, t in sections["MORPHISMS"]},
        {(g, f): h for g, f, h in sections["COMP"]},
        {x: i for x, i in sections["ID"]},
        {m: v for m, v in sections["INV"]},
    )


def read_bundle(text: str) -> dict[str, str]:
    """Split a GRAL 1 BUNDLE into its files; raise ValueError if malformed."""
    lines = text.splitlines()
    if not lines or lines[0] != "GRAL 1 BUNDLE":
        raise ValueError("not a GRAL 1 BUNDLE")
    files: dict[str, list[str]] = {}
    for line in lines[1:]:
        if line.startswith("--- FILE "):
            files[line[len("--- FILE "):].strip()] = []
        elif files:
            files[next(reversed(files))].append(line)
        elif line.strip():
            raise ValueError("content before the first file")
    return {name: "\n".join(body) + "\n" for name, body in files.items()}


def groupoid_problems(t: Tables, limit: int = 5,
                      rng: random.Random | None = None,
                      max_triples: int = 50_000) -> list[str]:
    """Every violated axiom instance (up to `limit`); empty means a groupoid.

    Covers table totality (composition defined exactly on composable
    pairs), typing, identity and inverse laws, and associativity over all
    composable triples, or over `max_triples` of them drawn with `rng`
    when there are more.
    """
    out: list[str] = []

    def bad(msg: str) -> bool:
        out.append(msg)
        return len(out) >= limit

    objs = set(t.objects)
    if len(objs) != len(t.objects):
        return ["duplicate object"]
    for m, (s, d) in t.mors.items():
        if s not in objs or d not in objs:
            return [f"morphism {m} has a dangling endpoint"]
    if set(t.ident) != objs or set(t.inv) != set(t.mors):
        return ["identity or inverse table is not total"]
    out_of: dict[str, list[str]] = {x: [] for x in objs}
    for m, (s, _d) in t.mors.items():
        out_of[s].append(m)
    composable = sum(len(out_of[d]) for (_s, d) in t.mors.values())
    if len(t.comp) != composable:
        if bad(f"comp has {len(t.comp)} entries, {composable} composable pairs"):
            return out
    for (g, f), h in t.comp.items():
        if g not in t.mors or f not in t.mors or h not in t.mors:
            if bad(f"comp ({g},{f}) dangles"):
                return out
            continue
        if t.mors[f][1] != t.mors[g][0]:
            if bad(f"comp ({g},{f}) is not composable"):
                return out
            continue
        if t.mors[h] != (t.mors[f][0], t.mors[g][1]):
            if bad(f"{g}o{f}={h} has wrong endpoints"):
                return out
    if out:
        return out
    for x in t.objects:
        if t.mors.get(t.ident[x]) != (x, x):
            if bad(f"identity of {x} is not an endomorphism of {x}"):
                return out
    for f, (s, d) in t.mors.items():
        v = t.inv[f]
        if t.mors.get(v) != (d, s):
            if bad(f"inverse of {f} has wrong endpoints"):
                return out
            continue
        if (t.comp.get((f, t.ident[s])) != f
                or t.comp.get((t.ident[d], f)) != f):
            if bad(f"identity law fails at {f}"):
                return out
        if (t.comp.get((v, f)) != t.ident[s]
                or t.comp.get((f, v)) != t.ident[d]):
            if bad(f"inverse law fails at {f}"):
                return out
    if out:
        return out
    triples = sum(len(out_of[d]) * len(out_of[t.mors[g][1]])
                  for (_s, d) in t.mors.values() for g in out_of[d])
    if triples <= max_triples:
        chosen = ((f, g, h) for f, (_s, d) in t.mors.items()
                  for g in out_of[d] for h in out_of[t.mors[g][1]])
    else:
        rng = rng or random.Random(0)
        mors = list(t.mors)

        def draw():
            f = rng.choice(mors)
            g = rng.choice(out_of[t.mors[f][1]])
            return f, g, rng.choice(out_of[t.mors[g][1]])
        chosen = (draw() for _ in range(max_triples))
    for f, g, h in chosen:
        if t.comp[(h, t.comp[(g, f)])] != t.comp[(t.comp[(h, g)], f)]:
            if bad(f"associativity fails at ({h},{g},{f})"):
                return out
    return out


def functor_problems(dom: Tables, cod: Tables, omap: dict, mmap: dict) -> list[str]:
    """Violations of the functor laws by the given object and morphism maps."""
    if set(omap) != set(dom.objects) or set(mmap) != set(dom.mors):
        return ["functor tables are not total"]
    for m, (s, d) in dom.mors.items():
        if cod.mors.get(mmap[m]) != (omap[s], omap[d]):
            return [f"image of {m} has wrong endpoints"]
    for x in dom.objects:
        if mmap[dom.ident[x]] != cod.ident[omap[x]]:
            return [f"identity at {x} is not preserved"]
    for (g, f), h in dom.comp.items():
        if cod.comp[(mmap[g], mmap[f])] != mmap[h]:
            return [f"composite {g}o{f} is not preserved"]
    return []


def naturality_problems(dom: Tables, cod: Tables, f_maps, g_maps,
                        components: dict) -> list[str]:
    """Violations of naturality for components: F => G."""
    (fo, fm), (go, gm) = f_maps, g_maps
    for x in dom.objects:
        if cod.mors.get(components.get(x)) != (fo[x], go[x]):
            return [f"component at {x} has wrong endpoints"]
    for m, (s, d) in dom.mors.items():
        if cod.comp[(components[d], fm[m])] != cod.comp[(gm[m], components[s])]:
            return [f"naturality fails at {m}"]
    return []


def count_functors(dom: Tables, cod: Tables) -> int:
    """Count functors dom -> cod by brute force over morphism assignments.

    Objects are assigned first; every morphism then ranges over the hom-set
    between the images of its endpoints, pruned by the identity law, and
    the composition law is tested on complete assignments.  Exponential in
    the size of dom; meant for the small exponents the benchmark builds.
    """
    hom: dict[tuple[str, str], list[str]] = {}
    for m, ends in cod.mors.items():
        hom.setdefault(ends, []).append(m)
    idents = set(dom.ident.values())
    order = [m for m in dom.mors if m not in idents]
    total = 0
    for images in itertools.product(cod.objects, repeat=len(dom.objects)):
        omap = dict(zip(dom.objects, images))
        base = {dom.ident[x]: cod.ident[omap[x]] for x in dom.objects}
        choices = [hom.get((omap[dom.mors[m][0]], omap[dom.mors[m][1]]), [])
                   for m in order]
        for pick in itertools.product(*choices):
            mmap = dict(base)
            mmap.update(zip(order, pick))
            if all(cod.comp[(mmap[g], mmap[f])] == mmap[h]
                   for (g, f), h in dom.comp.items()):
                total += 1
    return total


def count_nat_isos(dom: Tables, cod: Tables, f_maps, g_maps) -> int:
    """Count natural isomorphisms F => G by brute force over components."""
    fo, go = f_maps[0], g_maps[0]
    hom: dict[tuple[str, str], list[str]] = {}
    for m, ends in cod.mors.items():
        hom.setdefault(ends, []).append(m)
    choices = [hom.get((fo[x], go[x]), []) for x in dom.objects]
    return sum(1 for pick in itertools.product(*choices)
               if not naturality_problems(dom, cod, f_maps, g_maps,
                                          dict(zip(dom.objects, pick))))
