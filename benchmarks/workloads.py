"""The four workloads: their inputs, their operations and their checks.

A workload is built once per run from the benchmark seed (untimed).  A
pass runs every operation of the workload once, in a fixed order; the
benchmark times passes.  `verify` then judges the last pass's results with
the independent checker in `checker.py` and the properties named there.

The suites always run at the acceptance seed (0).  A suite's work depends
strongly on its seed (path-axioms at acceptance counts takes 1.5 s at seed
0 and 18.5 s at seed 1), so a seeded suite would time the seed rather
than the code.  The benchmark seed drives the inputs the benchmark makes
itself: labels, block order and choices of the groupoids, assemblies and
files below, whose sizes are fixed so that every seed costs the same.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

from checker import (Tables, count_functors, count_nat_isos,
                     functor_problems, groupoid_problems, groupoid_text,
                     naturality_problems, read_bundle, read_groupoid_text)

SUITE_SEED = 0

# Suite counts.  Where they differ from tests/test_acceptance.py, the pass
# at acceptance counts is too long to repeat within one run: pgasm-ccc at
# beta=20, modest=10 takes 13.7 s (one beta instance builds a large weak
# exponential), finite-limits at pseudopullbacks=20 takes 6 s and at 2
# takes 1.3 s.  path-axioms cannot shrink: pc6 requires 20 path objects.  squares is
# left out: a pass takes 6-10 s whatever its cell count, and counting its
# 155 million line events takes over 120 s, more than a traced run can
# spend.  The direct products of `Products` build tables of the same kind.
SUITES = {
    "products": (
        ("pgasm-ccc", {"beta": 8, "modest": 4}),
    ),
    "functors": (
        ("cogroupoid", {}),
        ("fundamental-groupoid", {"groupoids": 50, "boundary-pairs": 100}),
        ("finite-limits", {"pullbacks": 20, "pseudopullbacks": 2}),
    ),
    "dependent": (
        ("modest-closure", {"instances": 10}),
        ("weak-pi", {"instances": 20}),
        ("path-axioms", {"assemblies": 20, "fibrations": 30, "pc7": 20,
                         "pc8": 20, "brown": 10}),
        ("two-one-axioms", {"configs": 100}),
        ("comb-alg", {"bracket": 200, "assemblies": 10}),
    ),
}

# Tight caps under which these suites currently end in an uncaught
# SizeCapError; pgasm-ccc under the same caps never ends, so it is left out.
TIGHT_CAP_SUITES = ("weak-pi", "modest-closure", "path-axioms")
TIGHT_CAPS = ["--seed", str(SUITE_SEED), "--max-objects", "4",
              "--max-morphisms", "8"]


class Gral:
    """gral's modules, imported once the source tree is on sys.path."""

    def __init__(self):
        import gral.cli
        import gral.errors
        import gral.groupoids
        import gral.interval
        import gral.pathcat
        import gral.suites
        import gral.textfmt
        from gral import assemblies, generators
        self.cli = gral.cli
        self.errors = gral.errors
        self.groupoids = gral.groupoids
        self.interval = gral.interval
        self.pathcat = gral.pathcat
        self.suites = gral.suites
        self.textfmt = gral.textfmt
        self.assemblies = assemblies
        self.generators = generators


def shaped_groupoid(g: Gral, rng: random.Random, blocks, tag: str):
    """A disjoint union of fixed blocks with seeded order and labels.

    `blocks` lists ("cyclic", n), ("codiscrete", n) or ("discrete", n).
    The seed changes names and the order of components, never the sizes.
    """
    gp = g.groupoids
    order = list(blocks)
    rng.shuffle(order)
    parts = []
    for kind, n in order:
        p = f"{tag}{rng.randrange(36 ** 4):x}"
        if kind == "cyclic":
            parts.append(gp.cyclic_group(n, prefix=p))
        elif kind == "codiscrete":
            parts.append(gp.codiscrete([f"{p}o{i}" for i in range(n)]))
        else:
            parts.append(gp.discrete([f"{p}d{i}" for i in range(n)]))
    if len(parts) == 1:
        return parts[0]
    tags = [f"{tag}{rng.randrange(36 ** 3):x}u{i}" for i in range(len(parts))]
    return gp.disjoint_union(parts, tags)


def suite_op(g: Gral, name: str, counts: dict, inject=None):
    def run():
        cfg = g.generators.SuiteConfig(seed=SUITE_SEED, counts=dict(counts),
                                       inject=inject)
        return g.suites.run_suite(name, cfg)
    return run


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


class Workload:
    """Operations of one workload; subclasses fill `ops` and `verify`."""

    suites: tuple = ()

    def __init__(self, g: Gral, seed: int, workdir: Path):
        self.g = g
        self.seed = seed
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.ops: list[tuple[str, object]] = [
            (f"suite:{name}", suite_op(g, name, counts))
            for name, counts in self.suites]

    def signature(self, name: str, result) -> str:
        """What must be identical in every pass, traced or not."""
        if name.startswith("suite:"):
            return result.to_text()
        return repr(result)

    def verify(self, results: dict) -> list[str]:
        return [f"{name} failed: {[e.name for e in res.entries if not e.ok]}"
                for name, res in results.items()
                if name.startswith("suite:") and not res.ok]


class Products(Workload):
    """Few, large composition tables: pgasm-ccc and direct products."""

    suites = SUITES["products"]
    # (X, Y) block shapes: products of 900, 506 and 336 morphisms, and
    # exponentials whose functor count stays under the object cap of 64
    PRODUCT_SHAPES = (
        ((("cyclic", 16), ("codiscrete", 3)), (("cyclic", 20), ("codiscrete", 4))),
        ((("codiscrete", 4), ("cyclic", 6)),
         (("cyclic", 12), ("codiscrete", 3), ("discrete", 2))),
        ((("cyclic", 16),), (("cyclic", 20), ("discrete", 1))),
    )
    EXP_SHAPES = (
        ((("codiscrete", 2),), (("cyclic", 6), ("codiscrete", 3))),
        ((("cyclic", 2),), (("cyclic", 4), ("codiscrete", 2))),
    )

    def __init__(self, g, seed, workdir):
        super().__init__(g, seed, workdir)
        gp = g.groupoids
        self.pairs = {}
        for i, (a, b) in enumerate(self.PRODUCT_SHAPES):
            x = shaped_groupoid(g, self.rng, a, "x")
            y = shaped_groupoid(g, self.rng, b, "y")
            self.pairs[f"product:{i}"] = (x, y)
            self.ops.append((f"product:{i}", lambda x=x, y=y: gp.product(x, y)))
        for i, (a, b) in enumerate(self.EXP_SHAPES):
            x = shaped_groupoid(g, self.rng, a, "e")
            y = shaped_groupoid(g, self.rng, b, "b")
            self.pairs[f"exponential:{i}"] = (x, y)
            self.ops.append((f"exponential:{i}",
                             lambda x=x, y=y: gp.exponential(x, y)))

    def signature(self, name, result):
        if name.startswith(("product:", "exponential:")):
            gpd = result.gpd
            return f"{len(gpd.objects)} {len(gpd.morphisms)} {len(gpd.comp)}"
        return super().signature(name, result)

    def verify(self, results):
        problems = super().verify(results)
        check_rng = random.Random(self.seed)
        for name, (x, y) in self.pairs.items():
            res = results.get(name)
            if res is None:  # the operation failed and is counted as such
                continue
            tx, ty, tp = Tables.of(x), Tables.of(y), Tables.of(res.gpd)
            problems += [f"{name}: {p}" for p in
                         groupoid_problems(tp, rng=check_rng)]
            if name.startswith("product:"):
                if len(tp.objects) != len(tx.objects) * len(ty.objects):
                    problems.append(f"{name}: |ob(XxY)| != |ob X|.|ob Y|")
                if len(tp.comp) != len(tx.comp) * len(ty.comp):
                    problems.append(f"{name}: |comp(XxY)| != |comp X|.|comp Y|")
                for proj, side in ((res.p1, tx), (res.p2, ty)):
                    problems += [f"{name}: projection {p}" for p in
                                 functor_problems(tp, side, proj.omap, proj.mmap)]
            else:
                n = count_functors(tx, ty)
                if len(tp.objects) != n:
                    problems.append(f"{name}: {len(tp.objects)} objects, "
                                    f"{n} functors")
                for o, f in res.obj_to_functor.items():
                    problems += [f"{name}: object {o}: {p}" for p in
                                 functor_problems(tx, ty, f.omap, f.mmap)]
                keys = {tuple(sorted(f.mmap.items()))
                        for f in res.obj_to_functor.values()}
                if len(keys) != n:
                    problems.append(f"{name}: repeated functors")
                for m, nat in res.mor_to_natiso.items():
                    problems += [f"{name}: morphism {m}: {p}" for p in
                                 naturality_problems(
                                     tx, ty, (nat.src.omap, nat.src.mmap),
                                     (nat.tgt.omap, nat.tgt.mmap),
                                     nat.components)]
        return problems


class Functors(Workload):
    """Functor composition and equality: cogroupoid, limits, fundamental groupoids."""

    suites = SUITES["functors"]
    SHAPES = ((("codiscrete", 2), ("discrete", 1)),
              (("cyclic", 4), ("codiscrete", 2)),
              (("cyclic", 6), ("codiscrete", 3)))
    COMPOSITES = 4000

    def __init__(self, g, seed, workdir):
        super().__init__(g, seed, workdir)
        self.a, self.b, self.c = (shaped_groupoid(g, self.rng, s, t)
                                  for s, t in zip(self.SHAPES, "abc"))
        self.ops.append(("functor-algebra", self.functor_algebra))

    def functor_algebra(self):
        """Enumerate hom-sets, compose a seeded sample, compare and find isos."""
        gp = self.g.groupoids
        fs = gp.functors_between(self.a, self.b)
        gs = gp.functors_between(self.b, self.c)
        pick = random.Random(self.seed)
        pairs = [(pick.randrange(len(gs)), pick.randrange(len(fs)))
                 for _ in range(self.COMPOSITES)]
        comps = [gp.compose_functors(gs[i], fs[j]) for i, j in pairs]
        distinct = len(set(comps))
        isos = [len(gp.nat_isos_between(comps[k], comps[k + 1]))
                for k in range(0, 40, 2)]
        return fs, gs, pairs, comps, distinct, isos

    def signature(self, name, result):
        if name == "functor-algebra":
            fs, gs, pairs, comps, distinct, isos = result
            return f"{len(fs)} {len(gs)} {distinct} {isos}"
        return super().signature(name, result)

    def verify(self, results):
        problems = super().verify(results)
        # a known-bad input must fail: the built-in sigma mutation
        cog = results.get("suite:cogroupoid")
        if cog and not any(e.name == "mutated-sigma-fails-inverse-family"
                           and e.ok for e in cog.entries):
            problems.append("cogroupoid did not show the sigma mutation failing")
        if "functor-algebra" not in results:
            return problems
        fs, gs, pairs, comps, distinct, isos = results["functor-algebra"]
        ta, tb, tc = Tables.of(self.a), Tables.of(self.b), Tables.of(self.c)
        if len(fs) != count_functors(ta, tb):
            problems.append("functors_between(a, b) has the wrong size")
        for f in fs:
            problems += functor_problems(ta, tb, f.omap, f.mmap)
        for gf in gs:
            problems += functor_problems(tb, tc, gf.omap, gf.mmap)
        seen = set()
        for (i, j), h in zip(pairs, comps):
            want_o = {x: gs[i].omap[fs[j].omap[x]] for x in ta.objects}
            want_m = {m: gs[i].mmap[fs[j].mmap[m]] for m in ta.mors}
            if h.omap != want_o or h.mmap != want_m:
                problems.append(f"composite of g{i} after f{j} is wrong")
                break
            seen.add(tuple(sorted(want_m.items())))
        if len(seen) != distinct:
            problems.append("functor equality disagrees with table equality")
        for k, n in zip(range(0, 40, 2), isos):
            # naturality squares are checked by brute force over hom-sets
            f, h = comps[k], comps[k + 1]
            want = count_nat_isos(ta, tc, (f.omap, f.mmap), (h.omap, h.mmap))
            if n != want:
                problems.append(f"nat_isos_between found {n}, expected {want}")
        return problems


class Dependent(Workload):
    """Hundreds of small groupoids: modest-closure, weak-pi, path axioms."""

    suites = SUITES["dependent"]
    PATH_BASES = (((("cyclic", 2),), "I1"), ((("codiscrete", 2),), "I0"),
                  ((("discrete", 2),), "I1"))

    def __init__(self, g, seed, workdir):
        super().__init__(g, seed, workdir)
        r = g.interval.gpd_interval()
        gen = g.generators.Gen(r, seed, g.groupoids.SizeCaps())
        self.bundles = [
            g.textfmt.bundle_assembly(gen.assembly(
                base=shaped_groupoid(g, self.rng, shape, "p"),
                rtype=getattr(r.interval, rtype)))
            for shape, rtype in self.PATH_BASES]
        self.ops.append(("path-objects", self.path_objects))

    def path_objects(self):
        """Path objects of the seeded assemblies, read into a fresh realizer.

        A realizer caches every product it builds, keyed by groupoid serial,
        and path objects build new groupoids each time; one realizer reused
        across passes would grow by about 2 MB a pass.
        """
        g = self.g
        r = g.interval.gpd_interval()
        pg = g.assemblies.pgasm_interval(r)
        return [g.pathcat.path_object(g.textfmt.load_assembly_bundle(b, r), pg)
                for b in self.bundles]

    def signature(self, name, result):
        if name == "path-objects":
            return repr([(len(p.pobj.asm.base.objects),
                          len(p.pobj.asm.base.morphisms)) for p in result])
        return super().signature(name, result)

    def verify(self, results):
        problems = super().verify(results)
        for pod in results.get("path-objects", []):
            base = Tables.of(pod.pobj.asm.base)
            problems += [f"path object: {p}" for p in groupoid_problems(base)]
            st = pod.st.fun
            problems += [f"path object projection: {p}" for p in
                         functor_problems(base, Tables.of(st.cod),
                                          st.omap, st.mmap)]
        # a known-bad input must fail: the sabotaged cleavage transport
        counts = dict(SUITES["dependent"])["path-axioms"]
        rep = suite_op(self.g, "path-axioms", counts,
                       inject="broken-cleavage")()
        bad = [e.name for e in rep.entries if not e.ok]
        if bad != ["injected-cleavage"]:
            problems.append(f"path-axioms with broken-cleavage failed {bad}")
        return problems


class Files(Workload):
    """The text boundary: `gral` fmt, check and build over generated files."""

    # one-object groupoids have the most COMP lines per morphism, so parsing
    # and serializing outweigh the construction scans
    FMT_SHAPES = tuple(((("cyclic", n),)) for n in range(40, 120, 8)) + (
        (("cyclic", 12), ("codiscrete", 3)),
        (("cyclic", 16), ("cyclic", 9), ("discrete", 2)))
    CHECK_SHAPES = ((("cyclic", 10), ("codiscrete", 2)),
                    (("cyclic", 14),), (("codiscrete", 3), ("discrete", 2)))
    PRODUCT_SHAPES = ((("cyclic", 6), ("codiscrete", 2)), (("cyclic", 5),))
    EXP_SHAPES = ((("cyclic", 2),), (("cyclic", 4), ("codiscrete", 2)))
    # small path objects, so that construction stays a minor share
    PATH_BASES = ((("discrete", 2), "I1"), (("cyclic", 2), "I0"))

    def __init__(self, g, seed, workdir):
        super().__init__(g, seed, workdir)
        tf = g.textfmt
        self.sources: dict[str, object] = {}

        def write(name, gpd):
            # written by the checker's own writer, so the inputs do not
            # depend on the serializer under test
            self.sources[name] = gpd
            (workdir / name).write_text(groupoid_text(Tables.of(gpd)))
            return str(workdir / name)

        fmt_files = [write(f"fmt{i}.gpd", shaped_groupoid(g, self.rng, s, "f"))
                     for i, s in enumerate(self.FMT_SHAPES)]
        check_files = [write(f"chk{i}.gpd", shaped_groupoid(g, self.rng, s, "c"))
                       for i, s in enumerate(self.CHECK_SHAPES)]
        pa, pb = (write(f"pr{i}.gpd", shaped_groupoid(g, self.rng, s, "p"))
                  for i, s in enumerate(self.PRODUCT_SHAPES))
        ea, eb = (write(f"ex{i}.gpd", shaped_groupoid(g, self.rng, s, "e"))
                  for i, s in enumerate(self.EXP_SHAPES))
        # a valid file with one COMP line removed must be refused with exit 2
        lines = (workdir / "chk0.gpd").read_text().splitlines(keepends=True)
        start = lines.index("COMP\n") + 1
        drop = start + self.rng.randrange(len(lines) - start - 1)
        (workdir / "broken.gpd").write_text("".join(lines[:drop] + lines[drop + 1:]))
        # assembly bundles for `check` and `build pathobj`
        r = g.interval.gpd_interval()
        gen = g.generators.Gen(r, seed, g.groupoids.SizeCaps())
        bundles = []
        for i, (shape, rtype) in enumerate(self.PATH_BASES):
            asm = gen.assembly(base=shaped_groupoid(g, self.rng, (shape,), "a"),
                               rtype=getattr(r.interval, rtype))
            (workdir / f"asm{i}.bundle").write_text(tf.bundle_assembly(asm))
            bundles.append(str(workdir / f"asm{i}.bundle"))

        def out(name):
            return str(workdir / name)

        ops = []
        for f in fmt_files:
            stem = Path(f).stem
            ops.append((f"fmt:{stem}", ["fmt", f, "--out", out(f"{stem}.fmt.gpd")]))
            ops.append((f"fmt-json:{stem}",
                        ["fmt", f, "--json", "--out", out(f"{stem}.json")]))
        ops.append(("check:groupoids", ["check", *check_files]))
        ops.append(("check:broken", ["check", out("broken.gpd")]))
        ops.append(("build:product",
                    ["build", "product", pa, pb, "--out", out("prod.gpd")]))
        ops.append(("build:exp", ["build", "exp", ea, eb, "--out", out("exp.gpd")]))
        for i, b in enumerate(bundles):
            ops.append((f"build:pathobj{i}",
                        ["build", "pathobj", b, "--out", out(f"pobj{i}.bundle")]))
        ops.append(("check:bundles", ["check", *bundles]))
        ops.append(("check:pathobj-bundles",
                    ["check", *(out(f"pobj{i}.bundle") for i in range(len(bundles)))]))
        ops.extend((f"tight-cap-suite:{s}", [*TIGHT_CAPS, "suite", s])
                   for s in TIGHT_CAP_SUITES)
        self.cli_ops = ops
        self.outputs = {name: argv[argv.index("--out") + 1]
                        for name, argv in self.cli_ops if "--out" in argv}
        self.ops = [(name, self._cli(argv)) for name, argv in self.cli_ops]

    def _cli(self, argv):
        main = self.g.cli

        def run():
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = main.main(list(argv))
            return code, sink.getvalue()
        return run

    def signature(self, name, result):
        code, text = result
        out = self.outputs.get(name)
        body = Path(out).read_bytes() if code == 0 and out else text.encode()
        return f"{code} {digest(body)}"

    def verify(self, results):
        problems = []
        g = self.g
        tf = g.textfmt
        expect = {name: {0} for name, _argv in self.cli_ops}
        expect["check:broken"] = {2}
        # a suite under tight caps may pass, fail its checks or refuse
        expect.update({f"tight-cap-suite:{s}": {0, 1, 2}
                       for s in TIGHT_CAP_SUITES})
        done = set()  # operations that exited as expected
        for name, (code, text) in results.items():
            if code in expect[name]:
                done.add(name)
            else:
                problems.append(f"{name}: exit {code}, expected {expect[name]}: "
                                f"{text.strip()[:200]}")
        for fname, gpd in self.sources.items():
            stem = Path(fname).stem
            src = read_groupoid_text((self.workdir / fname).read_text())
            for kind, there, back in (
                    ("text", tf.serialize_groupoid, tf.parse_groupoid),
                    ("JSON", tf.groupoid_to_json, tf.groupoid_from_json)):
                try:
                    same = back(there(gpd)) == gpd
                except g.errors.GralError:
                    same = False
                if not same:
                    problems.append(f"{fname}: the {kind} round trip lost the groupoid")
            if not {f"fmt:{stem}", f"fmt-json:{stem}"} <= done:
                continue
            formatted = self.workdir / f"{stem}.fmt.gpd"
            if not read_groupoid_text(formatted.read_text()).same_as(src):
                problems.append(f"{fname}: fmt changed the tables")
            again = self._cli(["fmt", str(formatted)])()
            if again != (0, formatted.read_text()):
                problems.append(f"{fname}: fmt is not idempotent")
            data = json.loads((self.workdir / f"{stem}.json").read_text())
            tj = Tables(data["objects"],
                        {m: (s, t) for m, s, t in data["morphisms"]},
                        {(a, b): c for a, b, c in data["comp"]},
                        data["id"], data["inv"])
            if not tj.same_as(src):
                problems.append(f"{fname}: fmt --json changed the tables")

        def tables(name):
            return read_groupoid_text((self.workdir / name).read_text())

        if "build:product" in done:
            prod, x, y = tables("prod.gpd"), tables("pr0.gpd"), tables("pr1.gpd")
            problems += [f"build product: {p}" for p in groupoid_problems(prod)]
            if len(prod.objects) != len(x.objects) * len(y.objects):
                problems.append("build product: |ob(XxY)| != |ob X|.|ob Y|")
            if len(prod.comp) != len(x.comp) * len(y.comp):
                problems.append("build product: |comp(XxY)| != |comp X|.|comp Y|")
        if "build:exp" in done:
            exp = tables("exp.gpd")
            problems += [f"build exp: {p}" for p in groupoid_problems(exp)]
            n = count_functors(tables("ex0.gpd"), tables("ex1.gpd"))
            if len(exp.objects) != n:
                problems.append(f"build exp: {len(exp.objects)} objects, "
                                f"{n} functors")
        for i in range(len(self.PATH_BASES)):
            if f"build:pathobj{i}" not in done:
                continue
            files = read_bundle((self.workdir / f"pobj{i}.bundle").read_text())
            base = read_groupoid_text(files["main.base.gpd"])
            problems += [f"build pathobj: {p}" for p in groupoid_problems(base)]
        return problems


WORKLOADS = {"products": Products, "functors": Functors,
             "dependent": Dependent, "files": Files}
