"""Command-line harness: check, build, suite, fmt.

Exit codes: 0 all checks pass, 1 a check failed, 2 parse or structural
error, or a size-cap refusal.  The seed comes from --seed, falling back to
the GRAL_SEED environment variable, then 0.  Files are read as UTF-8.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import (
    BoundaryError, GralError, ParseError, SizeCapError, StructuralError,
)
from .groupoids import SizeCaps, exponential, product, validate_groupoid
from .interval import gpd_interval
from .assemblies import pgasm_interval, validate_assembly, validate_morphism
from .pathcat import FibrationData, is_fibration, path_object, \
    pseudopullback_assembly, pullback_assembly
from .depprod import dependent_product
from .generators import SuiteConfig
from . import textfmt
from .suites import SUITE_NAMES, run_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_STRUCTURAL = 2


def _seed_from(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("GRAL_SEED")
    try:
        return int(env) if env else 0
    except ValueError:
        raise StructuralError(f"GRAL_SEED is not an integer: {env!r}") from None


def _caps_from(args) -> SizeCaps:
    return SizeCaps(max_objects=args.max_objects,
                    max_morphisms=args.max_morphisms)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _read(path: Path) -> str:
    """The text of a file, decoded as UTF-8 whatever the locale."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path.name}: not UTF-8 text ({exc.reason})", line) from None


def _resolver_for(path: Path):
    def resolve(name: str) -> str:
        return _read(path.parent / name)
    return resolve


def cmd_check(args) -> int:
    r = gpd_interval(_caps_from(args))
    worst = EXIT_OK
    for fname in args.files:
        path = Path(fname)
        try:
            text = _read(path)
            kind = textfmt.detect_kind(text)
            resolve = _resolver_for(path)
            if kind == "BUNDLE":
                files = textfmt.parse_bundle(text)
                mains = [n for n in files if n.endswith(".mor")] \
                    or [n for n in files if n.endswith(".asm")]
                if not mains:
                    raise ParseError("bundle contains no .mor or .asm entry", 1)
                text = files[mains[0]]
                resolve = textfmt.bundle_resolver(files)
                # a bundle's main file is checked as an assembly unless it
                # is a morphism
                kind = "MORPHISM" if textfmt.detect_kind(text) == "MORPHISM" \
                    else "ASSEMBLY"
            if kind == "GROUPOID":
                rep = validate_groupoid(textfmt.parse_groupoid(text))
            elif kind == "ASSEMBLY":
                rep = validate_assembly(textfmt.parse_assembly(text, resolve, r))
            elif kind == "MORPHISM":
                rep = validate_morphism(textfmt.parse_morphism(text, resolve, r))
            else:
                raise ParseError(f"cannot check a {kind} file", 1)
        except (ParseError, StructuralError, OSError) as exc:
            print(f"{fname}: structural error: {exc}", file=sys.stderr)
            return EXIT_STRUCTURAL
        if rep.ok:
            print(f"{fname}: ok")
        else:
            print(f"{fname}: {len(rep.failures)} failure(s)")
            for kind_, detail in rep.failures:
                print(f"  {kind_}: {detail}")
            worst = EXIT_CHECK_FAILED
    return worst


# how many input files each build kind reads
BUILD_INPUTS = {"product": 2, "exp": 2, "pathobj": 1, "pullback": 2,
                "pseudopullback": 2, "pif": 2}


def cmd_build(args) -> int:
    want = BUILD_INPUTS[args.kind]  # argparse admits only these kinds
    if len(args.inputs) != want:
        print(f"build {args.kind}: takes {want} input{'s' * (want > 1)}, "
              f"got {len(args.inputs)}", file=sys.stderr)
        return EXIT_STRUCTURAL
    r = gpd_interval(_caps_from(args))
    # each input is read just before it is parsed, so errors come in input order
    texts = (_read(Path(f)) for f in args.inputs)
    try:
        if args.kind in ("product", "exp"):
            g1, g2 = map(textfmt.parse_groupoid, texts)
            built = (product(g1, g2, _caps_from(args)).gpd
                     if args.kind == "product"
                     else exponential(g1, g2, _caps_from(args)).gpd)
            _emit(textfmt.serialize_groupoid(built), args.out)
            return EXIT_OK
        if args.kind == "pathobj":
            asm = textfmt.load_assembly_bundle(next(texts), r)
            pod = path_object(asm, pgasm_interval(r))
            _emit(textfmt.bundle_assembly(pod.pobj.asm), args.out)
            return EXIT_OK
        if args.kind in ("pullback", "pseudopullback"):
            shared = textfmt.Loader()
            m1, m2 = (textfmt.load_morphism_bundle(t, r, shared) for t in texts)
            res = (pullback_assembly(m1, m2) if args.kind == "pullback"
                   else pseudopullback_assembly(m1, m2, pgasm_interval(r)))
            _emit(textfmt.bundle_assembly(res.asm), args.out)
            return EXIT_OK
        # pif
        shared = textfmt.Loader()
        mg, mf = (textfmt.load_morphism_bundle(t, r, shared) for t in texts)
        g = is_fibration(mg)
        f = is_fibration(mf)
        if not isinstance(g, FibrationData) or not isinstance(f, FibrationData):
            print("build pif: the inputs must be isofibrations",
                  file=sys.stderr)
            return EXIT_CHECK_FAILED
        dp = dependent_product(g, f)
        _emit(textfmt.bundle_assembly(dp.asm), args.out)
        return EXIT_OK
    except (ParseError, StructuralError, BoundaryError, OSError) as exc:
        print(f"build: structural error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL
    except SizeCapError as exc:
        print(f"build: size cap: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL
    except GralError as exc:
        print(f"build: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


def cmd_suite(args) -> int:
    if args.name not in SUITE_NAMES:
        print(f"unknown suite {args.name!r}; known: {', '.join(SUITE_NAMES)}",
              file=sys.stderr)
        return EXIT_STRUCTURAL
    try:
        rep = run_suite(args.name, SuiteConfig(
            seed=_seed_from(args), caps=_caps_from(args), inject=args.inject))
    except (StructuralError, BoundaryError, SizeCapError) as exc:
        print(f"suite {args.name}: refused: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL
    _emit(rep.to_json() + "\n" if args.json else rep.to_text(), args.out)
    print(f"# elapsed {rep.elapsed:.2f}s", file=sys.stderr)
    return EXIT_OK if rep.ok else EXIT_CHECK_FAILED


def cmd_fmt(args) -> int:
    try:
        text = _read(Path(args.file))
        kind = textfmt.detect_kind(text)
        if kind != "GROUPOID":
            print("fmt handles groupoid files", file=sys.stderr)
            return EXIT_STRUCTURAL
        g = textfmt.parse_groupoid(text)
    except (ParseError, StructuralError, OSError) as exc:
        print(f"fmt: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL
    out = textfmt.groupoid_to_json(g) + "\n" if args.json \
        else textfmt.serialize_groupoid(g)
    _emit(out, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gral",
                                description="groupoidal realizability kernel")
    p.add_argument("--seed", type=int, default=None,
                   help="generator seed (falls back to GRAL_SEED, then 0)")
    p.add_argument("--max-objects", type=int, default=64)
    p.add_argument("--max-morphisms", type=int, default=4096)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="validate serialized structures")
    c.add_argument("files", nargs="+")
    c.set_defaults(func=cmd_check)

    b = sub.add_parser("build", help="run a construction on serialized inputs")
    b.add_argument("kind", choices=list(BUILD_INPUTS))
    b.add_argument("inputs", nargs="*")
    b.add_argument("--out")
    b.set_defaults(func=cmd_build)

    s = sub.add_parser("suite", help="run a named verification suite")
    s.add_argument("name")
    s.add_argument("--json", action="store_true")
    s.add_argument("--out")
    s.add_argument("--inject", default=None,
                   help="fault-injection fixture name (testing the harness)")
    s.set_defaults(func=cmd_suite)

    f = sub.add_parser("fmt", help="reserialize a file canonically")
    f.add_argument("file")
    f.add_argument("--json", action="store_true")
    f.add_argument("--out")
    f.set_defaults(func=cmd_fmt)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
