import contextlib
import hashlib
import io
import os
import pathlib
import re
import subprocess
import sys
import types

import pytest

from gral import suites
from gral.errors import BoundaryError, ParseError, SizeCapError, StructuralError
from gral.cli import BUILD_INPUTS, build_parser, main
from gral.generators import Gen, SuiteConfig, _sample, generate
from gral.assemblies import Assembly, identity_morphism, product_assembly, realize
from gral.groupoids import (
    FinGroupoid, Report, SizeCaps, codiscrete, cyclic_group, discrete,
    functors_between, identity_functor, validate_groupoid,
)
from gral.interval import gpd_interval
from gral.pathcat import FibrationData, is_fibration
from gral.suites import SUITE_NAMES, replay_counterexample, run_suite
from gral import textfmt

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def r():
    return gpd_interval()


def test_generator_soundness(r):
    gen = Gen(r, 0, SizeCaps())
    for _ in range(25):
        g = gen.groupoid()
        assert validate_groupoid(g).ok


def test_generator_determinism(r):
    def run(seed):
        gen = Gen(gpd_interval(), seed, SizeCaps())
        return [g.key() for g in (gen.groupoid() for _ in range(10))]
    assert run(7) == run(7)
    assert run(7) != run(8)


def test_terminal_generation(r):
    # one codiscrete component on one object is a terminal groupoid
    gen = Gen(r, 0, SizeCaps())
    for _ in range(60):
        g = gen.small_groupoid(1)
        if len(g.objects) == 1 and len(g.morphisms) == 1:
            return
    pytest.fail("no terminal groupoid generated")


def test_config_rejects_bad_caps():
    with pytest.raises(StructuralError):
        SuiteConfig(caps=SizeCaps(max_objects=0))


def test_unknown_suite():
    with pytest.raises(StructuralError):
        run_suite("nope")


def test_report_byte_stability():
    a = run_suite("cogroupoid", SuiteConfig(seed=3))
    b = run_suite("cogroupoid", SuiteConfig(seed=3))
    assert a.to_text() == b.to_text()
    assert a.to_json() == b.to_json()


def test_fault_injection_and_replay():
    cfg = SuiteConfig(seed=0, inject="broken-cleavage")
    rep = run_suite("path-axioms", cfg)
    assert not rep.ok
    bad = [e for e in rep.entries if e.name == "injected-cleavage"][0]
    assert not bad.ok
    assert bad.counterexample is not None
    # feeding the payload back reproduces the failure
    assert replay_counterexample(bad.counterexample) is False


@pytest.mark.parametrize("payload,error", [
    ("", StructuralError),
    ("GRAL 1 COUNTEREXAMPLE\n", StructuralError),
    ("GRAL 1 COUNTEREXAMPLE pi-iso-base\n", ParseError),
    ("GRAL 1 COUNTEREXAMPLE pi-iso-base\nGRAL 1 BUNDLE\n", ParseError),
    ("GRAL 1 COUNTEREXAMPLE groupoid-axioms\nGRAL 1 BUNDLE\n", StructuralError),
    ("GRAL 1 COUNTEREXAMPLE morphism-witness\nGRAL 1 BUNDLE\n", ParseError),
], ids=["empty", "no-check", "no-bundle", "pi-empty-bundle", "axioms-empty-bundle",
        "morphism-empty-bundle"])
def test_replay_refuses_malformed_payloads(payload, error):
    with pytest.raises(error):
        replay_counterexample(payload)


# a groupoid whose row `--- FILE x` in MORPHISMS reads as a bundle marker
MARKER_GPD = """GRAL 1 GROUPOID
OBJECTS
FILE
x
MORPHISMS
1F FILE FILE
1x x x
--- FILE x
+++ x FILE
ID
FILE 1F
x 1x
INV
1F 1F
1x 1x
--- +++
+++ ---
COMP
1F 1F 1F
1x 1x 1x
--- 1F ---
1x --- ---
+++ 1x +++
1F +++ +++
+++ --- 1F
--- +++ 1x
END
"""


def test_bundle_writer_refuses_a_marker_line():
    g = textfmt.parse_groupoid(MARKER_GPD)
    assert validate_groupoid(g).ok
    text = textfmt.serialize_groupoid(g)
    with pytest.raises(StructuralError):
        textfmt.serialize_bundle({"g.gpd": text})
    # a line that only looks like a marker is content
    files = {"g.gpd": text.replace("--- FILE x", "---FILE x")}
    assert textfmt.parse_bundle(textfmt.serialize_bundle(files)) == files


@pytest.mark.parametrize("name", ["", "a b", "#a", "a\nb"])
def test_bundle_writer_refuses_a_name_that_is_not_a_token(name):
    with pytest.raises(StructuralError):
        textfmt.serialize_bundle({name: "GRAL 1 GROUPOID\n"})


def test_groupoid_roundtrip(r):
    for g in (r.interval.I1, r.interval.I3):
        text = textfmt.serialize_groupoid(g)
        back = textfmt.parse_groupoid(text)
        assert back == g
        assert textfmt.serialize_groupoid(back) == text
    jd = textfmt.groupoid_to_json(r.interval.I2)
    assert textfmt.groupoid_from_json(jd) == r.interval.I2


def test_golden_walking_iso(r):
    golden = (DATA / "walking_iso.gpd").read_text()
    assert textfmt.serialize_groupoid(r.interval.I1) == golden
    assert textfmt.parse_groupoid(golden) == r.interval.I1


def test_golden_walking_iso_json(capsys):
    assert main(["fmt", "--json", str(DATA / "walking_iso.gpd")]) == 0
    assert capsys.readouterr() == ((DATA / "walking_iso.json").read_text(), "")


# Small valid files: the one-object groupoid on T, an assembly over it
# realized in the discrete groupoid on 0, and that assembly's identity.
GPD_SECTIONS = {"OBJECTS": "OBJECTS\nT\n", "MORPHISMS": "MORPHISMS\nid_T T T\n",
                "ID": "ID\nT id_T\n", "INV": "INV\nid_T id_T\n",
                "COMP": "COMP\nid_T id_T id_T\n"}
GPD = "GRAL 1 GROUPOID\n" + "".join(GPD_SECTIONS.values()) + "END\n"
ASM_LINES = ["GRAL 1 ASSEMBLY", "BASE t.gpd", "RTYPE 0.gpd", "RFUN-OBJ",
             "T pt:0", "RFUN-MOR", "id_T path:id_0", "END"]
MOR_LINES = ["GRAL 1 MORPHISM", "SRC t.asm", "TGT t.asm", "FUN-OBJ", "T T",
             "FUN-MOR", "id_T id_T", "E-OBJ", "0 0", "E-MOR", "id_0 id_0",
             "EPS", "T path:id_0", "END"]
FILES = {"t.gpd": GPD, "0.gpd": textfmt.serialize_groupoid(discrete(["0"])),
         "t.asm": "\n".join(ASM_LINES) + "\n"}


def _edit(lines, drop=(), put=None):
    """The file `lines` without the lines at `drop`, with `put` {index: line} set."""
    out = [line for i, line in enumerate(lines) if i not in drop]
    for i, line in (put or {}).items():
        out[i] = line
    return "\n".join(out) + "\n"


def _without_section(name):
    return GPD.replace(GPD_SECTIONS[name], "")


def _gpd_row(name, row):
    return GPD.replace(GPD_SECTIONS[name], f"{name}\n{row}\n")


def _parse(kind, text):
    r = gpd_interval()
    return {"groupoid": textfmt.parse_groupoid,
            "assembly": lambda t: textfmt.parse_assembly(t, FILES.__getitem__, r),
            "morphism": lambda t: textfmt.parse_morphism(t, FILES.__getitem__, r),
            "bundle": textfmt.parse_bundle,
            "detect": textfmt.detect_kind}[kind](text)


PARSE_ERRORS = [
    # header and end of file
    pytest.param("groupoid", "", "unexpected end of file", 1, 0, id="groupoid-empty"),
    pytest.param("groupoid", "# c\n\n  \n", "unexpected end of file", 4, 0,
                 id="groupoid-only-comments"),
    pytest.param("groupoid", "GRAL 1 ASSEMBLY\n",
                 "expected 'GRAL <version> GROUPOID' header", 1, 0,
                 id="groupoid-header-kind"),
    pytest.param("groupoid", "\n# c\nGRAL 1 GROUPOID x\n",
                 "expected 'GRAL <version> GROUPOID' header", 3, 0,
                 id="groupoid-header-arity"),
    pytest.param("groupoid", "not a header\n",
                 "expected 'GRAL <version> GROUPOID' header", 1, 0,
                 id="groupoid-header-missing"),
    pytest.param("groupoid", "GRAL 2 GROUPOID\n", "unsupported format version 2",
                 1, 0, id="groupoid-version"),
    pytest.param("groupoid", GPD.replace("END\n", ""), "unexpected end of file",
                 12, 0, id="groupoid-eof"),
    pytest.param("groupoid", "GRAL 1 GROUPOID\n\n  a  b \nEND\n",
                 "content outside any section: 'a  b'", 3, 0,
                 id="groupoid-outside"),
    # each missing section, reported on the line after END
    *(pytest.param("groupoid", _without_section(s) + "\n# trailing\n",
                   f"missing section {s}", GPD.count("\n") - 1, 0,
                   id=f"groupoid-missing-{s}")
      for s in ("OBJECTS", "MORPHISMS", "ID", "INV", "COMP")),
    # wrong-arity rows, the column one past the last token
    pytest.param("groupoid", _gpd_row("OBJECTS", "T U"),
                 "expected one object identifier", 3, 2, id="groupoid-arity-OBJECTS"),
    pytest.param("groupoid", _gpd_row("MORPHISMS", "id_T T"),
                 "expected 'id src tgt'", 5, 3, id="groupoid-arity-MORPHISMS"),
    pytest.param("groupoid", _gpd_row("ID", "T id_T x"),
                 "expected 'object identity'", 7, 4, id="groupoid-arity-ID"),
    pytest.param("groupoid", _gpd_row("INV", "id_T"),
                 "expected 'morphism inverse'", 9, 2, id="groupoid-arity-INV"),
    pytest.param("groupoid", _gpd_row("COMP", "id_T id_T"),
                 "expected 'g f composite'", 11, 3, id="groupoid-arity-COMP"),
    # a repeated key, reported at the repeating row
    *(pytest.param("groupoid", _gpd_row(s, f"{row}\n{row}"),
                   f"duplicate row for {noun} {key!r}", line, 1,
                   id=f"groupoid-duplicate-{s}")
      for s, row, noun, key, line in (
          ("MORPHISMS", "id_T T T", "morphism", "id_T", 6),
          ("ID", "T id_T", "object", "T", 8),
          ("INV", "id_T id_T", "morphism", "id_T", 10),
          ("COMP", "id_T id_T id_T", "pair", "id_T id_T", 12))),
    # assemblies
    pytest.param("assembly", _edit(ASM_LINES, put={0: "GRAL 1 MORPHISM"}),
                 "expected 'GRAL <version> ASSEMBLY' header", 1, 0,
                 id="assembly-header"),
    pytest.param("assembly", _edit(ASM_LINES, drop={7}), "unexpected end of file",
                 8, 0, id="assembly-eof"),
    pytest.param("assembly", _edit(ASM_LINES, put={3: "x y"}),
                 "content outside any section: 'x y'", 4, 0, id="assembly-outside"),
    *(pytest.param("assembly", _edit(ASM_LINES, drop=drop),
                   f"missing section {s}", 9 - len(drop), 0,
                   id=f"assembly-missing-{s}")
      for s, drop in (("BASE", {1}), ("RTYPE", {2}), ("RFUN-OBJ", {3, 4}),
                      ("RFUN-MOR", {5, 6}))),
    pytest.param("assembly", _edit(ASM_LINES, put={4: "T"}),
                 "expected 'object point'", 5, 2, id="assembly-arity-RFUN-OBJ"),
    pytest.param("assembly", _edit(ASM_LINES, put={6: "id_T path:id_0 x"}),
                 "expected 'morphism path'", 7, 4, id="assembly-arity-RFUN-MOR"),
    pytest.param("assembly", _edit(ASM_LINES, put={4: "T pt:1"}),
                 "unknown point 'pt:1'", 5, 2, id="assembly-unknown-point"),
    pytest.param("assembly", _edit(ASM_LINES, put={6: "id_T path:id_1"}),
                 "unknown path 'path:id_1'", 7, 2, id="assembly-unknown-path"),
    # every function table covers its domain and lands in its codomain
    pytest.param("assembly", _edit(ASM_LINES, drop={4}),
                 "RFUN-OBJ has no row for object 'T'", 4, 0,
                 id="assembly-partial-RFUN-OBJ"),
    pytest.param("assembly", _edit(ASM_LINES, put={4: "U pt:0"}),
                 "unknown object 'U'", 5, 1, id="assembly-unknown-object"),
    *(pytest.param("assembly", _edit(ASM_LINES, put={i: f"{row}\n{row}"}),
                   f"duplicate row for {noun} {x!r}", i + 2, 1,
                   id=f"assembly-duplicate-{s}")
      for s, i, row, noun, x in (("RFUN-OBJ", 4, "T pt:0", "object", "T"),
                                 ("RFUN-MOR", 6, "id_T path:id_0", "morphism",
                                  "id_T"))),
    # morphisms
    pytest.param("morphism", _edit(MOR_LINES, put={0: "GRAL 1 ASSEMBLY"}),
                 "expected 'GRAL <version> MORPHISM' header", 1, 0,
                 id="morphism-header"),
    pytest.param("morphism", _edit(MOR_LINES, drop={13}), "unexpected end of file",
                 14, 0, id="morphism-eof"),
    *(pytest.param("morphism", _edit(MOR_LINES, drop=drop),
                   f"missing section {s}", 15 - len(drop), 0,
                   id=f"morphism-missing-{s}")
      for s, drop in (("SRC", {1}), ("TGT", {2}), ("FUN-OBJ", {3, 4}),
                      ("FUN-MOR", {5, 6}), ("E-OBJ", {7, 8}), ("E-MOR", {9, 10}),
                      ("EPS", {11, 12}))),
    *(pytest.param("morphism", _edit(MOR_LINES, put={i: row}),
                   f"expected a two-column row in {s}", i + 1, col,
                   id=f"morphism-arity-{s}")
      for s, i, row, col in (("FUN-OBJ", 4, "T", 2), ("FUN-MOR", 6, "id_T id_T x", 4),
                             ("E-OBJ", 8, "0", 2), ("E-MOR", 10, "id_0", 2),
                             ("EPS", 12, "T path:id_0 x", 4))),
    *(pytest.param("morphism", _edit(MOR_LINES, drop={i}),
                   f"{s} has no row for {noun} {x!r}", i, 0,
                   id=f"morphism-partial-{s}")
      for s, i, noun, x in (("FUN-OBJ", 4, "object", "T"),
                            ("FUN-MOR", 6, "morphism", "id_T"),
                            ("E-OBJ", 8, "object", "0"),
                            ("E-MOR", 10, "morphism", "id_0"),
                            ("EPS", 12, "object", "T"))),
    *(pytest.param("morphism",
                   _edit(MOR_LINES, put={i: f"{MOR_LINES[i]}\n{MOR_LINES[i]}"}),
                   f"duplicate row for {noun} {x!r}", i + 2, 1,
                   id=f"morphism-duplicate-{s}")
      for s, i, noun, x in (("FUN-OBJ", 4, "object", "T"),
                            ("FUN-MOR", 6, "morphism", "id_T"),
                            ("E-OBJ", 8, "object", "0"),
                            ("E-MOR", 10, "morphism", "id_0"),
                            ("EPS", 12, "object", "T"))),
    pytest.param("morphism", _edit(MOR_LINES, put={4: "T nowhere"}),
                 "unknown object 'nowhere'", 5, 2, id="morphism-unknown-object"),
    pytest.param("morphism", _edit(MOR_LINES, put={10: "id_0 id_1"}),
                 "unknown morphism 'id_1'", 11, 2, id="morphism-unknown-morphism"),
    pytest.param("morphism", _edit(MOR_LINES, put={12: "T path:id_1"}),
                 "unknown path 'path:id_1'", 13, 2, id="morphism-unknown-path"),
    # bundles and kind detection
    pytest.param("bundle", "", "expected a bundle header", 1, 0, id="bundle-empty"),
    pytest.param("bundle", "GRAL 1 GROUPOID\n", "expected a bundle header", 1, 0,
                 id="bundle-header"),
    pytest.param("bundle", "GRAL 1 BUNDLE\n\njunk\n--- FILE a\n",
                 "content before the first file marker", 3, 0, id="bundle-outside"),
    pytest.param("bundle", "GRAL 1 BUNDLE\n--- FILE a\nx\n--- FILE b\n--- FILE a\ny\n",
                 "second file named 'a'", 5, 0, id="bundle-repeated-name"),
    pytest.param("detect", "", "not a gral file", 1, 0, id="detect-empty"),
    pytest.param("detect", "  \n", "not a gral file", 1, 0, id="detect-blank"),
    pytest.param("detect", "GRAL 1\n", "not a gral file", 1, 0, id="detect-short"),
    pytest.param("detect", "gral 1 GROUPOID\n", "not a gral file", 1, 0,
                 id="detect-lowercase"),
    pytest.param("detect", "# GRAL 1 GROUPOID\njunk\n", "not a gral file", 1, 0,
                 id="detect-comment-then-junk"),
]


@pytest.mark.parametrize("kind,text,message,line,column", PARSE_ERRORS)
def test_parse_error_positions(kind, text, message, line, column):
    with pytest.raises(ParseError) as exc:
        _parse(kind, text)
    assert str(exc.value) == f"line {line}, col {column}: {message}"
    assert (exc.value.line, exc.value.column) == (line, column)


def test_small_files_parse():
    # the files the error table edits are valid as they stand
    for kind, lines in (("assembly", ASM_LINES), ("morphism", MOR_LINES)):
        _parse(kind, "\n".join(lines) + "\n")
    assert textfmt.parse_groupoid(GPD) == discrete(["T"])
    # blank and `#` lines are skipped anywhere, one token or several
    noted = GPD.replace("\n", "\n\n  # a b c\n#x\n\t\n")
    assert textfmt.parse_groupoid(noted) == discrete(["T"])


@pytest.mark.parametrize("before,row,line,message", [
    ("ID", "z1 z* z*", 7, "duplicate row for morphism 'z1'"),
    ("COMP", "z1 id_z*", 12, "duplicate row for morphism 'z1'"),
    ("END", "z1 z1 z1", 17, "duplicate row for pair 'z1 z1'"),
], ids=["MORPHISMS", "INV", "COMP"])
def test_check_refuses_a_repeated_row(before, row, line, message, tmp_path, capsys):
    # the second row for a key used to replace the first without a word
    text = textfmt.serialize_groupoid(cyclic_group(2))
    path = tmp_path / "z2.gpd"
    path.write_text(text.replace(f"\n{before}\n", f"\n{row}\n{before}\n"))
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr() == (
        "", f"{path}: structural error: line {line}, col 1: {message}\n")


def _noncanonical(text: str) -> str:
    """A groupoid file read as `text` reads: after a comment, its rows
    separated by tabs, its sections in reverse order, CRLF line breaks."""
    lines = text.splitlines()
    heads = [lines.index(s) for s in textfmt._GROUPOID_SECTIONS]
    bounds = heads + [lines.index("END")]
    blocks = [lines[a:b] for a, b in zip(bounds, bounds[1:])]
    body = [row.replace(" ", "\t") for block in reversed(blocks) for row in block]
    return "".join(f"{line}\r\n" for line in ["# tabs, CRLF, sections reversed",
                                              lines[0], "", *body, "END"])


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_fmt_reads_a_noncanonical_file_as_its_canonical_form(flags, tmp_path, capsys):
    g = cyclic_group(4)
    canonical = textfmt.serialize_groupoid(g)
    outputs = []
    for name, text in (("canonical.gpd", canonical),
                       ("other.gpd", _noncanonical(canonical))):
        path = tmp_path / name
        path.write_bytes(text.encode())
        assert main(["fmt", str(path), *flags]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert outputs[0].err == ""
    if not flags:
        assert outputs[0].out == canonical


def test_check_refuses_a_groupoid_missing_a_comp_line(tmp_path, capsys):
    # as the benchmark's `check:broken` file: one COMP line removed
    lines = textfmt.serialize_groupoid(cyclic_group(3)).splitlines(keepends=True)
    drop = lines.index("COMP\n") + 5
    path = tmp_path / "broken.gpd"
    path.write_text("".join(lines[:drop] + lines[drop + 1:]))
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr() == (
        "", f"{path}: structural error: comp table missing entry ('z1','z1')\n")


@pytest.mark.parametrize("kind", list(BUILD_INPUTS))
@pytest.mark.parametrize("extra", [-1, 1], ids=["too-few", "too-many"])
def test_build_refuses_a_wrong_input_count(kind, extra, capsys):
    want = BUILD_INPUTS[kind]
    given = want + extra
    # the count is checked before any file is read
    assert main(["build", kind, *(["nowhere.gpd"] * given)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"build {kind}: takes {want} input{'s' * (want > 1)}, "
                   f"got {given}\n")


KEYWORDS = ["BASE", "RTYPE", "SRC", "TGT"]


def _z2_named_by_keywords():
    """Z/2 on the object TGT, with identity RTYPE and involution SRC."""
    comp = {("RTYPE", "RTYPE"): "RTYPE", ("RTYPE", "SRC"): "SRC",
            ("SRC", "RTYPE"): "SRC", ("SRC", "SRC"): "RTYPE"}
    return FinGroupoid(["TGT"], {"RTYPE": ("TGT", "TGT"), "SRC": ("TGT", "TGT")},
                       comp, {"TGT": "RTYPE"}, {"RTYPE": "RTYPE", "SRC": "SRC"})


@pytest.mark.parametrize("g", [discrete(KEYWORDS), _z2_named_by_keywords()],
                         ids=["discrete", "z2"])
def test_reference_keywords_are_ids_in_groupoid_files(g, tmp_path, capsys):
    text = textfmt.serialize_groupoid(g)
    back = textfmt.parse_groupoid(text)
    assert back == g
    assert textfmt.serialize_groupoid(back) == text
    path = tmp_path / "kw.gpd"
    path.write_text(text)
    assert main(["fmt", str(path)]) == 0
    assert capsys.readouterr() == (text, "")


def test_other_kinds_keywords_are_ids_in_bundles(r):
    def asm(base):
        i0 = r.interval.I0
        return Assembly(r, base, i0, functors_between(base, r.pi(i0).gpd)[0])

    # an assembly file knows BASE and RTYPE only, a morphism file SRC and TGT
    x = asm(discrete(["SRC", "TGT"]))
    back = textfmt.load_assembly_bundle(textfmt.bundle_assembly(x), r)
    assert back.base == x.base and back.rfun.omap == x.rfun.omap
    w = asm(discrete(["a", "b"]))
    m = next(m for m in (realize(w, x, F) for F in functors_between(w.base, x.base))
             if m is not None)
    back = textfmt.load_morphism_bundle(textfmt.bundle_morphism(m), r)
    assert back.tgt.base == x.base
    assert back.fun.omap == m.fun.omap


@pytest.mark.parametrize("ids", [["BASE", "x"], ["x", "RTYPE"], ["SRC", "TGT"]],
                         ids=["BASE", "RTYPE", "SRC-TGT"])
def test_own_reference_keywords_are_ids_in_rows(ids, r, tmp_path, capsys):
    # after the first section a kind's reference keyword starts a row
    i0 = r.interval.I0
    base = discrete(ids)
    x = Assembly(r, base, i0, functors_between(base, r.pi(i0).gpd)[0])
    back = textfmt.load_assembly_bundle(textfmt.bundle_assembly(x), r)
    assert (back.rfun.omap, back.rfun.mmap) == (x.rfun.omap, x.rfun.mmap)
    m = identity_morphism(x)
    back = textfmt.load_morphism_bundle(textfmt.bundle_morphism(m), r)
    assert (back.fun.omap, back.eps.components) == (m.fun.omap, m.eps.components)
    for name, text in (("x.bundle", textfmt.bundle_assembly(x)),
                       ("m.bundle", textfmt.bundle_morphism(m))):
        (tmp_path / name).write_text(text)
        assert main(["check", str(tmp_path / name)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("x", ["END", "COMP", "OBJECTS", "#a", "a b", "a\t", ""])
def test_writers_refuse_ids_that_do_not_read_back(x, r):
    g = discrete([x])
    with pytest.raises(StructuralError):
        textfmt.serialize_groupoid(g)
    a = Assembly(r, g, r.interval.I0, functors_between(g, r.pi(r.interval.I0).gpd)[0])
    if x in ("END", "COMP", "OBJECTS"):
        # a keyword is an id wherever it does not make a row by itself
        textfmt.serialize_assembly(a, "b", "t")
        textfmt.serialize_morphism(identity_morphism(a), "a", "a")
        return
    with pytest.raises(StructuralError):
        textfmt.serialize_assembly(a, "b", "t")
    with pytest.raises(StructuralError):
        textfmt.serialize_morphism(identity_morphism(a), "a", "a")


def test_cli_reads_a_file_that_opens_with_comments(tmp_path, capsys):
    text = textfmt.serialize_groupoid(codiscrete(["a", "b"]))
    plain, noted = tmp_path / "plain.gpd", tmp_path / "noted.gpd"
    plain.write_text(text)
    noted.write_text("# note\n\n#GRAL 1 ASSEMBLY\n" + text)
    for argv in (["check"], ["fmt"], ["fmt", "--json"]):
        assert main([*argv, str(plain)]) == 0
        want = capsys.readouterr()
        assert main([*argv, str(noted)]) == 0
        got = capsys.readouterr()
        assert (got.out.replace(str(noted), str(plain)), got.err) == want


@pytest.mark.parametrize("word,names", [(w, "") for w in KEYWORDS]
                         + [("TGT", " t.asm t.asm")],
                         ids=KEYWORDS + ["TGT-two-names"])
def test_cli_check_bare_reference_line_exits_2(word, names, tmp_path, capsys):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    lines = MOR_LINES if word in ("SRC", "TGT") else ASM_LINES
    i = next(i for i, line in enumerate(lines) if line.startswith(word + " "))
    path = tmp_path / "bare.txt"
    path.write_text(_edit(lines, put={i: word + names}))
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr() == (
        "", f"{path}: structural error: line {i + 1}, "
            f"col {len(names.split()) + 2}: expected '{word} <file>'\n")


@pytest.mark.parametrize("lines,edit,message", [
    (MOR_LINES, {"drop": {8}}, "line 8, col 0: E-OBJ has no row for object '0'"),
    (MOR_LINES, {"drop": {4}}, "line 4, col 0: FUN-OBJ has no row for object 'T'"),
    (MOR_LINES, {"drop": {6}},
     "line 6, col 0: FUN-MOR has no row for morphism 'id_T'"),
    (MOR_LINES, {"put": {4: "T nowhere"}}, "line 5, col 2: unknown object 'nowhere'"),
    (ASM_LINES, {"drop": {4}}, "line 4, col 0: RFUN-OBJ has no row for object 'T'"),
], ids=["E-OBJ", "FUN-OBJ", "FUN-MOR", "FUN-OBJ-nowhere", "RFUN-OBJ"])
def test_cli_check_partial_table_exits_2(lines, edit, message, tmp_path, capsys):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    path = tmp_path / "partial.txt"
    path.write_text(_edit(lines, **edit))
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr() == ("", f"{path}: structural error: {message}\n")


def _assembly_bundle(r, **edit):
    """An assembly bundle over two objects, its files edited by name."""
    gen = Gen(r, 9, SizeCaps())
    files = textfmt.parse_bundle(textfmt.bundle_assembly(
        gen.assembly(base=gen.small_groupoid(2), rtype=r.interval.I1)))
    for old, new in edit.items():
        text = files.pop(old)
        if new is not None:
            files[new[0]] = new[1](text)
    return textfmt.serialize_bundle(files)


@pytest.mark.parametrize("argv,edit,missing", [
    (["check"], {"main.asm": ("main.asm", lambda t: t.replace(
        "BASE main.base.gpd", "BASE nowhere.gpd"))}, "nowhere.gpd"),
    (["build", "pathobj"], {"main.asm": ("main.asm", lambda t: t.replace(
        "RTYPE main.rtype.gpd", "RTYPE nowhere.gpd"))}, "nowhere.gpd"),
    (["build", "pathobj"], {"main.asm": ("other.asm", str)}, "main.asm"),
    (["build", "pullback"], {}, "main.mor"),
], ids=["check-base", "pathobj-rtype", "pathobj-no-main", "pullback-no-main"])
def test_cli_bundle_missing_file_exits_2(argv, edit, missing, r, tmp_path, capsys):
    path = tmp_path / "in.bundle"
    path.write_text(_assembly_bundle(r, **edit))
    inputs = [str(path)] * (2 if argv[-1] == "pullback" else 1)
    assert main([*argv, *inputs]) == 2
    where = f"{path}" if argv == ["check"] else "build"
    assert capsys.readouterr() == (
        "", f"{where}: structural error: line 1, col 0: "
            f"bundle holds no file {missing!r}\n")


def test_dangling_reference_is_structural():
    text = ("GRAL 1 GROUPOID\nOBJECTS\na\nMORPHISMS\nf a b\nID\na f\nINV\n"
            "f f\nCOMP\nEND")
    with pytest.raises(StructuralError):
        textfmt.parse_groupoid(text)


def test_assembly_bundle_roundtrip(r):
    from gral.generators import Gen
    gen = Gen(r, 5, SizeCaps())
    a = gen.assembly()
    text = textfmt.bundle_assembly(a)
    back = textfmt.load_assembly_bundle(text, r)
    assert back.base == a.base
    assert back.rfun.omap == a.rfun.omap
    assert back.rfun.mmap == a.rfun.mmap


def test_morphism_bundle_roundtrip(r):
    gen = Gen(r, 6, SizeCaps())
    m = None
    while m is None:
        x = gen.assembly(base=gen.small_groupoid(2))
        y = gen.assembly(base=gen.small_groupoid(2))
        m = gen.morphism(x, y)
    text = textfmt.bundle_morphism(m)
    back = textfmt.load_morphism_bundle(text, r)
    from gral.assemblies import validate_morphism
    assert validate_morphism(back).ok
    assert back.fun.omap == m.fun.omap
    assert back.eps.components == m.eps.components


def test_cli_check_and_fmt(tmp_path, r, capsys):
    path = tmp_path / "i1.gpd"
    path.write_text(textfmt.serialize_groupoid(r.interval.I1))
    assert main(["check", str(path)]) == 0
    out = tmp_path / "i1.json"
    assert main(["fmt", str(path), "--json", "--out", str(out)]) == 0
    assert "gral-1-groupoid" in out.read_text()
    capsys.readouterr()


def test_cli_check_axiom_failure(tmp_path, capsys):
    bad = ("GRAL 1 GROUPOID\nOBJECTS\na\nMORPHISMS\nid_a a a\nt a a\nID\n"
           "a id_a\nINV\nid_a id_a\nt t\nCOMP\nid_a id_a id_a\nid_a t t\n"
           "t id_a t\nt t t\nEND")
    path = tmp_path / "bad.gpd"
    path.write_text(bad)
    assert main(["check", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == (f"{path}: 2 failure(s)\n"
                   "  inv-left: tot != id_a\n"
                   "  inv-right: tot != id_a\n")
    assert err == ""


def test_cli_check_mistyped_composite(tmp_path, capsys):
    good = textfmt.serialize_groupoid(codiscrete(["a", "b"]))
    bad = good.replace("b~a a~b id_a", "b~a a~b id_b")
    assert bad != good
    path = tmp_path / "mistyped.gpd"
    path.write_text(bad)
    assert main(["check", str(path)]) == 1
    out, err = capsys.readouterr()
    assert "comp-typing: b~aoa~b=id_b has wrong endpoints" in out
    assert "Traceback" not in out + err


def test_cli_check_parse_error(tmp_path, capsys):
    path = tmp_path / "junk.gpd"
    path.write_text("GRAL 1 GROUPOID\nOBJECTS\n")
    assert main(["check", str(path)]) == 2
    capsys.readouterr()


def test_cli_build_product_and_exp(tmp_path, r, capsys):
    p1 = tmp_path / "i1.gpd"
    p1.write_text(textfmt.serialize_groupoid(r.interval.I1))
    out = tmp_path / "prod.gpd"
    assert main(["build", "product", str(p1), str(p1), "--out", str(out)]) == 0
    g = textfmt.parse_groupoid(out.read_text())
    assert len(g.objects) == 4 and len(g.morphisms) == 16
    out2 = tmp_path / "exp.gpd"
    assert main(["build", "exp", str(p1), str(p1), "--out", str(out2)]) == 0
    ge = textfmt.parse_groupoid(out2.read_text())
    assert len(ge.objects) == 4
    capsys.readouterr()


def test_cli_build_pathobj(tmp_path, r, capsys):
    gen = Gen(r, 9, SizeCaps())
    a = gen.assembly(base=gen.small_groupoid(2), rtype=r.interval.I1)
    src = tmp_path / "a.bundle"
    src.write_text(textfmt.bundle_assembly(a))
    out = tmp_path / "pobj.bundle"
    assert main(["build", "pathobj", str(src), "--out", str(out)]) == 0
    back = textfmt.load_assembly_bundle(out.read_text(), r)
    from gral.assemblies import validate_assembly
    assert validate_assembly(back).ok
    capsys.readouterr()


def _pif_inputs(tmp_path, r, fibre=discrete(["s", "t"])):
    """Bundles of fibrations g with the given fibre and f, for `build pif`."""
    def asm(base):
        i0 = r.interval.I0
        return Assembly(r, base, i0, functors_between(base, r.pi(i0).gpd)[0])

    z, y = asm(codiscrete(["z1", "z2"])), asm(codiscrete(["u", "v"]))
    g = product_assembly(y, asm(fibre)).p1
    f = next(m for m in (realize(y, z, F)
                         for F in functors_between(y.base, z.base))
             if m is not None and isinstance(is_fibration(m), FibrationData))
    gp, fp = tmp_path / "g.bundle", tmp_path / "f.bundle"
    gp.write_text(textfmt.bundle_morphism(g))
    fp.write_text(textfmt.bundle_morphism(f))
    return gp, fp


def test_cli_build_pif(tmp_path, r, capsys):
    gp, fp = _pif_inputs(tmp_path, r)
    out = tmp_path / "pif.bundle"
    assert main(["build", "pif", str(gp), str(fp), "--out", str(out)]) == 0
    assert out.read_text() == (DATA / "pif.bundle").read_text()
    assert main(["check", str(out)]) == 0
    capsys.readouterr()
    # swapped, the inputs do not compose
    assert main(["build", "pif", str(fp), str(gp)]) == 2
    assert capsys.readouterr() == (
        "", "build: structural error: the fibrations are not composable\n")



@pytest.mark.parametrize("kind,digest", [
    ("pullback", "9040ea3c7651dffc"), ("pseudopullback", "2c095cda8a6760d8"),
])
def test_cli_build_pullback_and_pseudopullback(kind, digest, tmp_path, r, capsys):
    gp, fp = _pif_inputs(tmp_path, r)
    out = tmp_path / f"{kind}.bundle"
    assert main(["build", kind, str(fp), str(fp), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == digest
    assert main(["check", str(out)]) == 0
    capsys.readouterr()
    # g and f have different codomains
    assert main(["build", kind, str(gp), str(fp)]) == 2
    assert capsys.readouterr() == (
        "", f"build: structural error: {kind}: codomain mismatch\n")

def test_cli_build_pif_refuses_more_morphisms_than_the_cap(tmp_path, r, capsys):
    # the product has 64 morphisms, more than any groupoid built before it
    gp, fp = _pif_inputs(tmp_path, r, codiscrete(["s", "t"]))
    assert main(["--max-morphisms", "63", "build", "pif", str(gp), str(fp)]) == 2
    assert capsys.readouterr() == (
        "", "build: size cap: dependent product morphisms: 64 exceeds cap 63\n")
    assert main(["--max-morphisms", "64", "build", "pif", str(gp), str(fp),
                 "--out", str(tmp_path / "pif.bundle")]) == 0


def test_cli_suite_exit_codes(tmp_path, capsys, monkeypatch):
    assert main(["suite", "cogroupoid"]) == 0
    assert main(["suite", "no-such-suite"]) == 2
    assert main(["suite", "path-axioms", "--inject", "broken-cleavage"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("name,fixture,known", [
    ("cogroupoid", "nonsense", "none"),                 # no suite has it
    ("path-axioms", "nonsense", "broken-cleavage"),
    ("cogroupoid", "broken-cleavage", "none"),          # another suite's
])
def test_cli_suite_unknown_fixture_exits_2(name, fixture, known, capsys):
    assert main(["suite", name, "--inject", fixture]) == 2
    assert capsys.readouterr() == (
        "", f"suite {name}: refused: no fixture {fixture!r}; known: {known}\n")


@pytest.mark.parametrize("argv", [
    ["--max-objects", "0", "suite", "cogroupoid"],
    ["--max-objects", "4", "--max-morphisms", "8", "suite", "weak-pi"],
    ["--max-objects", "4", "--max-morphisms", "8", "suite", "pgasm-ccc"],
])
def test_cli_suite_refusal_exits_2(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["check", "bad.gpd"],
    ["check", "asm.txt"],               # its BASE file is not UTF-8
    ["fmt", "bad.gpd"],
    ["build", "product", "t.gpd", "bad.gpd"],
    ["build", "pathobj", "bad.gpd"],
], ids=["check", "check-reference", "fmt", "build-product", "build-pathobj"])
def test_cli_file_that_is_not_utf8_exits_2(argv, tmp_path, capsys):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "bad.gpd").write_bytes(GPD.encode().replace(b"T T", b"\xff T", 1))
    (tmp_path / "asm.txt").write_text("\n".join(ASM_LINES).replace("t.gpd", "bad.gpd"))
    assert main([str(tmp_path / a) if "." in a else a for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "bad.gpd: not UTF-8 text (invalid start byte)" in err


def test_cli_seed_that_is_not_an_integer_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("GRAL_SEED", "abc")
    assert main(["suite", "cogroupoid"]) == 2
    assert capsys.readouterr() == (
        "", "suite cogroupoid: refused: GRAL_SEED is not an integer: 'abc'\n")


def test_weak_exponential_cap_refuses_the_same_instance(capsys):
    # the product under the evaluation is built with the weak exponential,
    # so a draw whose product exceeds the caps is skipped as before; were it
    # built only when the evaluation is read, the suite would draw other
    # instances and exit 0.  The sampler refuses at the second refusal before
    # a check's first instance, which seed 2 under these caps reaches
    assert main(["--seed", "2", "--max-objects", "8", "--max-morphisms", "100",
                 "suite", "pgasm-ccc"]) == 2
    assert capsys.readouterr() == (
        "", "suite pgasm-ccc: refused: weak exponential objects: 9 exceeds cap 8\n")


def test_cli_suite_boundary_error_exits_2(capsys, monkeypatch):
    def mismatched(cfg):
        raise BoundaryError("paths do not match nose to tail")
    monkeypatch.setitem(suites.SUITES, "cogroupoid", mismatched)
    assert main(["suite", "cogroupoid"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_tight_caps_end_without_traceback(name):
    src = str(pathlib.Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "gral.cli", "--max-objects", "4",
         "--max-morphisms", "8", "suite", name],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode in (0, 1, 2)
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("seed", range(1, 5))
def test_tight_caps_pass_or_refuse(seed):
    # under tight caps a suite either passes or is refused; a check that
    # sampled too few instances would fail instead
    for name in SUITE_NAMES:
        try:
            rep = run_suite(name, SuiteConfig(seed=seed, caps=SizeCaps(4, 8)))
        except SizeCapError:
            continue
        assert rep.ok, (name, rep.failures)


def _attempts(results):
    """A make() that returns or raises the given results in turn, counting calls."""
    calls = []

    def make():
        calls.append(1)
        res = results[min(len(calls), len(results)) - 1]
        if isinstance(res, Exception):
            raise res
        return res
    return make, calls


def test_sample_skips_none_and_stops_at_n():
    make, calls = _attempts([None, "a", None, "b", "c", "d"])
    assert list(_sample(3, make)) == ["a", "b", "c"]
    assert len(calls) == 5
    make, calls = _attempts([None])
    assert list(_sample(3, make)) == []
    assert len(calls) == 60


def test_sample_reraises_a_refusal_before_the_first_instance():
    cap = SizeCapError("product morphisms", 16, 8)
    # a second refusal before the first instance re-raises the first
    make, calls = _attempts([None, cap, SizeCapError("product morphisms", 9, 8)])
    with pytest.raises(SizeCapError) as raised:
        list(_sample(3, make))
    assert raised.value is cap
    assert len(calls) == 3
    # so do attempts that run out with one refusal and no instance
    make, calls = _attempts([cap, None])
    with pytest.raises(SizeCapError) as raised:
        list(_sample(3, make))
    assert raised.value is cap
    assert len(calls) == 60
    # after the first instance a refusal skips the attempt, like None
    make, calls = _attempts(["a", cap])
    assert list(_sample(3, make)) == ["a"]
    assert len(calls) == 60


def test_sample_skips_one_refusal_before_the_first_instance():
    cap = SizeCapError("product morphisms", 16, 8)
    make, calls = _attempts([cap, "a", None, "b", "c"])
    assert list(_sample(3, make)) == ["a", "b", "c"]
    assert len(calls) == 5


def test_one_draw_over_the_caps_does_not_refuse_a_suite(capsys):
    # seed 2733's first weak-pi draw exceeds the default caps and the next
    # one does not; refusing at the first draw exited 2
    assert main(["--seed", "2733", "suite", "weak-pi"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("suite weak-pi seed 2733\n")
    assert out.endswith("result pass\n")
    assert err.startswith("# elapsed ") and err.count("\n") == 1


def test_sample_propagates_other_errors_at_once():
    make, calls = _attempts([BoundaryError("copair legs do not match")])
    with pytest.raises(BoundaryError):
        list(_sample(3, make))
    assert len(calls) == 1


def _entries(rep):
    return [(e.name, e.ok, e.detail, e.counterexample) for e in rep.entries]


def test_check_counts_each_check_up_to_its_first_failure():
    # one check: None skips, and sampling stops at the first failure
    rep = Report()
    make, calls = _attempts([None, True, None, True, False, True])
    suites._check(rep, {"one": "things"}, 5, make)
    assert _entries(rep) == [("one", False, "2 things", None)]
    assert len(calls) == 5
    # several checks: each counts its own prefix while a sibling reaches n,
    # and only a failing entry gets a counterexample
    built = []

    def cex(name):
        built.append(name)
        return f"cex {name}"
    rep = Report()
    make, calls = _attempts([(True, True, True), None, (True, False, True),
                             (False, True, True), (True, True, True)])
    suites._check(rep, {"a": "rows", "b": "rows", "c": "cells"}, 4, make, cex)
    assert _entries(rep) == [("a", False, "2 rows", "cex a"),
                             ("b", False, "1 rows", "cex b"),
                             ("c", True, "4 cells", None)]
    assert built == ["b", "a"] and len(calls) == 5
    # sampling stops once every check has failed
    rep = Report()
    make, calls = _attempts([(True, False), (False, True), (True, True)])
    suites._check(rep, {"a": "rows", "b": "rows"}, 5, make)
    assert _entries(rep) == [("a", False, "1 rows", None),
                             ("b", False, "0 rows", None)]
    assert len(calls) == 2


def test_generate_equivalence_is_bounded(monkeypatch):
    pairs = generate("equivalence", SuiteConfig(), count=2)
    assert len(pairs) == 2
    monkeypatch.setattr("gral.generators.as_equivalence", lambda pg, m: None)
    assert generate("equivalence", SuiteConfig(), count=2) == []


def test_checks_without_enough_instances_fail(monkeypatch):
    def entry(rep, name):
        e = next(e for e in rep.entries if e.name == name)
        return e.ok, e.detail
    real = Gen.morphism
    monkeypatch.setattr(Gen, "morphism", lambda self, x, y: None)
    rep = run_suite("pgasm-ccc", SuiteConfig(counts={
        "terminal": 1, "products": 2, "beta": 1, "modest": 1}))
    assert entry(rep, "product-universal") == (False, "0 cones")
    rep = run_suite("modest-closure", SuiteConfig(counts={"instances": 2}))
    assert entry(rep, "pullback-stability") == (False, "0 squares")
    # one real morphism, then none: one square of the two required
    calls = []

    def once(self, x, y):
        calls.append(1)
        return real(self, x, y) if len(calls) == 1 else None
    monkeypatch.setattr(Gen, "morphism", once)
    rep = run_suite("modest-closure", SuiteConfig(counts={"instances": 2}))
    assert entry(rep, "pullback-stability") == (False, "1 squares")
    assert not rep.ok


def _failing_call(monkeypatch, name, at, failed):
    """Patch `suites.<name>` to return `failed(*args)` at its at-th call."""
    real, calls = getattr(suites, name), []

    def patched(*args):
        calls.append(1)
        return failed(*args) if len(calls) == at else real(*args)
    monkeypatch.setattr(suites, name, patched)


def test_a_fixed_count_check_counts_up_to_its_first_failure(monkeypatch):
    def invalid(m):
        rep = Report()
        rep.add("stub", False)
        return rep
    # terminal-universal's draws make the suite's first validations
    _failing_call(monkeypatch, "validate_morphism", 4, invalid)
    rep = run_suite("pgasm-ccc", SuiteConfig(counts={
        "products": 1, "beta": 1, "modest": 1}))
    assert "  FAIL  terminal-universal  3 assemblies\n" in rep.to_text()


def test_checks_of_one_draw_count_their_own_failures(monkeypatch):
    # beta-law fails at the fifth instance; its siblings still reach 20
    _failing_call(monkeypatch, "fstar_map", 5, lambda dp, fw, t:
                  types.SimpleNamespace(fun=identity_functor(dp.ev.fun.dom)))
    text = run_suite("weak-pi", SuiteConfig()).to_text()
    assert "  FAIL  beta-law  4 transposes\n" in text
    assert "  pass  pif-fibration  20 instances\n" in text
    assert "  pass  ev-over-base  20 instances\n" in text


def test_cli_seed_env(tmp_path, capsys, monkeypatch):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    monkeypatch.setenv("GRAL_SEED", "11")
    assert main(["suite", "cogroupoid", "--json", "--out", str(out1)]) == 0
    monkeypatch.delenv("GRAL_SEED")
    assert main(["--seed", "11", "suite", "cogroupoid", "--json",
                 "--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["fmt", "t.gpd"], ["fmt", "t.gpd", "--json"],
    ["suite", "cogroupoid"], ["suite", "cogroupoid", "--json"],
])
def test_cli_unwritable_out_exits_2(argv, tmp_path, capsys):
    (tmp_path / "t.gpd").write_text(GPD)
    argv = [str(tmp_path / a) if a.endswith(".gpd") else a for a in argv]
    out = tmp_path / "no-such-dir" / "x"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert f"No such file or directory: '{out}'" in err
    assert not out.parent.exists()


def test_cli_builds_no_realizer_for_groupoid_inputs(tmp_path, r, capsys, monkeypatch):
    p = tmp_path / "i1.gpd"
    p.write_text(textfmt.serialize_groupoid(r.interval.I1))
    bundle = tmp_path / "a.bundle"
    bundle.write_text(textfmt.bundle_assembly(Gen(r, 9, SizeCaps()).assembly()))
    built = []
    monkeypatch.setattr("gral.cli.gpd_interval",
                        lambda caps: built.append(caps) or gpd_interval(caps))
    assert main(["check", str(p), str(p)]) == 0
    for kind in ("product", "exp"):
        assert main(["build", kind, str(p), str(p)]) == 0
    assert built == []
    # the first input that needs it builds it, once for all the inputs
    assert main(["check", str(p), str(bundle), str(bundle)]) == 0
    assert built == [SizeCaps()]
    capsys.readouterr()


def _outcome(call, argv):
    """The exit code, or the SystemExit code, of `call(argv)`, its stdout,
    and its stderr without the elapsed-time line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
    return code, out.getvalue(), re.sub(r"# elapsed .*\n", "", err.getvalue())


def test_repeated_main_calls_match_a_fresh_parser_per_call(tmp_path, r, monkeypatch):
    def fresh(argv):
        args = build_parser().parse_args(argv)
        return args.func(args)

    p = tmp_path / "i1.gpd"
    p.write_text(textfmt.serialize_groupoid(r.interval.I1))
    bundle = tmp_path / "a.bundle"
    bundle.write_text(textfmt.bundle_assembly(Gen(r, 9, SizeCaps()).assembly()))
    out = str(tmp_path / "out")
    calls = [
        ["fmt", str(p)], ["fmt", str(p), "--json"], ["check", str(p), str(bundle)],
        ["build", "product", str(p), str(p)], ["build", "exp", str(p), str(p)],
        ["build", "pathobj", str(bundle), "--out", out], ["check", out],
        ["build", "product", str(p)], ["--seed", "3", "suite", "cogroupoid"],
        "GRAL_SEED=5", ["suite", "cogroupoid", "--json"], "GRAL_SEED=6",
        ["suite", "cogroupoid"], ["suite", "no-such-suite"],
        ["fmt"], ["--help"], ["fmt", "--help"], ["suite", "--help"], [],
        ["build", "no-such-kind"], ["--seed", "x", "suite", "cogroupoid"],
        ["fmt", str(p)],
    ]
    seen = {}
    for call in (main, fresh):
        monkeypatch.delenv("GRAL_SEED", raising=False)
        seen[call] = []
        for argv in calls:
            if isinstance(argv, str):
                monkeypatch.setenv(*argv.split("="))
            else:
                seen[call].append(_outcome(call, argv))
    assert seen[main] == seen[fresh]
    codes = [code for code, _, _ in seen[main]]
    assert codes.count(("SystemExit", 2)) == 4 and codes.count(("SystemExit", 0)) == 3
    assert '"seed": 5,' in seen[main][9][1] and "seed 6" in seen[main][10][1]
