"""Every file gral writes reads back as what was written, or is refused.

Ids are drawn from the format's keywords, `#`-prefixed tokens and printable
tokens, whitespace included.  Each writer either raises StructuralError or
writes text that parses back to an equal value.  A refusal must be needed:
what a writer without the refusal would write does not read back.  Either
way, `gral check` (and `gral fmt` on a groupoid) exits 0 or 2 on the text,
never with a traceback.
"""

import io
import string
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gral import textfmt
from gral.assemblies import Assembly, identity_morphism, realized
from gral.cli import main
from gral.errors import GralError, ParseError, StructuralError
from gral.generators import Gen
from gral.groupoids import (
    FinGroupoid, GFunctor, SizeCaps, codiscrete, cyclic_group, discrete, disjoint_union,
    functors_between,
)
from gral.interval import gpd_interval

R = gpd_interval()

KEYWORDS = ["GRAL", "END", *textfmt._GROUPOID_SECTIONS, *textfmt._ASSEMBLY_SECTIONS,
            *textfmt._MORPHISM_SECTIONS, "BASE", "RTYPE", "SRC", "TGT"]
TOKENS = st.one_of(
    st.sampled_from(KEYWORDS),
    st.text(string.printable, max_size=3).map(lambda t: "#" + t),
    st.text(string.printable + "é \x85", max_size=4),
    st.text(string.ascii_letters + string.digits + "#é", min_size=1, max_size=3),
)
GROUPOIDS = st.tuples(st.sampled_from([discrete, codiscrete]),
                      st.lists(TOKENS, min_size=1, max_size=3, unique=True))


def _build(shape_ids):
    shape, ids = shape_ids
    try:
        return shape(ids)
    except StructuralError:        # drawn ids whose morphism names collide
        assume(False)


def _assembly(base_draw, rtype_draw) -> Assembly:
    base, rtype = _build(base_draw), _build(rtype_draw)
    try:
        pi = R.pi(rtype)
    except StructuralError:        # point or path labels that collide
        assume(False)
    return Assembly(R, base, rtype, functors_between(base, pi.gpd)[0])


def _write(write, value):
    """The writer's text and whether it refused; refused, the text is what
    it would have written without refusing."""
    try:
        return write(value), False
    except StructuralError:
        with mock.patch.object(textfmt, "_check_ids", lambda *a, **k: None), \
                mock.patch.object(textfmt, "_check_file", lambda *a: None):
            return write(value), True


def _reads_back(read, same) -> bool:
    try:
        return same(read())
    except (ParseError, StructuralError):
        return False


def _cli(*argv: str) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue()


def _check_cli(text: str, refused: bool, fmt: bool = False) -> None:
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "x.gral"
        path.write_text(text, encoding="utf-8")
        for argv in (["check"], ["fmt"]) if fmt else (["check"],):
            code, out = _cli(*argv, str(path))
            assert code in ((0, 2) if refused else (0,))
            if argv == ["fmt"] and not refused:
                assert out == text


@settings(max_examples=80, deadline=None)
@given(GROUPOIDS)
def test_groupoid_text_round_trip(draw):
    g = _build(draw)
    text, refused = _write(textfmt.serialize_groupoid, g)
    assert _reads_back(lambda: textfmt.parse_groupoid(text),
                       lambda back: back == g) != refused
    _check_cli(text, refused, fmt=True)


def _same_assembly(back: Assembly, a: Assembly) -> bool:
    return (back.base == a.base and back.rtype == a.rtype
            and back.rfun.omap == a.rfun.omap and back.rfun.mmap == a.rfun.mmap)


@settings(max_examples=60, deadline=None)
@given(GROUPOIDS, GROUPOIDS)
def test_assembly_bundle_round_trip(base, rtype):
    a = _assembly(base, rtype)
    text, refused = _write(textfmt.bundle_assembly, a)
    assert _reads_back(lambda: textfmt.load_assembly_bundle(text, R),
                       lambda back: _same_assembly(back, a)) != refused
    _check_cli(text, refused)


@settings(max_examples=60, deadline=None)
@given(GROUPOIDS, GROUPOIDS)
def test_morphism_bundle_round_trip(base, rtype):
    m = identity_morphism(_assembly(base, rtype))

    def same(back):
        return (_same_assembly(back.src, m.src) and _same_assembly(back.tgt, m.tgt)
                and (back.fun.omap, back.fun.mmap) == (m.fun.omap, m.fun.mmap)
                and (back.e.omap, back.e.mmap) == (m.e.omap, m.e.mmap)
                and back.eps.components == m.eps.components)

    text, refused = _write(textfmt.bundle_morphism, m)
    assert _reads_back(lambda: textfmt.load_morphism_bundle(text, R), same) != refused
    _check_cli(text, refused)


# a bundle's reader refuses what its writer refuses: a file name that is not
# one token, and a header other than `GRAL 1 BUNDLE`

def _bundle_error(text: str) -> str:
    try:
        textfmt.parse_bundle(text)
    except ParseError as exc:
        return str(exc)
    return "read"


def test_bundle_reader_refuses_a_name_of_two_tokens():
    assert _bundle_error("GRAL 1 BUNDLE\n--- FILE a b\nx\n") == \
        "line 2, col 0: file name 'a b' is not a token"


def test_bundle_reader_refuses_an_empty_name():
    assert _bundle_error("GRAL 1 BUNDLE\n--- FILE a\nx\n--- FILE \ny\n") == \
        "line 4, col 0: file name '' is not a token"


def test_bundle_reader_refuses_a_name_starting_with_a_hash():
    assert _bundle_error("GRAL 1 BUNDLE\n--- FILE #c\nx\n") == \
        "line 2, col 0: file name '#c' is not a token"


def test_bundle_reader_refuses_a_longer_kind_in_the_header():
    assert _bundle_error("GRAL 1 BUNDLES\n--- FILE a\nx\n") == \
        "line 1, col 0: expected a bundle header"


def test_bundle_reader_refuses_an_extra_header_token():
    assert _bundle_error("GRAL 1 BUNDLE extra\n--- FILE a\nx\n") == \
        "line 1, col 0: expected a bundle header"


# the bundle writer refuses a file it would read back changed: the reader
# ends each file in exactly one newline

@pytest.mark.parametrize("text", ["x\n\n", "x", ""])
def test_bundle_writer_refuses_a_file_not_ending_in_one_newline(text):
    with pytest.raises(StructuralError):
        textfmt.serialize_bundle({"a": text})


def test_bundle_file_ending_in_one_newline_round_trips():
    files = {"a": "x\n"}
    assert textfmt.parse_bundle(textfmt.serialize_bundle(files)) == files


# the reader splits a bundle's lines with `str.splitlines`, so the writer
# refuses any other line break; written as it stands, the file would read
# back changed

@pytest.mark.parametrize("text", ["a\rb\n", "a\r\n", "a\x0cb\n", "a\u2028b\n",
                                  "a\x85\n"])
def test_bundle_writer_refuses_a_line_break_other_than_newline(text):
    with pytest.raises(StructuralError, match="line break other than"):
        textfmt.serialize_bundle({"f": text})
    assert textfmt.parse_bundle(f"GRAL 1 BUNDLE\n--- FILE f\n{text}") != {"f": text}


# -- the reader against the row scan ----------------------------------------
# The reader finds the keyword rows, splits each section once and walks rows
# only to name an error.  The row scan below, which splits every line on
# its own, defines the format: on any file the reader gives the scan's
# tables in the same order, or the scan's error.

SEEDS = st.integers(0, 2 ** 16)


def _gen(seed: int) -> Gen:
    return Gen(R, seed, SizeCaps())


def _insert(row):
    return lambda lines, i: lines[:i] + [row] + lines[i:]


def _edit(change):
    def edit(lines, i):
        i = min(i, len(lines) - 1)
        return lines[:i] + [change(lines[i])] + lines[i + 1:]
    return edit


def _reorder(lines, i):
    """The sections rotated by i, the header before and END after them."""
    heads = [k for k, line in enumerate(lines) if line in KEYWORDS[2:]]
    if not heads or "END" not in lines[heads[-1]:]:
        return lines
    bounds = heads + [lines.index("END", heads[-1])]
    blocks = [lines[a:b] for a, b in zip(bounds, bounds[1:])]
    k = i % len(blocks)
    body = [row for block in blocks[k:] + blocks[:k] for row in block]
    return lines[:bounds[0]] + body + lines[bounds[-1]:]


MUTATIONS = [
    # comment and blank lines
    _insert("# a comment"), _insert("  #x y z"), _insert(""), _insert(" \t "),
    _edit(lambda line: "#" + line), _edit(lambda line: line + " #c"),
    # other separators, in place of a space or beside it, and leading and
    # trailing spaces
    *(_edit(lambda line, sep=sep: line.replace(" ", sep, 1))
      for sep in ("\t", "\x1f", "\xa0", "  ")),
    *(_edit(lambda line, sep=sep: line.replace(" ", " " + sep, 1))
      for sep in ("\t", "\x1f", "\xa0")),
    *(_edit(lambda line, sep=sep: line + sep + "x") for sep in ("\t", "\x1f", "\xa0")),
    _edit(lambda line: " " + line), _edit(lambda line: line + " "),
    # other line breaks inside a file
    *(_edit(lambda line, br=br: line.replace(" ", br, 1))
      for br in ("\r\n", "\r", "\u2028", "\x0c")),
    # a token too many or too few
    _edit(lambda line: line + " x"), _edit(lambda line: line.rpartition(" ")[0]),
    # keyword rows: END, a second head, END before a head
    *(_insert(word) for word in ("END", " COMP", "COMP ", *KEYWORDS[2:])),
    _reorder,
]
# what a function table refuses: an unknown id, a repeated or missing row
TABLE_MUTATIONS = [
    _edit(lambda line: line.rpartition(" ")[0] + " nowhere"),
    _edit(lambda line: "nowhere " + line.partition(" ")[2]),
    lambda lines, i: lines[:i] + lines[i:i + 1] + lines[i:],
    lambda lines, i: lines[:i] + lines[i + 1:],
]
MUTATIONS += TABLE_MUTATIONS


@st.composite
def _mutated(draw, text: str, mutations=MUTATIONS) -> str:
    """`text` with up to two `mutations`, its lines ending in one break.
    A mutation falls anywhere, or within a few lines after a keyword."""
    lines = text.splitlines()
    for mutate in draw(st.lists(st.sampled_from(mutations), max_size=2)):
        anchors = [k for k, line in enumerate(lines) if line in KEYWORDS]
        near = st.sampled_from(anchors).flatmap(lambda k: st.integers(k, k + 3))
        i = draw(st.one_of(st.integers(0, len(lines)), near))
        lines = mutate(lines, min(i, len(lines)))
    br = draw(st.sampled_from(["\n", "\r\n", "\r", "\u2028"]))
    return "".join(line + br for line in lines)


def _scan(text: str, kind: str):
    """Scan a `kind` file once: its header, then rows by section up to END.

    Blank and `#` lines are skipped and each line is split once.  Returns
    the `(tokens, line number)` rows of every section of the kind, the file
    named by each of its reference lines, and the line of each section's
    first header.
    """
    refs, known = textfmt._LAYOUTS[kind]
    sections, names, heads = {}, {}, {}
    rows = None
    lines = text.splitlines()
    numbered = enumerate(lines, 1)
    head = textfmt._header(numbered)
    if head is not None:
        ln, toks = head
        if len(toks) != 3 or toks[0] != "GRAL" or toks[2] != kind:
            raise ParseError(f"expected 'GRAL <version> {kind}' header", ln)
        if toks[1] != textfmt.VERSION:
            raise ParseError(f"unsupported format version {toks[1]}", ln)
    for ln, line in numbered:
        toks = line.split()
        if not toks or toks[0][0] == "#":
            continue
        if rows is None and toks[0] in refs:
            if len(toks) != 2:
                raise ParseError(f"expected '{toks[0]} <file>'", ln, len(toks) + 1)
            names.setdefault(toks[0], toks[1])
            continue
        if len(toks) == 1:
            word = toks[0]
            if word == "END":
                for s in refs + known:
                    if s not in names and s not in sections:
                        raise ParseError(f"missing section {s}", ln + 1)
                return sections, names, heads
            if word in known:
                rows = sections.setdefault(word, [])
                heads.setdefault(word, ln)
                continue
        if rows is None:
            raise ParseError(f"content outside any section: {line.strip()!r}", ln)
        rows.append((toks, ln))
    raise ParseError("unexpected end of file", len(lines) + 1)


def _scan_columns(rows, width, message, column=0):
    for toks, ln in rows:
        if len(toks) != width:
            raise ParseError(message, ln, column or len(toks) + 1)
    return [toks for toks, _ in rows]


def _scan_no_repeats(rows, table, noun, width=1):
    if len(table) == len(rows):
        return
    seen = set()
    for toks, ln in rows:
        key = " ".join(toks[:width])
        if key in seen:
            raise ParseError(f"duplicate row for {noun} {key!r}", ln, 1)
        seen.add(key)


def _scan_table(secs, heads, name, dom, cod):
    message, *nouns = textfmt._TABLES[name]
    known = (set(dom), set(cod))
    table = {}
    for toks, ln in secs[name]:
        if len(toks) != 2:
            raise ParseError(message, ln, len(toks) + 1)
        for col in (0, 1):
            if toks[col] not in known[col]:
                raise ParseError(f"unknown {nouns[col]} {toks[col]!r}", ln, col + 1)
        table[toks[0]] = toks[1]
    _scan_no_repeats(secs[name], table, nouns[0])
    for x in dom:
        if x not in table:
            raise ParseError(f"{name} has no row for {nouns[0]} {x!r}", heads[name])
    return table


def _scan_groupoid(text):
    secs, _, _ = _scan(text, "GROUPOID")
    objects = [row[0] for row in _scan_columns(secs["OBJECTS"], 1,
                                               "expected one object identifier", 2)]
    mors = {m: (s, t) for m, s, t in _scan_columns(secs["MORPHISMS"], 3,
                                                    "expected 'id src tgt'")}
    _scan_no_repeats(secs["MORPHISMS"], mors, "morphism")
    ident = dict(_scan_columns(secs["ID"], 2, "expected 'object identity'"))
    _scan_no_repeats(secs["ID"], ident, "object")
    inv = dict(_scan_columns(secs["INV"], 2, "expected 'morphism inverse'"))
    _scan_no_repeats(secs["INV"], inv, "morphism")
    comp = {(g, f): c for g, f, c in _scan_columns(secs["COMP"], 3,
                                                    "expected 'g f composite'")}
    _scan_no_repeats(secs["COMP"], comp, "pair", 2)
    return FinGroupoid(objects, mors, comp, ident, inv)


def _scan_assembly(text, resolve, gpds):
    secs, names, heads = _scan(text, "ASSEMBLY")
    base, rtype = (gpds.setdefault(g.key(), g) for g in
                   (_scan_groupoid(resolve(names[k])) for k in ("BASE", "RTYPE")))
    pi = R.pi(rtype).gpd
    omap = _scan_table(secs, heads, "RFUN-OBJ", base.objects, pi.objects)
    mmap = _scan_table(secs, heads, "RFUN-MOR", base.morphisms, pi.morphisms)
    return Assembly(R, base, rtype, GFunctor(base, pi, omap, mmap))


def _scan_morphism(text, resolve):
    secs, names, heads = _scan(text, "MORPHISM")
    gpds = {}
    src = _scan_assembly(resolve(names["SRC"]), resolve, gpds)
    tgt = _scan_assembly(resolve(names["TGT"]), resolve, gpds)
    sb, tb, sr, tr = src.base, tgt.base, src.rtype, tgt.rtype
    fun = GFunctor(sb, tb, _scan_table(secs, heads, "FUN-OBJ", sb.objects, tb.objects),
                   _scan_table(secs, heads, "FUN-MOR", sb.morphisms, tb.morphisms))
    e = GFunctor(sr, tr, _scan_table(secs, heads, "E-OBJ", sr.objects, tr.objects),
                 _scan_table(secs, heads, "E-MOR", sr.morphisms, tr.morphisms))
    eps = _scan_table(secs, heads, "EPS", sb.objects, tgt.pi.gpd.morphisms)
    return realized(src, tgt, fun, e, eps)


def _outcome(read, tables):
    """`tables` of what `read()` returns, or the error it raises."""
    try:
        value = read()
    except GralError as exc:
        return (type(exc), str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None))
    return tables(value)


def _gpd_tables(g):
    return (g.objects, list(g.mors.items()), list(g.ident.items()),
            list(g.inv.items()), list(g.comp.items()))


@settings(max_examples=500, deadline=None)
@given(SEEDS, st.data())
def test_reader_agrees_with_the_row_scan(seed, data):
    text = data.draw(_mutated(textfmt.serialize_groupoid(_gen(seed).groupoid())))
    assert (_outcome(lambda: textfmt.parse_groupoid(text), _gpd_tables)
            == _outcome(lambda: _scan_groupoid(text), _gpd_tables))


def _rows_of(width: int):
    """Blocks of rows: each either `width` plain tokens between single
    spaces, or tokens (`#`-prefixed, holding `#`, keywords, empty) between
    any separators with any padding.  About half the blocks hold plain
    rows only, so that they split at once."""
    plain = st.lists(st.sampled_from(["a", "b", "é", "xy"]), min_size=width,
                     max_size=width).map(" ".join)
    messy = st.tuples(
        st.sampled_from(["", " ", "\t"]),
        st.lists(st.sampled_from(["a", "b", "#c", "d#", "END", "ID", ""]),
                 min_size=1, max_size=4),
        st.sampled_from([" ", " ", " ", "  ", "\t", "\x1f", "\xa0", "\x85"]),
        st.sampled_from(["", " ", "\xa0"])).map(lambda r: r[0] + r[2].join(r[1]) + r[3])
    return st.one_of(st.lists(plain, max_size=4),
                     st.lists(st.one_of(plain, messy), max_size=4))


@st.composite
def _section(draw):
    """A file of one section, its head repeated once or twice, and its name."""
    name = draw(st.sampled_from(["OBJECTS", "ID", "COMP"]))
    lines, ranges = [], []
    for block in draw(st.lists(_rows_of(textfmt._WIDTHS[name]), min_size=1, max_size=2)):
        lines.append(name)
        ranges.append((len(lines), len(lines) + len(block)))
        lines += block
    return textfmt._File(lines, {}, {name: ranges}), name


def _chosen(name, *rows):
    """A file of one section holding `rows`, and its name."""
    return textfmt._File([name, *rows], {}, {name: [(1, 1 + len(rows))]}), name


@settings(max_examples=500, deadline=None)
@given(_section())
# token counts that add up to the width times the number of rows
@example(_chosen("COMP", "a b", "c d e f"))
@example(_chosen("COMP", "a b c d", "e f"))
@example(_chosen("COMP", "a", "b c d e f", "g h i"))
@example(_chosen("ID", "a", "b c d"))
@example(_chosen("ID", "a b c", "d"))
@example(_chosen("COMP", "a b", "c d é ü"))
# rows of the width whose tokens hold whitespace other than the space, a
# control character or `#`
@example(_chosen("ID", "a b\xa0"))
@example(_chosen("ID", "a\u3000b c"))
@example(_chosen("ID", "é b\x1f"))
@example(_chosen("ID", "a b\x1f"))
@example(_chosen("ID", "a\tb c"))
@example(_chosen("COMP", "a b\x0bc d"))
@example(_chosen("COMP", "a b c", "d e\x85 f"))
@example(_chosen("ID", "a\x01 b"))
@example(_chosen("ID", "a\u200b b"))
@example(_chosen("ID", "a b", "#c d"))
@example(_chosen("ID", "a b", "c #d"))
@example(_chosen("OBJECTS", "a", "\x7f"))
def test_a_section_splits_at_once_as_its_rows_split(section):
    """A section split at once gives the tokens its rows give split one by
    one; a row of the wrong width gives None."""
    f, name = section
    rows = [toks for toks, _ in textfmt._rows(f, name)]
    width = textfmt._WIDTHS[name]
    expected = (None if any(len(toks) != width for toks in rows)
                else [t for toks in rows for t in toks])
    assert textfmt._tokens(f, name) == expected


def _assembly_tables(a):
    return (a.base.key(), a.rtype.key(), list(a.rfun.omap.items()),
            list(a.rfun.mmap.items()))


def _morphism_tables(m):
    return (_assembly_tables(m.src), _assembly_tables(m.tgt),
            list(m.fun.omap.items()), list(m.fun.mmap.items()),
            list(m.e.omap.items()), list(m.e.mmap.items()),
            list(m.eps.components.items()))


@settings(max_examples=500, deadline=None)
@given(SEEDS, st.sampled_from(["main.mor", "src.asm"]), st.data())
def test_reader_agrees_with_the_row_scan_on_assemblies_and_morphisms(seed, name, data):
    gen = _gen(seed)
    x, y = gen.assembly(), gen.assembly()
    m = gen.morphism(x, y) or identity_morphism(x)
    files = textfmt.parse_bundle(textfmt.bundle_morphism(m))
    text = files[name]
    files[name] = data.draw(st.one_of(_mutated(text), _mutated(text, TABLE_MUTATIONS)))
    resolve = textfmt.bundle_resolver(files)
    if name == "main.mor":
        tables = _morphism_tables
        read = lambda: textfmt.parse_morphism(files[name], resolve, R)
        scan = lambda: _scan_morphism(files[name], resolve)
    else:
        tables = _assembly_tables
        read = lambda: textfmt.parse_assembly(files[name], resolve, R)
        scan = lambda: _scan_assembly(files[name], resolve, {})
    assert _outcome(read, tables) == _outcome(scan, tables)


def test_files_the_writers_write_are_split_at_once():
    """No file a writer writes is split row by row, or walked for an error."""
    gen = _gen(0)
    groupoids = [gen.groupoid() for _ in range(40)]
    groupoids += [cyclic_group(40),
                  disjoint_union([cyclic_group(12), codiscrete(["a", "b", "c"])])]
    morphisms = [m for m in (gen.morphism(gen.assembly(), gen.assembly())
                             for _ in range(20)) if m is not None]
    with mock.patch.object(textfmt, "_rows", side_effect=AssertionError("row walk")):
        for g in groupoids:
            assert textfmt.parse_groupoid(textfmt.serialize_groupoid(g)) == g
        for m in morphisms:
            back = textfmt.load_morphism_bundle(textfmt.bundle_morphism(m), R)
            assert _morphism_tables(back) == _morphism_tables(m)
