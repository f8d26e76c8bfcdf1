"""Line-oriented text format for groupoids, assemblies and morphisms.

The format is versioned and diff-friendly: one record per line, sections
in a fixed canonical order on output (any order on input).  Assemblies and
morphisms reference their constituents by file name, on `BASE`/`RTYPE` and
`SRC`/`TGT` lines that only their own kind recognises, between the header
and the first section; a bundle stitches several files into a single
replayable payload.  Writers refuse an id that would not read back as
itself, rather than quote it.

A file is read in one structural pass over its header, reference lines
and keyword rows, then a section at a time: a section laid out as the
writers lay it out is split once with string methods, any other one row
by row.  Rows are walked one by one, with their line numbers, only to
name an error.
"""

from __future__ import annotations

import json
from itertools import compress, count
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, NamedTuple, Optional

from .errors import ParseError, StructuralError
from .groupoids import FinGroupoid, GFunctor
from .assemblies import Assembly, RealizedMorphism, realized

VERSION = "1"

_GROUPOID_SECTIONS = ("OBJECTS", "MORPHISMS", "ID", "INV", "COMP")
_ASSEMBLY_SECTIONS = ("RFUN-OBJ", "RFUN-MOR")
_MORPHISM_SECTIONS = ("FUN-OBJ", "FUN-MOR", "E-OBJ", "E-MOR", "EPS")
_MARKER = "--- FILE "  # starts the line before each file of a bundle

# function tables: (arity error, noun of a domain id, noun of a codomain id)
_TABLES = {
    "RFUN-OBJ": ("expected 'object point'", "object", "point"),
    "RFUN-MOR": ("expected 'morphism path'", "morphism", "path"),
    "FUN-OBJ": ("expected a two-column row in FUN-OBJ", "object", "object"),
    "FUN-MOR": ("expected a two-column row in FUN-MOR", "morphism", "morphism"),
    "E-OBJ": ("expected a two-column row in E-OBJ", "object", "object"),
    "E-MOR": ("expected a two-column row in E-MOR", "morphism", "morphism"),
    "EPS": ("expected a two-column row in EPS", "object", "path"),
}


def _is_token(i: str) -> bool:
    """Whether the reader gives `i` back as itself: it is not empty, holds
    no whitespace and does not start with `#`."""
    return i.split() == [i] and i[0] != "#"


def _check_ids(*groups: Iterable[str], alone: tuple[str, ...] = ()) -> None:
    """Refuse an id that is not a token, or that is a keyword in `alone`
    when the id makes a row by itself."""
    for ids in groups:
        for i in ids:
            if not _is_token(i) or i in alone:
                raise StructuralError(f"id {i!r} cannot be written as a token")


# each kind's reference lines, `<KEYWORD> <file name>`, and its sections,
# in the order the writers write them
_LAYOUTS = {"GROUPOID": ((), _GROUPOID_SECTIONS),
            "ASSEMBLY": (("BASE", "RTYPE"), _ASSEMBLY_SECTIONS),
            "MORPHISM": (("SRC", "TGT"), _MORPHISM_SECTIONS)}

# tokens in each row of a section
_WIDTHS = {**dict(zip(_GROUPOID_SECTIONS, (1, 3, 2, 2, 3))),
           **dict.fromkeys(_TABLES, 2)}


def _write(kind: str, names: tuple[str, ...],
           sections: tuple[Iterable[str], ...]) -> str:
    """A `kind` file: the header, a reference line for each of `names`,
    each section's head and rows, and END."""
    refs, heads = _LAYOUTS[kind]
    lines = [f"GRAL {VERSION} {kind}"]
    lines.extend(f"{ref} {name}" for ref, name in zip(refs, names))
    for head, rows in zip(heads, sections):
        lines.append(head)
        lines.extend(rows)
    lines.append("END")
    return "\n".join(lines) + "\n"


def serialize_groupoid(g: FinGroupoid) -> str:
    _check_ids(g.morphisms)
    _check_ids(g.objects, alone=_GROUPOID_SECTIONS + ("END",))
    comp = g.comp
    # COMP rows in the order of their keys: keys are unique, so this is the
    # order of the `(key, composite)` items, without comparing composites
    return _write("GROUPOID", (), (
        g.objects,
        (f"{m} {s} {t}" for m, (s, t) in ((m, g.mors[m]) for m in g.morphisms)),
        (f"{x} {g.ident[x]}" for x in g.objects),
        (f"{m} {g.inv[m]}" for m in g.morphisms),
        (f"{k[0]} {k[1]} {comp[k]}" for k in sorted(comp))))


def _lines(text: str):
    """`text.splitlines()`, one line at a time: each newline-ended piece
    is split on its own, and no CRLF pair straddles two pieces."""
    start = 0
    while start < len(text):
        end = text.find("\n", start) + 1 or len(text)
        yield from text[start:end].splitlines()
        start = end


def _header(numbered) -> Optional[tuple[int, list[str]]]:
    """The line number and tokens of the first line that is neither blank
    nor a `#` comment, the lines before it consumed."""
    for ln, line in numbered:
        toks = line.split()
        if toks and toks[0][0] != "#":
            return ln, toks
    return None


class _File(NamedTuple):
    """A file as read: its lines, the file each reference line names, and
    each section's rows as `(start, end)` ranges of `lines`, one range
    after each of its heads.  The first range starts at the line number
    of the section's first head."""
    lines: list[str]
    names: dict[str, str]
    sections: dict[str, list[tuple[int, int]]]


def _read(text: str, kind: str) -> _File:
    """Read a `kind` file's structure: its header, then its reference lines
    and sections up to END.

    Blank and `#` lines are skipped.  A keyword row, a section head or END,
    is a line of one token, so it equals its stripped line; only the lines
    before the first keyword row are split.  A section may come in any
    order, and repeat its head to take more rows.
    """
    refs, known = _LAYOUTS[kind]
    lines = text.splitlines()
    head = _header(enumerate(lines, 1))
    if head is None:
        raise ParseError("unexpected end of file", len(lines) + 1)
    start, toks = head
    if len(toks) != 3 or toks[0] != "GRAL" or toks[2] != kind:
        raise ParseError(f"expected 'GRAL <version> {kind}' header", start)
    if toks[1] != VERSION:
        raise ParseError(f"unsupported format version {toks[1]}", start)
    stops = {*known, "END"}
    heads = []  # the index of each section head, and its section
    end = len(lines)  # END's index; with no END, the file is refused below
    for at in compress(count(start), map(stops.__contains__,
                                         map(str.strip, lines[start:]))):
        word = lines[at].strip()
        if word == "END":
            end = at
            break
        heads.append((at, word))
    names: dict[str, str] = {}
    first = heads[0][0] if heads else end
    for ln, line in enumerate(lines[start:first], start + 1):
        toks = line.split()
        if not toks or toks[0][0] == "#":
            continue
        if toks[0] not in refs:
            raise ParseError(f"content outside any section: {line.strip()!r}", ln)
        if len(toks) != 2:
            raise ParseError(f"expected '{toks[0]} <file>'", ln, len(toks) + 1)
        names.setdefault(toks[0], toks[1])
    if end == len(lines):
        raise ParseError("unexpected end of file", len(lines) + 1)
    sections: dict[str, list[tuple[int, int]]] = {}
    for (at, name), stop in zip(heads, [at for at, _ in heads[1:]] + [end]):
        sections.setdefault(name, []).append((at + 1, stop))
    for s in refs + known:
        if s not in names and s not in sections:
            raise ParseError(f"missing section {s}", end + 2)
    return _File(lines, names, sections)


def _rows(f: _File, name: str):
    """The `(tokens, line number)` of each row of section `name`: each of
    its lines, split, that is neither blank nor a `#` comment."""
    for at, end in f.sections[name]:
        for ln, line in enumerate(f.lines[at:end], at + 1):
            toks = line.split()
            if toks and toks[0][0] != "#":
                yield toks, ln


# the bytes a token of a section split at once may hold: printable ASCII
# but the space and `#`, and every byte of a UTF-8 encoded non-ASCII
# character
_TOKEN_BYTES = bytes(b for b in range(0x21, 0x100) if b not in b"#\x7f")


def _tokens(f: _File, name: str) -> Optional[list[str]]:
    """The tokens of section `name`'s rows, or None when a row does not
    hold the section's width of them.

    A section whose rows are each that many tokens between single spaces,
    none holding `#`, a control character or non-ASCII whitespace, is
    split at once: its rows split on spaces exactly as `str.split()` splits
    them.  Any other is split row by row.
    """
    width = _WIDTHS[name]
    block: list[str] = []
    for at, end in f.sections[name]:
        block += f.lines[at:end]
    joined = " ".join(block)
    tokens = joined.split(" ")
    # A blank row, or a space at the start or end of a row, makes an empty
    # token.  `isprintable` refuses non-ASCII whitespace and surrogates.
    # Deleting the token bytes from the rows' UTF-8 text then leaves each
    # row's spaces, `#` and ASCII control characters: `width - 1` spaces a
    # row, and nothing else, when the section splits at once.
    if (not all(tokens) or not (joined.isascii() or joined.isprintable())
            or ("\n".join(block) + "\n").encode().translate(None, _TOKEN_BYTES)
            != (b" " * (width - 1) + b"\n") * len(block)):
        rows = [toks for toks, _ in _rows(f, name)]
        if any(len(toks) != width for toks in rows):
            return None
        tokens = [t for toks in rows for t in toks]
    return tokens


def _columns(f: _File, name: str, message: str, column: int = 0) -> list[str]:
    """A section's tokens, once every row is checked to hold the section's
    width of them."""
    tokens = _tokens(f, name)
    if tokens is None:
        for toks, ln in _rows(f, name):
            if len(toks) != _WIDTHS[name]:
                raise ParseError(message, ln, column or len(toks) + 1)
    return tokens


def _keyed(f: _File, name: str, table: dict, n: int, noun: str,
           width: int = 1) -> dict:
    """`table`, built from the `n` rows of a section, once no row repeats an
    earlier row's key, its first `width` tokens: the first that does is
    refused."""
    if len(table) != n:
        seen = set()
        for toks, ln in _rows(f, name):
            key = " ".join(toks[:width])
            if key in seen:
                raise ParseError(f"duplicate row for {noun} {key!r}", ln, 1)
            seen.add(key)
    return table


def _table(f: _File, name: str, dom: Iterable[str], cod: Iterable[str]
           ) -> dict[str, str]:
    """Function table `name`, read as a map from the ids `dom` to the ids `cod`.

    Each row is a `dom` id and a `cod` id, and each `dom` id has one row; a
    missing row is reported on the section's header line.
    """
    tokens = _tokens(f, name)
    if tokens is not None:
        keys, values = tokens[::2], tokens[1::2]
        table = dict(zip(keys, values))
        if (len(table) == len(keys) and table.keys() == set(dom)
                and set(cod).issuperset(values)):
            return table
    message, *nouns = _TABLES[name]
    known = (set(dom), set(cod))
    rows = list(_rows(f, name))
    for toks, ln in rows:
        if len(toks) != 2:
            raise ParseError(message, ln, len(toks) + 1)
        for col in (0, 1):
            if toks[col] not in known[col]:
                raise ParseError(f"unknown {nouns[col]} {toks[col]!r}", ln, col + 1)
    table = _keyed(f, name, {toks[0]: toks[1] for toks, _ in rows}, len(rows),
                   nouns[0])
    for x in dom:
        if x not in table:
            raise ParseError(f"{name} has no row for {nouns[0]} {x!r}",
                             f.sections[name][0][0])
    return table


def parse_groupoid(text: str) -> FinGroupoid:
    f = _read(text, "GROUPOID")
    objects = _columns(f, "OBJECTS", "expected one object identifier", 2)
    t = _columns(f, "MORPHISMS", "expected 'id src tgt'")
    mors = _keyed(f, "MORPHISMS", dict(zip(t[::3], zip(t[1::3], t[2::3]))),
                  len(t) // 3, "morphism")
    t = _columns(f, "ID", "expected 'object identity'")
    ident = _keyed(f, "ID", dict(zip(t[::2], t[1::2])), len(t) // 2, "object")
    t = _columns(f, "INV", "expected 'morphism inverse'")
    inv = _keyed(f, "INV", dict(zip(t[::2], t[1::2])), len(t) // 2, "morphism")
    t = _columns(f, "COMP", "expected 'g f composite'")
    comp = _keyed(f, "COMP", dict(zip(zip(t[::3], t[1::3]), t[2::3])),
                  len(t) // 3, "pair", 2)
    return FinGroupoid(objects, mors, comp, ident, inv)


def _json_block(items: list[str], open_: str = "[", close: str = "]") -> str:
    """`items` as `json.dumps(..., indent=0)` lays out a list or a map."""
    if not items:
        return open_ + close
    return open_ + "\n" + ",\n".join(items) + "\n" + close


def groupoid_to_json(g: FinGroupoid) -> str:
    """The five tables, byte for byte as `json.dumps(tables, indent=0,
    sort_keys=True)` prints them.

    A non-None indent sends `json.dumps` through its pure-Python encoder, so
    the layout is written here and each string is escaped by the C encoder,
    each morphism id once for all the COMP rows it appears in.
    """
    enc = encode_basestring_ascii
    mors, ident, inv, table = g.mors, g.ident, g.inv, g.comp
    e = dict(zip(g.morphisms, map(enc, g.morphisms)))
    comp = [f"[\n{e[k[0]]},\n{e[k[1]]},\n{e[table[k]]}\n]" for k in sorted(table)]
    morphisms = [f"[\n{enc(m)},\n{enc(mors[m][0])},\n{enc(mors[m][1])}\n]"
                 for m in g.morphisms]
    return _json_block([
        '"comp": ' + _json_block(comp),
        '"format": ' + enc(f"gral-{VERSION}-groupoid"),
        '"id": ' + _json_block([f"{enc(x)}: {enc(ident[x])}"
                                for x in sorted(g.objects)], "{", "}"),
        '"inv": ' + _json_block([f"{enc(m)}: {enc(inv[m])}"
                                 for m in sorted(g.morphisms)], "{", "}"),
        '"morphisms": ' + _json_block(morphisms),
        '"objects": ' + _json_block([enc(x) for x in g.objects]),
    ], "{", "}")


def groupoid_from_json(text: str) -> FinGroupoid:
    data = json.loads(text)
    return FinGroupoid(
        data["objects"],
        {m: (s, t) for m, s, t in data["morphisms"]},
        {(a, b): c for a, b, c in data["comp"]},
        data["id"], data["inv"])


class Loader:
    """Interns groupoids by structural key across several parses.

    Identity of parsed values is serial-based, so two files describing the
    same groupoid must resolve to one instance before their assemblies or
    morphisms can compose.
    """

    def __init__(self):
        self._gpds: dict = {}

    def groupoid(self, text: str) -> FinGroupoid:
        g = parse_groupoid(text)
        return self._gpds.setdefault(g.key(), g)


def serialize_assembly(a: Assembly, base_name: str, rtype_name: str) -> str:
    _check_ids(a.base.objects, a.base.morphisms, a.rfun.omap.values(),
               a.rfun.mmap.values())
    return _write("ASSEMBLY", (base_name, rtype_name), (
        (f"{x} {a.rfun.omap[x]}" for x in a.base.objects),
        (f"{m} {a.rfun.mmap[m]}" for m in a.base.morphisms)))


def parse_assembly(text: str, resolve: Callable[[str], str], r,
                   loader: Optional[Loader] = None) -> Assembly:
    loader = loader if loader is not None else Loader()
    f = _read(text, "ASSEMBLY")
    base = loader.groupoid(resolve(f.names["BASE"]))
    rtype = loader.groupoid(resolve(f.names["RTYPE"]))
    pi = r.pi(rtype).gpd
    omap = _table(f, "RFUN-OBJ", base.objects, pi.objects)
    mmap = _table(f, "RFUN-MOR", base.morphisms, pi.morphisms)
    return Assembly(r, base, rtype, GFunctor(base, pi, omap, mmap))


def serialize_morphism(m: RealizedMorphism, src_name: str, tgt_name: str) -> str:
    _check_ids(m.src.base.objects, m.src.base.morphisms, m.fun.omap.values(),
               m.fun.mmap.values(), m.e.dom.objects, m.e.dom.morphisms,
               m.e.omap.values(), m.e.mmap.values(), m.eps.components.values())
    return _write("MORPHISM", (src_name, tgt_name), (
        (f"{x} {m.fun.omap[x]}" for x in m.src.base.objects),
        (f"{p} {m.fun.mmap[p]}" for p in m.src.base.morphisms),
        (f"{x} {m.e.omap[x]}" for x in m.e.dom.objects),
        (f"{p} {m.e.mmap[p]}" for p in m.e.dom.morphisms),
        (f"{x} {m.eps.components[x]}" for x in m.src.base.objects)))


def parse_morphism(text: str, resolve: Callable[[str], str], r,
                   loader: Optional[Loader] = None) -> RealizedMorphism:
    loader = loader if loader is not None else Loader()
    f = _read(text, "MORPHISM")
    src = parse_assembly(resolve(f.names["SRC"]), resolve, r, loader)
    tgt = parse_assembly(resolve(f.names["TGT"]), resolve, r, loader)
    sb, tb, sr, tr = src.base, tgt.base, src.rtype, tgt.rtype
    fun = GFunctor(sb, tb, _table(f, "FUN-OBJ", sb.objects, tb.objects),
                   _table(f, "FUN-MOR", sb.morphisms, tb.morphisms))
    e = GFunctor(sr, tr, _table(f, "E-OBJ", sr.objects, tr.objects),
                 _table(f, "E-MOR", sr.morphisms, tr.morphisms))
    eps = _table(f, "EPS", sb.objects, tgt.pi.gpd.morphisms)
    return realized(src, tgt, fun, e, eps)


# -- bundles ---------------------------------------------------------------

def _check_file(name: str, text: str) -> None:
    """Refuse a file that a bundle would give back changed: one with a line
    that would read back as a marker, one that does not end in exactly one
    newline (the reader gives each file one), and one holding a line break
    other than a newline (the reader splits lines with `str.splitlines`)."""
    lines = text.splitlines()
    if _MARKER in text and any(line.startswith(_MARKER) for line in lines):
        raise StructuralError(f"file {name!r} has a line that starts {_MARKER!r}")
    if not text.endswith("\n") or text.endswith("\n\n"):
        raise StructuralError(f"file {name!r} does not end in exactly one newline")
    if "\r" in text or len(lines) != text.count("\n"):
        raise StructuralError(f"file {name!r} has a line break other than '\\n'")


def serialize_bundle(files: dict[str, str]) -> str:
    """Each file after a `--- FILE <name>` marker.  Refuses a name that is
    not a token, and a file that `_check_file` refuses."""
    _check_ids(files)
    lines = [f"GRAL {VERSION} BUNDLE"]
    for name, text in files.items():
        _check_file(name, text)
        lines.append(_MARKER + name)
        lines.append(text[:-1])
    return "\n".join(lines) + "\n"


def parse_bundle(text: str) -> dict[str, str]:
    lines = text.splitlines()
    if not lines or lines[0].split() != ["GRAL", VERSION, "BUNDLE"]:
        raise ParseError("expected a bundle header", 1)
    files: dict[str, str] = {}
    name: Optional[str] = None
    chunk: list[str] = []
    for i, line in enumerate(lines[1:], start=2):
        if line.startswith(_MARKER):
            if name is not None:
                files[name] = "\n".join(chunk) + "\n"
            name = line[len(_MARKER):].strip()
            if not _is_token(name):
                raise ParseError(f"file name {name!r} is not a token", i)
            if name in files:
                raise ParseError(f"second file named {name!r}", i)
            chunk = []
        elif name is not None:
            chunk.append(line)
        elif line.strip():
            raise ParseError("content before the first file marker", i)
    if name is not None:
        files[name] = "\n".join(chunk) + "\n"
    return files


def bundle_resolver(files: dict[str, str]) -> Callable[[str], str]:
    """Look up a bundle's files by name; a missing one is a ParseError."""
    def resolve(name: str) -> str:
        if name not in files:
            raise ParseError(f"bundle holds no file {name!r}", 1)
        return files[name]
    return resolve


def bundle_assembly(a: Assembly) -> str:
    files = {
        "main.base.gpd": serialize_groupoid(a.base),
        "main.rtype.gpd": serialize_groupoid(a.rtype),
        "main.asm": serialize_assembly(a, "main.base.gpd", "main.rtype.gpd"),
    }
    return serialize_bundle(files)


def load_assembly_bundle(text: str, r) -> Assembly:
    resolve = bundle_resolver(parse_bundle(text))
    return parse_assembly(resolve("main.asm"), resolve, r)


def bundle_morphism(m: RealizedMorphism) -> str:
    files = {
        "src.base.gpd": serialize_groupoid(m.src.base),
        "src.rtype.gpd": serialize_groupoid(m.src.rtype),
        "tgt.base.gpd": serialize_groupoid(m.tgt.base),
        "tgt.rtype.gpd": serialize_groupoid(m.tgt.rtype),
        "src.asm": serialize_assembly(m.src, "src.base.gpd", "src.rtype.gpd"),
        "tgt.asm": serialize_assembly(m.tgt, "tgt.base.gpd", "tgt.rtype.gpd"),
        "main.mor": serialize_morphism(m, "src.asm", "tgt.asm"),
    }
    return serialize_bundle(files)


def load_morphism_bundle(text: str, r,
                         loader: Optional[Loader] = None) -> RealizedMorphism:
    resolve = bundle_resolver(parse_bundle(text))
    return parse_morphism(resolve("main.mor"), resolve, r, loader)


def detect_kind(text: str) -> str:
    """The kind named by the header, found as the reader finds it,
    reading no further."""
    head = _header(enumerate(_lines(text), 1))
    if head is not None and len(head[1]) == 3 and head[1][0] == "GRAL":
        return head[1][2]
    raise ParseError("not a gral file", 1)
