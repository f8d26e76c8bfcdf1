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
from hypothesis import assume, given, settings, strategies as st

from gral import textfmt
from gral.assemblies import Assembly, identity_morphism
from gral.cli import main
from gral.errors import ParseError, StructuralError
from gral.groupoids import codiscrete, discrete, functors_between
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
        with mock.patch.object(textfmt, "_check_ids", lambda *a, **k: None):
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
