import os
import pathlib
import subprocess
import sys

import pytest

from gral import suites
from gral.errors import BoundaryError, ParseError, SizeCapError, StructuralError
from gral.cli import main
from gral.generators import Gen, SuiteConfig, _sample, generate
from gral.assemblies import Assembly, product_assembly, realize
from gral.groupoids import (
    SizeCaps, codiscrete, discrete, functors_between, validate_groupoid,
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


def test_parse_error_positions():
    text = ("GRAL 1 GROUPOID\nOBJECTS\na\nMORPHISMS\nf a\nID\na id_a\n"
            "INV\nf f\nCOMP\nEND")
    with pytest.raises(ParseError) as exc:
        textfmt.parse_groupoid(text)
    assert exc.value.line == 5
    assert exc.value.column == 3
    with pytest.raises(ParseError):
        textfmt.parse_groupoid("not a header\n")


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


def test_cli_build_pif(tmp_path, r, capsys):
    def asm(base):
        i0 = r.interval.I0
        return Assembly(r, base, i0, functors_between(base, r.pi(i0).gpd)[0])

    z, y = asm(codiscrete(["z1", "z2"])), asm(codiscrete(["u", "v"]))
    g = product_assembly(y, asm(discrete(["s", "t"]))).p1
    f = next(m for m in (realize(y, z, F)
                         for F in functors_between(y.base, z.base))
             if m is not None and isinstance(is_fibration(m), FibrationData))
    gp, fp = tmp_path / "g.bundle", tmp_path / "f.bundle"
    gp.write_text(textfmt.bundle_morphism(g))
    fp.write_text(textfmt.bundle_morphism(f))
    out = tmp_path / "pif.bundle"
    assert main(["build", "pif", str(gp), str(fp), "--out", str(out)]) == 0
    assert out.read_text() == (DATA / "pif.bundle").read_text()
    assert main(["check", str(out)]) == 0
    capsys.readouterr()
    # swapped, the inputs do not compose
    assert main(["build", "pif", str(fp), str(gp)]) == 2
    assert capsys.readouterr() == (
        "", "build: structural error: the fibrations are not composable\n")


def test_cli_suite_exit_codes(tmp_path, capsys, monkeypatch):
    assert main(["suite", "cogroupoid"]) == 0
    assert main(["suite", "no-such-suite"]) == 2
    assert main(["suite", "path-axioms", "--inject", "broken-cleavage"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["--max-objects", "0", "suite", "cogroupoid"],
    ["--max-objects", "4", "--max-morphisms", "8", "suite", "weak-pi"],
    ["--max-objects", "4", "--max-morphisms", "8", "suite", "pgasm-ccc"],
])
def test_cli_suite_refusal_exits_2(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err


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
    make, calls = _attempts([None, cap])
    with pytest.raises(SizeCapError):
        list(_sample(3, make))
    assert len(calls) == 2
    # after the first instance a refusal skips the attempt, like None
    make, calls = _attempts(["a", cap])
    assert list(_sample(3, make)) == ["a"]
    assert len(calls) == 60


def test_sample_propagates_other_errors_at_once():
    make, calls = _attempts([BoundaryError("copair legs do not match")])
    with pytest.raises(BoundaryError):
        list(_sample(3, make))
    assert len(calls) == 1


def test_generate_equivalence_is_bounded(monkeypatch):
    pairs = generate("equivalence", SuiteConfig(), count=2)
    assert len(pairs) == 2
    monkeypatch.setattr("gral.pathcat.as_equivalence", lambda pg, m: None)
    assert generate("equivalence", SuiteConfig(), count=2) == []


def test_checks_without_enough_instances_fail(monkeypatch):
    def entry(rep, name):
        e = next(e for e in rep.entries if e.name == name)
        return e.ok, e.detail
    real = Gen.morphism
    monkeypatch.setattr(Gen, "morphism", lambda self, x, y, attempts=30: None)
    rep = run_suite("pgasm-ccc", SuiteConfig(counts={
        "terminal": 1, "products": 2, "beta": 1, "modest": 1}))
    assert entry(rep, "product-universal") == (False, "0 cones")
    rep = run_suite("modest-closure", SuiteConfig(counts={"instances": 2}))
    assert entry(rep, "pullback-stability") == (False, "0 squares")
    # one real morphism, then none: one square of the two required
    calls = []

    def once(self, x, y, attempts=30):
        calls.append(1)
        return real(self, x, y, attempts) if len(calls) == 1 else None
    monkeypatch.setattr(Gen, "morphism", once)
    rep = run_suite("modest-closure", SuiteConfig(counts={"instances": 2}))
    assert entry(rep, "pullback-stability") == (False, "1 squares")
    assert not rep.ok


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
