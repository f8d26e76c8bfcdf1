"""Tests of the benchmark's own parts: the checker, the wrappers, the counts.

Run with `PYTHONPATH=src python -m pytest benchmarks -q`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gral  # noqa: E402
from gral import groupoids, textfmt  # noqa: E402

from checker import Tables, groupoid_problems, read_groupoid_text  # noqa: E402
from tracing import MODULES, Spans  # noqa: E402


def _product():
    return groupoids.product(groupoids.cyclic_group(3, prefix="z"),
                             groupoids.codiscrete(["a", "b"])).gpd


def test_checker_accepts_a_product():
    t = Tables.of(_product())
    assert groupoid_problems(t) == []
    assert read_groupoid_text(textfmt.serialize_groupoid(_product())).same_as(t)


def test_checker_rejects_a_corrupted_comp_entry():
    t = Tables.of(_product())
    (g, f), h = next((k, v) for k, v in sorted(t.comp.items())
                     if v != t.ident[t.mors[v][0]])
    # same endpoints, different value: only the laws can catch it
    other = next(m for m in sorted(t.mors) if t.mors[m] == t.mors[h] and m != h)
    t.comp[(g, f)] = other
    assert groupoid_problems(t)


def test_checker_rejects_a_missing_comp_line():
    lines = textfmt.serialize_groupoid(_product()).splitlines(keepends=True)
    drop = lines.index("COMP\n") + 3
    t = read_groupoid_text("".join(lines[:drop] + lines[drop + 1:]))
    assert any("composable pairs" in p for p in groupoid_problems(t))


def test_spans_rebind_every_binding():
    import gral.cli  # noqa: F401  (cli binds names inside functions too)
    import gral.suites  # noqa: F401
    mods = {m: sys.modules[f"gral.{m}"] for m in MODULES}
    original = groupoids.product
    spans = Spans()
    spans.install(mods)
    try:
        assert spans.stale_bindings() == []
        for mod, name in ((gral.interval, "gpd_product"),
                          (gral.generators, "gpd_product"),
                          (gral.interval, "gpd_exponential"),
                          (gral.suites, "compose_functors"),
                          (gral, "product")):
            assert getattr(getattr(mod, name), "__wrapped__", None) is not None
        _product()
        metrics = spans.metrics()
        assert metrics["groupoids.product.calls"][0] == 1
        assert metrics["groupoids.FinGroupoid.calls"][0] == 3
        assert metrics["groupoids.FinGroupoid.morphisms"][0] == 3 + 4 + 12
    finally:
        spans.uninstall()
    assert groupoids.product is original
    assert gral.interval.gpd_product is original


PROBE = """
import json, sys
from pathlib import Path
import gral
from gral.generators import SuiteConfig
from gral.suites import run_suite
from tracing import LineCounter
lines = LineCounter(Path(gral.__file__).parent)
with lines:
    rep = run_suite("fundamental-groupoid",
                    SuiteConfig(seed=0, counts={"groupoids": 4, "boundary-pairs": 4}))
print(json.dumps({"report": rep.to_text(),
                  "lines": {k: v for k, (v, _u) in lines.metrics().items()}}))
"""


def _probe(hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join([str(HERE.parent / "src"), str(HERE)]))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return json.loads(out.stdout)


def test_reports_and_line_counts_agree_across_hash_seeds():
    a, b = _probe("0"), _probe("5")
    assert a["report"] == b["report"]
    assert a["lines"] == b["lines"]
    assert a["lines"]["groupoids.lines"] > 0
