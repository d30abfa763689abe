"""Tests of ``benchmarks/mutation_smoke.py`` (the comparison mutator).

Only the mutator is exercised here; the per-mutant pytest runs are the
script's own business and run nightly.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "mutation_smoke.py"
_spec = importlib.util.spec_from_file_location("mutation_smoke", _PATH)
assert _spec is not None and _spec.loader is not None
smoke = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(smoke)

FIXTURE = '''\
def clamp(x, hi):
    if x < hi:
        return x
    return hi


def untouched(a, b):
    return a == b
'''


def _load(source: str) -> dict:
    namespace: dict = {}
    exec(compile(source, "<fixture>", "exec"), namespace)
    return namespace


def test_finds_only_the_sites_of_the_wanted_functions():
    sites = smoke.find_sites(FIXTURE, ("clamp",))
    assert [(s.line, s.op) for s in sites] == [(2, "<")]
    everything = smoke.find_sites(FIXTURE)
    assert [(s.line, s.op) for s in everything] == [(2, "<"), (8, "==")]


def test_flips_the_known_comparison():
    (site,) = smoke.find_sites(FIXTURE, ("clamp",))
    mutant = smoke.mutate(FIXTURE, site, ("clamp",))
    assert "x <= hi" in mutant and "a == b" in mutant
    original, flipped = _load(FIXTURE), _load(mutant)
    # Below and above the bound the two agree; at the bound the original
    # takes the second return and the mutant the first — observable only
    # through identity, so compare with a distinct but equal value.
    hi = 1000
    assert original["clamp"](3, hi) == flipped["clamp"](3, hi) == 3
    x = int("1000")
    assert original["clamp"](x, hi) is hi
    assert flipped["clamp"](x, hi) is x
    assert original["untouched"](1, 1) and flipped["untouched"](1, 1)


def test_every_flip_is_its_own_inverse_pair():
    for op, flipped in smoke.FLIPS.items():
        assert smoke.FLIPS[flipped] is op


def test_prefix_targets_and_site_numbering():
    source = "def _flow_a(x):\n    return x >= 1 != x\n\ndef other(y):\n    return y > 0\n"
    sites = smoke.find_sites(source, ("_flow_*",))
    assert [(s.index, s.op) for s in sites] == [(0, ">="), (1, "!=")]
    second = smoke.mutate(source, sites[1], ("_flow_*",))
    assert "x >= 1 == x" in second and "y > 0" in second


def test_method_targets_name_their_class():
    source = (
        "class K:\n    def f(self, x):\n        return x < 1\n\n"
        "    def g(self, x):\n        return x > 1\n\n"
        "def f(x):\n    return x == 1\n"
    )
    sites = smoke.find_sites(source, ("K.f",))
    assert [(s.function, s.op) for s in sites] == [("K.f", "<")]
    mutant = smoke.mutate(source, sites[0], ("K.f",))
    assert "x <= 1" in mutant and "x > 1" in mutant and "x == 1" in mutant


def test_sites_carry_their_function_and_expression():
    source = (
        "class K:\n    def f(self, n, m):\n"
        "        if n <= LIMIT and m > 0:\n            return [x for x in n if x < m]\n"
    )
    sites = smoke.find_sites(source)
    assert [(s.function, s.source, s.op) for s in sites] == [
        ("K.f", "n <= LIMIT and m > 0", "<="),
        ("K.f", "n <= LIMIT and m > 0", ">"),
        ("K.f", "[x for x in n if x < m]", "<"),
    ]


def test_every_listed_equivalent_names_a_current_site():
    """An entry whose expression was edited or removed would silently
    stop matching; each must name at least one current site."""
    root = _PATH.parents[1] / "src"
    for key, reason in smoke.EQUIVALENT.items():
        module, function, source, op = key
        assert reason
        sites = smoke.find_sites(
            (root / module).read_text(), smoke.TARGETS[module]
        )
        matches = [
            s for s in sites if (s.function, s.source, s.op) == (function, source, op)
        ]
        assert matches, key
        assert all(smoke.equivalence_reason(module, s) == reason for s in matches)
