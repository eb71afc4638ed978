"""The package's public surface: lazily loaded exports and the record
types that the command line reads."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cograph_hc
from cograph_hc import P4Witness, Verdict

SUBMODULES = ("graph", "cotree", "coloring", "hc_algorithms", "generator",
              "oracle", "cli")


def test_every_export_is_its_home_module_object():
    assert sorted(cograph_hc._HOME) == sorted(cograph_hc.__all__)
    for name, home in cograph_hc._HOME.items():
        module = importlib.import_module(f"cograph_hc.{home}")
        assert getattr(cograph_hc, name) is getattr(module, name), name


def test_a_bare_import_loads_no_submodule_until_asked():
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = (
        "import importlib, sys, cograph_hc as pkg\n"
        f"subs = {SUBMODULES!r}\n"
        "print(sorted(s for s in subs if 'cograph_hc.' + s in sys.modules))\n"
        "assert all(getattr(pkg, s) is importlib.import_module("
        "'cograph_hc.' + s) for s in subs)\n"
        "assert all(getattr(pkg, name) is getattr(sys.modules["
        "'cograph_hc.' + home], name) for name, home in pkg._HOME.items())\n"
        "print(set(dir(pkg)) >= set(pkg.__all__) | set(subs))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\nTrue\n"


def test_star_import_binds_all_of_all():
    space = {}
    exec("from cograph_hc import *", space)
    for name in cograph_hc.__all__:
        assert space[name] is getattr(cograph_hc, name)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cograph_hc.no_such_name
    with pytest.raises(ImportError):
        exec("from cograph_hc import no_such_name", {})


def test_all_is_a_literal_list():
    # tests/test_lint.py reads __all__ with ast.literal_eval
    tree = ast.parse(Path(cograph_hc.__file__).read_text(encoding="utf-8"))
    [value] = [node.value for node in tree.body
               if isinstance(node, ast.Assign)
               and [t.id for t in node.targets] == ["__all__"]]
    assert ast.literal_eval(value) == cograph_hc.__all__


# -- the records --------------------------------------------------------------

def test_verdict_is_false_when_rejected():
    sets = (frozenset({1}), frozenset({1, 2}))
    assert not Verdict(False, node=3, axiom="K3", sets=sets)
    assert Verdict(True)
    assert Verdict(accepted=True) == Verdict(True, None, None, None)


def test_record_reprs_are_unchanged():
    v = Verdict(False, node=3, axiom="K2",
                sets=(frozenset({1}), frozenset({1, 2})))
    assert repr(v) == ("Verdict(accepted=False, node=3, axiom='K2', "
                       "sets=(frozenset({1}), frozenset({1, 2})))")
    assert repr(Verdict(True)) == (
        "Verdict(accepted=True, node=None, axiom=None, sets=None)")
    assert repr(P4Witness(a=3, b=2, c=1, d=0)) == (
        "P4Witness(a=3, b=2, c=1, d=0)")


def test_records_are_immutable():
    with pytest.raises(AttributeError):
        Verdict(True).accepted = False
    with pytest.raises(AttributeError):
        P4Witness(0, 1, 2, 3).a = 5


def test_p4_witness_as_tuple():
    w = P4Witness(a=0, b=1, c=2, d=3)
    assert w.as_tuple() == (0, 1, 2, 3)
    assert (w.a, w.b, w.c, w.d) == w.as_tuple()
