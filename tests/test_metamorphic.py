"""Metamorphic properties at n = 2000, far beyond the oracle's reach.

Relabeling the vertices must not change the chromatic number or the number
of hc-colorings, and complementing the graph must flip every inner label
of its cotree while keeping the shape and the child order.
"""

import random

import pytest

from cograph_hc import (GenParams, Graph, build_cotree, complement,
                        count_hc_total, random_cograph)
from cograph_hc.cotree import LEAF
from conftest import chromatic_number


@pytest.fixture(scope="module", params=[1, 2])
def instance(request):
    g, _ = random_cograph(GenParams(n=2000, seed=request.param))
    return request.param, g


def test_relabeling_preserves_chi_and_counts(instance):
    seed, g = instance
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    assert h != g
    assert chromatic_number(build_cotree(h)) == \
        chromatic_number(build_cotree(g))
    assert count_hc_total(h).labeled_total == \
        count_hc_total(g).labeled_total


def test_complement_flips_every_inner_label(instance):
    _, g = instance
    t = build_cotree(g)
    tc = build_cotree(complement(g))
    assert tc.root == t.root
    assert tc.children == t.children and tc.vertex == t.vertex
    assert tc.label == [l if l == LEAF else 1 - l for l in t.label]
