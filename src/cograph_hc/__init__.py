"""Hierarchical colorings of cographs.

Recognition and cotree construction, greedy and recursively minimal
coloring, hc-axiom verification, hc-coloring counting, and brute-force
oracles that mechanically check the underlying theorems on small instances.
"""

from .graph import (Graph, GraphFormatError, complement, read_edge_list,
                    write_edge_list)
from .cotree import (Cotree, NewickError, NotACographError, P4Witness,
                     align_to_graph, build_cotree, chromatic_number,
                     is_binary, is_discriminating, make_discriminating,
                     newick_read, newick_write, realized_graph, realizes,
                     to_binary)
from .coloring import (Coloring, Verdict, greedy_coloring, is_greedy,
                       is_hc_coloring, is_proper, read_coloring, verify_hc,
                       write_coloring)
from .hc_algorithms import (CountReport, InjectionChooser, NodeCount,
                            NotHcColoringError, alg1_color, alg2_color,
                            count_hc_total, count_hc_wrt, g_injections,
                            reconstruct_cotree)
from .generator import GenParams, exhaustive_cographs, random_cograph

__all__ = [
    "Graph", "GraphFormatError", "complement", "read_edge_list",
    "write_edge_list",
    "Cotree", "NewickError", "NotACographError", "P4Witness",
    "align_to_graph", "build_cotree", "chromatic_number", "is_binary",
    "is_discriminating", "make_discriminating", "newick_read", "newick_write",
    "realized_graph", "realizes", "to_binary",
    "Coloring", "Verdict", "greedy_coloring", "is_greedy", "is_hc_coloring",
    "is_proper", "read_coloring", "verify_hc", "write_coloring",
    "CountReport", "InjectionChooser", "NodeCount", "NotHcColoringError",
    "alg1_color", "alg2_color", "count_hc_total", "count_hc_wrt",
    "g_injections", "reconstruct_cotree",
    "GenParams", "exhaustive_cographs", "random_cograph",
]

__version__ = "0.1.0"
