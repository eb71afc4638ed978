"""Hierarchical colorings of cographs.

Recognition and cotree construction, greedy and recursively minimal
coloring, hc-axiom verification, hc-coloring counting, and brute-force
oracles that mechanically check the underlying theorems on small instances.

The exports and submodules load on first use (PEP 562), so a command that
only recognizes a graph does not compile the coloring or counting code.
"""

__all__ = [
    "Graph", "GraphFormatError", "complement", "read_edge_list",
    "write_edge_list",
    "Cotree", "NewickError", "NotACographError", "P4Witness",
    "align_to_graph", "build_cotree", "is_binary", "make_discriminating",
    "newick_read", "newick_write", "realized_graph", "realizes", "to_binary",
    "Coloring", "Verdict", "greedy_coloring", "is_greedy", "is_hc_coloring",
    "is_proper", "read_coloring", "verify_hc", "write_coloring",
    "CountReport", "InjectionChooser", "NodeCount", "NotHcColoringError",
    "alg1_color", "count_hc_total", "count_hc_wrt", "reconstruct_cotree",
    "GenParams", "exhaustive_cographs", "random_cograph",
]

__version__ = "0.1.0"

_SUBMODULES = ("graph", "cotree", "coloring", "hc_algorithms", "generator",
               "oracle", "cli")

# the home module of each name in __all__
_HOME = {name: module for module, names in [
    ("graph", ("Graph", "GraphFormatError", "complement", "read_edge_list",
               "write_edge_list")),
    ("cotree", ("Cotree", "NewickError", "NotACographError", "P4Witness",
                "align_to_graph", "build_cotree", "is_binary",
                "make_discriminating", "newick_read", "newick_write",
                "realized_graph", "realizes", "to_binary")),
    ("coloring", ("Coloring", "Verdict", "greedy_coloring", "is_greedy",
                  "is_hc_coloring", "is_proper", "read_coloring", "verify_hc",
                  "write_coloring")),
    ("hc_algorithms", ("CountReport", "InjectionChooser", "NodeCount",
                       "NotHcColoringError", "alg1_color", "count_hc_total",
                       "count_hc_wrt", "reconstruct_cotree")),
    ("generator", ("GenParams", "exhaustive_cographs", "random_cograph")),
] for name in names}


def __getattr__(name: str):
    """A submodule is imported; an export is read from its home module on
    every access, so it is always the object that module holds."""
    if name in _SUBMODULES:
        __import__(f"{__name__}.{name}")  # binds the submodule here
        return globals()[name]
    if name in _HOME:
        return getattr(__getattr__(_HOME[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
