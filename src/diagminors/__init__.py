"""Toric ideals of diagonal 2-minors of graphs, in exact integer arithmetic.

For a graph G on vertices 1..n the ideal P_G is generated by the diagonal
2-minors f_ij = x_ii x_jj - x_ij x_ji, one per edge. The package builds the
defining vector configuration A_G, computes circuits / Graver / universal
Groebner bases, constructs the host graph H with P_G = I_H where one
exists, and verifies the construction.
"""

from .graphs import (ClosedWalk, Graph, GraphClass, classify, components,
                     enumerate_cycles, is_bipartite, parse_edge_list,
                     serialize_edge_list)
from .intmat import (IntMatrix, IntVector, det, is_totally_unimodular,
                     kernel_lattice_basis, matrix_circuits,
                     matrix_graver, rank)
from .binomials import (Binomial, Monomial, TermOrder, VarId, buchberger,
                        indispensable_monomials, initial_ideal, natural_order,
                        normal_form, parse_binomial, parse_monomial, toric_gb)
from .encoding import (VectorConfiguration, adegree, build_AG, generators_PG,
                       heights, incidence_config, verify_extreme_rays)
from .constructions import (LabeledConstruction, build_H, clique_sum, mobius,
                            prism, verify_PG_equals_IH)
from .bases import (BasisReport, circuits, degree_stats, graph_basis,
                    graver, is_primitive, ugb, walk_binomial)

__version__ = "0.1.0"

__all__ = [
    "Binomial", "BasisReport", "ClosedWalk", "Graph", "GraphClass",
    "IntMatrix", "IntVector", "LabeledConstruction", "Monomial", "TermOrder",
    "VarId", "VectorConfiguration", "adegree", "buchberger", "build_AG",
    "build_H", "circuits", "classify", "clique_sum", "components",
    "degree_stats", "det", "enumerate_cycles", "generators_PG", "graph_basis",
    "graver", "heights", "incidence_config", "indispensable_monomials",
    "initial_ideal", "is_bipartite", "is_primitive", "is_totally_unimodular",
    "kernel_lattice_basis", "matrix_circuits", "matrix_graver", "mobius",
    "natural_order", "normal_form", "parse_binomial", "parse_edge_list",
    "parse_monomial", "prism", "rank", "serialize_edge_list", "toric_gb",
    "ugb", "verify_PG_equals_IH", "verify_extreme_rays", "walk_binomial",
]
