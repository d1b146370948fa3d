"""Watershed segmentation on node- and edge-weighted graphs.

Morphological toolkit built around the adjunction between node and edge
weights: flooding graphs, steepness pruning, lexicographic-distance path
algebra, drainage forests, watershed partitions and the waterfall
hierarchy with its emergent minimum spanning tree.
"""

from .errors import (CarrierMismatch, DimensionMismatch, DisconnectedInput, IncompleteHierarchy,
                     InvalidFloodingGraph, MalformedImage, MalformedInput, MissingWeights,
                     MorphographError, NoRoots, ZeroNonMinimum)
from .graphs import (Labeling, UNSET, WeightedGraph, ZONE, collapse, connected_components, contract,
                     expand_isolated_minima, flat_zones, lowest_edge_filter, regional_minima)
from .adjunction import (
    compose,
    dilate_edges_to_nodes,
    dilate_nodes_to_edges,
    edge_opening,
    erode_edges_to_nodes,
    erode_nodes_to_edges,
    is_invariant,
    node_closing,
)
from .flooding import (
    flooding_from_edges,
    flooding_from_nodes,
    flooding_pairs,
    minima_of_flooding,
    validate_flooding,
    zero_minima,
)
from .steepness import (
    erode_weights,
    is_steep,
    local_prune,
    local_prune_step,
    prune_to_steepness,
    track_ranks,
)
from .lexalgebra import (
    UNIT,
    ZERO,
    closure,
    incidence_matrix,
    lex_chain,
    lex_compare,
    lex_min,
    lex_weight,
    linear_solve,
)
from .geodesics import (
    basin_labels,
    core_expanding,
    dijkstra_to_minima,
    hq_watershed,
    reconstruct_by_integration,
    toll_distances,
)
from .watershed import (
    SpanningForest,
    basins_with_zones,
    drainage_forest,
    forest_weight,
    partition,
    unique_drain,
)
from .waterfall import Hierarchy, build_hierarchy, emergent_tree, merge_levels

__version__ = "0.1.0"
