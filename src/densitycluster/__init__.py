"""Density-map clustering for 2D embedding projections.

Typical use: bin points into a grid, smooth into a density map, run the
clustering pipeline, then post-process regions into polygons, rectangle
covers, SQL predicates, and text labels.
"""

from .clustering import (ClusterEdges, ClusterGraph, ClusterMap, ClusterNode,
                         ClusterParams, build_neighborhood_graph,
                         cluster_density_map, initial_clusters,
                         truncate_clusters, union_clusters)
from .density import (DensityMap, PointBatch, Viewport, auto_viewport,
                      bin_points, default_bandwidth, gaussian_kernel, smooth)
from .errors import (ClusterNotFoundError, DataError, NoDataError,
                     ParameterError)
from .geometry import (ClusterShape, PolygonRing, color_clusters,
                       count_color_conflicts, decompose_rectangles,
                       shape_for_cluster, to_data_space, trace_boundary)
from .labeling import (LabelResult, assign_documents, ctfidf_labels,
                       emit_sql_predicate, tokenize)

__version__ = "0.1.0"

__all__ = [
    "ClusterEdges", "ClusterGraph", "ClusterMap", "ClusterNode", "ClusterParams",
    "ClusterNotFoundError", "ClusterShape", "DataError", "DensityMap",
    "LabelResult", "NoDataError", "ParameterError", "PointBatch", "PolygonRing",
    "Viewport", "assign_documents", "auto_viewport", "bin_points",
    "build_neighborhood_graph", "cluster_density_map", "color_clusters",
    "count_color_conflicts", "ctfidf_labels", "decompose_rectangles",
    "default_bandwidth", "emit_sql_predicate", "gaussian_kernel",
    "initial_clusters", "shape_for_cluster", "smooth", "to_data_space",
    "tokenize", "trace_boundary", "truncate_clusters", "union_clusters",
]
