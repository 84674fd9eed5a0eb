"""Straight-line graph drawings with spanning ratio arbitrarily close to 1,
with exact verification of the geometric and metric guarantees."""

from .bounds import (
    ANNULUS_PACKING_CONSTANT,
    AnnulusCensus,
    AnnulusCheckResult,
    annulus_bound_check,
    annulus_census,
    is_sr1_drawing,
    planar_sr1_witness,
    recognize_planar_sr1,
    recognize_sr1,
    sr1_witness,
    star_elr_lower_bound,
)
from .drawing import Drawing
from .embedding import (
    CanonicalOrder,
    RotationSystem,
    augment_to_maximal_with_canonical_order,
    planarity_test_embed,
)
from .errors import (
    InstanceTooLarge,
    NotATreeError,
    NotConnectedError,
    NotPlanarError,
    PreconditionError,
    SpannerDrawError,
    TooSmallError,
    ZeroLengthEdgeError,
)
from .exact import Interval, sqrt_interval
from .graph import (
    Graph,
    RootedTree,
    degree_bounded_spanning_tree,
    hamiltonian_path,
    is_connected,
)
from .layout import (
    Epsilon,
    ToughDrawResult,
    draw_graph_via_tough_tree,
    draw_planar_spanner,
    draw_proper_spanner,
    draw_tree_planar,
    draw_tree_proper,
)
from .metrics import (
    DEFAULT_REL_TOL,
    MetricReport,
    compute_metrics,
    edge_length_ratio,
    is_planar_drawing,
    is_proper_drawing,
    min_pairwise_distance_sq,
    no_three_collinear,
    spanning_ratio,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
