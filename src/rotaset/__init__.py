"""Rotation sets, periodic orbits, entropy estimates, and finite coverings
for homeomorphisms of the 2-torus isotopic to the identity.

The library works with lifts: planar maps F with F(p + v) = F(p) + v for
integer v. Displacement averages (Fⁿ(x) − x)/n over long orbits estimate
the rotation set; Newton searches recover periodic orbits and their exact
rational rotation vectors; greedy spanning counts estimate topological
entropy; and the dynamics lifts to the 2- and 4-fold covering tori.
"""

from .covering import (
    BASE_TORUS,
    FOUR_FOLD,
    HORIZONTAL_DOUBLE,
    VERTICAL_DOUBLE,
    CoveringDynamics,
    CoveringTorus,
    TransitivityReport,
    classify_occupancy,
    deck_translations,
    lift_to_covering,
    transitivity_score,
)
from .entropy import (
    EntropyEstimate,
    count_spanning,
    dynamical_distance,
    estimate_entropy,
)
from .geometry import (
    ConvexPolygon,
    affine_image,
    contains_point,
    convex_hull,
    hausdorff_distance,
    point_to_polygon_distance,
    polygon_area,
    polygon_diameter,
)
from .maps import (
    Composition,
    HorizontalTentShear,
    Identity,
    IntegerTranslate,
    Iterate,
    IterationError,
    LocalizedShear,
    TorusLift,
    Translation,
    VerticalTentShear,
    builtin_map,
    eval_lift,
    from_map_spec,
    horseshoe_disk,
    iterate,
    lm_map,
    map_label,
    map_spec,
    project_to_torus,
    rotation_map,
    tent,
    torus_step,
)
from .periodic import (
    ParityCertificate,
    PeriodicOrbit,
    PeriodicSearch,
    find_periodic,
    parity_certificate,
    realized_vectors,
)
from .rotation import (
    RotationSample,
    RotationSamples,
    RotationSetEstimate,
    check_iterate_scaling,
    check_translation_equivariance,
    estimate_rotation_set,
    interior_nonempty,
    rotation_vector,
)

__version__ = "0.1.0"
