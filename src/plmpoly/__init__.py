"""Exact min-plus polyhedral geometry for extension-probability text models."""

from .tropical import (
    ExtReal,
    NEG_INF,
    POS_INF,
    ZERO,
    TropMatrix,
    TropVector,
    VerificationError,
    funk,
    neg,
    tmax,
    tmax_mul,
    tmin,
    tmul,
    verify,
)
from .files import vector_from_strings, vector_to_strings, write_text_atomic
from .model import (
    ORDER_MODES,
    DirectedMetric,
    PartialOrder,
    Plm,
    ValidationFailed,
    ValidationReport,
    check_projector,
    ingest_corpus,
    is_subtext,
    kleene_closure,
    load_model_file,
    metric_from_dict,
    metric_from_plm,
    model_from_dict,
    model_to_dict,
    order_from_metric,
    plm_from_metric,
    potential,
    truncate_big_m,
    validate_plm,
)
from .polyhedron import (
    Side,
    TerminalDecomposition,
    co_yoneda,
    generator,
    side_metric,
    residuate,
    membership,
    metric_cone_constraints,
    normalize_to_simplex,
    project,
    terminal_decompose,
    tight_graph,
    violation,
    yoneda,
    yoneda_isometric,
)
from .rays import (
    Ray,
    ResourceCapExceeded,
    certify_ray,
    cross_check_rays,
    enumerate_connected_lower_sets,
    enumerate_rays,
    oracle_rays,
    ray_as_text_combination,
    ray_from_lower_set,
    ray_saturation_edges,
)
from .duality import DualityReport, check_fixed_negation, dual_decompose, map_a, map_b
from .isbell import isbell_member, map_l, map_r, max_closure
from .generate import (
    random_extended_vector,
    random_forest_plm,
    random_layered_plm,
    random_member,
    random_plm,
    random_weight,
)
from .extension import (
    BoltzmannResult,
    Embedding,
    IsometryError,
    RetractionOp,
    boltzmann,
    embed_model,
    filtration_retractions,
    retraction_from_subset,
    word_decompose,
)

__version__ = "0.1.0"
