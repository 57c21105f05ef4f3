"""Fractal interpolation functions on the product of two Sierpinski gaskets.

Construction of the interpolation system from vertex data and a vertical
scaling field, exact and certified-approximate evaluation, chaos-game
sampling of the graph, and Holder/box-dimension analysis.
"""

from .analysis import (
    BoxCountRecord,
    DimensionReport,
    HolderFit,
    HolderReport,
    OscillationTable,
    box_count,
    box_count_cloud,
    dimension_bounds,
    estimate_box_dimension,
    holder_fit,
    holder_predict,
    oscillation,
    oscillations,
)
from .errors import (
    CapacityError,
    ContractionError,
    DomainError,
    HypothesisError,
    PreconditionError,
    ValidationError,
)
from .evaluator import (
    GraphSample,
    GraphSamples,
    GridFunction,
    address_letters,
    chaos_game,
    eval_approx,
    eval_exact,
    rb_apply,
    samples_to_csv,
    solve_fixed_point,
)
from .gasket import (
    Address,
    GasketSpec,
    address_bary,
    address_point,
    canonicalize,
    enumerate_vertices,
    locate,
    locate_many,
    word_map_inverse,
)
from .grids import FactorGrid, product_values
from .model import (
    DataSet,
    FifModel,
    ProductVertex,
    ScalingField,
    build_model,
    check_compatibility,
    perturb_shift,
)
from .reference import (
    bump_dataset,
    random_dataset,
    random_model,
    reference_model,
    zero_model,
)

__version__ = "0.1.0"
