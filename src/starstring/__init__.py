"""Exact direct and inverse Dirichlet/Neumann spectral problems for star
graphs of Stieltjes strings."""

from .errors import (
    BadShape,
    DivisionByZero,
    InvalidSpectra,
    InvariantViolation,
    IrrationalPole,
    MainTooLong,
    NotStieltjes,
    PlanInfeasible,
    RangeError,
    RequiresPositiveCentralMass,
    SchemaError,
    StarStringError,
)
from .forward import (
    center_quotient,
    char_polys,
    edge_cauer_polys,
    pendant_quotient,
    spectrum_of,
)
from .inverse_center import (
    build_psi,
    enumerate_constraints,
    plan_partition,
    reconstruct_center,
    reconstruct_center_grouped,
    validate_center,
)
from .inverse_pendant import (
    build_phi,
    decompose_main,
    decompose_main_from_quotient,
    reconstruct_pendant,
    validate_pendant,
)
from .matrixize import (
    RationalMatrix,
    build_pencil,
    interlacing_certificate,
    pencil_det,
)
from .model import (
    Edge,
    ReconstructionPlan,
    Root,
    SpectrumPair,
    StarGraph,
    parse_graph,
    parse_plan,
    parse_spectra,
    serialize_graph,
    serialize_plan,
    serialize_spectra,
)
from .poly import Poly, poly_gcd, squarefree_factor
from .rational import format_rational, parse_rational
from .ratfun import (
    PartialFractions,
    RationalFunction,
    StieltjesCF,
    cf_expand,
    cf_to_ratfun,
    partial_fractions,
)
from .roots import RootVal, isolate_real_roots

__version__ = "0.1.0"
