"""Exact graded commutative algebra with a verification laboratory on top.

The package has two layers. The kernel (rings, poly, groebner, submodule,
hilbert, fpmodule, invariants, multigraded, functors) does exact computation
over GF(p) or Q: Groebner bases of submodules, finitely presented graded
modules and their maps, Hom/Tensor/Ext/Tor, Hilbert series, associated
primes, grade, Rees algebras, and certified Artin-Rees exponents. The lab
(fitting, stability, scenario, runner, reports, cli) drives families of such
computations along grids of exponents, detects when the answers stabilize
into polynomial or eventually-constant behaviour, and certifies the observed
onset against the a-priori bounds the kernel can prove.

Submodule and FPModule carry the kernel operations as methods:
Submodule.canonical() (the reduced Groebner basis as generators),
.normal_form(v) (the Groebner remainder), .syzygies(), and
FPModule.hilbert_function(degrees). stability.normal_form is the eventual
shape of a functor applied to a family. The scenario tasks (fit,
stabilization, grade, betti_bass, component_track, ...) live in runner and
run through build_scenario and runner.run_scenario_object.
"""

__version__ = "0.1.0"

from .errors import (
    CapExceeded,
    ConfigurationError,
    ContractViolation,
    FunctorLabError,
    HomogeneityError,
    StrategyExhausted,
)
from .fitting import FittedPolynomial, fit_polynomial
from .fpmodule import FPModule, block_module, free_resolution, hom_ext_tor
from .functors import (
    CoherentFunctor,
    Composite,
    evaluate,
    evaluate_via_diagram,
    functor_from_ext,
    functor_from_hom,
    functor_from_tensor,
    functor_from_tor,
)
from .grid import GridBox
from .invariants import (
    associated_primes,
    bass_number,
    betti_number,
    depth,
    grade,
    injective_dimension,
    projective_dimension,
)
from .multigraded import (
    analytic_spread,
    artin_rees_exponent,
    graded_component,
    rees_module,
)
from .poly import Poly, Vec, parse_poly, parse_vec, quotient_ring
from .rings import GREVLEX, PolyRing, TermOrder
from .scenario import build_scenario, bundled_scenario_path, bundled_scenarios, load_scenario
from .stability import (
    FamilySpec,
    degree_bound_check,
    detect_stabilization,
    grid_evaluate,
)
from .submodule import IdealFamily, Submodule, ideal, unit_ideal, zero_submodule

__all__ = [
    "CapExceeded",
    "CoherentFunctor",
    "Composite",
    "ConfigurationError",
    "ContractViolation",
    "FPModule",
    "FamilySpec",
    "FittedPolynomial",
    "FunctorLabError",
    "GREVLEX",
    "GridBox",
    "HomogeneityError",
    "IdealFamily",
    "Poly",
    "PolyRing",
    "StrategyExhausted",
    "Submodule",
    "TermOrder",
    "Vec",
    "analytic_spread",
    "artin_rees_exponent",
    "associated_primes",
    "bass_number",
    "betti_number",
    "block_module",
    "build_scenario",
    "bundled_scenario_path",
    "bundled_scenarios",
    "degree_bound_check",
    "depth",
    "detect_stabilization",
    "evaluate",
    "evaluate_via_diagram",
    "fit_polynomial",
    "functor_from_ext",
    "functor_from_hom",
    "functor_from_tensor",
    "functor_from_tor",
    "free_resolution",
    "grade",
    "graded_component",
    "grid_evaluate",
    "hom_ext_tor",
    "ideal",
    "injective_dimension",
    "load_scenario",
    "parse_poly",
    "parse_vec",
    "projective_dimension",
    "quotient_ring",
    "rees_module",
    "unit_ideal",
    "zero_submodule",
    "__version__",
]
