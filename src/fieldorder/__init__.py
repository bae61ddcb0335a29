"""Dominance orders and equilibrium certification for scalar and vector fields."""

__version__ = "0.1.0"

from .dominance import (DominanceVerdict, ToleranceConfig, compare_scalar,  # noqa: F401
                        compare_vector, profile)
from .fields import (Box, Grid, Product, SampleSet, ScalarField, SeededRandom,  # noqa: F401
                     Simplex, VectorField, as_point, field_from_json, gradient_field,
                     negate, origin_witness, quadratic_form, sample_domain, scalar_field,
                     vector_field)
from .classify import (ClassificationReport, classify_point,  # noqa: F401
                       default_challengers, is_almost_strictly_minimal_set,
                       is_critical_element, is_ess, is_ess_set, is_local_min_polyorder,
                       is_nss, is_strict_local_min_scalar, minimal_and_maximal,
                       sample_neighborhood)
from .dynamics import (IntegratorConfig, SetStabilityReport, Trajectory,  # noqa: F401
                       check_setwise_stability, integrate)
from .games import (from_bimatrix, from_symmetric_matrix, hawk_dove,  # noqa: F401
                    is_nash, load_game, matching_pennies)
from .casestudy import (CriticalCatalog, build_catalog,  # noqa: F401
                        check_setwise_dominance, classify_catalog,
                        dominating_minimal_element, mexican_hat_counterexample,
                        origin_atypicality)
