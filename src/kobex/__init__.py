"""kobex: boundary geometry, invariant-metric bounds, and boundary-extension
verification for domains in C^n, with a scenario-driven verification CLI.
"""

__version__ = "0.1.0"

from .domains import (BUNDLED, Constraint, ConvergenceError, DomainError,
                      DomainSpec, NonSmoothBoundaryError, ball,
                      boundary_distance, boundary_distance_batch,
                      bundled_domain, contains, cpoint,
                      directional_distance, directional_distance_batch,
                      ex21_D, ex21_Omega, ex22_D, ex22_Omega,
                      ex22_Omega_local, halfspace, hermitian_inner,
                      inward_normal, nearest_boundary_point, polydisc)
from .metrics import (MetricBound, fit_pair_constant, graham_bounds,
                      inscribed_ball_upper_bound, kob_distance_ball_exact,
                      kob_metric_ball_exact, path_distance_upper,
                      path_distance_upper_batch, sibony_lower_bound)
from .regularity import (ChartError, DiniIntegral, GraphChart,
                         ModelDomainParams, ModulusOfContinuity,
                         chart_consistency, composed_rate, dini_integral,
                         estimate_modulus, h_integral, model_domain_contains,
                         sample_model_domain, select_embedding_params,
                         verify_embedding, verify_lipschitz_sandwich,
                         vertical_height)
from .psh import (FiberMap, HopfFit, PshReport, PshWitness, SmoothnessError,
                  check_psh, hopf_fit, levi_form, make_psi,
                  nearest_point_cubic, psi_bound, pushforward_tau,
                  step1_constant_ex21)
from .extension import (ContinuityReport, DichotomyReport,
                        DichotomySequences, ExtensionResult, HolomorphicMap,
                        PsiLadder, TailBoundError, boundary_value,
                        cluster_set_sample, continuity_modulus,
                        dichotomy_report, extend_map, grid_safety_margin,
                        normal_line_integral, psi_tail, separation_bound)
from .charts import (BUNDLED_CHARTS, ball_chart, ex21_chart, ex22_chart,
                     flat_chart, flat_domain, tilted_chart, tilted_domain)
from .reports import Record, Report
from . import textspec
