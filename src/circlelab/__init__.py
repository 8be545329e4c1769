"""circlelab: a numerical laboratory for random walks by circle diffeomorphisms.

Stationary measures, Lyapunov exponents, boundary and asymptotic
entropies, distortion constants along walks, near-identity pigeonhole
searches, and Schwarzian-ODE reconstruction, over Mobius generator
families (optionally conjugated by an analytic diffeomorphism or lifted
to finite covers of the circle).
"""

from .circle import Arc, circle_dist, wrap
from .jets import Jet3, compose, identity_jet, log_and_schwarzian, projective_schwarzian
from .maps import (
    ConjugatedMap,
    LiftedMap,
    LinearChart,
    MobiusMap,
    TrigConjugacy,
    Word,
    eval_jet3,
    linearizing_chart,
    make_generator,
    rotation,
)
from .walk import (StepDistribution, WalkTrajectory, canonical_key, make_step_distribution, sample_walk,
                   sample_walks)
from .convolve import ConvolutionSeries, ConvolutionTable, convolve_exact, entropy_of
from .measure import (
    GridMeasure,
    asymptotic_entropy,
    boundary_entropy,
    dirac_convergence_probe,
    entropy_gap_report,
    estimate_stationary_measure,
    lyapunov_exponent,
    rn_derivative,
)
from .boundary import finite_quotient_detect, minimal_set_classify, proximality_test, semiconjugation_map
from .distortion import (
    ConstantsReport,
    interval_mass_decay,
    verify_complex_distortion,
    verify_real_distortion,
    walk_constants,
)
from .nearid import (
    brute_force_min_c1,
    endgame_estimates,
    kappa_m_solve,
    search_near_identity_pairs,
)
from .schwarzian import LineMobius, c3_convergence_check, mobius_normalize, solve_and_reconstruct

__version__ = "0.1.0"
