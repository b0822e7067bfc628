"""esdlab: a numerical laboratory for empirical spectral distributions.

Submodules:
  rng            counter-based splittable random streams
  ensembles      entry distributions, base matrices, matrix assembly
  numerics       dense spectral kernels and linear-algebra identity checks
  measures       ESDs as atom arrays, transforms, bounded-Lipschitz and KS
                 distances
  hermitization  log-determinant fields and Girko's identity
  limits         circular law, Dozier-Silverstein solver, Stieltjes inversion
  harness        experiment configs, runners, CSV/SVG emission, CLI
"""

from .ensembles import assemble, build_base_matrix, build_iid_matrix, sample_array
from .errors import ConfigurationError, EsdLabError, NumericalFailureError
from .harness.config import BaseMatrixSpec, ScalarDistribution, scalar_distribution
from .hermitization import (
    girko_kernel,
    girko_reconstruct,
    log_det_at,
    log_potential,
    regularized_log_det,
    shifted_singular_values,
)
from .limits import (
    MeasureH,
    StieltjesSolution,
    circular_log_potential,
    circular_radial_cdf,
    invert_stieltjes,
    mp_cdf,
    mp_density,
    mp_reference,
    solve_ds,
)
from .measures import (
    bl_distance,
    characteristic_function,
    dilation_esd,
    esd_eigen,
    ks_two_sample,
    ks_vs_cdf,
    radial_angular_ks,
    second_moment,
)
from .numerics import (
    MINUS_INFINITY,
    hs_norm,
    leave_one_out_distances,
    verify_interlacing,
    verify_weyl,
)
from .rng import RngStream

__version__ = "0.1.0"
