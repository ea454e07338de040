"""U- and V-statistics of discontinuous Ito semimartingales.

Simulation of jump diffusions on an equidistant grid, O(n) evaluation of
the associated U-/V-/Y-statistics, exact limit functionals and
conditional variances from the simulated ground truth, sampling of the
conditionally Gaussian limit laws, and a Monte Carlo harness that
verifies the laws of large numbers and stable central limit theorems.
"""

from uvstat.kernels import (
    GaussBump,
    GridSin,
    KernelSpec,
    One,
    ONE,
    PolyEven,
    Product,
    Sum,
    abs_moment,
    check_admissibility,
    grid_test_kernel,
    kernel_from_text,
    kernel_to_text,
    rho,
)
from uvstat.simulate import (
    AtomList,
    GroundTruth,
    JumpModel,
    ModelConfig,
    SamplePath,
    SimulationError,
    TruncNormal,
    Uniform,
    VolatilityModel,
    increments,
    jump_neighborhood,
    simulate_path,
    simulate_truth,
)
from uvstat.stats import (
    StatValue,
    power_variation,
    u_stat,
    v_stat,
    y_stat,
)
from uvstat.limits import (
    CondVariance,
    Context,
    LimitValue,
    cond_var_jump,
    cond_var_mixed,
    cov_c,
    cov_c_matrix,
    jump_limit,
    mixed_limit,
    vbar,
    vtilde,
)
from uvstat.sampler import (
    JumpAugmentation,
    augment,
    sample_U_jump,
    sample_V_mixed,
    truncated_Z,
)
from uvstat.harness import (
    ExperimentPlan,
    ExperimentReport,
    derive_seed,
    grid_scan,
    run_plan,
)

__version__ = "0.1.0"
