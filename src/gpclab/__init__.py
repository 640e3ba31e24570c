"""gpclab: deterministic generalized product codes on the binary erasure channel.

Construction of (eta, gamma, tau) code families, density-evolution analysis,
residual-graph peeling simulation, a branching-process cross-check, and
LP-based design of irregular capability mixtures.
"""

from .poisson import (
    CapabilityDistribution,
    initial_loss,
    initial_loss_mixture,
)
from .codespec import (
    GpcSpec,
    block_array_eta,
    cn_degrees,
    code_length,
    erasure_scaling,
    mean_capability,
    preset_braided,
    preset_from_block_array,
    preset_hpc,
    preset_pc,
    preset_staircase,
    spec_from_json,
    spec_to_json,
)
from .de import (
    DeTrajectory,
    Schedule,
    ThresholdResult,
    de_run,
    de_step,
    refined_upper_bound,
    threshold,
    upper_bound,
    window_schedule,
)
from .graphsim import (
    PeelingResult,
    ResidualGraph,
    core_oracle,
    monte_carlo,
    peel,
    peel_scheduled,
    sample_residual,
)
from .branching import survival_mc
from .optimizer import LpSolution, build_lp, post_verify, solve

__version__ = "0.1.0"
