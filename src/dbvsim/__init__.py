"""Distance bounding verification over a path-loss/additive-noise channel.

Analytical security bounds, protocol parameter optimization, and Monte Carlo
simulation of the challenge-response protocols and their attack scenarios.
"""

from .bounds import (
    BrmSpec,
    CloseSecurity,
    DbvSpec,
    InfeasibleError,
    challenge_length_brm_general,
    challenge_length_brm_sampling,
    challenge_length_dfa,
    chernoff_false_accept,
    chernoff_false_reject,
    exact_binomial_tail_lower,
    exact_binomial_tail_upper,
)
from .channel import (
    BerPair,
    ChannelParams,
    DEFAULT_CHANNEL,
    bit_error_prob,
    bpsk_demodulate,
    bpsk_modulate,
    intended_blocked_ber,
    propagate,
    snr_at_distance,
    transmit_power_for_claim,
)
from .montecarlo import Scenario, TrialSummary, compare_to_bound, estimate_rates
from .optimize import (
    MaxLambdaResult,
    OptimalBrmConfig,
    OptimalDfaConfig,
    max_feasible_lambda,
    optimize_brm,
    optimize_dfa,
    sweep_curves,
)
from .primitives import (
    IndexSet,
    MacKey,
    SamplerKey,
    mac_sign,
    mac_verify,
    sample_indices,
    sampler_guarantee,
)
from .protocols import (
    ACC,
    REJ,
    BrmParams,
    ProtocolConfig,
    RetrievalCapError,
    Transcript,
    run_pi1,
    run_pi2,
    run_pi3,
    verify_response,
)

__version__ = "0.1.0"
