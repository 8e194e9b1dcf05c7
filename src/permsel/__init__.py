"""Permutation selectors: construction, verification, the coupon-subsequence
probabilities behind their size, and a radio-network gossip simulator."""

from .build import (
    BuildConfig,
    SizeParams,
    build_verified,
    derive_size_params,
    minimal_m_search,
    random_selector,
)
from .coupon import (
    p_jump_bound,
    p_jump_exact,
    p_monte_carlo,
    union_bound_value,
)
from .errors import (
    AttemptsExhaustedError,
    BudgetExceededError,
    GossipIncompleteError,
    NotStronglyConnectedError,
    PermselError,
    QuasiGossipFailedError,
)
from .radio import (
    Network,
    SimState,
    broadcast,
    check_quasi_gossip_done,
    choose_kappa,
    disperse,
    gossip,
    is_strongly_connected,
    quasi_gossip,
    random_strongly_connected,
    step,
)
from .selectors import (
    VERIFY_TARGETS,
    Selector,
    Verdict,
    lis_length,
    load_selector,
    save_selector,
    verify,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
