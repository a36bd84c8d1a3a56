"""divilab: computational laboratory for divisor structure and prime-factor
distribution -- sieves, divisor concentration, local laws, sets of multiples,
and range-scale experiments with brute-force oracles as the test backbone."""

__version__ = "0.1.0"

from .arith import (
    INFINITE,
    ArithValues,
    DivisorSpectrum,
    Factored,
    basic_fns,
    divisors,
    factor,
    factor_window,
    psi1_count,
)
from .density import DensityEstimate
from .divgeom import (
    OscWeight,
    RatioWeight,
    delta,
    delta_osc,
    e_r,
    f_theta,
    g_sum,
    h_alpha,
    tau_plus,
    u_stat,
)
from .errors import ConstraintError, DivilabError, DomainError, ResourceError, UsageError
from .locallaws import (
    KScales,
    Lambda_kd,
    LocalLawRow,
    SymmetricCoeffs,
    gaussian_cdf,
    k_scales,
    lambda_kp,
    lambda_mode,
    lambda_row,
    median_prime,
    median_prime_detail,
    phi0_correction,
    s_coeffs,
    unimodal_check,
)
from .multiples import (
    BlockSequence,
    GeneratorSet,
    alpha0,
    behrend_ineq_check,
    block_builder,
    criterion4_scan,
    d1,
    density_bracket,
    in_ME,
    is_in_E,
    log_density,
    m_of_y,
    max_gap,
    multiples_count,
    remainder_Rn,
    sequential_density,
)
from .sieve import SpfSieve, build_sieve, is_prime_u64, primes_upto
