"""divilab: computational laboratory for divisor structure and prime-factor
distribution -- sieves, divisor concentration, local laws, sets of multiples,
and range-scale experiments with brute-force oracles as the test backbone.

The names below resolve on first use (PEP 562), each by importing its home
module, so `import divilab` loads no numpy until an array module is asked for.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "arith": ("INFINITE", "ArithValues", "DivisorSpectrum", "Factored", "basic_fns",
              "divisors", "factor", "psi1_count"),
    "density": ("DensityEstimate",),
    "divgeom": ("OscWeight", "RatioWeight", "delta", "delta_osc", "e_r", "f_theta",
                "g_sum", "h_alpha", "tau_plus", "u_stat"),
    "errors": ("ConstraintError", "DivilabError", "DomainError", "ResourceError",
               "UsageError"),
    "locallaws": ("KScales", "Lambda_kd", "LocalLawRow", "SymmetricCoeffs", "gaussian_cdf",
                  "k_scales", "lambda_kp", "lambda_mode", "lambda_row", "median_prime",
                  "median_prime_detail", "phi0_correction", "s_coeffs", "unimodal_check"),
    "multiples": ("BlockSequence", "GeneratorSet", "alpha0", "behrend_ineq_check",
                  "block_builder", "criterion4_scan", "d1", "density_bracket", "in_ME",
                  "is_in_E", "log_density", "m_of_y", "max_gap", "multiples_count",
                  "remainder_Rn", "sequential_density"),
    "sieve": ("SpfSieve", "build_sieve", "is_prime_u64", "primes_upto"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
