"""Simulation laboratory for Gaussian coupling of empirical processes.

The package builds empirical processes over indicator and smooth function
classes, couples them to Gaussian bridge fields through grid projections and
optimal transport, chains couplings over growing blocks into sequential
strong approximations, and audits the explicit tail inequalities that govern
each step. Everything is deterministic given a master seed.

The public names below are loaded on first access (PEP 562), so that
``import empbridge`` and the ``rates`` command do not pay for numpy and
scipy; ``from empbridge import X`` works as with an eager import. The other
commands load numpy. Only quantile couplings, beta laws and the bounds audit
also load scipy.special, where they evaluate a special function; only exact
(batch transport) couplings load scipy's compiled assignment solver and
squared-distance kernel, without the scipy.optimize and scipy.spatial
packages (about 1 ms and under 1 MB). Couplings load what they need when
their context is prepared.
"""

import importlib

_EXPORTS = {
    "blocking": (
        "BlockingSchedule",
        "PathDiscrepancy",
        "block_contexts",
        "br_growth_ratio",
        "br_sandwich_ratio",
        "ms_bound",
        "path_envelope",
        "run_sequential",
        "s_of_N",
        "schedule_br",
        "schedule_vc",
    ),
    "bounds": (
        "BoundConstants",
        "BoundReport",
        "borell_tail",
        "br_modulus_bounds",
        "br_moment_bound",
        "check_condition_vc_n",
        "combined_tail_empirical",
        "combined_tail_gaussian",
        "error_budget",
        "talagrand_tail",
        "vc_modulus_bounds",
        "vc_moment_bound",
    ),
    "bridge": (
        "BridgeModel",
        "ConditionalLaw",
        "build_bridge",
        "conditional_law",
        "dudley_integral",
        "dudley_integral_quadrature",
        "entropy_integral_bound",
        "extend_from_law",
        "factorize",
        "sample_bridge_batch",
    ),
    "coupling": (
        "CouplingContext",
        "CouplingRealization",
        "EpsilonSelection",
        "TransportPlan",
        "construct_joint",
        "ot_couple",
        "prepare_coupling",
        "select_delta_t",
        "select_epsilon_br",
        "select_epsilon_vc",
        "zaitsev_bound",
        "zaitsev_grid_tail",
    ),
    "distributions": ("Distribution",),
    "errors": (
        "CapacityError",
        "ConfigError",
        "DegenerateFitError",
        "DivergentIntegralError",
        "DomainError",
        "InconsistentCovarianceError",
        "NotACovarianceError",
        "NumericError",
        "ScheduleInvalidError",
        "ShapeError",
        "UnsupportedOperationError",
    ),
    "experiments": (
        "ExperimentConfig",
        "RateFit",
        "ResultTable",
        "class_from_spec",
        "config_from_dict",
        "distribution_from_spec",
        "emit",
        "fit_rate",
        "load_config",
        "run_bounds_audit",
        "run_couple",
        "run_entropy",
        "run_gauss_approx",
        "run_strong_approx",
    ),
    "exponents": ("rate_br", "rate_thm1", "rate_thm2", "rate_vc"),
    "function_classes": (
        "BracketSet",
        "CoverCertificate",
        "EntropyRegime",
        "EntropyReport",
        "FunctionClass",
        "Grid",
        "bracketing_set",
        "build_grid",
        "covariance",
        "covering_certificate",
        "dP_matrix",
        "fit_entropy_counts",
        "mean_vector",
        "net_radius",
        "regime_grid_bound",
        "second_moment_matrix",
    ),
    "quadrature": ("adaptive_simpson",),
    "sampling": (
        "MomentEstimate",
        "PairSet",
        "build_pairset",
        "mu_n_estimate",
    ),
    "seeds": ("SeedSpec", "replication_seed"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    # Not cached, so a name rebound in its defining module is seen here too.
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
