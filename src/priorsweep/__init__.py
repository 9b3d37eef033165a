"""Bayes-factor and posterior-expectation surfaces over a prior
hyperparameter space, estimated from MCMC runs at a small skeleton of
hyperparameter values."""

__version__ = "0.1.0"

from .blvs import BlvsFamily, Dataset, ModelEnumeration, ModelState, ingest_csv
from .families import ChainSpec, ConjugateToy, DensityFamily, FunctionOfTheta, toy_function
from .ratio import (LogWeightMatrix, RatioEstimate, build_log_weight_matrix,
                    estimate_d, estimate_ratios, estimate_sigma)
from .surface import (Stage2Workspace, SurfaceRecord, bf_cv_hat, bf_gradient_hat,
                      bf_hat, pe_hat, surface)
from .variance import (PlanInputs, SpectralConfig, StagePlan, VarianceBreakdown,
                       assemble_variance, c_hat, chain_lrv, lrv_matrix, q_opt,
                       spectral_lrv, v_hat, w_hat)

__all__ = [
    "BlvsFamily", "Dataset", "ModelEnumeration", "ModelState", "ingest_csv",
    "ChainSpec", "ConjugateToy", "DensityFamily", "FunctionOfTheta", "toy_function",
    "LogWeightMatrix", "RatioEstimate", "build_log_weight_matrix",
    "estimate_d", "estimate_ratios", "estimate_sigma",
    "Stage2Workspace", "SurfaceRecord", "bf_cv_hat", "bf_gradient_hat",
    "bf_hat", "pe_hat", "surface",
    "PlanInputs", "SpectralConfig", "StagePlan", "VarianceBreakdown",
    "assemble_variance", "c_hat", "chain_lrv", "lrv_matrix", "q_opt",
    "spectral_lrv", "v_hat", "w_hat",
]
