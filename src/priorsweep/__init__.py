"""Bayes-factor and posterior-expectation surfaces over a prior
hyperparameter space, estimated from MCMC runs at a small skeleton of
hyperparameter values."""

__version__ = "0.1.0"
