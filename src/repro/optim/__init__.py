"""Stochastic optimisation substrate for the W step.

This package implements, from scratch, the single-layer trainers that MAC
reuses as black boxes (paper section 3.1): linear SVMs trained with
Bottou-style SGD (the paper uses the SVMSGD code of Bottou & Bousquet) and
linear least-squares regressors (SGD and closed form), plus the step-size
schedules and minibatch machinery they share.
"""

from repro.optim.schedules import BottouSchedule, InverseSchedule, RobbinsMonroSchedule
from repro.optim.sgd import SGDState, minibatch_indices, sgd_epoch
from repro.optim.svm import LinearSVM, hinge_loss, svm_objective
from repro.optim.linreg import LinearRegression, squared_loss

__all__ = [
    "BottouSchedule",
    "InverseSchedule",
    "RobbinsMonroSchedule",
    "SGDState",
    "minibatch_indices",
    "sgd_epoch",
    "LinearSVM",
    "hinge_loss",
    "svm_objective",
    "LinearRegression",
    "squared_loss",
]
