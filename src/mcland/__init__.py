"""Low-rank positive semidefinite matrix completion via factored gradient
methods, with endpoint certification and concentration experiments.

The package builds symmetric observation instances, evaluates a regularized
least-squares objective over factor matrices, runs first-order solvers
(Armijo gradient descent, minibatch SGD, perturbed gradient descent),
classifies solver endpoints using gradient and Hessian information, and
measures how sampled-deviation statistics scale with the observation rate.

The top level holds the names of one certified run or scan: the instance,
objective and solver records, `solve`, `certify_point`, `landscape_scan`
and the CSV writers of their results.  Every other name is imported from
its module (`mcland.objective`, `mcland.concentration`, ...).
"""

from .certify import CertTolerances, PointClass, certify_point, landscape_scan, scan_to_csv
from .instance import HyperParams, InstanceSpec, default_hyperparams
from .objective import ObjectiveConfig
from .solvers import Method, SgdParams, SolverConfig, random_init, solve, trace_to_csv

__version__ = "0.1.0"
