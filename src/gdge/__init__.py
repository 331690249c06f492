"""Geometric-compounded discrete generalized exponential models.

A discrete lifetime law (the floor of a generalized exponential variate),
its univariate geometric-compounded extension, and a bivariate version that
shares the compounding count between coordinates.  The package covers exact
evaluation (pmf/cdf/hazard/quantiles/moments/generating functions), seeded
sampling, maximum-likelihood fitting with standard errors (and the paper's
EM algorithm alongside), likelihood-ratio tests, chi-square goodness of fit,
a replicated bias/MSE study harness, and a CSV-oriented command line.

Every module lists its public names in its ``__all__``; the package exports
those lists, module by module.
"""

from . import bivariate, dge, fitting, inference, io, simulate, univariate
from .bivariate import *
from .dge import *
from .fitting import *
from .inference import *
from .io import *
from .simulate import *
from .univariate import *

__version__ = "0.1.0"

__all__ = ["__version__", *dge.__all__, *univariate.__all__, *bivariate.__all__, *fitting.__all__,
           *inference.__all__, *io.__all__, *simulate.__all__]
