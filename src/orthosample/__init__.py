"""Spectral inference for time series via orthogonal shifted samples.

Weighted averages of the periodogram evaluated at shifted frequency pairs
are asymptotically uncorrelated with the original statistic and share its
variance.  This package uses those shifted copies to studentize estimators,
calibrate hypothesis tests without resampling, and select tuning parameters.
"""

from . import distributions, equality, htests, models, selection, spectral, variance, whittle
from .distributions import *
from .equality import *
from .htests import *
from .models import *
from .selection import *
from .spectral import *
from .variance import *
from .whittle import *

__version__ = "0.1.0"

__all__ = [name for module in (distributions, equality, htests, models, selection, spectral,
                               variance, whittle)
           for name in module.__all__] + ["__version__"]
