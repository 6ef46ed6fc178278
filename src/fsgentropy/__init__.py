"""Entropy estimators for free semigroup actions.

m continuous self-maps of a compact metric space, composed along random
words, generate a free semigroup action; this package estimates its
correlation entropy, local correlation entropy, topological entropy and
local entropy, and ships a closed-form shift+odometer backend that
every estimator is validated against.
"""

from . import binary, cli, estimators, limits, seeding, series, systems, words
from .binary import (
    BinaryPoint,
    ExactCylinderMeasure,
    exact_series,
    s_count,
)
from .estimators import (
    CorrSumEstimate,
    EmpiricalMeasure,
    corr_entropy_series,
    correlation_sum,
    doubling_series,
    local_corr_entropy_series,
    local_entropy_series,
    top_entropy_series,
)
from .limits import LimitEstimate, TrendReport, epsilon_trend, k_limit
from .series import EntropySeries
from .systems import (
    GeneratorSystem,
    apply_word,
    binary_shift_odometer,
    bowen_distance,
    build_power_system,
    circle_double_rotate,
    make_system,
    torus_affine,
)
from .words import (
    BernoulliSpec,
    SymbolWord,
    power_weights,
    sample_word,
    uniform_spec,
    word,
)

__version__ = "0.1.0"
