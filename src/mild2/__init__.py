"""mild2: mildness certificates for quadratic pro-2 relator systems.

The package turns an ordered set of odd primes into linking data and a
quadratic presentation, decides mildness through rank/circuit criteria with
an independent quotient-dimension oracle, expands the associated graded
dimension series exactly, and searches for mild augmentations of seed sets.
Every other name is importable from its own module.
"""

from .linking import (
    augment,
    eliminate_generator,
    koch_presentation,
    linking_data,
    validate_augmentation,
)
from .mildness import check_mild, find_mild_partition
from .oracle import strongly_free_oracle
from .series import (
    WeightSignature,
    gamma_series,
    lower_central_dims,
    reduced_dims_bn,
    strongly_free_series,
    verify_cent_g,
    zassenhaus_dims,
)

__version__ = "0.1.0"

__all__ = [
    "WeightSignature",
    "augment",
    "check_mild",
    "eliminate_generator",
    "find_mild_partition",
    "gamma_series",
    "koch_presentation",
    "linking_data",
    "lower_central_dims",
    "reduced_dims_bn",
    "strongly_free_oracle",
    "strongly_free_series",
    "validate_augmentation",
    "verify_cent_g",
    "zassenhaus_dims",
]
