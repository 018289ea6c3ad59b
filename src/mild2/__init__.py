"""mild2: mildness certificates for quadratic pro-2 relator systems.

The package turns an ordered set of odd primes into linking data and a
quadratic presentation, decides mildness through rank/circuit criteria with
an independent quotient-dimension oracle, expands the associated graded
dimension series exactly, and searches for mild augmentations of seed sets.
Every other name is importable from its own module.

``import mild2`` loads no submodule.  Each public name below is looked up in
its home module on first access (PEP 562), so ``mild2.check_mild`` loads
arith, linking, mildness and gf2, and ``mild2.gamma_series`` arith and series.
The name is not stored in the package: every read looks it up again, so a
function replaced in its home module (a wrapper installed, then removed) is
seen there and nowhere left behind.
"""

import importlib

_EXPORTS = {
    "linking": (
        "augment",
        "eliminate_generator",
        "koch_presentation",
        "linking_data",
        "validate_augmentation",
    ),
    "mildness": ("check_mild", "find_mild_partition"),
    "oracle": ("strongly_free_oracle",),
    "series": (
        "WeightSignature",
        "gamma_series",
        "lower_central_dims",
        "reduced_dims_bn",
        "strongly_free_series",
        "verify_cent_g",
        "zassenhaus_dims",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
