"""Exact computation of Schur elements, a-invariants and canonical basic
sets for Iwahori-Hecke algebras with integer weights, plus the partition
combinatorics and root-of-unity arithmetic that feed them.

The names re-exported from heckebasis.laurent are resolved on first
access, so importing the package (or a submodule that does not need
Laurent arithmetic) does not load it.
"""

__version__ = "0.1.0"

# The default group order cap of heckebasis.coxeter. It lives here so the
# CLI can key its schur cache on the effective cap without loading coxeter.
DEFAULT_GROUP_CAP = 10**6

__all__ = [
    "CyclotomicInt",
    "LaurentPoly",
    "NonIntegerCoefficients",
    "PrimeDividesQ",
    "ZeroPolynomial",
    "cyclotomic_polynomial",
    "specialize_cyclotomic",
    "specialize_mod_prime",
    "__version__",
]


def __getattr__(name):
    if name in __all__:
        from . import laurent

        value = getattr(laurent, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
