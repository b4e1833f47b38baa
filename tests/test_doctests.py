import doctest

import heckebasis.basicsets
import heckebasis.coxeter
import heckebasis.hecke
import heckebasis.laurent
import heckebasis.modarith
import heckebasis.partitions
import heckebasis.reps


def test_module_doctests():
    for mod in (
        heckebasis.laurent,
        heckebasis.basicsets,
        heckebasis.partitions,
        heckebasis.modarith,
        heckebasis.coxeter,
        heckebasis.hecke,
        heckebasis.reps,
    ):
        result = doctest.testmod(mod)
        assert result.attempted > 0, mod.__name__
        assert result.failed == 0, mod.__name__
