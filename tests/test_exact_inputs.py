"""Every library entry point takes an exact rational as an int or a
Fraction and nothing else.  Text, a float, a Decimal and a bool raise
``PreconditionError``; only the command line reads numbers from text."""

from decimal import Decimal
from fractions import Fraction

import pytest

from cstriple.explorer import (
    MacroState,
    SearchConfig,
    random_search,
    resolve_target,
    sharpness_witness,
)
from cstriple.poly import Polynomial, PreconditionError, VarSet

XY = VarSet(("x", "y"))

# Each entry point with one rational input set to ``v``, the rest valid.
ENTRY_POINTS = {
    "coefficient": lambda v: Polynomial(XY, {(1, 0): v}),
    "constant": lambda v: Polynomial.constant(XY, v),
    "evaluate": lambda v: Polynomial.variable(XY, "x").evaluate({"x": v, "y": 1}),
    "macro_p": lambda v: MacroState((v, 1, 1), (0, 0, 0)),
    "macro_z": lambda v: MacroState((1, 1, 1), (0, v, 0)),
    "replace_z": lambda v: MacroState((1, 1, 1), (0, 0, 0))._replace(z=(0, v, 0)),
    "make_z": lambda v: MacroState._make(((1, 1, 1), (0, v, 0))),
    "sharpness": sharpness_witness,
    "resolve_target": lambda v: resolve_target("d-k", v),
    "search_c": lambda v: random_search("d-k", SearchConfig(1, 0), v),
    "zero_probability": lambda v: SearchConfig(1, 0, zero_probability=v),
    "make_zero_probability": lambda v: SearchConfig._make((1, 0, 100, 100, v)),
}
NOT_INT_OR_FRACTION = ("3/5", "0.5", "1e3", Decimal("0.5"), Decimal("Infinity"), 0.1, True)


@pytest.mark.parametrize("value", NOT_INT_OR_FRACTION, ids=repr)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_entry_point_refuses_what_is_not_an_int_or_a_fraction(entry, value):
    with pytest.raises(PreconditionError):
        ENTRY_POINTS[entry](value)


# The refusals above are by type: each entry point takes an int and a
# Fraction of the same sizes ("1e3" is also out of a probability's range).
@pytest.mark.parametrize("value", (1, Fraction(3, 5)), ids=repr)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_entry_point_takes_an_int_and_a_fraction(entry, value):
    ENTRY_POINTS[entry](value)
