"""The six value types: immutable records, built positionally or by
keyword, compared and hashed by their fields, shown as Name(field=...)."""

import pytest

from triforms.dwork import IntegralityVerdict, WitnessCase
from triforms.halphen import HalphenSolution, HGParams, TriangleType, solve_halphen
from triforms.rationals import QQ
from triforms.series import PAdicCheck

TRI = TriangleType(2, 5)
WITNESS = WitnessCase(1, -1, "shifted")

# (type, fields in order, repr); HalphenSolution takes ints in place of
# its series here, since series are unhashable
CASES = [
    (TriangleType, {"m1": 2, "m2": 5}, "TriangleType(m1=2, m2=5)"),
    (TriangleType, {"m1": 3, "m2": None}, "TriangleType(m1=3, m2=None)"),
    (HGParams, {"a": QQ(7, 20), "b": QQ(3, 20)},
     f"HGParams(a={QQ(7, 20)!r}, b={QQ(3, 20)!r})"),
    (HalphenSolution, {"t1": 1, "t2": 2, "t3": 3},
     "HalphenSolution(t1=1, t2=2, t3=3)"),
    (WitnessCase, {"epsilon": 1, "epsilon_prime": -1, "branch": "shifted"},
     "WitnessCase(epsilon=1, epsilon_prime=-1, branch='shifted')"),
    (IntegralityVerdict, {"triangle": TRI, "prime": 11, "witness": WITNESS},
     "IntegralityVerdict(triangle=TriangleType(m1=2, m2=5), prime=11, "
     "witness=WitnessCase(epsilon=1, epsilon_prime=-1, "
     "branch='shifted'))"),
    (PAdicCheck, {"prime": 7, "order": 3, "first_failure": -1,
                  "valuation": -2, "min_valuation": -2},
     "PAdicCheck(prime=7, order=3, first_failure=-1, valuation=-2, "
     "min_valuation=-2)"),
    (PAdicCheck, {"prime": 13, "order": 60, "first_failure": 1,
                  "valuation": 0},
     "PAdicCheck(prime=13, order=60, first_failure=1, valuation=0, "
     "min_valuation=None)"),
]
IDS = [f"{cls.__name__}-{i}" for i, (cls, _, _) in enumerate(CASES)]


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_equal_fields_give_equal_hashable_values(cls, fields, text):
    positional = cls(*fields.values())
    by_keyword = cls(**fields)
    assert positional == by_keyword
    assert hash(positional) == hash(by_keyword)
    assert {positional: "found"}[by_keyword] == "found"
    assert [getattr(by_keyword, name) for name in fields] == list(fields.values())


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_assignment_raises(cls, fields, text):
    value = cls(**fields)
    for name in [*fields, "extra"]:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
    assert [getattr(value, name) for name in fields] == list(fields.values())


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_repr(cls, fields, text):
    assert repr(cls(**fields)) == text


def test_defaults():
    # min_valuation is resolved only by valuation_profile
    assert PAdicCheck(13, 60, None, None).min_valuation is None
    # the verdict is derived from the witness, which has no default
    assert IntegralityVerdict._fields == ("triangle", "prime", "witness")
    assert IntegralityVerdict._field_defaults == {}
    with pytest.raises(TypeError):
        IntegralityVerdict(TRI, 11)


@pytest.mark.parametrize("make", [
    lambda: TriangleType(1, 5),
    lambda: TriangleType(2, 2),
    lambda: TriangleType(2, 2.5),
    lambda: TriangleType(m1=3, m2=2),
    lambda: HGParams(QQ(1, 12), QQ(5, 12)),
    lambda: HGParams(a=QQ(1, 12), b=QQ(5, 12)),
], ids=["m1=1", "(2,2)", "m2=2.5", "m2<m1 keyword", "b>a", "b>a keyword"])
def test_invalid_fields_raise_value_error(make):
    with pytest.raises(ValueError):
        make()


def test_halphen_solution_compares_its_series():
    # equal by value like the other types, and unhashable like the
    # series it holds
    first, second = solve_halphen(TRI, 6), solve_halphen(TRI, 6)
    assert first == second
    assert first != solve_halphen(TRI, 7)
    with pytest.raises(TypeError):
        hash(first)
