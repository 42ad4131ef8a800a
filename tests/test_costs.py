from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpsynth import CostModel, CostModelError, load_cost_model


def test_full_form_round_trip():
    cm = load_cost_model(b'{"m": 3, "c": [0, 0, 1, 2], "l": [0, 0, 1, 1.5]}')
    assert cm.m == 3
    assert cm.c == (0, 0, 1, 2)
    assert cm.l == (0, 0, 1, Fraction(3, 2))


def test_short_form_defaults_leading_zeros():
    cm = load_cost_model('{"m": 3, "c": [1, 2], "l": ["1/2", "2/3"]}')
    assert cm.c == (0, 0, 1, 2)
    assert cm.l == (0, 0, Fraction(1, 2), Fraction(2, 3))


def test_minimal_m():
    cm = load_cost_model('{"m": 2, "c": [0, 0, 1], "l": [0, 0, 1]}')
    assert cm.m == 2
    assert cm.c[2] == 1


def test_monotonicity_violation_names_field():
    with pytest.raises(CostModelError, match=r"c\[3\]"):
        load_cost_model('{"m": 3, "c": [0, 0, 2, 1], "l": [0, 0, 1, 1]}')


def test_nonzero_free_factor_rejected():
    with pytest.raises(CostModelError, match=r"l\[1\]"):
        load_cost_model('{"m": 2, "c": [0, 0, 1], "l": [0, 1, 1]}')


def test_negative_factor_rejected():
    with pytest.raises(CostModelError, match="negative"):
        CostModel.from_factors(2, [-1], [1])


def test_m_below_two_rejected():
    with pytest.raises(CostModelError, match="m"):
        load_cost_model('{"m": 1, "c": [0, 0], "l": [0, 0]}')


def test_wrong_length_rejected():
    with pytest.raises(CostModelError, match="c"):
        load_cost_model('{"m": 3, "c": [0, 0, 1], "l": [0, 0, 1, 1]}')


def test_malformed_json_rejected():
    with pytest.raises(CostModelError, match="JSON"):
        load_cost_model("{nope")


# numbers too long to print (Python prints at most 4300 digits) or to
# build quickly ("1e-10000000" is a ten-million-digit denominator)
HUGE_FACTORS = {
    "json int": ('{"m": 2, "c": [1' + "0" * 5000 + '], "l": [1]}', r"c\[2\]"),
    "exponent string": ('{"m": 2, "c": [1], "l": ["1e-1000000"]}', r"l\[2\]"),
    "longer exponent": ('{"m": 2, "c": [1], "l": ["1e-10000000"]}', r"l\[2\]"),
    "json decimal": ('{"m": 2, "c": [1], "l": [1e-1000000]}', r"l\[2\]"),
    "long mantissa": ('{"m": 2, "c": [1], "l": [1.' + "0" * 5000 + "1]}", r"l\[2\]"),
    "p/q string": ('{"m": 2, "c": ["1/' + "7" * 1001 + '"], "l": [1]}', r"c\[2\]"),
}


@pytest.mark.parametrize("text, field", HUGE_FACTORS.values(), ids=list(HUGE_FACTORS))
def test_a_huge_factor_is_refused_by_name(text, field):
    with pytest.raises(CostModelError, match=field + ": more than 1000 digits"):
        load_cost_model(text)


def test_factors_up_to_a_thousand_digits_load():
    cm = load_cost_model('{"m": 2, "c": [1' + "0" * 999 + '], "l": ["1e-999"]}')
    assert cm.c[2] == 10**999 and cm.l[2] == Fraction(1, 10**999)
    assert load_cost_model(cm.dumps()) == cm


def test_a_factor_sequence_too_long_over_its_denominators_is_refused():
    with pytest.raises(CostModelError, match="c: needs more than 1000 digits"):
        CostModel.from_factors(2, [10**1000], [1])
    # each factor fits, but over their common denominator they do not
    dens = [10**599 + 1, 10**599 + 3]
    with pytest.raises(CostModelError, match="l: needs more than 1000 digits"):
        CostModel.from_factors(3, [1, 1], [Fraction(1, dens[0]), Fraction(2, dens[1])])


def test_a_non_finite_decimal_is_a_parse_error():
    with pytest.raises(CostModelError, match=r"l\[2\]: cannot parse rational 'inf'"):
        load_cost_model('{"m": 2, "c": [1], "l": [Infinity]}')


def test_decimal_strings_parse_exactly():
    cm = load_cost_model('{"m": 2, "c": [0.1], "l": [7]}')
    assert cm.c[2] == Fraction(1, 10)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    m=st.integers(min_value=2, max_value=5),
    c_steps=st.lists(st.fractions(min_value=0, max_value=5), min_size=4, max_size=4),
    l_steps=st.lists(st.fractions(min_value=0, max_value=5), min_size=4, max_size=4),
)
def test_round_trip_is_identity(m, c_steps, l_steps):
    # cumulative sums keep the sequences monotone
    def cumulative(steps):
        total, out = Fraction(0), []
        for s in steps[: m - 1]:
            total += s
            out.append(total)
        return out

    cm = CostModel.from_factors(m, cumulative(c_steps), cumulative(l_steps))
    again = load_cost_model(cm.dumps())
    assert again == cm
    assert again.digest() == cm.digest()


def test_digest_ignores_input_spelling():
    a = load_cost_model('{"m": 2, "c": [0, 0, "3/2"], "l": [0, 0, 1]}')
    b = load_cost_model('{"m": 2, "c": [1.5], "l": [1]}')
    assert a == b
    assert a.digest() == b.digest()
