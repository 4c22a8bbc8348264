"""Tableau parsing, validation, and properties of the packaged method."""

import re
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from rok.tableau import Tableau, TableauError, default_tableau, load_tableau, parse_tableau

MINIMAL = """\
s 2
order 2
embedded_order 1
gamma 1/2
alpha 2 1 1
gamma_lower 2 1 -1
b 1 1/2
b 2 1/2
b_hat 1 1
"""


def test_parse_minimal():
    tab = parse_tableau(MINIMAL, name="mini")
    assert tab.s == 2
    assert tab.gamma == 0.5
    assert tab.alpha[1, 0] == 1.0
    assert tab.gamma_lower[1, 0] == -1.0
    assert np.allclose(tab.b, [0.5, 0.5])
    assert np.allclose(tab.b_hat, [1.0, 0.0])
    assert tab.name == "mini"


def test_parse_rationals_are_exact():
    tab = parse_tableau(MINIMAL)
    assert tab.gamma == 0.5
    assert tab.b[0] == 0.5


def test_comments_and_blank_lines_ignored():
    tab = parse_tableau("# header\n\n" + MINIMAL + "\n  # trailing\n")
    assert tab.s == 2


@pytest.mark.parametrize(
    "mutation",
    [
        lambda t: t.replace("gamma 1/2", "gamma -1"),  # nonpositive diagonal
        lambda t: t.replace("alpha 2 1 1", "alpha 1 2 1"),  # upper-triangle index
        lambda t: t.replace("b_hat 1 1", "b_hat 1 1/2\nb_hat 2 1/2"),  # b_hat == b
        lambda t: t.replace("gamma 1/2", ""),  # missing gamma
        lambda t: t.replace("s 2", "s 0"),  # bad stage count
        lambda t: t + "bogus 1 2 3\n",  # unknown record
        lambda t: t.replace("b 1 1/2", "b 1 1/0"),  # unparsable value
        lambda t: t.replace("b_hat 1 1", ""),  # missing embedded weights
    ],
)
def test_malformed_tableaus_rejected(mutation):
    with pytest.raises(TableauError):
        parse_tableau(mutation(MINIMAL))


def ros4s_text():
    return resources.files("rok").joinpath("tableaus", "ros4s.tab").read_text()


@pytest.mark.parametrize("old, new", [
    ("s 2", "s 2 extra"),  # extra token after a value
    ("alpha 2 1 1", "alpha 2 1 1 9"),
])
def test_record_with_extra_token_names_its_line(old, new):
    lineno = MINIMAL.splitlines().index(old) + 1
    with pytest.raises(TableauError, match=f"line {lineno}:"):
        parse_tableau(MINIMAL.replace(old, new))


def test_split_rational_names_its_line():
    # "12 / 25" is three tokens; reading the first as the value would give 12
    text = ros4s_text()
    lineno = text.splitlines().index("alpha 3 1 12/25") + 1
    with pytest.raises(TableauError, match=f"line {lineno}:"):
        parse_tableau(text.replace("alpha 3 1 12/25", "alpha 3 1 12 / 25"))


def test_overflowing_value_is_a_tableau_error():
    with pytest.raises(TableauError, match="1e400"):
        parse_tableau(MINIMAL.replace("b 1 1/2", "b 1 1e400"))


def test_unknown_record_is_named():
    with pytest.raises(TableauError, match="unknown record 'bogus'"):
        parse_tableau(MINIMAL + "bogus 1 2 3\n")


def test_ros4s_evaluates_f_in_stages_two_and_three_only():
    # stage 1 takes f(y) from the caller, stage 4 repeats stage 3's alpha row
    assert default_tableau().evaluates_f == (False, True, True, False)


def test_gamma_full_and_beta():
    tab = parse_tableau(MINIMAL)
    assert np.allclose(tab.gamma_full, [[0.5, 0.0], [-1.0, 0.5]])
    assert np.allclose(tab.beta, tab.alpha + tab.gamma_full)


def test_load_tableau_roundtrip(tmp_path):
    p = tmp_path / "mini.tab"
    p.write_text(MINIMAL)
    tab = load_tableau(p)
    assert tab.name == "mini"
    assert tab.s == 2


def test_default_tableau_structure():
    tab = default_tableau()
    assert tab.s == 4
    assert tab.order == 4
    assert tab.embedded_order == 3
    assert tab.gamma == 0.5
    tab.validate()


def test_default_tableau_low_order_conditions():
    # Consistency and the order-2 condition in terms of beta = alpha + gamma_full.
    tab = default_tableau()
    one = np.ones(tab.s)
    assert np.isclose(tab.b @ one, 1.0, atol=1e-14)
    assert np.isclose(tab.b_hat @ one, 1.0, atol=1e-14)
    assert np.isclose(tab.b @ (tab.beta @ one), 0.5, atol=1e-14)
    assert np.isclose(tab.b_hat @ (tab.beta @ one), 0.5, atol=1e-14)


def test_validate_rejects_nonlower_alpha():
    tab = default_tableau()
    bad = Tableau(
        s=tab.s,
        alpha=tab.alpha + np.eye(tab.s),
        gamma_lower=tab.gamma_lower,
        gamma=tab.gamma,
        b=tab.b,
        b_hat=tab.b_hat,
        order=tab.order,
        embedded_order=tab.embedded_order,
    )
    with pytest.raises(TableauError):
        bad.validate()


@pytest.mark.parametrize("make, message", [
    (lambda tab: replace(tab, alpha=tab.alpha[1:, 1:]), "alpha must be 4x4"),
    (lambda tab: replace(tab, b_hat=tab.b_hat[1:]), "b and b_hat must have one weight per stage"),
    (lambda tab: parse_tableau(MINIMAL.replace("order 2", "order 0")), "orders must be positive"),
    (lambda tab: replace(tab, gamma_lower=np.where(tab.gamma_lower, np.inf, 0.0)),
     "gamma_lower contains non-finite entries"),
])
def test_each_broken_invariant_is_named(make, message):
    with pytest.raises(TableauError, match=message):
        make(default_tableau()).validate()


@pytest.mark.parametrize("record", ["s 2", "order 3", "embedded_order 1", "gamma 1/3",
                                    "alpha 2 1 1", "gamma_lower 2 1 0", "b 1 1/4", "b_hat 1 1"])
def test_repeated_record_names_its_line(record):
    # each entry is set by one record; a repeat is an error even with the same value
    lineno = len(MINIMAL.splitlines()) + 1
    with pytest.raises(TableauError, match=f"line {lineno}: .*{re.escape(record)}"):
        parse_tableau(MINIMAL + record + "\n")
