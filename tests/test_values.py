import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import lse_pair, value_power, value_zero, ValueSum
from spinz.values import (
    Backend,
    NonNegValue,
    PowerProduct,
    compare_product,
    log_of_fraction,
    parse_rational,
)

positive_fractions = st.fractions(min_value=Fraction(1, 10 ** 6), max_value=Fraction(10 ** 6))


def test_exact_construction_and_canonical_form():
    v = NonNegValue.exact("6/4")
    assert v.fraction == Fraction(3, 2)
    assert NonNegValue.exact(0).is_zero
    with pytest.raises(ValueError):
        NonNegValue.exact(Fraction(-1, 2))


def test_parse_rational_forms():
    assert parse_rational("7") == 7
    assert parse_rational("22/7") == Fraction(22, 7)


def test_log_zero_compares_below_everything():
    zero = value_zero(Backend.LOG)
    assert zero.is_zero
    assert zero.log() < NonNegValue.from_log(-1e9).log()
    assert zero.log() == float("-inf")


def test_backend_mixing_is_an_error():
    with pytest.raises(TypeError):
        NonNegValue.exact(1) * NonNegValue.from_log(0.0)


@given(positive_fractions, positive_fractions)
def test_exact_to_log_comparison_agrees(a, b):
    ea, eb = NonNegValue.exact(a), NonNegValue.exact(b)
    la, lb = ea.to_log(), eb.to_log()
    if abs(la.log() - lb.log()) > 1e-12 * max(abs(la.log()), abs(lb.log()), 1.0):
        assert (ea.fraction < eb.fraction) == (la.log() < lb.log())


@given(positive_fractions, positive_fractions)
def test_mul_matches_log_addition(a, b):
    exact = (NonNegValue.exact(a) * NonNegValue.exact(b)).log()
    logd = (NonNegValue.exact(a).to_log() * NonNegValue.exact(b).to_log()).log()
    assert exact == pytest.approx(logd, rel=1e-12)


def test_pow_zero_of_zero_is_one():
    assert value_power(NonNegValue.exact(0), 0).fraction == 1
    assert value_power(value_zero(Backend.LOG), 0).log() == 0.0


def test_lse_pair_against_direct():
    assert lse_pair(0.0, 0.0) == pytest.approx(math.log(2.0))
    assert lse_pair(float("-inf"), 3.0) == 3.0
    assert lse_pair(700.0, 710.0) == pytest.approx(710.0 + math.log1p(math.exp(-10.0)))


@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=40))
def test_streaming_log_sum_matches_direct(xs):
    acc = ValueSum(Backend.LOG)
    for x in xs:
        acc.add(NonNegValue.from_log(x))
    direct = math.log(sum(math.exp(x) for x in xs))
    assert acc.total().log() == pytest.approx(direct, rel=1e-12, abs=1e-12)


@given(st.permutations(list(range(8))))
def test_log_sum_order_insensitive(order):
    xs = [float(i) * 3.7 - 11 for i in range(8)]
    acc = ValueSum(Backend.LOG)
    for i in order:
        acc.add(NonNegValue.from_log(xs[i]))
    ref = ValueSum(Backend.LOG)
    for x in xs:
        ref.add(NonNegValue.from_log(x))
    assert acc.total().log() == pytest.approx(ref.total().log(), rel=1e-12)


def test_exact_sum_is_exact():
    acc = ValueSum(Backend.EXACT)
    for k in range(1, 20):
        acc.add(NonNegValue.exact(Fraction(1, k)))
    assert acc.total().fraction == sum(Fraction(1, k) for k in range(1, 20))


def _pp(*pairs):
    return PowerProduct(tuple((NonNegValue.exact(v), Fraction(e)) for v, e in pairs))


def test_compare_product_ties_and_orders():
    # 8 == (2^6)^(1/2) == 64^(1/2)
    rhs = _pp((64, Fraction(1, 2))).factors
    assert compare_product(_pp((8, 1)).factors, rhs) == 0
    assert compare_product(_pp((7, 1)).factors, rhs) == -1
    assert compare_product(_pp((9, 1)).factors, rhs) == 1


def test_compare_product_near_tie_goes_exact():
    # 2^(1/2) * 2^(1/2) == 2 exactly; the float screen cannot decide this
    left = _pp((2, 1))
    right = _pp((2, Fraction(1, 2)), (2, Fraction(1, 2)))
    assert compare_product(left.factors, right.factors) == 0
    # and a one-in-a-trillion difference is still decided exactly
    eps = Fraction(10 ** 12 + 1, 10 ** 12)
    bigger = _pp((2 * eps, Fraction(1, 2)), (2, Fraction(1, 2)))
    assert compare_product(left.factors, bigger.factors) == -1


def test_compare_product_zero_cases():
    zero = _pp((0, 1))
    one = _pp((1, 1))
    assert compare_product(zero.factors, one.factors) == -1
    assert compare_product(zero.factors, zero.factors) == 0
    assert compare_product(one.factors, zero.factors) == 1


@given(
    st.lists(
        st.tuples(positive_fractions, st.integers(min_value=1, max_value=6)),
        min_size=1,
        max_size=5,
    )
)
def test_product_log_matches_factor_logs(pairs):
    prod = PowerProduct(
        tuple((NonNegValue.exact(v), Fraction(1, e)) for v, e in pairs)
    )
    direct = sum(log_of_fraction(v) / e for v, e in pairs)
    assert prod.log() == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_log_of_fraction_handles_huge_values():
    big = Fraction(17 ** 400, 3 ** 100)
    assert log_of_fraction(big) == pytest.approx(400 * math.log(17) - 100 * math.log(3))


def test_exact_log_is_worked_out_once(monkeypatch):
    import spinz.values as values_mod

    calls = []
    real = values_mod.log_of_fraction
    monkeypatch.setattr(values_mod, "log_of_fraction", lambda x: calls.append(x) or real(x))
    v = NonNegValue.exact(Fraction(22, 7))
    key = hash(v)
    product = PowerProduct(((v, Fraction(1, 2)), (v, Fraction(1, 3))))
    assert product.log() == pytest.approx(math.log(22 / 7) * 5 / 6, rel=1e-15)
    assert v.log() == v.to_log().log() == real(Fraction(22, 7))
    assert calls == [Fraction(22, 7)]
    assert hash(v) == key and v == NonNegValue.exact(Fraction(44, 14))


# ----- compare_product with the logs its caller already has -----


# small denominators keep the exact path's cleared integers small
product_values = st.fractions(min_value=Fraction(1, 1000), max_value=1000, max_denominator=1000)
exponents = st.fractions(min_value=Fraction(1, 4), max_value=6, max_denominator=4)


def _compare_both_ways(a_factors, b_factors):
    """compare_product without and with both sides' logs, as
    ``PowerProduct.log`` computes them."""
    logs = PowerProduct(tuple(a_factors)).log(), PowerProduct(tuple(b_factors)).log()
    return compare_product(a_factors, b_factors), compare_product(a_factors, b_factors, logs)


def test_passed_logs_decide_the_p4_near_tie_alike():
    from spinz.bounds import evaluate_bound
    from spinz.graphs import path_graph
    from spinz.weights import make_hardcore

    # hard-core P_4 with activities (lam, 1, 1, lam), lam bisected to within
    # 1e-15 of the conj1 threshold: the float screen cannot decide there
    g = path_graph(4)
    signs = set()
    for k in range(-3, 4):
        lam = Fraction(1080616349161203 + k, 10 ** 15)
        report = evaluate_bound("conj1", g, weights=make_hardcore(g, {0: lam, 1: 1, 2: 1, 3: lam}))
        lhs = ((report.lhs, Fraction(1)),)
        without, passed = _compare_both_ways(lhs, report.rhs.factors)
        assert without == passed == report.cmp
        assert compare_product(lhs, report.rhs.factors, (report.lhs_log, report.rhs_log)) == without
        signs.add(without)
    assert signs == {-1, 1}  # the bisection brackets the threshold


@given(
    st.lists(st.tuples(product_values, exponents), min_size=1, max_size=5),
    st.lists(st.tuples(product_values, exponents), min_size=1, max_size=5),
    st.booleans(),
)
def test_passed_logs_decide_random_products_alike(a, b, zero):
    a_factors = [(NonNegValue.exact(v), e) for v, e in a]
    b_factors = [(NonNegValue.exact(v), e) for v, e in b]
    if zero and b_factors:
        b_factors[0] = (NonNegValue.exact(0), b_factors[0][1])
    # the same product with every exponent split in two: an exact tie
    split = [(v, e / 2) for v, e in a_factors for _ in range(2)]
    for x, y in ((a_factors, b_factors), (b_factors, a_factors), (a_factors, split)):
        without, passed = _compare_both_ways(x, y)
        assert without == passed
    assert _compare_both_ways(a_factors, split) == (0, 0)


def test_logs_read_numerators_and_denominators_bit_for_bit():
    # Fraction.__float__ is numerator / denominator, so the sums are unchanged
    for x in (Fraction(7, 3), Fraction(2 ** 400 + 1, 3 ** 200), Fraction(1, 10 ** 30)):
        assert log_of_fraction(x) == math.log(x.numerator) - math.log(x.denominator)
    factors = tuple((NonNegValue.exact(Fraction(p, q)), Fraction(r, s))
                    for p, q, r, s in ((3, 7, 1, 3), (10 ** 40 + 7, 9, 5, 11), (2, 1, 1, 12)))
    assert PowerProduct(factors).log() == sum(float(e) * v.log() for v, e in factors)
