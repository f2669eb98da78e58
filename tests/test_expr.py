import numpy as np
import pytest

from specgap import ExpressionError, parse_expression


def test_gaussian_expression_matches_numpy():
    f = parse_expression("exp(-norm(x)^2)", 2)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((40, 2))
    np.testing.assert_allclose(f(x), np.exp(-np.sum(x**2, axis=1)), rtol=1e-14)


def test_rational_expression_d1():
    f = parse_expression("1/(1+x1^2)", 1)
    x = np.linspace(-2, 2, 9).reshape(-1, 1)
    np.testing.assert_allclose(f(x), 1 / (1 + x[:, 0] ** 2), rtol=1e-15)


def test_coordinates_and_constants():
    f = parse_expression("x1*x2 + 2", 2)
    x = np.array([[1.0, 3.0], [0.5, -2.0]])
    np.testing.assert_allclose(f(x), [5.0, 1.0])


def test_literals_are_float64():
    # 2^1024 overflows to inf instead of an integer that float() rejects.
    f = parse_expression("x1 + 2^1024 - 10^400", 1)
    assert np.isnan(f(np.zeros((2, 1)))).all()
    np.testing.assert_array_equal(parse_expression("7 / 2 + 2^-1", 1)(np.zeros((1, 1))), [4.0])


def test_power_is_caret():
    f = parse_expression("abs(x1)^1.5", 1)
    x = np.array([[-4.0], [9.0]])
    np.testing.assert_allclose(f(x), [8.0, 27.0])


def test_unary_minus_and_division():
    f = parse_expression("-x1/2 + 1", 1)
    np.testing.assert_allclose(f(np.array([[4.0]])), [-1.0])


def test_scalar_broadcast_to_points():
    f = parse_expression("3.5", 1)
    out = f(np.zeros((7, 1)))
    assert out.shape == (7,)
    np.testing.assert_allclose(out, 3.5)


@pytest.mark.parametrize(
    "src",
    [
        "sin(x1)",  # unknown function
        "x3 + 1",  # coordinate out of range for d=2
        "__import__('os')",
        "x1 +",  # syntax error
        "norm(x1)",  # norm only accepts the full point
        "exp(x1, x1)",  # wrong arity
        "",
        "x1 // 2",  # floor division not in the grammar
        "'abc'",  # string literal
        "y + 1",  # unknown identifier
        "x",  # bare full point outside norm()
        "exp(-x01^2)",  # leading zero: not a bound coordinate
        "x\u0661 + 1",  # non-ASCII digit
        "x0",  # coordinates start at x1
        "x1 < 2",  # comparison not in the grammar
        "~x1",  # bitwise inversion not in the grammar
        "True + x1",  # bool literals are not numbers of the grammar
        "x1 * False",
    ],
)
def test_rejects_out_of_grammar(src):
    with pytest.raises(ExpressionError):
        parse_expression(src, 2)


def test_error_message_carries_diagnostics():
    with pytest.raises(ExpressionError, match="unknown identifier"):
        parse_expression("q * 2", 1)
    with pytest.raises(ExpressionError, match="out of range"):
        parse_expression("x5", 2)
    with pytest.raises(ExpressionError, match="out of range"):
        parse_expression("x0", 2)
    with pytest.raises(ExpressionError, match="unknown identifier 'x01'"):
        parse_expression("x01", 2)
    with pytest.raises(ExpressionError, match="disallowed literal True"):
        parse_expression("True + x1", 1)
    with pytest.raises(ExpressionError, match="integer literal out of float64 range"):
        parse_expression("1" + "0" * 400 + " * x1", 1)


def test_first_offending_node_is_reported_left_to_right():
    # Pre-order: the call is checked before its argument, the left operand
    # before the right one.
    with pytest.raises(ExpressionError, match="only exp, abs and norm"):
        parse_expression("sin(y) + q", 1)
    with pytest.raises(ExpressionError, match="unknown identifier 'y'"):
        parse_expression("exp(y) + sin(q)", 1)
    with pytest.raises(ExpressionError, match="'Mod'"):
        parse_expression("x1 % 2 + y", 1)


def test_a_long_flat_sum_parses():
    # Nothing recurses per term: only the parser limits the depth.
    f = parse_expression("+".join(["x1"] * 2000), 1)
    x = np.linspace(-1.0, 1.0, 5).reshape(-1, 1)
    np.testing.assert_array_equal(f(x), 2000 * x[:, 0])


def test_rejects_a_nonpositive_dimension():
    with pytest.raises(ExpressionError, match="dimension"):
        parse_expression("1", 0)


def test_wrong_point_shape_rejected_at_call():
    f = parse_expression("x1", 2)
    with pytest.raises(ValueError):
        f(np.zeros((5, 3)))
