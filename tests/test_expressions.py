"""Expression language: values, vectorization, symbolic derivatives, errors."""

import hashlib

import numpy as np
import pytest

from hessobs.errors import ConfigError
from hessobs.expressions import parse_expression


def test_basic_arithmetic():
    e = parse_expression("2*x1 + x2^2 - 1/4", n=2)
    assert e(x1=1.0, x2=3.0) == pytest.approx(2 + 9 - 0.25)


def test_power_synonym_and_precedence():
    e = parse_expression("-x1**2", n=1)
    assert e(x1=2.0) == pytest.approx(-4.0)
    e2 = parse_expression("2^3^1", n=1)
    assert e2(x1=0.0) == pytest.approx(8.0)


def test_functions_and_constants():
    e = parse_expression("exp(x1) * sin(pi/2) + sqrt(max(0, x2))", n=2)
    assert e(x1=0.0, x2=4.0) == pytest.approx(1.0 + 2.0)


def test_min_max_variadic():
    e = parse_expression("min(x1, x2, 0.5)", n=2)
    assert e(x1=2.0, x2=1.0) == pytest.approx(0.5)


def test_vectorized():
    e = parse_expression("x1*x2 + z - p1", n=2)
    x1 = np.array([1.0, 2.0])
    out = e(x1=x1, x2=np.array([3.0, 4.0]), z=np.array([0.5, 0.5]), p1=np.array([0.0, 1.0]))
    assert out == pytest.approx([3.5, 7.5])


@pytest.mark.parametrize(
    "text",
    [
        "x1^3 + 2*x1*x2",
        "exp(x1*x2)",
        "log(1 + x1^2)",
        "sin(x1)*cos(x2)",
        "sqrt(1 + x1^2 + x2^2)",
        "x1/x2",
        "tanh(x1) + atan(x2)",
        "z^2 * p1 + p2/x2",
        "max(0, x1 - 0.5)^2",
    ],
)
def test_symbolic_derivative_matches_fd(text):
    e = parse_expression(text, n=2)
    rng = np.random.default_rng(5)
    pts = {v: rng.uniform(0.6, 1.7, size=8) for v in ["x1", "x2", "z", "p1", "p2"]}
    h = 1e-6
    for var in ["x1", "x2", "z", "p1", "p2"]:
        d = e.derivative(var)
        up = dict(pts)
        dn = dict(pts)
        up[var] = pts[var] + h
        dn[var] = pts[var] - h
        fd = (e(**up) - e(**dn)) / (2 * h)
        assert d(**pts) == pytest.approx(fd, rel=2e-6, abs=2e-6)


def test_derivative_of_max_kink_one_side():
    e = parse_expression("max(0, x1)", n=1)
    d = e.derivative("x1")
    assert d(x1=np.array([-1.0, 2.0])) == pytest.approx([0.0, 1.0])


@pytest.mark.parametrize(("text", "value"), [
    ("1/0", np.inf), ("0^-1", np.inf), ("2^1e300", np.inf),
    ("(0-8)^(1/3)", np.nan), ("(0-1)^0.5", np.nan),
])
def test_undefined_constant_follows_numpy(text, value):
    # constants are float64: no ZeroDivisionError, OverflowError or complex
    out = parse_expression(text, n=1)(x1=np.zeros(3))
    assert np.isrealobj(out)
    np.testing.assert_equal(out, value)


@pytest.mark.parametrize(("text", "order", "value"), [
    ("x1^0", 1, 0.0), ("x1^1", 2, 0.0), ("x1*x1^1.0", 2, 2.0),
])
def test_zero_power_differentiates_to_zero(text, order, value):
    # a^0 has derivative 0, also at a = 0, where c a^(c - 1) is 0 * inf
    d = parse_expression(text, n=1)
    for _ in range(order):
        d = d.derivative("x1")
    x1 = np.array([0.0, 0.5, -1.5])
    np.testing.assert_array_equal(np.broadcast_to(d(x1=x1), x1.shape), value)


def test_unknown_variable_rejected():
    with pytest.raises(ConfigError):
        parse_expression("x3 + 1", n=2)


def test_unknown_function_rejected():
    with pytest.raises(ConfigError):
        parse_expression("frob(x1)", n=2)


def test_syntax_error_has_location():
    with pytest.raises(ConfigError) as ei:
        parse_expression("x1 + * 2", n=2, line=7)
    assert "line 7" in str(ei.value)


def test_coordinates_only_mode():
    with pytest.raises(ConfigError):
        parse_expression("z + x1", n=2, allow_zp=False)


# -------------------------------------------------- pinned values

# the bundled config expressions, the texts above and edge cases of the
# grammar: unary chains, right-associative powers with a signed exponent,
# scientific literals, variadic min/max
PIN_CORPUS = [
    "1", "2.0", "5*sqrt(3)/6",
    "0.625*(x1^2+x2^2) + 0.3", "0.625*(x1^2+x2^2)",
    "0.625*(x1^2+x2^2+x3^2) + 0.8", "0.625*(x1^2+x2^2+x3^2)",
    "exp((x1^2+x2^2)/2)", "exp((x1^2+x2^2)/2) + 1", "exp((x1^2+x2^2)/2)*sqrt(1+x1^2+x2^2)",
    "0.0 + 0.5125*(x1^2+x2^2) + 10.0*max(0, sqrt((x1^2+x2^2)) - 0.5)^2",
    "0.5*(x1^2+x2^2) + 0.00625*log(max(sqrt((x1^2+x2^2)), 0.5)) + 0.007457169878499647"
    " - 0.0125*max(0, 0.25 - (x1^2+x2^2))",
    "0.0 + 1.75*(x1^2+x2^2) + 10.0*max(0, sqrt((x1^2+x2^2)) - 0.6)^2",
    "0.5*(x1^2+x2^2) + 0.8999999999999999*log(max(sqrt((x1^2+x2^2)), 0.6)) + 0.9097430613893915"
    " - 1.25*max(0, 0.36 - (x1^2+x2^2))",
    "2*x1 + x2^2 - 1/4", "-x1**2", "2^3^1", "exp(x1) * sin(pi/2) + sqrt(max(0, x2))",
    "min(x1, x2, 0.5)", "x1*x2 + z - p1", "x1^3 + 2*x1*x2", "exp(x1*x2)", "log(1 + x1^2)",
    "sin(x1)*cos(x2)", "sqrt(1 + x1^2 + x2^2)", "x1/x2", "tanh(x1) + atan(x2)",
    "z^2 * p1 + p2/x2", "max(0, x1 - 0.5)^2", "max(0, x1)", "1 + 0.1*p1 + 0.05*z",
    "1 + 0.2*sin(x1)*cos(x2)", "2 + x1*z",
    "- -x1", "+-+x1", "-x1^2", "2^-3^2", "x1 ** -2 * p3", "  e^x1 + pi",
    "1.5e-3*x1 + 2E+2*z - .5e1 + 3. + 1e3",
    "max(x1, x2, z, p1) - min(p2, 0.9, x3)^2",
    "abs(x1 - 1)*tan(x2)*cosh(z)*sinh(p1)",
]

PIN_VARIABLES = ["x1", "x2", "x3", "z", "p1", "p2", "p3"]


def pin_digest(text):
    """sha256 (first 16 hex digits) of the value and of every first
    derivative on a fixed random batch, as float64 bytes."""
    e = parse_expression(text, n=3)
    rng = np.random.default_rng(20)
    env = {v: rng.uniform(0.6, 1.7, size=16) for v in PIN_VARIABLES}
    digest = hashlib.sha256()
    for f in [e] + [e.derivative(v) for v in PIN_VARIABLES]:
        digest.update(np.broadcast_to(np.asarray(f(**env), dtype=float), (16,)).tobytes())
    return digest.hexdigest()[:16]


PIN_DIGESTS = {
    '1': 'ef991f8968e436c8',
    '2.0': 'fb612fd51476d4c6',
    '5*sqrt(3)/6': '8f7df8c31490314c',
    '0.625*(x1^2+x2^2) + 0.3': '1c61ac5eed3c34df',
    '0.625*(x1^2+x2^2)': '408f1aa60a8502c7',
    '0.625*(x1^2+x2^2+x3^2) + 0.8': 'e5c9b797da1ddd0a',
    '0.625*(x1^2+x2^2+x3^2)': 'fd25ecfa18aeee1f',
    'exp((x1^2+x2^2)/2)': '98214723d40e8c99',
    'exp((x1^2+x2^2)/2) + 1': '69d4c22c2c497c1a',
    'exp((x1^2+x2^2)/2)*sqrt(1+x1^2+x2^2)': 'f2a1dd267751f16d',
    '0.0 + 0.5125*(x1^2+x2^2) + 10.0*max(0, sqrt((x1^2+x2^2)) - 0.5)^2': 'a5a045224a593b2d',
    '0.5*(x1^2+x2^2) + 0.00625*log(max(sqrt((x1^2+x2^2)), 0.5)) + 0.007457169878499647'
    ' - 0.0125*max(0, 0.25 - (x1^2+x2^2))': '47e0dabe6da4eb2f',
    '0.0 + 1.75*(x1^2+x2^2) + 10.0*max(0, sqrt((x1^2+x2^2)) - 0.6)^2': 'c936bc46309ed9c9',
    '0.5*(x1^2+x2^2) + 0.8999999999999999*log(max(sqrt((x1^2+x2^2)), 0.6)) + 0.9097430613893915'
    ' - 1.25*max(0, 0.36 - (x1^2+x2^2))': 'c007ef5abf75d33d',
    '2*x1 + x2^2 - 1/4': 'edf28711bbe68c65',
    '-x1**2': 'ceea422db92f3d25',
    '2^3^1': '3955aa67f4d92893',
    'exp(x1) * sin(pi/2) + sqrt(max(0, x2))': '94157c728c0cea96',
    'min(x1, x2, 0.5)': '2278c5304edc1d77',
    'x1*x2 + z - p1': '49f3bfd5a2146d35',
    'x1^3 + 2*x1*x2': '1aae171dfc743cad',
    'exp(x1*x2)': '49e2d7371e9ff46b',
    'log(1 + x1^2)': '3007085c5ae67153',
    'sin(x1)*cos(x2)': '2e2dcd6bb46c7012',
    'sqrt(1 + x1^2 + x2^2)': '26d2b30bd8aa9aa8',
    'x1/x2': 'f86e4f1567e1e44d',
    'tanh(x1) + atan(x2)': 'acaee51ea194d45a',
    'z^2 * p1 + p2/x2': 'ad4fa4975cbbfa33',
    'max(0, x1 - 0.5)^2': 'b13fb5702d313688',
    'max(0, x1)': '0c2539fe47521ce9',
    '1 + 0.1*p1 + 0.05*z': '56a1f507a6b50f2b',
    '1 + 0.2*sin(x1)*cos(x2)': '27e70a20e546ec75',
    '2 + x1*z': '27b41503a22f1188',
    '- -x1': '0c2539fe47521ce9',
    '+-+x1': '526b8ade91b5e706',
    '-x1^2': 'ceea422db92f3d25',
    '2^-3^2': 'b6b749092497bf2f',
    'x1 ** -2 * p3': '9bb0ba8048a61047',
    '  e^x1 + pi': '6c1cc91bacf80516',
    '1.5e-3*x1 + 2E+2*z - .5e1 + 3. + 1e3': '37c0e03c2119b8dd',
    'max(x1, x2, z, p1) - min(p2, 0.9, x3)^2': 'a868450b52ebf502',
    'abs(x1 - 1)*tan(x2)*cosh(z)*sinh(p1)': '6022778adfe67226',
}


@pytest.mark.parametrize("text", PIN_CORPUS)
def test_values_and_derivatives_pinned(text):
    # digests recorded with the hand-written recursive-descent parser that
    # the ast-based one replaced: same trees, same bytes
    assert pin_digest(text) == PIN_DIGESTS[text]


# a batch on which min/max arguments tie, with each other and with the
# corpus' constants, and abs(x1 - 1) sits at its kink
PIN_TIE_VALUES = [0.0, 0.5, 0.6, 0.9, 1.0]


def second_derivative_digest(text):
    """sha256 (first 16 hex digits) of every second derivative d2/dv dw, on
    pin_digest's random batch and on a batch with ties; NaN payloads are
    folded to one NaN."""
    e = parse_expression(text, n=3)
    rng = np.random.default_rng(20)
    batches = [{v: rng.uniform(0.6, 1.7, size=16) for v in PIN_VARIABLES}]
    rng = np.random.default_rng(21)
    batches.append({v: rng.choice(PIN_TIE_VALUES, size=16) for v in PIN_VARIABLES})
    digest = hashlib.sha256()
    for env in batches:
        for v in PIN_VARIABLES:
            dv = e.derivative(v)
            for w in PIN_VARIABLES:
                out = np.broadcast_to(np.asarray(dv.derivative(w)(**env), dtype=float), (16,))
                digest.update(np.where(np.isnan(out), np.nan, out).tobytes())
    return digest.hexdigest()[:16]


PIN_SECOND_DIGESTS = {
    '1': 'e927bd27935ebbe2',
    '2.0': 'e927bd27935ebbe2',
    '5*sqrt(3)/6': 'e927bd27935ebbe2',
    '0.625*(x1^2+x2^2) + 0.3': '6ded20f7aaeb7bd5',
    '0.625*(x1^2+x2^2)': '6ded20f7aaeb7bd5',
    '0.625*(x1^2+x2^2+x3^2) + 0.8': '6b0bba809a6e7155',
    '0.625*(x1^2+x2^2+x3^2)': '6b0bba809a6e7155',
    'exp((x1^2+x2^2)/2)': 'dd7844b5f53064b8',
    'exp((x1^2+x2^2)/2) + 1': 'dd7844b5f53064b8',
    'exp((x1^2+x2^2)/2)*sqrt(1+x1^2+x2^2)': 'adbccf65f1ffed54',
    '0.0 + 0.5125*(x1^2+x2^2) + 10.0*max(0, sqrt((x1^2+x2^2)) - 0.5)^2': '709b08b3bd8798fa',
    '0.5*(x1^2+x2^2) + 0.00625*log(max(sqrt((x1^2+x2^2)), 0.5)) + 0.007457169878499647'
    ' - 0.0125*max(0, 0.25 - (x1^2+x2^2))': 'c40dc4ee2146e563',
    '0.0 + 1.75*(x1^2+x2^2) + 10.0*max(0, sqrt((x1^2+x2^2)) - 0.6)^2': '33133bdd7d3bf5af',
    '0.5*(x1^2+x2^2) + 0.8999999999999999*log(max(sqrt((x1^2+x2^2)), 0.6)) + 0.9097430613893915'
    ' - 1.25*max(0, 0.36 - (x1^2+x2^2))': 'ff0d522324a08b09',
    '2*x1 + x2^2 - 1/4': '6536d022c7e422b3',
    '-x1**2': '0f588d9e57d763b9',
    '2^3^1': 'e927bd27935ebbe2',
    'exp(x1) * sin(pi/2) + sqrt(max(0, x2))': 'abdac72aee94d656',
    'min(x1, x2, 0.5)': 'e927bd27935ebbe2',
    'x1*x2 + z - p1': 'b594dd8a9ce5f03b',
    'x1^3 + 2*x1*x2': 'f862865ebf256c6b',
    'exp(x1*x2)': '56cb8cd1ad57736e',
    'log(1 + x1^2)': '0bd544f7013b26ec',
    'sin(x1)*cos(x2)': '0f3606383dce9738',
    'sqrt(1 + x1^2 + x2^2)': 'a07e44bdf4e61730',
    'x1/x2': 'b9ca15987dd7a231',
    'tanh(x1) + atan(x2)': 'fbdd3afd28b39c16',
    'z^2 * p1 + p2/x2': '7ff8f2653cb2b332',
    'max(0, x1 - 0.5)^2': '40f309ccd0531ab1',
    'max(0, x1)': 'e927bd27935ebbe2',
    '1 + 0.1*p1 + 0.05*z': 'e927bd27935ebbe2',
    '1 + 0.2*sin(x1)*cos(x2)': '6bd53d6af226a65b',
    '2 + x1*z': '3161af664fb1f37b',
    '- -x1': 'e927bd27935ebbe2',
    '+-+x1': '5fa650808a247171',
    '-x1^2': '0f588d9e57d763b9',
    '2^-3^2': 'e927bd27935ebbe2',
    'x1 ** -2 * p3': '0ebf55d2da445042',
    '  e^x1 + pi': '0f17097ae462ad44',
    '1.5e-3*x1 + 2E+2*z - .5e1 + 3. + 1e3': 'e927bd27935ebbe2',
    'max(x1, x2, z, p1) - min(p2, 0.9, x3)^2': '97ea6abfe99cba4b',
    'abs(x1 - 1)*tan(x2)*cosh(z)*sinh(p1)': '72d1f66cfde67002',
}


@pytest.mark.parametrize("text", PIN_CORPUS)
def test_second_derivatives_pinned(text):
    # min/max and abs differentiate to derivative-only functions whose own
    # derivatives appear only here
    assert second_derivative_digest(text) == PIN_SECOND_DIGESTS[text]


@pytest.mark.parametrize(
    "text",
    ["x1 < 2", "x1[0]", "x1.real", "exp(x=1)", "exp(**x1)", "lambda: 1", "0x10", "1_0",
     "1j", "True", "...", "1.2.3", "1e+", "x3", "x1 # comment", "é1", "min(x1)",
     "exp(x1, x2)", "pi(1)", "x1 if x2 else z", "(x1, x2)", "x1 // 2", "",
     "-" * 1000 + "x1", "-" * 100000 + "x1", "+".join(["x1"] * 5000),
     "sign(x1)", "select_min(x1, x2)", "select_max(x1, x2)"],
    ids=lambda text: text[:16],
)
def test_rejected_with_line(text):
    with pytest.raises(ConfigError) as ei:
        parse_expression(text, n=2, line=7)
    assert "line 7" in str(ei.value)


@pytest.mark.parametrize(
    ("text", "col"),
    [("x1 + * 2", 6), ("x1^2 + x1.real", 8), ("  x1^2^x3", 8), ("x1 ^ 1_0", 6), ("x1^2 $", 6)],
)
def test_error_column_in_original_text(text, col):
    # '^' is parsed as '**' and leading blanks are stripped; columns count
    # the characters of the text as written
    with pytest.raises(ConfigError) as ei:
        parse_expression(text, n=2, line=3)
    assert f"line 3, col {col}]" in str(ei.value)
