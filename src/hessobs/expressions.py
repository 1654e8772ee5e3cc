"""Small arithmetic expression language for problem data.

Expressions are arithmetic over the chart coordinates x1..xn, the solution
value z and the gradient components p1..pn.  They are parsed once into a
tree of Python's own `ast` nodes, evaluated vectorized over numpy arrays,
and differentiated symbolically into another such tree (needed for exact
Jacobian contributions of z- and p-dependent coefficients).

The syntax is a subset of Python arithmetic, read by Python's own parser:
decimal numbers, those names and the constants pi and e, + - * / and **,
unary + and -, parentheses, and the functions exp log sin cos tan sqrt abs
tanh sinh cosh atan, and min max of two or more arguments (folded left to
right into binary calls).  `^` is a synonym for `**`, with Python's
precedence and right associativity: -x1^2 is -(x1^2), 2^-3^2 is
2^(-(3^2)).  Everything else is a ConfigError naming the config line and
the column in the text as written: comparisons, indexing, attributes,
keyword or starred arguments, lambdas, conditionals, // and %, hex, octal,
binary, underscored and complex literals, True/False/None, strings,
comments, non-ASCII characters and nesting deeper than Python's parser takes.
Where an expression is undefined (log or sqrt of a negative number, say) its
value is NaN or inf, without a numpy warning; callers check the values.
Constants are np.float64, so this holds for constant subexpressions too:
1/0 and 2^1e300 are inf, (0-8)^(1/3) is NaN.
"""

from __future__ import annotations

import ast
import functools
import operator
import re

import numpy as np

from .errors import ConfigError

__all__ = ["Expression", "parse_expression"]

_FUNCTIONS = {
    "exp": np.exp,
    "log": np.log,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "tanh": np.tanh,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "atan": np.arctan,
    "min": np.minimum,  # binary; the parser folds more arguments
    "max": np.maximum,
}

_CONSTANTS = {"pi": np.pi, "e": np.e}

# derivative-only functions, never accepted by the parser: the a.e.
# derivatives of min/max (the derivative of the branch taken) and of abs
_INTERNAL = {
    "select_min": lambda a, b, da, db: np.where(a <= b, da, db),
    "select_max": lambda a, b, da, db: np.where(a >= b, da, db),
    "sign": np.sign,
}
_EVAL = {**_FUNCTIONS, **_INTERNAL}


def _power(a, b):
    # integer exponents taken exactly
    if np.isscalar(b) and float(b).is_integer():
        return a ** int(b)
    return a**b


_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: _power}


# ---------------------------------------------------------------------------
# the tree: Python's ast nodes Constant (an np.float64), Name, UnaryOp(USub),
# BinOp over + - * / ** and Call (one-argument functions, binary min/max and
# the internal functions)
# ---------------------------------------------------------------------------

def _num(v):
    return ast.Constant(np.float64(v))


_bin = ast.BinOp  # _bin(left, op, right)


def _call(fn, *args):
    return ast.Call(ast.Name(fn), list(args), [])


_ADD, _SUB, _MUL, _DIV, _POW = ast.Add(), ast.Sub(), ast.Mult(), ast.Div(), ast.Pow()

# d fn(a) / da as a tree in a
_CHAIN = {
    "exp": lambda a: _call("exp", a),
    "log": lambda a: _bin(_num(1.0), _DIV, a),
    "sin": lambda a: _call("cos", a),
    "cos": lambda a: ast.UnaryOp(ast.USub(), _call("sin", a)),
    "tan": lambda a: _bin(_num(1.0), _DIV, _bin(_call("cos", a), _POW, _num(2.0))),
    "sqrt": lambda a: _bin(_num(0.5), _DIV, _call("sqrt", a)),
    "abs": lambda a: _call("sign", a),
    "tanh": lambda a: _bin(_num(1.0), _SUB, _bin(_call("tanh", a), _POW, _num(2.0))),
    "sinh": lambda a: _call("cosh", a),
    "cosh": lambda a: _call("sinh", a),
    "atan": lambda a: _bin(_num(1.0), _DIV, _bin(_num(1.0), _ADD, _bin(a, _MUL, a))),
}


def _ev(node, env):
    """Value of the tree `node` with the variables bound in `env`."""
    kind = type(node)
    if kind is ast.BinOp:
        return _BINARY[type(node.op)](_ev(node.left, env), _ev(node.right, env))
    if kind is ast.Name:
        return env[node.id]
    if kind is ast.Constant:
        return node.value
    if kind is ast.Call:
        return _EVAL[node.func.id](*[_ev(a, env) for a in node.args])
    return -_ev(node.operand, env)


def _diff(node, var):
    """Tree of the derivative of `node` in the variable `var`."""
    kind = type(node)
    if kind is ast.Constant:
        return _num(0.0)
    if kind is ast.Name:
        return _num(1.0 if node.id == var else 0.0)
    if kind is ast.UnaryOp:
        return ast.UnaryOp(node.op, _diff(node.operand, var))
    if kind is ast.BinOp:
        op, a, b = type(node.op), node.left, node.right
        da, db = _diff(a, var), _diff(b, var)
        if op is ast.Add or op is ast.Sub:
            return _bin(da, node.op, db)
        if op is ast.Mult:
            return _bin(_bin(da, _MUL, b), _ADD, _bin(a, _MUL, db))
        if op is ast.Div:
            return _bin(_bin(_bin(da, _MUL, b), _SUB, _bin(a, _MUL, db)), _DIV, _bin(b, _MUL, b))
        # d(a^b) = a^b * (db * log a + b * da / a); constant exponent shortcut,
        # with a^0 constant (0 * a^-1 would be NaN at a = 0)
        if type(b) is ast.Constant:
            if b.value == 0.0:
                return _num(0.0)
            return _bin(_bin(_num(b.value), _MUL, _bin(a, _POW, _num(b.value - 1.0))), _MUL, da)
        term = _bin(_bin(db, _MUL, _call("log", a)), _ADD,
                    _bin(_bin(_num(1.0), _MUL, _bin(b, _MUL, da)), _DIV, a))
        return _bin(node, _MUL, term)
    fn, args = node.func.id, node.args
    if fn in ("min", "max"):
        a, b = args
        return _call("select_" + fn, a, b, _diff(a, var), _diff(b, var))
    if fn in ("select_min", "select_max"):
        a, b, da, db = args
        return _call(fn, a, b, _diff(da, var), _diff(db, var))
    if fn == "sign":
        return _num(0.0)
    (a,) = args
    return _bin(_CHAIN[fn](a), _MUL, _diff(a, var))


# ---------------------------------------------------------------------------
# parser: Python's, with a whitelist of its nodes
# ---------------------------------------------------------------------------

# the characters the language uses; Python would skip a comment and normalise
# a non-ASCII name, so every other character is rejected before parsing
_CHARACTERS = re.compile(r"[\w \t.+\-*/^(),]*", re.ASCII)
_DECIMAL = re.compile(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?", re.ASCII)


def _column(text: str, offset: int) -> int:
    """1-based column in `text` of the 0-based `offset` into the parsed
    source, which is `text` without leading blanks and with '^' as '**'."""
    col = len(text) - len(text.lstrip())
    while offset > 0 and col < len(text):
        offset -= 2 if text[col] == "^" else 1
        col += 1
    return col + offset + 1


class Expression:
    """Parsed expression; `variables` are the names it reads."""

    def __init__(self, text: str, node: ast.expr, variables: set[str]):
        self.text = text
        self.node = node
        self.variables = variables

    def __call__(self, **env):
        with np.errstate(all="ignore"):
            return _ev(self.node, env)

    def derivative(self, var: str) -> "Expression":
        return Expression(f"d({self.text})/d{var}", _diff(self.node, var), self.variables)

    def __repr__(self):
        return f"Expression({self.text!r})"


@functools.lru_cache(maxsize=None)
def _variables(n: int, allow_zp: bool) -> frozenset:
    # cached: building the names costs as much as converting a short expression
    names = {f"x{i+1}" for i in range(n)}
    if allow_zp:
        names |= {"z"} | {f"p{i+1}" for i in range(n)}
    return frozenset(names)


def parse_expression(text: str, n: int, allow_zp: bool = True, line: int | None = None) -> Expression:
    """Parse `text` over variables x1..xn (plus z, p1..pn when allow_zp)."""
    allowed = _variables(n, allow_zp)
    end = _CHARACTERS.match(text).end()
    if end < len(text):
        raise ConfigError(f"unexpected character {text[end]!r} in expression {text!r}",
                          line, end + 1)
    source = text.replace("^", "**").lstrip()
    used = set()

    def reject(node, why):
        raise ConfigError(f"{why} in expression {text!r}", line, _column(text, node.col_offset))

    def convert(node):
        kind = type(node)
        if kind is ast.BinOp and type(node.op) in _BINARY:
            return _bin(convert(node.left), node.op, convert(node.right))
        if kind is ast.Constant:
            literal = source[node.col_offset:node.end_col_offset]
            if not _DECIMAL.fullmatch(literal):
                reject(node, f"{literal!r} is not a decimal number")
            return _num(float(literal))
        if kind is ast.Name:
            if node.id in _CONSTANTS:
                return _num(_CONSTANTS[node.id])
            if node.id not in allowed:
                reject(node, f"unknown variable {node.id!r}")
            used.add(node.id)
            return node
        if kind is ast.UnaryOp and type(node.op) is ast.USub:
            return ast.UnaryOp(node.op, convert(node.operand))
        if kind is ast.UnaryOp and type(node.op) is ast.UAdd:
            return convert(node.operand)
        if kind is ast.Call and type(node.func) is ast.Name and not node.keywords:
            fn = node.func.id
            if fn not in _FUNCTIONS:
                reject(node, f"unknown function {fn!r}")
            args = [convert(a) for a in node.args]
            if fn in ("min", "max"):
                if len(args) < 2:
                    reject(node, f"{fn}() takes at least two arguments")
                return functools.reduce(lambda a, b: _call(fn, a, b), args)
            if len(args) != 1:
                reject(node, f"{fn}() takes one argument")
            return _call(fn, *args)
        reject(node, f"unsupported syntax {source[node.col_offset:node.end_col_offset]!r}")

    try:
        node = convert(ast.parse(source, mode="eval").body)
    except SyntaxError as exc:
        raise ConfigError(f"{exc.msg} in expression {text!r}", line,
                          _column(text, (exc.offset or 1) - 1)) from None
    except (RecursionError, MemoryError):  # how Python's parser and ast report deep nesting
        raise ConfigError(f"expression nested too deeply: {text[:40]!r}...", line) from None
    return Expression(text, node, used)
