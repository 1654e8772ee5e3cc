"""Small arithmetic expression language for problem data.

Expressions are arithmetic over the chart coordinates x1..xn, the solution
value z and the gradient components p1..pn.  They are parsed once into an
AST, evaluated vectorized over numpy arrays, and differentiated
symbolically (needed for exact Jacobian contributions of z- and
p-dependent coefficients).

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
"""

from __future__ import annotations

import ast
import functools
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


# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------

class _Node:
    def ev(self, env):
        raise NotImplementedError

    def diff(self, var):
        raise NotImplementedError


class _Num(_Node):
    def __init__(self, v):
        self.v = float(v)

    def ev(self, env):
        return self.v

    def diff(self, var):
        return _Num(0.0)

    def __repr__(self):
        return repr(self.v)


class _Var(_Node):
    def __init__(self, name):
        self.name = name

    def ev(self, env):
        return env[self.name]

    def diff(self, var):
        return _Num(1.0 if var == self.name else 0.0)

    def __repr__(self):
        return self.name


class _Bin(_Node):
    def __init__(self, op, a, b):
        self.op = op
        self.a = a
        self.b = b

    def ev(self, env):
        a, b = self.a.ev(env), self.b.ev(env)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if self.op == "/":
            return a / b
        # power: integer exponents taken exactly
        if np.isscalar(b) and float(b).is_integer():
            return a ** int(b)
        return a**b

    def diff(self, var):
        a, b, da, db = self.a, self.b, self.a.diff(var), self.b.diff(var)
        if self.op in ("+", "-"):
            return _Bin(self.op, da, db)
        if self.op == "*":
            return _Bin("+", _Bin("*", da, b), _Bin("*", a, db))
        if self.op == "/":
            num = _Bin("-", _Bin("*", da, b), _Bin("*", a, db))
            return _Bin("/", num, _Bin("*", b, b))
        # d(a^b) = a^b * (db * log a + b * da / a); constant exponent shortcut
        if isinstance(b, _Num):
            return _Bin("*", _Bin("*", _Num(b.v), _Bin("^", a, _Num(b.v - 1.0))), da)
        term = _Bin("+", _Bin("*", db, _Call("log", [a])), _Bin("/", _Bin("*", _Num(1.0), _Bin("*", b, da)), a))
        return _Bin("*", self, term)

    def __repr__(self):
        return f"({self.a!r} {self.op} {self.b!r})"


class _Neg(_Node):
    def __init__(self, a):
        self.a = a

    def ev(self, env):
        return -self.a.ev(env)

    def diff(self, var):
        return _Neg(self.a.diff(var))

    def __repr__(self):
        return f"(-{self.a!r})"


class _Call(_Node):
    def __init__(self, fn, args):
        self.fn = fn
        self.args = args

    def ev(self, env):
        return _FUNCTIONS[self.fn](*[a.ev(env) for a in self.args])

    def diff(self, var):
        if self.fn in ("min", "max"):
            a, b = self.args
            return _Select(self.fn, a, b, a.diff(var), b.diff(var))
        (a,) = self.args
        da = a.diff(var)
        chain = {
            "exp": lambda: _Call("exp", [a]),
            "log": lambda: _Bin("/", _Num(1.0), a),
            "sin": lambda: _Call("cos", [a]),
            "cos": lambda: _Neg(_Call("sin", [a])),
            "tan": lambda: _Bin("/", _Num(1.0), _Bin("^", _Call("cos", [a]), _Num(2.0))),
            "sqrt": lambda: _Bin("/", _Num(0.5), _Call("sqrt", [a])),
            "abs": lambda: _Sign(a),
            "tanh": lambda: _Bin("-", _Num(1.0), _Bin("^", _Call("tanh", [a]), _Num(2.0))),
            "sinh": lambda: _Call("cosh", [a]),
            "cosh": lambda: _Call("sinh", [a]),
            "atan": lambda: _Bin("/", _Num(1.0), _Bin("+", _Num(1.0), _Bin("*", a, a))),
        }[self.fn]()
        return _Bin("*", chain, da)

    def __repr__(self):
        return f"{self.fn}({', '.join(map(repr, self.args))})"


class _Select(_Node):
    """a.e. derivative of min/max: pick branch derivative by comparison.
    Produced only by differentiation, never by the parser."""

    def __init__(self, kind, a, b, da, db):
        self.kind = kind
        self.a = a
        self.b = b
        self.da = da
        self.db = db

    def ev(self, env):
        a, b = self.a.ev(env), self.b.ev(env)
        da, db = self.da.ev(env), self.db.ev(env)
        take_a = (a <= b) if self.kind == "min" else (a >= b)
        return np.where(take_a, da, db)

    def diff(self, var):
        return _Select(self.kind, self.a, self.b, self.da.diff(var), self.db.diff(var))

    def __repr__(self):
        return f"select[{self.kind}]({self.a!r}, {self.b!r}; {self.da!r}, {self.db!r})"


class _Sign(_Node):
    def __init__(self, a):
        self.a = a

    def ev(self, env):
        return np.sign(self.a.ev(env))

    def diff(self, var):
        return _Num(0.0)

    def __repr__(self):
        return f"sign({self.a!r})"


# ---------------------------------------------------------------------------
# parser: Python's, with a whitelist of its nodes
# ---------------------------------------------------------------------------

# the characters the language uses; Python would skip a comment and normalise
# a non-ASCII name, so every other character is rejected before parsing
_CHARACTERS = re.compile(r"[\w \t.+\-*/^(),]*", re.ASCII)
_DECIMAL = re.compile(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?", re.ASCII)
_BINARY = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "^"}


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

    def __init__(self, text: str, node: _Node, variables: set[str]):
        self.text = text
        self.node = node
        self.variables = variables

    def __call__(self, **env):
        with np.errstate(all="ignore"):
            return self.node.ev(env)

    def derivative(self, var: str) -> "Expression":
        return Expression(f"d({self.text})/d{var}", self.node.diff(var), self.variables)

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
            return _Bin(_BINARY[type(node.op)], convert(node.left), convert(node.right))
        if kind is ast.Constant:
            literal = source[node.col_offset:node.end_col_offset]
            if not _DECIMAL.fullmatch(literal):
                reject(node, f"{literal!r} is not a decimal number")
            return _Num(float(literal))
        if kind is ast.Name:
            if node.id in _CONSTANTS:
                return _Num(_CONSTANTS[node.id])
            if node.id not in allowed:
                reject(node, f"unknown variable {node.id!r}")
            used.add(node.id)
            return _Var(node.id)
        if kind is ast.UnaryOp and type(node.op) is ast.USub:
            return _Neg(convert(node.operand))
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
                return functools.reduce(lambda a, b: _Call(fn, [a, b]), args)
            if len(args) != 1:
                reject(node, f"{fn}() takes one argument")
            return _Call(fn, args)
        reject(node, f"unsupported syntax {source[node.col_offset:node.end_col_offset]!r}")

    try:
        node = convert(ast.parse(source, mode="eval").body)
    except SyntaxError as exc:
        raise ConfigError(f"{exc.msg} in expression {text!r}", line,
                          _column(text, (exc.offset or 1) - 1)) from None
    except (RecursionError, MemoryError):  # how Python's parser and ast report deep nesting
        raise ConfigError(f"expression nested too deeply: {text[:40]!r}...", line) from None
    return Expression(text, node, used)
