"""Small arithmetic expression language for problem data.

Expressions are arithmetic over the chart coordinates x1..xn, the solution
value z and the gradient components p1..pn, with the usual functions.  They
are parsed once into an AST, evaluated vectorized over numpy arrays, and
differentiated symbolically (needed for exact Jacobian contributions of
z- and p-dependent coefficients).

Grammar:
    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := ('+'|'-') unary | power
    power  := atom (('^'|'**') unary)?          (right associative)
    atom   := NUMBER | NAME | NAME '(' expr (',' expr)* ')' | '(' expr ')'

Functions: exp log sin cos tan sqrt abs tanh sinh cosh atan min max.
Constants: pi, e.
"""

from __future__ import annotations

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
    "min": None,  # variadic, handled specially
    "max": None,
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

    def names(self, out):
        pass


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

    def names(self, out):
        out.add(self.name)

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
        if self.op == "+":
            return _Bin("+", da, db)
        if self.op == "-":
            return _Bin("-", da, db)
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

    def names(self, out):
        self.a.names(out)
        self.b.names(out)

    def __repr__(self):
        return f"({self.a!r} {self.op} {self.b!r})"


class _Neg(_Node):
    def __init__(self, a):
        self.a = a

    def ev(self, env):
        return -self.a.ev(env)

    def diff(self, var):
        return _Neg(self.a.diff(var))

    def names(self, out):
        self.a.names(out)

    def __repr__(self):
        return f"(-{self.a!r})"


class _Call(_Node):
    def __init__(self, fn, args):
        self.fn = fn
        self.args = args

    def ev(self, env):
        vals = [a.ev(env) for a in self.args]
        if self.fn == "min":
            out = vals[0]
            for v in vals[1:]:
                out = np.minimum(out, v)
            return out
        if self.fn == "max":
            out = vals[0]
            for v in vals[1:]:
                out = np.maximum(out, v)
            return out
        return _FUNCTIONS[self.fn](vals[0])

    def diff(self, var):
        if self.fn in ("min", "max"):
            if len(self.args) != 2:
                # fold variadic min/max left-to-right before differentiating
                folded = self.args[0]
                for a in self.args[1:]:
                    folded = _Call(self.fn, [folded, a])
                return folded.diff(var)
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

    def names(self, out):
        for a in self.args:
            a.names(out)

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

    def names(self, out):
        for node in (self.a, self.b, self.da, self.db):
            node.names(out)

    def __repr__(self):
        return f"select[{self.kind}]({self.a!r}, {self.b!r}; {self.da!r}, {self.db!r})"


class _Sign(_Node):
    def __init__(self, a):
        self.a = a

    def ev(self, env):
        return np.sign(self.a.ev(env))

    def diff(self, var):
        return _Num(0.0)

    def names(self, out):
        self.a.names(out)

    def __repr__(self):
        return f"sign({self.a!r})"


# ---------------------------------------------------------------------------
# tokenizer / parser
# ---------------------------------------------------------------------------

def _tokenize(text, line_offset=0):
    toks = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        col = i + 1
        if c.isdigit() or (c == "." and i + 1 < len(text) and text[i + 1].isdigit()):
            j = i
            seen_e = False
            while j < len(text):
                cj = text[j]
                if cj.isdigit() or cj == ".":
                    j += 1
                elif cj in "eE" and not seen_e and j + 1 < len(text) and (text[j + 1].isdigit() or text[j + 1] in "+-"):
                    seen_e = True
                    j += 2
                else:
                    break
            toks.append(("num", text[i:j], col))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[i:j], col))
            i = j
        elif text.startswith("**", i):
            toks.append(("op", "^", col))
            i += 2
        elif c in "+-*/^(),":
            toks.append(("op", c, col))
            i += 1
        else:
            raise ConfigError(f"unexpected character {c!r} in expression", line_offset or None, col)
    toks.append(("end", "", len(text) + 1))
    return toks


class _Parser:
    def __init__(self, toks, line):
        self.toks = toks
        self.pos = 0
        self.line = line

    def peek(self):
        return self.toks[self.pos]

    def take(self, kind=None, value=None):
        t = self.toks[self.pos]
        if kind and t[0] != kind or (value is not None and t[1] != value):
            raise ConfigError(f"expected {value or kind}, found {t[1]!r}", self.line, t[2])
        self.pos += 1
        return t

    def parse(self):
        node = self.expr()
        t = self.peek()
        if t[0] != "end":
            raise ConfigError(f"unexpected trailing token {t[1]!r}", self.line, t[2])
        return node

    def expr(self):
        node = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.take()[1]
            node = _Bin(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            op = self.take()[1]
            node = _Bin(op, node, self.unary())
        return node

    def unary(self):
        t = self.peek()
        if t[:2] == ("op", "-"):
            self.take()
            return _Neg(self.unary())
        if t[:2] == ("op", "+"):
            self.take()
            return self.unary()
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek()[:2] == ("op", "^"):
            self.take()
            node = _Bin("^", node, self.unary())
        return node

    def atom(self):
        t = self.peek()
        if t[0] == "num":
            self.take()
            return _Num(float(t[1]))
        if t[0] == "name":
            self.take()
            name = t[1]
            if self.peek()[:2] == ("op", "("):
                if name not in _FUNCTIONS:
                    raise ConfigError(f"unknown function {name!r}", self.line, t[2])
                self.take()
                args = [self.expr()]
                while self.peek()[:2] == ("op", ","):
                    self.take()
                    args.append(self.expr())
                self.take("op", ")")
                if name not in ("min", "max") and len(args) != 1:
                    raise ConfigError(f"{name}() takes one argument", self.line, t[2])
                if name in ("min", "max") and len(args) < 2:
                    raise ConfigError(f"{name}() takes at least two arguments", self.line, t[2])
                return _Call(name, args)
            if name in _CONSTANTS:
                return _Num(_CONSTANTS[name])
            return _Var(name)
        if t[:2] == ("op", "("):
            self.take()
            node = self.expr()
            self.take("op", ")")
            return node
        raise ConfigError(f"unexpected token {t[1]!r}", self.line, t[2])


# ---------------------------------------------------------------------------
# public wrapper
# ---------------------------------------------------------------------------

class Expression:
    """Parsed expression bound to a variable universe."""

    def __init__(self, text: str, node: _Node, allowed: set[str]):
        self.text = text
        self.node = node
        used = set()
        node.names(used)
        bad = used - allowed
        if bad:
            raise ConfigError(f"unknown variable(s) {sorted(bad)} in expression {text!r}")
        self.variables = used

    def __call__(self, **env):
        return self.node.ev(env)

    def derivative(self, var: str) -> "Expression":
        d = Expression.__new__(Expression)
        d.text = f"d({self.text})/d{var}"
        d.node = self.node.diff(var)
        d.variables = self.variables
        return d

    def __repr__(self):
        return f"Expression({self.text!r})"


def parse_expression(text: str, n: int, allow_zp: bool = True, line: int | None = None) -> Expression:
    """Parse `text` over variables x1..xn (plus z, p1..pn when allow_zp)."""
    allowed = {f"x{i+1}" for i in range(n)}
    if allow_zp:
        allowed |= {"z"} | {f"p{i+1}" for i in range(n)}
    toks = _tokenize(text, line_offset=line or 0)
    node = _Parser(toks, line).parse()
    return Expression(text, node, allowed)
