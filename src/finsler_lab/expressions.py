"""Tiny infix expression language for scenario files.

Grammar (precedence low to high: ``+ -`` < ``* /`` < unary ``-`` < ``^``)::

    expr   := term (("+" | "-") term)*
    term   := unary (("*" | "/") unary)*
    unary  := "-" unary | power
    power  := atom ("^" exponent)?          # right associative
    exponent := "-" exponent | power
    atom   := NUMBER | VAR | FUNC "(" expr ")" | "(" expr ")"

Variables are ``x``, ``y``, ``z``; functions are ``sqrt``, ``sin``, ``cos``,
``exp``, ``ln``. The printer emits text that reparses to the identical tree,
and ``diff`` produces symbolic derivatives used for every metric/field
derivative in the scenario pipeline.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EvalError, ParseError, ZeroVector

VARIABLES = ("x", "y", "z")
FUNCTIONS = ("sqrt", "sin", "cos", "exp", "ln")

_MATH = {"sqrt": math.sqrt, "sin": math.sin, "cos": math.cos, "exp": math.exp, "ln": math.log}

# printer/parser precedence levels
_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 5


class Expr:
    """Base class; concrete nodes are Const, Var, Neg, binary ops and calls."""

    precedence = _PREC_ATOM

    def __str__(self):
        return _print(self)

    def diff(self, var):
        return _diff(self, var)

    def variables(self):
        out = set()
        _collect_vars(self, out)
        return out

    # arithmetic on trees and floats builds trees by the folding constructors of ``diff``
    def __add__(self, other):
        return _add(self, _tree(other))

    def __radd__(self, other):
        return _add(_tree(other), self)

    def __sub__(self, other):
        return _sub(self, _tree(other))

    def __rsub__(self, other):
        return _sub(_tree(other), self)

    def __mul__(self, other):
        return _mul(self, _tree(other))

    def __rmul__(self, other):
        return _mul(_tree(other), self)

    def __truediv__(self, other):
        return _div(self, _tree(other))

    def __rtruediv__(self, other):
        return _div(_tree(other), self)

    def __neg__(self):
        return _neg(self)


@dataclass(frozen=True)
class Const(Expr):
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr
    precedence = _PREC_NEG


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr
    precedence = _PREC_ADD


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr
    precedence = _PREC_ADD


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr
    precedence = _PREC_MUL


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr
    precedence = _PREC_MUL


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: Expr
    precedence = _PREC_POW


@dataclass(frozen=True)
class Call(Expr):
    func: str
    arg: Expr


# ---------------------------------------------------------------------------
# tokenizer / parser


@dataclass
class _Token:
    kind: str  # number | name | op
    text: str
    line: int
    column: int


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            start = i
            while i < n and (text[i].isdigit() or text[i] == "."):
                i += 1
            if i < n and text[i] in "eE":
                j = i + 1
                if j < n and text[j] in "+-":
                    j += 1
                if j < n and text[j].isdigit():
                    i = j
                    while i < n and text[i].isdigit():
                        i += 1
            tok = text[start:i]
            try:
                value = float(tok)
            except ValueError:
                raise ParseError(f"malformed number '{tok}'", line, col) from None
            if math.isinf(value):
                raise ParseError(f"number '{tok}' overflows a float", line, col)
            tokens.append(_Token("number", tok, line, col))
            col += i - start
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(_Token("name", text[start:i], line, col))
            col += i - start
            continue
        if ch in "+-*/^()":
            tokens.append(_Token("op", ch, line, col))
            i += 1
            col += 1
            continue
        if ch == "×":  # accept unicode times/divide as aliases
            tokens.append(_Token("op", "*", line, col))
            i += 1
            col += 1
            continue
        if ch == "÷":
            tokens.append(_Token("op", "/", line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character '{ch}'", line, col)
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is not None:
            self.pos += 1
        return tok

    def fail(self, message):
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else None
            line = last.line if last else 1
            col = last.column + len(last.text) if last else 1
            raise ParseError(message + " (unexpected end of input)", line, col)
        raise ParseError(message + f", got '{tok.text}'", tok.line, tok.column)

    def expect(self, text):
        tok = self.peek()
        if tok is None or tok.text != text:
            self.fail(f"expected '{text}'")
        return self.next()

    def parse(self):
        node = self.expr()
        if self.peek() is not None:
            self.fail("trailing input after expression")
        return node

    def expr(self):
        node = self.term()
        while (tok := self.peek()) is not None and tok.text in "+-":
            self.next()
            rhs = self.term()
            node = Add(node, rhs) if tok.text == "+" else Sub(node, rhs)
        return node

    def term(self):
        node = self.unary()
        while (tok := self.peek()) is not None and tok.text in "*/":
            self.next()
            rhs = self.unary()
            node = Mul(node, rhs) if tok.text == "*" else Div(node, rhs)
        return node

    def unary(self):
        tok = self.peek()
        if tok is not None and tok.text == "-":
            self.next()
            inner = self.unary()
            # fold a literal negation so printing round-trips structurally
            if isinstance(inner, Const):
                return Const(-inner.value)
            return Neg(inner)
        return self.power()

    def power(self):
        base = self.atom()
        tok = self.peek()
        if tok is not None and tok.text == "^":
            self.next()
            return Pow(base, self.exponent())
        return base

    def exponent(self):
        tok = self.peek()
        if tok is not None and tok.text == "-":
            self.next()
            inner = self.exponent()
            if isinstance(inner, Const):
                return Const(-inner.value)
            return Neg(inner)
        return self.power()

    def atom(self):
        tok = self.peek()
        if tok is None:
            self.fail("expected a value")
        if tok.kind == "number":
            self.next()
            return Const(float(tok.text))
        if tok.kind == "name":
            self.next()
            if tok.text in VARIABLES:
                return Var(tok.text)
            if tok.text in FUNCTIONS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return Call(tok.text, arg)
            raise ParseError(f"unknown identifier '{tok.text}'", tok.line, tok.column)
        if tok.text == "(":
            self.next()
            node = self.expr()
            self.expect(")")
            return node
        self.fail("expected a number, variable or '('")


def parse_expression(text):
    """Parse source text into an expression tree."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression", 1, 1)
    return _Parser(tokens).parse()


# ---------------------------------------------------------------------------
# printer


def _paren(node):
    return f"({_print(node)})"


def _print(node):
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"{node.func}({_print(node.arg)})"
    if isinstance(node, Neg):
        inner = _paren(node.arg) if node.arg.precedence < _PREC_NEG else _print(node.arg)
        return f"-{inner}"
    if isinstance(node, (Add, Sub)):
        op = "+" if isinstance(node, Add) else "-"
        left = _paren(node.left) if node.left.precedence < _PREC_ADD else _print(node.left)
        # a same-precedence right operand needs parens, otherwise
        # left-associative reparsing regroups the tree
        right = (
            _paren(node.right)
            if node.right.precedence <= _PREC_ADD
            else _print(node.right)
        )
        return f"{left} {op} {right}"
    if isinstance(node, (Mul, Div)):
        op = "*" if isinstance(node, Mul) else "/"
        left = _paren(node.left) if node.left.precedence < _PREC_MUL else _print(node.left)
        right = (
            _paren(node.right)
            if node.right.precedence <= _PREC_MUL
            else _print(node.right)
        )
        return f"{left} {op} {right}"
    if isinstance(node, Pow):
        base_atomic = isinstance(node.base, (Var, Call)) or (
            isinstance(node.base, Const) and node.base.value >= 0
        )
        base = _print(node.base) if base_atomic else _paren(node.base)
        # the exponent may be a power chain (right-assoc), a unary minus,
        # or an atom; anything weaker needs parens
        expo_ok = node.exponent.precedence >= _PREC_NEG
        expo = _print(node.exponent) if expo_ok else _paren(node.exponent)
        return f"{base}^{expo}"
    raise TypeError(f"unknown node {node!r}")


# ---------------------------------------------------------------------------
# evaluation


def _real_pow(exponent):
    """``**`` to an integral constant, else math.pow, which raises where ``**`` turns complex."""
    return operator.pow if _is_const(exponent) and exponent.value.is_integer() else math.pow


def _collect_vars(node, out):
    if isinstance(node, Var):
        out.add(node.name)
    elif isinstance(node, Neg):
        _collect_vars(node.arg, out)
    elif isinstance(node, (Add, Sub, Mul, Div)):
        _collect_vars(node.left, out)
        _collect_vars(node.right, out)
    elif isinstance(node, Pow):
        _collect_vars(node.base, out)
        _collect_vars(node.exponent, out)
    elif isinstance(node, Call):
        _collect_vars(node.arg, out)


# ---------------------------------------------------------------------------
# smart constructors used by diff (light constant folding only)


def _tree(value):
    return value if isinstance(value, Expr) else Const(value)


def _is_const(node, value=None):
    return isinstance(node, Const) and (value is None or node.value == value)


def _add(a, b):
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    return Add(a, b)


def _sub(a, b):
    if _is_const(b, 0.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    if _is_const(a, 0.0):
        return _neg(b)
    return Sub(a, b)


def _neg(a):
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def _mul(a, b):
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    return Mul(a, b)


def _div(a, b):
    if _is_const(a, 0.0):
        return Const(0.0)
    if _is_const(b, 1.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const) and b.value != 0.0:
        return Const(a.value / b.value)
    return Div(a, b)


def _pow(a, b):
    if _is_const(b, 1.0):
        return a
    if _is_const(b, 0.0):
        return Const(1.0)
    if isinstance(a, Const) and isinstance(b, Const):
        try:
            return Const(_real_pow(b)(a.value, b.value))
        except (ValueError, OverflowError, ZeroDivisionError):
            return Pow(a, b)
    return Pow(a, b)


def _diff(node, var):
    if isinstance(node, Const):
        return Const(0.0)
    if isinstance(node, Var):
        return Const(1.0 if node.name == var else 0.0)
    if isinstance(node, Neg):
        return _neg(_diff(node.arg, var))
    if isinstance(node, Add):
        return _add(_diff(node.left, var), _diff(node.right, var))
    if isinstance(node, Sub):
        return _sub(_diff(node.left, var), _diff(node.right, var))
    if isinstance(node, Mul):
        return _add(
            _mul(_diff(node.left, var), node.right),
            _mul(node.left, _diff(node.right, var)),
        )
    if isinstance(node, Div):
        num = _sub(
            _mul(_diff(node.left, var), node.right),
            _mul(node.left, _diff(node.right, var)),
        )
        return _div(num, _pow(node.right, Const(2.0)))
    if isinstance(node, Pow):
        db = _diff(node.base, var)
        de = _diff(node.exponent, var)
        if _is_const(de, 0.0):
            # d(u^c) = c * u^(c-1) * u'
            c = node.exponent
            lowered = _pow(node.base, _sub(c, Const(1.0)))
            return _mul(_mul(c, lowered), db)
        # general case via u^v * (v' ln u + v u' / u)
        term = _add(
            _mul(de, Call("ln", node.base)),
            _mul(node.exponent, _div(db, node.base)),
        )
        return _mul(node, term)
    if isinstance(node, Call):
        inner = _diff(node.arg, var)
        if node.func == "sqrt":
            return _div(inner, _mul(Const(2.0), node))
        if node.func == "sin":
            return _mul(Call("cos", node.arg), inner)
        if node.func == "cos":
            return _neg(_mul(Call("sin", node.arg), inner))
        if node.func == "exp":
            return _mul(node, inner)
        if node.func == "ln":
            return _div(inner, node.arg)
    raise TypeError(f"unknown node {node!r}")


# ---------------------------------------------------------------------------
# compilation to plain Python for hot loops


def _codegen(node):
    if isinstance(node, Const):
        return f"({node.value!r})"
    if isinstance(node, Var):
        return f"_c{VARIABLES.index(node.name)}"
    if isinstance(node, _Local):
        return node.name
    if isinstance(node, Neg):
        return f"(-{_codegen(node.arg)})"
    if isinstance(node, Add):
        return f"({_codegen(node.left)} + {_codegen(node.right)})"
    if isinstance(node, Sub):
        return f"({_codegen(node.left)} - {_codegen(node.right)})"
    if isinstance(node, Mul):
        return f"({_codegen(node.left)} * {_codegen(node.right)})"
    if isinstance(node, Div):
        return f"({_codegen(node.left)} / {_codegen(node.right)})"
    if isinstance(node, Pow):
        form = "({} ** {})" if _real_pow(node.exponent) is operator.pow else "_fpow({}, {})"
        return form.format(_codegen(node.base), _codegen(node.exponent))
    if isinstance(node, Call):
        return f"_{node.func}({_codegen(node.arg)})"
    raise TypeError(f"unknown node {node!r}")


def compile_expression(node, dim):
    """Compile a tree to a checked ``f(coords) -> float`` callable.

    A sequence of trees compiles to one generated function returning a tuple
    of floats, one per tree, so a whole field costs one call per point, and
    ``compile_rows`` gives it at a stack of points in one call. The function is
    generated on the first call; a variable outside the dimension is refused here.
    A tuple of coordinates is taken as it is, anything else as a float array.
    """
    single = isinstance(node, Expr)
    nodes = _within(node, dim)
    generated = functools.cache(lambda: _generate(nodes, dim))

    def wrapped(coords):
        """The values at coords, checked: an entry that raises or is not finite is named."""
        try:
            # plain floats: numpy scalars turn 0/0 into nan-plus-warning
            # instead of raising, and are slower in the integrator loops
            val = generated()(*(coords if type(coords) is tuple
                                else np.asarray(coords, dtype=float).tolist()))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            # on the error path only: each entry alone, to name those that raise
            bad = nodes if single else [e for e in nodes if _raises(e, dim, coords)]
            raise EvalError(f"cannot evaluate {_at(bad, coords)}: {exc}") from exc
        # a sum is finite if every term is (and may overflow when all are): one test for all
        if not math.isfinite(sum(val)):
            bad = [e for e, v in zip(nodes, val) if not math.isfinite(v)]
            if bad:
                raise EvalError(f"non-finite value for {_at(bad, coords)}")
        return val[0] if single else val

    return wrapped


def compile_rows(node, dim):
    """The row form of ``compile_expression``: ``rows(points)`` is the (k, m) array of the
    m trees at the k rows of points, each value bitwise the one-point value, from one list
    comprehension generated on the first call; None where a tree is undefined or not finite
    at some row, which only the one-point calls name."""
    nodes = _within(node, dim)
    generated = functools.cache(lambda: _generate(nodes, dim, rows=True))

    def rows(points):
        try:
            values = np.array(generated()(np.asarray(points, dtype=float).tolist()), dtype=float)
        except (ValueError, ZeroDivisionError, OverflowError):
            return None
        return values.reshape(len(values), len(nodes)) if np.isfinite(values).all() else None

    return rows


def _within(node, dim):
    """The tree, or the sequence of trees, as a tuple; refused if one reads beyond dim."""
    nodes = (node,) if isinstance(node, Expr) else tuple(node)
    extra = set().union(*(e.variables() for e in nodes)) - set(VARIABLES[:dim])
    if extra:
        raise EvalError(f"expression uses {sorted(extra)} outside dimension {dim}")
    return nodes


def _generate(nodes, dim, rows=False):
    """The trees' values at the coordinates, or with ``rows`` at each point of a list."""
    args = "".join(f"_c{i}, " for i in range(dim))
    values = "(" + "".join(f"{_codegen(e)}, " for e in nodes) + ")"
    head, body = ("_points", f"[{values} for {args}in _points]") if rows else (args, values)
    return _kernel("_generated", head, [f"return {body}"])


# every generated function by its source text: a chart built again, as each CLI call builds
# its charts, generates the same texts and runs no exec
_KERNELS = {}


def _kernel(name, params, lines):
    """The function ``name(params)`` with the body lines, over the math and error names;
    generated once per process for each text."""
    source = f"def {name}({params}):\n" + "".join(f"    {s}\n" for s in lines)
    if source not in _KERNELS:
        # imported here, not at the top: metrics imports this module
        from .metrics import _not_positive_definite, _solve_spd, _strong_wind

        namespace = {f"_{k}": fn for k, fn in _MATH.items()} | dict(
            _fpow=math.pow, _isfinite=math.isfinite, _ZeroVector=ZeroVector,
            _DimensionMismatch=DimensionMismatch, _solve_spd=_solve_spd,
            _strong_wind=_strong_wind, _not_positive_definite=_not_positive_definite)
        exec(source, namespace)  # noqa: S102
        _KERNELS[source] = namespace[name]
    return _KERNELS[source]


def _at(nodes, coords):
    """The text 'entry, entry' at (x, y), with the point as plain floats."""
    return f"'{', '.join(map(str, nodes))}' at {tuple(np.asarray(coords, dtype=float).tolist())}"


def _raises(node, dim, coords):
    """Whether the tree alone raises at coords, rather than turning non-finite."""
    try:
        compile_expression(node, dim)(coords)
    except EvalError as exc:
        return exc.__cause__ is not None
    return False


# ---------------------------------------------------------------------------
# the Randers spray stage and Legendre inverse, generated straight-line per chart


@dataclass(frozen=True)
class _Local(Expr):
    """A local variable of a generated kernel."""

    name: str


class _Lines(list):
    """The body lines of a generated kernel."""

    def let(self, name, value):
        """Assign a tree, or nested lists of them, to locals named by index path and return
        the locals; a constant or a local is returned as it is, unassigned."""
        if not isinstance(value, Expr):
            return [self.let(f"{name}{'_' * name[-1].isdigit()}{i}", v)
                    for i, v in enumerate(value)]
        if isinstance(value, (Const, _Local)):
            return value
        self.append(f"{name} = {_codegen(value)}")
        return _Local(name)


def _entries(lines, names, trees, read, dim, point="x"):
    """The kernel's input entries as trees, named by ``names``.

    Without ``trees`` they are the locals that the reader call ``read`` unpacks into. With
    the entries' trees, a finite constant is itself, and every other entry is a local
    evaluated inline at the coordinates, by the text the checked reader evaluates; where
    one raises or is not finite, ``read`` runs, to raise the reader's error. The
    coordinates are unpacked from the local ``point``, or, where it is None, the kernel has
    unpacked them.
    """
    if trees is None:
        lines.append(f"{', '.join(names)}, = {read}")
        return [_Local(name) for name in names]
    inline = {name: _codegen(t) for name, t in zip(names, trees)
              if not (isinstance(t, Const) and math.isfinite(t.value))}
    if inline:
        if point is not None:
            lines.append(f"{''.join(f'_c{i}, ' for i in range(dim))}= {point}")
        lines += ["try:",
                  *(f"    {name} = {text}" for name, text in inline.items()),
                  "except (ValueError, ZeroDivisionError, OverflowError):", f"    {read}",
                  "    raise", f"if not _isfinite({' + '.join(inline)}):", f"    {read}"]
    return [_Local(name) if name in inline else t for name, t in zip(names, trees)]


def _dot(u, v):
    """The sum of the products, left to right."""
    total = None
    for a, b in zip(u, v):
        total = a * b if total is None else total + a * b
    return total


def _root(node):
    """The square root of a tree; of a constant, taken now (where it is refused if negative)."""
    if isinstance(node, Const) and node.value >= 0.0:
        return Const(math.sqrt(node.value))
    return Call("sqrt", node)


def _refuse(error, bad="", unless=()):
    """A check's lines: raise the error where the comparison ``bad`` holds or not all of
    ``unless`` hold. NaN passes ``bad`` and fails ``unless``."""
    return [f"if {bad or 'not (' + ' and '.join(unless) + ')'}:", f"    raise {error}"]


def _solve(lines, g, r, point):
    """Lines that solve g a = r as ``metrics._solve_spd`` solves it, returning a as trees: in
    2-D its closed form, in 1-D its Cholesky factor L = sqrt(g00) and its two substitutions,
    each with its positivity check inline; in 3-D a call. ``point`` is the text of the point
    that a refusal names."""
    text = _codegen
    if len(r) == 2:
        (g00, g01), (g10, g11) = g
        det = lines.let("det", g00 * g11 - g01 * g10)
        lines += _refuse(f"_not_positive_definite({point})", unless=(f"{text(g00)} > 0.0",
                                                                     f"{text(det)} > 0.0"))
        return lines.let("a", [(g11 * r[0] - g01 * r[1]) / det, (g00 * r[1] - g10 * r[0]) / det])
    if len(r) == 1:
        lines += _refuse(f"_not_positive_definite({point})",
                         unless=(f"{text(g[0][0])} > 0.0",))
        L = lines.let("L", _root(g[0][0]))
        # each substitution times the reciprocal of L, as _solve_spd takes it
        return lines.let("a", [r[0] * (1.0 / L) * (1.0 / L)])
    rows = "".join(f"({''.join(f'{text(v)}, ' for v in row)}), " for row in g)
    lines += [f"a = _solve_spd(({rows}), ({''.join(f'{text(v)}, ' for v in r)}), {point})",
              f"{''.join(f'a{i}, ' for i in range(len(r)))}= a.tolist()"]
    return [_Local(f"a{i}") for i in range(len(r))]


# the stages and inverses by dimension and the texts of their entries' trees
_GENERATED = {}


def _kept(generator):
    """``generator(n, trees)``, kept by the dimension and the texts of the trees, which tell
    a constant 0.0 from -0.0 where the trees' == does not: a chart built again, as each CLI
    call builds its charts, gets its kernels without building their texts."""

    @functools.wraps(generator)
    def kept(n, trees=None):
        key = (generator.__name__, n, trees and tuple(map(_codegen, trees)))
        if key not in _GENERATED:
            _GENERATED[key] = generator(n, trees)
        return _GENERATED[key]

    return kept


@_kept
def randers_stage(n, trees=None):
    """The Randers spray on the march state of dimension n, straight-line on plain floats.

    ``stage(fields, z) -> dz`` takes the state z = (x, y, s), the point x, the vector y and
    the arc length s, as one tuple of 2n + 1 floats and returns its derivative
    dz = (y, a, F), the acceleration a and the speed F, as another. ``fields`` is the
    checked reader of the Zermelo data at x as one flat tuple: h and W, then their
    x-derivatives dh[k][i][j] and dW[k][i], each row-major. It is the closed form of
    ``metrics`` with every index loop unrolled, and in 1-D and 2-D the solve with its
    positivity check inline; x itself, ``z[:n]``, is taken only where the stage reads
    ``fields`` or raises, to name the point.

    Without ``trees`` the stage reads every entry through ``fields(x)``. Given a chart's
    trees of these entries, in this order, it is the chart's own: the entries are inline
    (``_entries``), and the arithmetic folds their constants, by the constructors of
    ``diff``: a term with a constant factor 0 is dropped, a factor or divisor 1 too, and an
    operation on two constants is taken now. Every other operation is kept, in its order,
    so a finite result is the generic stage's up to the sign of an exact zero. The text is
    built on each call and its function generated once (``_kernel``).
    """
    from .metrics import WIND_NORM_MARGIN

    N, x = range(n), f"z[:{n}]"
    lines = _Lines([f"{''.join(f'_c{i}, ' for i in N)}{''.join(f'y{i}, ' for i in N)}_ = z"])
    y = [_Local(f"y{i}") for i in N]
    names = [*(f"h{i}_{j}" for i in N for j in N), *(f"w{i}" for i in N),
             *(f"dh{k}_{i}_{j}" for k in N for i in N for j in N),
             *(f"dw{k}_{i}" for k in N for i in N)]
    entries = iter(_entries(lines, names, trees, f"fields({x})", n, point=None))
    h, w = [[next(entries) for _ in N] for _ in N], [next(entries) for _ in N]
    dh = [[[next(entries) for _ in N] for _ in N] for _ in N]
    dw = [[next(entries) for _ in N] for _ in N]
    let, text = lines.let, _codegen
    wl = let("wl", [_dot(h[i], w) for i in N])
    s = let("s", _dot(w, wl))
    lines += _refuse(f"_strong_wind({text(s)}, {x})",
                     bad=f"{text(s)} >= {1.0 - WIND_NORM_MARGIN!r}")
    lam = let("lam", 1.0 - s)
    lam2 = let("lam2", lam * lam)
    hy = let("hy", [_dot(h[i], y) for i in N])
    wly = let("wly", _dot(wl, y))
    ay = let("ay", [hy[i] / lam + wl[i] * wly / lam2 for i in N])
    alpha2 = let("alpha2", _dot(y, ay))
    lines += _refuse(f"_not_positive_definite({x})", bad=f"{text(alpha2)} < 0.0")
    lines += _refuse("_ZeroVector('spray undefined on the zero section')",
                     bad=f"{text(alpha2)} <= 0.0")
    alpha = let("alpha", _root(alpha2))
    F = let("F", alpha - wly / lam)
    # ell = A y / alpha and m = ell + b, the y-gradient of F
    e = let("e", [ay[i] / alpha for i in N])
    m = let("m", [e[i] - wl[i] / lam for i in N])
    # x-derivatives of the Zermelo data, k first: dwl[k] = d(HW)/dx_k,
    # dlam[k] = dlam/dx_k, q[k] = dA[k] y without materializing dA
    dhw = let("dhw", [[_dot(dh[k][i], w) for i in N] for k in N])
    dwl = let("dwl", [[dhw[k][i] + _dot(dw[k], [row[i] for row in h]) for i in N] for k in N])
    dlam = let("dlam", [-(_dot(w, dhw[k]) + 2.0 * _dot(dw[k], wl)) for k in N])
    c = let("c", [dlam[k] / lam2 for k in N])
    dwly = let("dwly", [_dot(dwl[k], y) for k in N])
    p = let("p", [dwly[k] / lam2 - 2.0 * wly * dlam[k] / (lam2 * lam) for k in N])
    q = let("q", [[wl[i] * p[k] + dwl[k][i] * wly / lam2 - hy[i] * c[k]
                   + _dot(dh[k][i], y) / lam for i in N] for k in N])
    # dF[k] = dF/dx_k; r = (1/2) dF2_dx - (1/2) (d2F2_dydx) y
    dalpha = let("dalpha", [_dot(q[k], y) / (2.0 * alpha) for k in N])
    dF = let("dF", [dalpha[k] - dwly[k] / lam + wly * c[k] for k in N])
    dalpha_y = let("dalpha_y", _dot(dalpha, y) / alpha)
    yc = let("yc", _dot(y, c))
    dFy = let("dFy", _dot(dF, y))
    r = let("r", [F * dF[i] - m[i] * dFy - F * (_dot(y, [qk[i] for qk in q]) / alpha
                                                - e[i] * dalpha_y
                                                - _dot(y, [dwlk[i] for dwlk in dwl]) / lam
                                                + wl[i] * yc) for i in N])
    ratio = let("ratio", F / alpha)
    g = let("g", [[m[i] * m[j] + ratio * (h[i][j] / lam + wl[i] * wl[j] / lam2 - e[i] * e[j])
                   for j in N] for i in N])
    a = _solve(lines, g, r, x)
    lines.append(f"return ({''.join(f'{text(v)}, ' for v in (*y, *a, F))})")
    return _kernel("randers_stage", "fields, z", lines)


@_kept
def zermelo_inverse(n, trees=None):
    """The closed-form Legendre inverse of dimension n, straight-line on plain floats.

    ``inverse(x, w, zermelo) -> (v, F*(w), h^-1 w)`` takes the point x as a tuple of n
    floats, the covector w as a sequence of floats and ``zermelo``, the checked reader of
    the flat (h, W) at x, h row-major, and returns v and h^-1 w as tuples of floats;
    v = F*(w) (h^-1 w / |w|_h* + W). It refuses a strong wind, a w of another length, an h
    not positive definite and w = 0, in this order. Without ``trees`` it reads every entry
    through ``zermelo(x)``; given a chart's trees of (h, W) it is the chart's own, inline
    and folded as ``randers_stage``. It is the one Legendre inverse of a metric: the
    co-norms of stacked rows (``Metric.co_norms``) call it once per row.
    """
    from .metrics import WIND_NORM_MARGIN

    N = range(n)
    lines, text = _Lines(), _codegen
    names = [*(f"h{i}_{j}" for i in N for j in N), *(f"W{i}" for i in N)]
    entries = _entries(lines, names, trees, "zermelo(x)", n)
    h, W = [entries[i * n:(i + 1) * n] for i in N], entries[n * n:]
    # h(W, W) as metrics._zermelo_data sums it, through the entries of h W
    s = lines.let("s", _dot(W, [_dot(row, W) for row in h]))
    lines += _refuse(f"_strong_wind({text(s)}, x)", bad=f"{text(s)} >= {1.0 - WIND_NORM_MARGIN!r}")
    r = [_Local(f"r{i}") for i in N]
    shape = f"covector shape ({{len(w)}},) != metric dimension {n}"
    lines += [f"if len(w) != {n}:", f"    raise _DimensionMismatch(f'{shape}')",
              f"{''.join(f'r{i}, ' for i in N)}= w"]
    a = _solve(lines, h, r, "x")
    dual2 = lines.let("dual2", _dot(r, a))
    lines += _refuse("_ZeroVector('Legendre inverse undefined for the zero covector')",
                     bad=f"{text(dual2)} <= 0.0")
    dual = lines.let("dual", _root(dual2))
    F = lines.let("F", dual + _dot(r, W))
    v = "".join(f"{text(F * (a[i] / dual + W[i]))}, " for i in N)
    lines.append(f"return ({v}), {text(F)}, ({''.join(f'{text(c)}, ' for c in a)})")
    return _kernel("zermelo_inverse", "x, w, zermelo", lines)
