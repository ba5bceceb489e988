"""Expression grammar for operators on the dual space.

Tokens: coordinates x<i>, y<i>; derivatives dx<i>, dy<i>; named operators
E, Delta, Q (multiplication by the dual form), XX<i>, YY<i>, Dop<i><j>,
Bop<i><j>, Cop<i><j>; integer literals; + - * ^ ( ).  Whitespace is
insignificant.  Precedence: ^ binds tightest, then *, then + and -;
multiplication is noncommutative and kept left-to-right.

A single index may have any number of digits (XX10).  An index pair is
either two single digits (Dop12) or two numbers joined by an underscore
(Dop1_10, Dop1_2); a pair of single digits followed by a further digit
(Dop110) is a ParseError.  The printers write the underscore only when an
index is >= 10, so text for k <= 9 never contains one.

``tokenize`` returns (kind, indices, position) triples, then
("end", (), len(src)).  The kind is the name of the group that matched, or
the operator character; the indices are ints; the position is where the
match starts, whitespace before the token included.  Each token takes one
regex match: the kind is ``lastgroup`` and the index fields are the groups
that follow group ``lastindex``, so every alternative keeps its index
groups right after its named group.  Bad input raises ParseError (with
``pos`` and ``expected``) or IndexOutOfRange.

An expression of more than ``MAX_TOKENS`` tokens is a ParseError before
any node is built: the parser and every walker of the tree recurse once
per nesting level, and a long flat sum still builds a left-deep tree.

The AST is a tree of tuples:
  ("int", n), ("var", name, i), ("gen", name, *indices),
  ("add", a, b), ("sub", a, b), ("mul", a, b), ("pow", a, n), ("neg", a).
"""

from __future__ import annotations

import re
from operator import add, mul, sub

from .coneops import GenWord, index_text, letter_op
from .poly import q_form, signed_text
from .weyl import WeylOp, euler_op, laplacian_op


MAX_TOKENS = 256


class UsageError(ValueError):
    """Bad input from the user, as opposed to a failure of the engine: the
    CLI exits 2 on it.  NotGeneratorWord, suites.UnknownSuite and a bad
    QUADRICOPS_MAX_DEGREE are usage errors."""


class ParseError(ValueError):
    def __init__(self, message: str, pos: int, expected=()):
        super().__init__(f"{message} at position {pos}")
        self.pos = pos
        self.expected = tuple(expected)


class IndexOutOfRange(IndexError):
    """An index outside 1..k, or a Bop/Cop pair that is not increasing."""


_PAIR = r"(?:(\d+)_(\d+)|(\d)(\d))"
_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<XX>XX(\d+))|(?P<YY>YY(\d+))|"
    rf"(?P<Dop>Dop{_PAIR})|(?P<Bop>Bop{_PAIR})|(?P<Cop>Cop{_PAIR})|"
    r"(?P<dx>dx(\d+))|(?P<dy>dy(\d+))|"
    r"(?P<x>x(\d+))|(?P<y>y(\d+))|"
    r"(?P<E>E)|(?P<Delta>Delta)|(?P<Q>Q)|"
    r"(?P<int>\d+)|(?P<op>[+\-*^()])"
    r")")


def tokenize(src: str, k: int):
    pos = 0
    out = []
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}",
                             pos, expected=("token",))
        if len(out) == MAX_TOKENS:
            raise ParseError(f"expression has more than {MAX_TOKENS} tokens",
                             m.start(), expected=("end",))
        kind, g, pos = m.lastgroup, m.lastindex, m.end()
        if kind in ("XX", "YY", "dx", "dy", "x", "y"):
            i = int(m.group(g + 1))
            if not 1 <= i <= k:
                raise IndexOutOfRange(
                    f"index {i} out of range for k={k} in {m.group().strip()!r}")
            out.append((kind, (i,), m.start()))
        elif kind in ("Dop", "Bop", "Cop"):
            if src[pos:pos + 1].isdigit():
                raise ParseError(
                    f"digit after {m.group().strip()!r}; write the pair as "
                    f"{kind}<i>_<j> when an index has two digits",
                    pos, expected=("_",))
            i, j, i1, j1 = m.group(g + 1, g + 2, g + 3, g + 4)
            i, j = (int(i), int(j)) if i is not None else (int(i1), int(j1))
            if not (1 <= i <= k and 1 <= j <= k):
                raise IndexOutOfRange(
                    f"indices ({i},{j}) out of range for k={k}")
            if kind != "Dop" and not i < j:
                raise IndexOutOfRange(f"{kind} requires i < j, got ({i},{j})")
            out.append((kind, (i, j), m.start()))
        elif kind == "int":
            out.append(("int", (int(m.group(g)),), m.start()))
        elif kind == "op":
            out.append((m.group(g), (), m.start()))
        else:
            out.append((kind, (), m.start()))
    out.append(("end", (), len(src)))
    return out


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.take()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[0]!r}",
                             tok[2], expected=(kind,))
        return tok

    def parse_sum(self):
        node = self.parse_product()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.parse_product()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def parse_product(self):
        node = self.parse_power()
        while True:
            nxt = self.peek()[0]
            if nxt == "*":
                self.take()
                node = ("mul", node, self.parse_power())
            else:
                return node

    def parse_power(self):
        base = self.parse_atom()
        if self.peek()[0] == "^":
            self.take()
            tok = self.take()
            if tok[0] != "int":
                raise ParseError("exponent must be an integer literal",
                                 tok[2], expected=("int",))
            return ("pow", base, tok[1][0])
        return base

    def parse_atom(self):
        tok = self.take()
        kind, args, pos = tok
        if kind == "int":
            return ("int", args[0])
        if kind == "-":
            return ("neg", self.parse_power())
        if kind == "+":
            return self.parse_power()
        if kind == "(":
            node = self.parse_sum()
            self.expect(")")
            return node
        if kind in ("x", "y"):
            return ("var", kind, args[0])
        if kind in ("XX", "YY", "dx", "dy"):
            return ("gen", kind, args[0])
        if kind in ("Dop", "Bop", "Cop"):
            return ("gen", kind, args[0], args[1])
        if kind in ("E", "Delta", "Q"):
            return ("gen", kind)
        raise ParseError(f"unexpected token {kind!r}", pos,
                         expected=("atom",))


def parse(src: str, k: int = 2):
    """Parse an expression; raises ParseError / IndexOutOfRange on bad input,
    and ParseError on more than MAX_TOKENS tokens."""
    p = _Parser(tokenize(src, k))
    node = p.parse_sum()
    tok = p.peek()
    if tok[0] != "end":
        raise ParseError(f"trailing input starting with {tok[0]!r}", tok[2],
                         expected=("end",))
    return node


def to_text(node) -> str:
    """Canonical printer; parse(to_text(t)) yields an equal tree."""
    def render(n, parent_prec):
        kind = n[0]
        if kind == "int":
            return str(n[1])
        if kind == "var":
            return f"{n[1]}{n[2]}"
        if kind == "gen":
            return n[1] + index_text(n[2:])
        if kind == "neg":
            # unary - binds like ^'s operand, so guard mul/add bodies
            body = f"-{render(n[1], 3)}"
            return f"({body})" if parent_prec > 1 else body
        if kind in ("add", "sub"):
            op = " + " if kind == "add" else " - "
            # the right operand renders one level tighter so that
            # a - (b + c) and a + (b - c) keep their parentheses
            body = render(n[1], 1) + op + render(n[2], 2)
            return f"({body})" if parent_prec > 1 else body
        if kind == "mul":
            body = render(n[1], 2) + "*" + render(n[2], 3)
            return f"({body})" if parent_prec > 2 else body
        if kind == "pow":
            body = render(n[1], 4) + f"^{n[2]}"
            return f"({body})" if parent_prec > 3 else body
        raise ValueError(f"unknown node {kind!r}")
    return render(node, 0)


# (coefficient degree, order) of each atom's operator
_ATOM_BOUND = {"x": (1, 0), "y": (1, 0), "dx": (0, 1), "dy": (0, 1),
               "E": (1, 1), "Delta": (0, 2), "Q": (2, 0), "XX": (1, 2),
               "YY": (1, 2), "Dop": (1, 1), "Bop": (1, 1), "Cop": (1, 1)}


def bound(node) -> tuple:
    """Upper bounds (coefficient degree, order) of the operator of the AST.

    Read off the tree without evaluating it: a product adds the bounds of
    its factors (reordering d^b x^a into x-left form only lowers both), a
    power multiplies them and a sum takes the larger.
    """
    kind = node[0]
    if kind == "int":
        return (0, 0)
    if kind in ("var", "gen"):
        return _ATOM_BOUND[node[1]]
    if kind == "neg":
        return bound(node[1])
    if kind == "pow":
        d, o = bound(node[1])
        return (d * node[2], o * node[2])
    (d1, o1), (d2, o2) = bound(node[1]), bound(node[2])
    if kind == "mul":
        return (d1 + d2, o1 + o2)
    if kind in ("add", "sub"):
        return (max(d1, d2), max(o1, o2))
    raise ValueError(f"unknown node {kind!r}")


def word_bound(node) -> int:
    """Upper bound on the number of words of ``to_genword(node)``.

    Read off the tree without building a word: a sum adds the bounds of its
    operands, a product multiplies them and a power raises; E is two words,
    (E + k - 1) and a constant.
    """
    kind = node[0]
    if kind in ("int", "var"):
        return 1
    if kind == "gen":
        return 2 if node[1] == "E" else 1
    if kind == "neg":
        return word_bound(node[1])
    if kind == "pow":
        return word_bound(node[1]) ** node[2]
    a, b = word_bound(node[1]), word_bound(node[2])
    if kind == "mul":
        return a * b
    if kind in ("add", "sub"):
        return a + b
    raise ValueError(f"unknown node {kind!r}")


def _letter(node):
    """The generator letter of a var or an XX/YY/Dop/Bop/Cop atom, the one
    ``coneops.letter_op`` reads; None for any other node."""
    if node[0] == "var" or (node[0] == "gen" and node[1] in ("XX", "YY")):
        return (node[1], node[2])
    if node[0] == "gen" and node[1] in ("Dop", "Bop", "Cop"):
        return (node[1][0], node[2], node[3])
    return None


class NotGeneratorWord(UsageError):
    """Expression uses atoms outside the generator alphabet."""


# the value of an atom in each target: "int" from (k, value), "letter" from
# (k, letter), and the other named atoms from (k, *indices)
_WEYL_ATOMS = {"int": lambda k, c: WeylOp.const(2 * k, c), "letter": letter_op,
               "E": euler_op, "Delta": laplacian_op,
               "Q": lambda k: WeylOp.mult(q_form(k)),
               "dx": lambda k, i: WeylOp.partial(2 * k, i - 1),
               "dy": lambda k, i: WeylOp.partial(2 * k, k + i - 1)}
_WORD_ATOMS = {"int": GenWord.const, "letter": GenWord.letter,
               "E": lambda k: GenWord.letter(k, ("Etil",)) + (1 - k)}
_BINARY = {"add": add, "sub": sub, "mul": mul}


def _fold(node, k: int, atoms: dict):
    """The value of the AST in one target, bottom-up: each leaf through the
    target's atoms, then sums, differences, products, powers and negatives.

    Raises NotGeneratorWord on an atom of the grammar that the target lacks
    and ValueError on an unknown node.
    """
    kind = node[0]
    if kind == "int":
        return atoms["int"](k, node[1])
    letter = _letter(node)
    if letter is not None:
        return atoms["letter"](k, letter)
    if kind == "gen" and node[1] in atoms:
        return atoms[node[1]](k, *node[2:])
    if kind == "gen" and node[1] in _ATOM_BOUND:
        raise NotGeneratorWord(f"{node[1]} is not a generator letter")
    if kind == "pow":
        return _fold(node[1], k, atoms) ** node[2]
    if kind == "neg":
        return -_fold(node[1], k, atoms)
    if kind in _BINARY:
        a, b = _fold(node[1], k, atoms), _fold(node[2], k, atoms)
        return _BINARY[kind](a, b)
    raise ValueError(f"unknown node {kind!r}")


def eval_weyl(node, k: int) -> WeylOp:
    """Evaluate the AST to an ambient operator on the dual space."""
    return _fold(node, k, _WEYL_ATOMS)


def to_genword(node, k: int) -> GenWord:
    """Convert an AST into a formal generator word, when possible.

    The alphabet is x_i, y_i, XX_i, YY_i, Dop/Bop/Cop and E (expanded as
    (E+k-1) - (k-1)); derivatives, Delta and Q are not generator letters.
    """
    return _fold(node, k, _WORD_ATOMS)


def genword_to_expr_text(w: GenWord, k: int) -> str:
    """Render a generator word back in the expression grammar."""
    def letter_text(letter):
        kind = letter[0]
        if kind == "Etil":
            return f"(E + {k - 1})"
        if kind in ("D", "B", "C"):
            return f"{kind}op{index_text(letter[1:])}"
        return kind + index_text(letter[1:])
    return signed_text((c, "*".join(map(letter_text, word)))
                       for word, c in w.sorted_terms())
