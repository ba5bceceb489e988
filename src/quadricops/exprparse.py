"""Expression grammar for operators on the dual space.

Tokens: the named atoms, which the table ``_ATOMS`` lists once with their
indices, bounds and operators: coordinates x<i>, y<i>; derivatives dx<i>,
dy<i>; named operators E, Delta, Q (multiplication by the dual form), XX<i>,
YY<i>, Dop<i><j>, Bop<i><j>, Cop<i><j>; integer literals; + - * ^ ( ).
Whitespace is insignificant.  Precedence: ^ binds tightest, then *, then +
and -; multiplication is noncommutative and kept left-to-right.

Digits are the ASCII digits 0-9, in indices and in literals alike; any
other Unicode digit (a fullwidth 3, an Arabic-Indic 1, a superscript 2) is
an unexpected character.  A single index may have any number of digits
(XX10).  An index pair is either two single digits (Dop12) or two numbers
joined by an underscore (Dop1_10, Dop1_2); a pair of single digits followed
by a further digit (Dop110) is a ParseError.  The printers write the
underscore only when an index is >= 10, so text for k <= 9 never contains
one.

``tokenize`` returns (kind, indices, position) triples, then
("end", (), len(src)).  The kind is the operator character, "int" or the
atom's name; the indices are ints; the position is where the match starts,
whitespace before the token included.  Each token takes one match of a
regex: the operators (group 1), the integer literals (group 2), then one
alternative per row of ``_ATOMS``.  No atom name begins with an operator or
a digit, so that order changes no match.  Operators and literals are read
by group number (``lastindex``).  An atom's kind is ``lastgroup``, its row
gives its number of indices, and the index fields are the groups that
follow group ``lastindex``, so every alternative keeps its index groups
right after its named group.  ``atom_texts(k)`` lists every named atom at k
from the same rows.  Bad input raises ParseError (with ``pos`` and
``expected``) or IndexOutOfRange.  Text that no token matches is blamed on
its first character, unless it begins with an atom name: then the error
names the first character after the name that no index can take (x١ names
the ١ at position 1), or the missing index at the end of the input.

An expression of more than ``MAX_TOKENS`` tokens is a ParseError before
any node is built: the parser and the fold of the tree recurse once per
nesting level, and a long flat sum still builds a left-deep tree.

The AST is a tree of tuples:
  ("int", n), ("atom", name, *indices), ("add", a, b), ("sub", a, b),
  ("mul", a, b), ("pow", a, n), ("neg", a).
``_fold`` is the one walker of the tree; the printer, the evaluators and
the bounds (degree and order, words, bits of the constants) are its
targets, and the CLI rejects an input over its fixed caps before evaluating.
"""

from __future__ import annotations

import re
from functools import reduce
from operator import add, mul, neg, sub

from .coneops import ConeOp, GenWord, fourier_letter, index_text, letter_op
from .poly import q_form, signed_text
from .weyl import WeylOp, laplacian_op


MAX_TOKENS = 256


class UsageError(ValueError):
    """Bad input from the user, as opposed to a failure of the engine: the
    CLI exits 2 on it.  NotGeneratorWord, suites.UnknownSuite and an
    expression over one of the CLI's fixed caps are usage errors."""


class ParseError(ValueError):
    def __init__(self, message: str, pos: int, expected=()):
        super().__init__(f"{message} at position {pos}")
        self.pos = pos
        self.expected = tuple(expected)


class IndexOutOfRange(IndexError):
    """An index outside 1..k, or a Bop/Cop pair that is not increasing."""


# the grammar's named atoms, one row each: the number of indices (none,
# one, or a pair), whether a pair must be increasing, the (coefficient
# degree, order) bound of the atom's operator, the kind of the generator
# letter it names, and for an atom outside the generator alphabet (letter
# kind None) its operator as a function of (k, *indices); the atom E is the
# letter Etil = E + k - 1 plus 1 - k.  The rows are in the order in which
# ``atom_texts`` lists the atoms of each arity.
_ATOMS = {
    "x": (1, False, 1, 0, "x", None),
    "y": (1, False, 1, 0, "y", None),
    "dx": (1, False, 0, 1, None, lambda k, i: WeylOp.partial(2 * k, i - 1)),
    "dy": (1, False, 0, 1, None,
           lambda k, i: WeylOp.partial(2 * k, k + i - 1)),
    "XX": (1, False, 1, 2, "XX", None),
    "YY": (1, False, 1, 2, "YY", None),
    "Dop": (2, False, 1, 1, "D", None),
    "Bop": (2, True, 1, 1, "B", None),
    "Cop": (2, True, 1, 1, "C", None),
    "E": (0, False, 1, 1, "Etil", None),
    "Delta": (0, False, 0, 2, None, laplacian_op),
    "Q": (0, False, 2, 0, None, lambda k: WeylOp.mult(q_form(k)))}

# the index groups of an atom of each arity, in ASCII digits ([0-9], as a
# str pattern's \d takes every Unicode digit); no atom name is a prefix of
# another, so at most one atom alternative matches at any position
_INDICES = ("", r"([0-9]+)", r"(?:([0-9]+)_([0-9]+)|([0-9])([0-9]))")
_TOKEN_RE = re.compile(r"\s*(?:(?P<op>[+\-*^()])|(?P<int>[0-9]+)" + "".join(
    f"|(?P<{name}>{name}{_INDICES[row[0]]})" for name, row in _ATOMS.items())
    + ")")
# the longest prefix of the index groups of each arity: where it stops is
# the first character that no index can take
_INDEX_PREFIX = tuple(map(re.compile, ("", "[0-9]*",
                                       "(?:[0-9]+(?:_[0-9]*)?)?")))


def _no_token(src: str, pos: int) -> ParseError:
    """The error for text at pos that no token matches.  When the text
    begins with an atom name, it names the first character after the name
    that no index can take, at its position, or the missing index at the
    end of the input; otherwise the text's first character."""
    stripped = src[pos:].lstrip()
    for name, row in _ATOMS.items():
        if stripped.startswith(name):
            at = len(src) - len(stripped) + len(name)
            at = _INDEX_PREFIX[row[0]].match(src, at).end()
            if at == len(src):
                return ParseError(f"missing index after {name!r}", at,
                                  expected=("index",))
            return ParseError(f"unexpected character {src[at]!r}", at,
                              expected=("index",))
    return ParseError(f"unexpected character {stripped[0]!r}", pos,
                      expected=("token",))


def tokenize(src: str, k: int):
    pos, end = 0, len(src)
    out = []
    while pos < end:
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            if src[pos:].isspace():
                break
            raise _no_token(src, pos)
        if len(out) == MAX_TOKENS:
            raise ParseError(f"expression has more than {MAX_TOKENS} tokens",
                             pos, expected=("end",))
        g, start, pos = m.lastindex, pos, m.end()
        if g == 1:
            out.append((m[1], (), start))
            continue
        if g == 2:
            out.append(("int", (int(m[2]),), start))
            continue
        kind = m.lastgroup
        arity = _ATOMS[kind][0]
        if arity == 1:
            i = int(m[g + 1])
            if not 1 <= i <= k:
                raise IndexOutOfRange(
                    f"index {i} out of range for k={k} in {m[g]!r}")
            out.append((kind, (i,), start))
        elif arity == 2:
            if "0" <= src[pos:pos + 1] <= "9":  # empty at the end: no digit
                raise ParseError(
                    f"digit after {m[g]!r}; write the pair as "
                    f"{kind}<i>_<j> when an index has two digits",
                    pos, expected=("_",))
            i, j, i1, j1 = m.group(g + 1, g + 2, g + 3, g + 4)
            i, j = (int(i), int(j)) if i is not None else (int(i1), int(j1))
            if not (1 <= i <= k and 1 <= j <= k):
                raise IndexOutOfRange(
                    f"indices ({i},{j}) out of range for k={k}")
            if _ATOMS[kind][1] and not i < j:
                raise IndexOutOfRange(f"{kind} requires i < j, got ({i},{j})")
            out.append((kind, (i, j), start))
        else:
            out.append((kind, (), start))
    out.append(("end", (), end))
    return out


def atom_texts(k: int) -> list:
    """Every named atom of the grammar at k: those without an index, then
    those with the index i for each i, then those with the pair (i, j) for
    each i and j, skipping pairs that a row asks to be increasing and are
    not; within each index, in the order of ``_ATOMS``."""
    ks = range(1, k + 1)
    indices = [()] + [(i,) for i in ks] + [(i, j) for i in ks for j in ks]
    return [name + index_text(ix) for ix in indices
            for name, (arity, increasing, *_) in _ATOMS.items()
            if arity == len(ix) and not (increasing and ix[0] >= ix[1])]


class _Parser:
    """Recursive descent over the token list, which ends in an "end" token;
    ``i`` is the index of the next token."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def parse_sum(self):
        node = self.parse_product()
        tokens = self.tokens
        while (op := tokens[self.i][0]) in ("+", "-"):
            self.i += 1
            node = ("add" if op == "+" else "sub", node, self.parse_product())
        return node

    def parse_product(self):
        node = self.parse_power()
        tokens = self.tokens
        while tokens[self.i][0] == "*":
            self.i += 1
            node = ("mul", node, self.parse_power())
        return node

    def parse_power(self):
        base = self.parse_atom()
        tokens = self.tokens
        if tokens[self.i][0] != "^":
            return base
        kind, args, pos = tokens[self.i + 1]
        self.i += 2
        if kind != "int":
            raise ParseError("exponent must be an integer literal", pos,
                             expected=("int",))
        return ("pow", base, args[0])

    def parse_atom(self):
        kind, args, pos = self.tokens[self.i]
        self.i += 1
        if kind == "int":
            return ("int", args[0])
        if kind == "-":
            return ("neg", self.parse_power())
        if kind == "+":
            return self.parse_power()
        if kind == "(":
            node = self.parse_sum()
            kind, _, pos = self.tokens[self.i]
            self.i += 1
            if kind != ")":
                raise ParseError(f"expected ')', found {kind!r}", pos,
                                 expected=(")",))
            return node
        if kind in _ATOMS:
            return ("atom", kind, *args)
        raise ParseError(f"unexpected token {kind!r}", pos,
                         expected=("atom",))


def parse(src: str, k: int = 2):
    """Parse an expression; raises ParseError / IndexOutOfRange on bad input,
    and ParseError on more than MAX_TOKENS tokens."""
    p = _Parser(tokenize(src, k))
    node = p.parse_sum()
    kind, _, pos = p.tokens[p.i]
    if kind != "end":
        raise ParseError(f"trailing input starting with {kind!r}", pos,
                         expected=("end",))
    return node


def _fold(node, target: dict):
    """The value of the AST in one target, bottom-up; the one function that
    reads the kinds of the nodes.  The target maps "int" to the value of a
    literal, "atom" to that of an atom from its name and indices, and each
    operation to its value from its operands' values (and for "pow", the
    exponent).  Raises ValueError on an unknown kind of node."""
    kind = node[0]
    if kind not in ("int", "atom", "neg", "pow", "add", "sub", "mul"):
        raise ValueError(f"unknown node {kind!r}")
    # the operands are nodes; a literal's value, an atom's name and indices
    # and an exponent are not
    return target[kind](*[_fold(a, target) if type(a) is tuple else a
                          for a in node[1:]])


def _wrap(value, prec: int) -> str:
    """The text of a (text, precedence) pair, in parentheses when its top
    operation binds looser than ``prec``."""
    text, own = value
    return text if own >= prec else f"({text})"


# precedence 1 for sums, differences and negatives (unary - binds like ^'s
# operand), 2 for products, 3 for powers and 4 for atoms; the right operand
# of a sum needs one level tighter, so a - (b + c) keeps its parentheses
_TEXT = dict(
    int=lambda n: (str(n), 4),
    atom=lambda name, *indices: (name + index_text(indices), 4),
    neg=lambda a: ("-" + _wrap(a, 3), 1),
    pow=lambda a, n: (f"{_wrap(a, 4)}^{n}", 3),
    add=lambda a, b: (f"{_wrap(a, 1)} + {_wrap(b, 2)}", 1),
    sub=lambda a, b: (f"{_wrap(a, 1)} - {_wrap(b, 2)}", 1),
    mul=lambda a, b: (f"{_wrap(a, 2)}*{_wrap(b, 3)}", 2))


def to_text(node) -> str:
    """Canonical printer; parse(to_text(t)) yields an equal tree."""
    return _fold(node, _TEXT)[0]


def _larger(a, b):
    return (max(a[0], b[0]), max(a[1], b[1]))


def bound(node) -> tuple:
    """Upper bounds (coefficient degree, order) of the operator of the AST,
    read off the tree without evaluating it: a product adds the bounds of
    its factors (reordering d^b x^a into x-left form only lowers both), a
    power multiplies them and a sum takes the larger."""
    return _fold(node, dict(
        int=lambda n: (0, 0), atom=lambda name, *_: _ATOMS[name][2:4],
        neg=lambda a: a, pow=lambda a, n: (a[0] * n, a[1] * n),
        add=_larger, sub=_larger, mul=lambda a, b: (a[0] + b[0], a[1] + b[1])))


def word_bound(node) -> int:
    """Upper bound on the number of words of ``to_genword(node)``, read off
    the tree without building a word: a sum adds the bounds of its operands,
    a product multiplies them and a power raises; E is two words, (E + k - 1)
    and a constant."""
    return _fold(node, dict(
        int=lambda n: 1, neg=lambda a: a, pow=pow, add=add, sub=add, mul=mul,
        atom=lambda name, *_: 2 if _ATOMS[name][4] == "Etil" else 1))


def _carry(a, b):
    return max(a, b) + 1


def bit_bound(node) -> int:
    """Upper bound on the bit length of the integer constants of the AST,
    read off the tree without evaluating it: a literal has its bit length,
    a sum one bit more than the larger bound, a product the sum of the
    bounds and a power the bound times its exponent."""
    return _fold(node, dict(
        int=int.bit_length, atom=lambda name, *_: 0, neg=lambda a: a,
        pow=mul, add=_carry, sub=_carry, mul=add))


class NotGeneratorWord(UsageError):
    """Expression uses atoms outside the generator alphabet."""


def _algebra(k: int, const, letter_value, ambient: bool) -> dict:
    """The target of an algebra at k: integers through ``const(k, c)``, the
    generator letters through ``letter_value(k, letter)``, and the other
    atoms through their operators if ``ambient``, else NotGeneratorWord."""
    def atom(name, *indices):
        *_, letter, op = _ATOMS[name]
        if letter is not None:
            value = letter_value(k, (letter, *indices))
            return value + (1 - k) if letter == "Etil" else value
        if not ambient:
            raise NotGeneratorWord(f"{name} is not a generator letter")
        return op(k, *indices)
    return dict(int=lambda c: const(k, c), atom=atom, neg=neg, pow=pow,
                add=add, sub=sub, mul=mul)


def eval_weyl(node, k: int) -> WeylOp:
    """Evaluate the AST to an ambient operator on the dual space."""
    return _fold(node, _algebra(k, lambda k, c: WeylOp.const(2 * k, c),
                                letter_op, True))


def eval_fourier(node, k: int) -> ConeOp:
    """The cone class of the Fourier image of a generator expression,
    folded in D_C = N / Q*D, N being the operators that map (Q*) into
    itself: a letter is the operator of its ``fourier_letter`` image, with
    its sign, and a product, powers included, is cut to its
    ``ConeOp.canonical`` representative.  Sound: letters are ``rho_tilde``
    images, in N, and N is an algebra; Q*D lies in N and P - canonical(P)
    in Q*D; and P Q* = Q* P' for P in N, so P Q* X and Q* X P lie in Q*D:
    representatives multiply like their classes."""
    def image(k, letter):
        letter, sign = fourier_letter(letter)
        return letter_op(k, letter).scale(sign)

    def mul(a, b):
        return ConeOp(a * b).canonical()

    target = _algebra(k, lambda k, c: WeylOp.const(2 * k, c), image, False)
    target.update(mul=mul, pow=lambda a, e: reduce(mul, [a] * e,
                                                   WeylOp.identity(2 * k)))
    return ConeOp(_fold(node, target))


def to_genword(node, k: int) -> GenWord:
    """Convert an AST into a formal generator word, when possible.

    The alphabet is x_i, y_i, XX_i, YY_i, Dop/Bop/Cop and E (expanded as
    (E+k-1) - (k-1)); derivatives, Delta and Q are not generator letters.
    """
    return _fold(node, _algebra(k, GenWord.const, GenWord.letter, False))


def genword_to_expr_text(w: GenWord, k: int) -> str:
    """Render a generator word back in the expression grammar."""
    def letter_text(letter):
        if letter[0] == "Etil":
            return f"(E + {k - 1})"
        name = next(n for n, a in _ATOMS.items() if a[4] == letter[0])
        return name + index_text(letter[1:])
    return signed_text((c, "*".join(map(letter_text, word)))
                       for word, c in w.sorted_terms())
