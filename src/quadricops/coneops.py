"""Differential operators on the quadric cone and the three realizations.

kappa[C] is the coordinate ring of the cone Q* = 0 inside the dual space,
presented by canonical normal forms modulo Q*.  Operators on the cone are
ambient Weyl-algebra elements that normalize the ideal (Q*), modulo Q* times
the operators: the algebra D_C.  ``ConeOp`` holds a class as one canonical
operator, which the D_C products multiply.

Realizations of the conformal Lie algebra:
  phi       -- vector-field realization on V plus conformal weight k-1;
  rho_amb   -- the Fourier image tau(phi(.)) on the dual space, in closed
               form term by term;
  rho_tilde -- rho_amb corrected by A_xi = 2(d_{lam_flip} - alpha), which
               makes every image normalize (Q*).

The distinguished generators, the letters of formal words, are rho_tilde of
their Lie preimages (``letter_preimage``): coordinates are translations,
XX_i and YY_i special conformal elements, E + k - 1 is alpha = -1, and D, B,
C are Levi elements.  The quadric Fourier automorphism F acts letterwise,
swapping coordinates with XX_i, YY_i; on the preimages it is conjugation by
the Weyl inversion w0.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby

from .lie import LieElt
from .poly import (Poly, TermMap, add_terms, dual, fields, guard, mdegree,
                   mono_text, q_form, qdiv, reduce_mod, signed_text, unit,
                   unpack)
from .weyl import (NotDivisible, WeylOp, euler_op, halves, laplacian_op,
                   reorder)


def grad_pair(k: int, vec) -> WeylOp:
    """Directional derivative sum c d_i over the entries (i, c) of vec."""
    n = 2 * k
    return WeylOp._of_values(n, {unit(n, i) << halves(n)[0]: c
                                 for i, c in vec})


def grad_flip(k: int, vec) -> WeylOp:
    """The split-form-twisted directional derivative: e_{x_i} -> d_{y_{k+1-i}},
    that is, the derivative along J_V vec: each entry (i, c) moves to
    (dual i, c)."""
    return grad_pair(k, [(dual(2 * k, i), c) for i, c in vec])


@lru_cache(maxsize=1024)
def phi(xi: LieElt) -> WeylOp:
    """Conformal-weight vector-field realization on V.

    phi(xi) = -d_mu - <Xv, grad> + alpha(E + k - 1)
              - B(lam, v)(E + k - 1) + Q(v) d_lam.

    Memoized by the exact value of xi, like ``rho_tilde``; the images are
    shared.
    """
    k = xi.k
    n = 2 * k
    E = euler_op(k)
    weight = E + WeylOp.const(n, k - 1)
    op = WeylOp.zero(n)
    op = op - grad_pair(k, xi.mu)
    # -<Xv, grad> = -sum_{a,b} X[a][b] v_b d_a, each term x-left already
    op = op - WeylOp._of_values(
        n, {unit(n, a) << halves(n)[0] | unit(n, b): c for (a, b), c in xi.X})
    if xi.alpha:
        op = op + weight.scale(xi.alpha)
    blam = b_form_poly(k, xi.lam)
    if not blam.is_zero():
        op = op - WeylOp.mult(blam) * weight
    if xi.lam:
        op = op + WeylOp.mult(q_form(k)) * grad_pair(k, xi.lam)
    return op


def tau(a: WeylOp) -> WeylOp:
    """Linear Fourier transform: v_i -> d_i, d_i -> -v_i.

    It sends the x-left term x^alpha d^beta to (-1)^|beta| d^alpha x^beta,
    a d-left term, which ``weyl.reorder`` normal-orders; an algebra
    isomorphism D_V -> D_{V*}.
    """
    n = a.nvars
    s, mask = halves(n)
    dleft = {(key & mask) << s | key >> s: -c if mdegree(key >> s, n) % 2
             else c for key, c in a.nums.items()}
    return WeylOp._over(n, reorder(dleft, n, 1), a.den)


def a_correction(xi: LieElt) -> WeylOp:
    """A_xi = 2(d_{lam_flip} - alpha)."""
    k = xi.k
    return (grad_flip(k, xi.lam) - WeylOp.const(2 * k, xi.alpha)).scale(2)


def linear_form(k: int, vec) -> Poly:
    """<vec, v> = sum c v_i over the entries (i, c) of vec, as ``LieElt``
    stores its vectors: a linear polynomial."""
    n = 2 * k
    return Poly._of_values(n, {unit(n, i): c for i, c in vec})


def b_form_poly(k: int, vec) -> Poly:
    """B(vec, .) = <J_V vec, v>: the linear form with each entry (i, c) of
    vec moved to (dual i, c)."""
    return linear_form(k, [(dual(2 * k, i), c) for i, c in vec])


def dual_field(k: int, X) -> WeylOp:
    """sum_{a,b} X[a][b] v_a d_b: tau of the Levi term -<Xv, grad> of
    ``phi`` for X in so(Q), whose trace term vanishes.  X is given by its
    nonzero entries ((a, b), X[a][b]), as ``LieElt.X`` stores it."""
    n = 2 * k
    return WeylOp._of_values(n, {unit(n, b) << halves(n)[0] | unit(n, a): c
                                 for (a, b), c in X})


@lru_cache(maxsize=1024)
def rho_amb(xi: LieElt) -> WeylOp:
    """Ambient dual-space realization tau(phi(xi)), in closed form; memoized
    by the exact value of xi, like ``rho_tilde``.

    tau is the algebra isomorphism v_i -> d_i, d_i -> -v_i, so each term of
    ``phi`` has a closed image:
      -d_mu         -> <mu, v>;
      v_b d_a       -> -v_a d_b - delta_ab, and the trace X[a][a] is 0;
      E             -> -E - 2k, so E + k - 1 -> -(E + k + 1);
      B(lam, v)     -> B(lam, d), the derivative along the reversed lam;
      Q(v) d_lam    -> -Q(d) <lam, v>, with Q(d) the Laplacian.
    """
    k = xi.k
    weight = euler_op(k) + WeylOp.const(2 * k, k + 1)
    op = WeylOp.mult(linear_form(k, xi.mu)) + dual_field(k, xi.X)
    if xi.alpha:
        op = op - weight.scale(xi.alpha)
    if xi.lam:
        op = (op + grad_flip(k, xi.lam) * weight
              - laplacian_op(k) * WeylOp.mult(linear_form(k, xi.lam)))
    return op


class NotNormalizing(Exception):
    """Operator does not normalize the cone ideal."""


class ConeOp:
    """Ambient operator on the dual space with its canonical cone class.

    Writing the operator as sum p_beta(x) d^beta (multiplication applied
    last), it induces the zero map on kappa[C] exactly when every p_beta is
    divisible by Q* -- such operators are Q* times another operator, and
    conversely the reduced coefficients are recovered from the action on
    monomials by triangularity.  So ``canonical``, with every p_beta reduced
    mod Q*, is the one representative that equality, hashing, printing and
    ``grading`` read.
    """

    __slots__ = ("op", "_canonical")

    def __init__(self, op: WeylOp):
        self.op = op
        self._canonical = None

    @property
    def k(self) -> int:
        return self.op.nvars // 2

    def canonical(self) -> WeylOp:
        """The canonical representative, computed once: ``op`` with each
        x-left coefficient reduced mod Q*, in one division of its term map.
        When no term has an x-part divisible by x1*yk, the leading monomial
        of Q*, ``op`` is its own representative."""
        if self._canonical is None:
            qs = q_form(self.k)
            lm, g = max(qs.terms), guard(qs.nvars)
            self._canonical = self.op
            if any(not (key - lm) & g for key in self.op.nums):
                self._canonical = reduce_mod(self.op, qs)
        return self._canonical

    def is_zero_class(self) -> bool:
        return not self.canonical()

    def preserves_ideal(self) -> bool:
        return is_ideal_preserving(self.op)

    def __eq__(self, other):
        """Equal classes; the representatives are computed only when the
        ambient operators differ, and ``__hash__`` reads them on both paths."""
        if not isinstance(other, ConeOp):
            return NotImplemented
        return self.op == other.op or self.canonical() == other.canonical()

    def __hash__(self):
        return hash(self.canonical())

    def commutator(self, other: "ConeOp") -> "ConeOp":
        return ConeOp(self.op.commutator(other.op))

    def canonical_text(self) -> str:
        """The representative grouped by derivative part, ascending, from one
        walk of its keys in descending order; "0" for none."""
        n = 2 * self.k
        s = halves(n)[0]
        terms, xs, ds = self.canonical().terms, fields(n), fields(n, "d")
        parts = []
        for b, keys in groupby(sorted(terms, reverse=True), lambda m: m >> s):
            c = signed_text((terms[m], mono_text(m, xs)) for m in keys)
            d = mono_text(b, ds)
            parts.append(f"({c})*{d}" if d else f"({c})")
        return " + ".join(reversed(parts)) or "0"

    def canonical_json(self) -> list:
        n = 2 * self.k
        s, mask = halves(n)
        can = self.canonical()
        nums = can.nums
        return [{"d": list(unpack(b, n)), "coefficient": Poly._over(
                    n, {m & mask: nums[m] for m in keys}, can.den).to_json()}
                for b, keys in groupby(sorted(nums), lambda m: m >> s)]

    def __repr__(self):
        return f"ConeOp({self.canonical_text()})"


def is_ideal_preserving(a: WeylOp) -> bool:
    """Decide membership in the normalizer of the function ideal (Q*).

    Proof: a normalizes (Q*) iff a(Q* f) lies in (Q*) for every polynomial
    f, that is iff the operator b = a Q* sends every function into (Q*).
    Write b = sum p_beta(x) d^beta.  If Q* divides every p_beta, b sends
    everything into (Q*).  Otherwise take beta of least total degree with
    p_beta outside (Q*).  The other terms of b(x^beta) come from gamma <
    beta, of smaller total degree, whose p_gamma lie in (Q*); so b(x^beta) =
    beta! p_beta modulo (Q*), which is outside (Q*) in characteristic 0 (the
    triangularity argument of ``ConeOp``).  So a normalizes (Q*) iff a Q* is
    the zero class.  Now a Q* = Q* a + [a, Q*], and Q* a is the zero class:
    its x-left coefficients are Q* p_beta.  So a normalizes (Q*) iff the
    commutator [a, Q*] is the zero class: one commutator, which sums only
    the exchange terms and leaves the Q* a part out.
    """
    return ConeOp(a.commutator(WeylOp.mult(q_form(a.nvars // 2)))
                  ).is_zero_class()


@lru_cache(maxsize=1024)
def rho_tilde(xi: LieElt) -> ConeOp:
    """The corrected cone realization rho_amb(xi) - A_xi.

    The correction removes the ideal defect of the ambient formula, making
    the image a genuine operator on the cone; fails loudly if the resulting
    operator does not normalize (Q*), which ``is_ideal_preserving`` decides
    with one commutator.  Images are memoized by the exact value of xi
    in an LRU cache of 1024 images; the cache stores no raised exception, so
    a failing element raises on every call.  The images are shared: callers
    must not change them.
    """
    out = ConeOp(rho_amb(xi) - a_correction(xi))
    if not out.preserves_ideal():
        raise NotNormalizing("corrected realization does not normalize (Q*)")
    return out


def tau_hat(a: WeylOp) -> ConeOp:
    """The corrected Fourier-to-cone map: conjugate tau(a) by Q*.

    Computes the quotient eta' with Q* tau(a) = eta' Q* by right division;
    raises NotNormalizing if the division fails (a outside the normalizer of
    the left ideal generated by the Laplacian).
    """
    k = a.nvars // 2
    qs = q_form(k)
    w = WeylOp.mult(qs) * tau(a)
    try:
        quo = w.divide_right_by_mult(qs)
    except NotDivisible as exc:
        raise NotNormalizing(str(exc)) from exc
    return ConeOp(quo)


# -- generator letters ----------------------------------------------------------

# letters of generator words: ("x", i), ("y", i), ("XX", i), ("YY", i),
# ("Etil",), ("D", i, j), ("B", i, j), ("C", i, j) with 1-based indices.


@lru_cache(maxsize=64)
def alphabet(k: int) -> frozenset:
    """The letters of the generator words at k: x_i, y_i, XX_i, YY_i and
    D_ij for 1 <= i, j <= k, B_ij and C_ij for i < j, and Etil."""
    r = range(1, k + 1)
    return frozenset([("Etil",)]
                     + [(kind, i) for kind in ("x", "y", "XX", "YY") for i in r]
                     + [("D", i, j) for i in r for j in r]
                     + [(kind, i, j) for kind in ("B", "C") for i in r
                        for j in r if i < j])


_INT = frozenset((int,))


def check_letters(k: int, letters) -> None:
    """Raise ValueError naming the first letter outside ``alphabet(k)``.

    The alphabet compares by value, so an index must also be an ``int``:
    ``("x", 1.0)`` and ``("x", True)`` equal ``("x", 1)`` but are no letters.
    """
    known = alphabet(k)
    for letter in letters:
        if letter not in known or not _INT.issuperset(map(type, letter[1:])):
            raise ValueError(f"{letter!r} is not a generator letter at k={k}")


def letter_preimage(k: int, letter) -> LieElt:
    """The Lie algebra element that ``rho_tilde`` realizes as the letter.

    x_i and y_i are the translations mu = e_i and e_(k+i), realized as the
    coordinates; XX_i and YY_i are the special conformal elements lam = e_i
    and e_(k+i), realized as XX_i = (E + k - 1) d_{y_{k+1-i}} - x_i Delta
    and YY_i = (E + k - 1) d_{x_{k+1-i}} - y_i Delta; Etil is alpha = -1,
    realized as E + k - 1.  D_ij, B_ij and C_ij are the skew X with
    X[a][b] = 1 and X[dual b][dual a] = -1, realized by ``dual_field`` as
    v_a d_b - v_(dual b) d_(dual a).  Raises ValueError for a letter outside
    ``alphabet(k)``.
    """
    check_letters(k, (letter,))
    n = 2 * k
    kind = letter[0]
    if kind == "Etil":
        return LieElt(k, alpha=-1)
    if kind in ("x", "y", "XX", "YY"):
        e = {(0 if kind in ("x", "XX") else k) + letter[1] - 1: 1}
        return LieElt(k, mu=e) if kind in ("x", "y") else LieElt(k, lam=e)
    i, j = letter[1] - 1, letter[2] - 1
    a, b = {"D": (j, i), "B": (dual(n, j), i), "C": (j, dual(n, i))}[kind]
    return LieElt(k, X={(a, b): 1, (dual(n, b), dual(n, a)): -1})


def letter_op(k: int, letter) -> WeylOp:
    """The operator of one letter: ``rho_tilde`` of its preimage, which
    normalizes (Q*) by construction.  It shares the memo of the realization
    images: one shared, read-only operator per letter.  The letter is checked
    before the memo is read, which would take ("x", 1.0) for ("x", 1)."""
    check_letters(k, (letter,))
    return _letter_op(k, letter)


@lru_cache(maxsize=1024)
def _letter_op(k: int, letter) -> WeylOp:
    return rho_tilde(letter_preimage(k, letter)).op


_FOURIER_SWAP = {"x": "XX", "XX": "x", "y": "YY", "YY": "y"}


def fourier_letter(letter):
    """Image of one letter under the quadric Fourier automorphism F, with
    sign: F swaps x_i with XX_i and y_i with YY_i and negates Etil."""
    if letter[0] in _FOURIER_SWAP:
        return (_FOURIER_SWAP[letter[0]], letter[1]), 1
    return letter, -1 if letter == ("Etil",) else 1


def index_text(indices) -> str:
    """The printed indices of a letter or grammar atom.

    A pair prints as ``12`` while both indices are single digits and as
    ``1_10`` once one has two, so that the grammar can read it back.
    """
    sep = "_" if len(indices) == 2 and max(indices) >= 10 else ""
    return sep.join(map(str, indices))


class GenWord(TermMap):
    """Formal rational combination of words in the tagged generators.

    A ``poly.TermMap`` whose key is a word, a tuple of letters, with the
    empty word () as 1.  Its first field is k, so ``GenWord(k, terms)``
    builds one; ``nvars`` holds k and ``k`` reads it.  The public
    constructor takes only letters of ``alphabet(k)``.  The product
    concatenates words, in the frame of ``TermMap``; a word has no degree
    bound.  ``exprparse.eval_fourier`` evaluates a Fourier image in D_C.
    """

    __slots__ = ()

    ONE = ()

    def _monomials(self, key):
        """() for a word (a tuple), which holds no monomial; None for any
        other key.  Raises ValueError naming the first letter of the word
        outside ``alphabet(k)``."""
        if not isinstance(key, tuple):
            return None
        check_letters(self.nvars, key)
        return ()

    @property
    def k(self) -> int:
        return self.nvars

    @classmethod
    def letter(cls, k: int, letter, c=1) -> "GenWord":
        return cls(k, {(tuple(letter),): c})

    @staticmethod
    def _product(t1: dict, t2: dict, k: int) -> dict:
        """Concatenation, summed over pairs of words."""
        items = t2.items()
        return add_terms({}, ((w1 + w2, c1 * c2)
                              for w1, c1 in t1.items() for w2, c2 in items))

    def fourier(self) -> "GenWord":
        """Letterwise quadric Fourier transform; an involution.  It sends
        distinct words to distinct words and changes a coefficient by its
        sign only, so the image keeps the pair's denominator."""
        items = []
        for word, c in self.nums.items():
            image = []
            for letter in word:
                img, s = fourier_letter(letter)
                image.append(img)
                c *= s
            items.append((tuple(image), c))
        return GenWord._of(self.nvars, add_terms({}, items), self.den)

    def sorted_terms(self):
        """(word, coefficient) pairs, shorter words first."""
        return sorted(self.terms.items(), key=lambda t: (len(t[0]), t[0]))

    def text(self) -> str:
        def letter_text(letter):
            if letter[0] == "Etil":
                return "(E+k-1)"
            return letter[0] + index_text(letter[1:])
        return signed_text((c, "*".join(map(letter_text, w)))
                           for w, c in self.sorted_terms())


def grading(a: ConeOp):
    """The degree d with [E, a] = d a in canonical class, or 'Mixed'."""
    com = ConeOp(euler_op(a.k)).commutator(a).canonical()
    can = a.canonical()
    if not can or not com:
        return 0
    # candidate eigenvalue from any term of the commutator
    key, c = next(iter(com.terms.items()))
    if key not in can.terms:
        return "Mixed"
    d = qdiv(c, can.terms[key])
    return int(d) if (d.denominator == 1 and can.scale(d) == com) else "Mixed"
