"""Expression grammar: round trips, evaluation, and error reporting."""

import random

import pytest

from oracles import tokenize_groupwise, xx_op
from quadricops import exprparse as ep
from quadricops import suites
from quadricops.coneops import ConeOp, index_text
from quadricops.poly import mdegree, q_form
from quadricops.weyl import WeylOp, euler_op, halves

K = 2


ATOMS = ["x1", "x2", "y1", "y2", "dx1", "dx2", "dy1", "dy2", "E", "Delta",
         "Q", "XX1", "XX2", "YY1", "YY2", "Dop12", "Dop21", "Bop12", "Cop12",
         "0", "7", "13"]


def rand_tree(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return ep.parse(rng.choice(ATOMS), K)
    kind = rng.choice(["add", "sub", "mul", "pow", "neg"])
    if kind == "pow":
        return ("pow", rand_tree(rng, 0), rng.randint(0, 4))
    if kind == "neg":
        return ("neg", rand_tree(rng, depth - 1))
    return (kind, rand_tree(rng, depth - 1), rand_tree(rng, depth - 1))


def test_roundtrip_corpus():
    rng = random.Random(20240817)
    for _ in range(1000):
        tree = rand_tree(rng, 4)
        assert ep.parse(ep.to_text(tree), K) == tree


def measured(op):
    """(coefficient degree, order) of an evaluated operator."""
    mask = halves(op.nvars)[1]
    degree = max((mdegree(key & mask, op.nvars) for key in op.terms),
                 default=0)
    return degree, max(op.order(), 0)


def test_bound_is_exact_on_atoms_and_bounds_every_tree():
    for k, atoms in [(K, ATOMS), (3, ["XX3", "YY2", "Dop31", "Bop23",
                                      "Cop13", "E", "Delta", "Q"])]:
        for atom in atoms:
            tree = ep.parse(atom, k)
            assert ep.bound(tree) == measured(ep.eval_weyl(tree, k)), atom
    rng = random.Random(20261018)
    for _ in range(300):
        tree = rand_tree(rng, 3)
        degree, order = measured(ep.eval_weyl(tree, K))
        bd, bo = ep.bound(tree)
        assert degree <= bd and order <= bo, ep.to_text(tree)


def test_precedence():
    # ^ binds tighter than *, which binds tighter than +
    t = ep.parse("x1 + x2*dy1^2", K)
    assert t == ("add", ("atom", "x", 1),
                 ("mul", ("atom", "x", 2), ("pow", ("atom", "dy", 1), 2)))


def test_noncommutative_order_preserved():
    a = ep.eval_weyl(ep.parse("dx1*x1", K), K)
    b = ep.eval_weyl(ep.parse("x1*dx1", K), K)
    assert a - b == WeylOp.identity(2 * K)


def test_eval_examples():
    # the bracket of the Laplacian with the form is the shifted Euler operator
    lhs = ep.eval_weyl(ep.parse("Delta*Q - Q*Delta", K), K)
    assert lhs == euler_op(K) + WeylOp.const(2 * K, K)
    # the second-order coordinate images commute in canonical class
    comm = ep.eval_weyl(ep.parse("XX1*YY2 - YY2*XX1", K), K)
    assert ConeOp(comm).is_zero_class()
    assert ep.eval_weyl(ep.parse("Q", K), K) == WeylOp.mult(q_form(K))
    assert ep.eval_weyl(ep.parse("XX1", K), K) == xx_op(K, 1)


def test_index_out_of_range():
    with pytest.raises(ep.IndexOutOfRange):
        ep.parse("x5", K)
    with pytest.raises(ep.IndexOutOfRange):
        ep.parse("Bop21", K)
    with pytest.raises(ep.IndexOutOfRange):
        ep.parse("Dop13", K)
    assert ep.parse("x3", 3) == ("atom", "x", 3)


def test_two_digit_pair_indices():
    assert ep.parse("Dop1_10", 12) == ("atom", "Dop", 1, 10)
    assert ep.parse("Bop1_2", K) == ep.parse("Bop12", K)
    # the underscore is printed only when an index has two digits
    assert ep.to_text(ep.parse("Dop1_2 + Cop9_11", 12)) == "Dop12 + Cop9_11"
    for src in ["Dop110", "Bop310", "Cop1_10 + Dop123"]:
        with pytest.raises(ep.ParseError, match="op<i>_<j>"):
            ep.parse(src, 12)


def test_indices_and_literals_take_ascii_digits_only():
    # str.isdigit and a str pattern's \d accept every Unicode decimal
    # digit; the grammar takes 0-9 alone, and after an atom name the error
    # names the character that no index can take
    cases = [("x\u0661*XX\u0661", 1, "\u0661"), ("\uff13*x1", 0, "\uff13"),
             ("Dop12\u00b2", 5, "\u00b2"), ("x1 + \u0667", 4, "\u0667"),
             ("Bop1_\u0662", 5, "\u0662"), ("XX\u0661", 2, "\u0661"),
             ("dx 1", 2, " ")]
    for src, pos, char in cases:
        with pytest.raises(ep.ParseError) as exc:
            ep.parse(src, 12)
        assert exc.value.pos == pos, src
        assert str(exc.value).startswith(f"unexpected character {char!r}")
        assert_tokenizers_agree(src, 12)


def test_a_missing_index_is_named_at_the_end():
    for src, name in [("x", "x"), ("XX", "XX"), ("2*dy", "dy"),
                      ("Dop1", "Dop"), ("Cop1_", "Cop")]:
        with pytest.raises(ep.ParseError) as exc:
            ep.parse(src, 12)
        assert (exc.value.pos, exc.value.expected) == (len(src), ("index",))
        assert str(exc.value).startswith(f"missing index after {name!r}")
        assert_tokenizers_agree(src, 12)


def test_parse_errors_carry_position():
    with pytest.raises(ep.ParseError) as exc:
        ep.parse("x1 + ", K)
    assert exc.value.expected
    with pytest.raises(ep.ParseError):
        ep.parse("(x1 + y1", K)
    with pytest.raises(ep.ParseError):
        ep.parse("x1 ~ y1", K)
    with pytest.raises(ep.ParseError):
        ep.parse("x1^y1", K)
    with pytest.raises(ep.ParseError):
        ep.parse("x1 x2", K)


def test_genword_conversion():
    word = ep.to_genword(ep.parse("x1*XX1", K), K)
    image = word.fourier()
    assert image == ep.to_genword(ep.parse("XX1*x1", K), K)
    rendered = ep.genword_to_expr_text(image, K)
    assert ep.to_genword(ep.parse(rendered, K), K) == image
    with pytest.raises(ep.NotGeneratorWord):
        ep.to_genword(ep.parse("Delta", K), K)


def test_genword_power_is_the_repeated_product():
    for k in (2, 3):
        base = ep.to_genword(ep.parse("x1 + XX2", k), k)
        want = ep.to_genword(ep.parse("1", k), k)
        for n in range(5):
            assert ep.to_genword(ep.parse(f"(x1 + XX2)^{n}", k), k) == want
            want = want * base


def test_whitespace_insensitive():
    assert ep.parse(" x1+ y2 * dx1 ", K) == ep.parse("x1+y2*dx1", K)


def atoms_at(k):
    """Every atom of the grammar at k, in the order of ``cli_checks``."""
    atoms = ["E", "Delta", "Q"]
    for i in range(1, k + 1):
        atoms += [f"{g}{i}" for g in ("x", "y", "dx", "dy", "XX", "YY")]
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            pair = index_text((i, j))
            atoms.append(f"Dop{pair}")
            if i < j:
                atoms += [f"Bop{pair}", f"Cop{pair}"]
    return atoms


def test_atom_table_lists_every_atom_once():
    for k in (2, 3, 12):
        assert ep.atom_texts(k) == atoms_at(k)
    # no name is a prefix of another, so at most one alternative of the
    # token regex matches at any position, whatever their order
    names = [text.rstrip("0123456789_") for text in ep.atom_texts(2)]
    assert not [(a, b) for a in set(names) for b in set(names)
                if a != b and b.startswith(a)]
    # nor does one begin like an operator or a literal, which the regex
    # tries first
    assert not [name for name in ep._ATOMS if name[0] in "+-*^()0123456789"]


def tokens_or_error(tokenize, src, k):
    try:
        return tokenize(src, k)
    except (ep.ParseError, ep.IndexOutOfRange) as exc:
        return (type(exc), str(exc), getattr(exc, "pos", None),
                getattr(exc, "expected", None))


def assert_tokenizers_agree(src, k):
    got = tokens_or_error(ep.tokenize, src, k)
    assert got == tokens_or_error(tokenize_groupwise, src, k), (src, k)
    return got


def test_tokenize_matches_groupwise_oracle_on_every_atom():
    assert {"XX10", "Dop1_10", "Cop11_12"} <= set(atoms_at(12))
    for k in (2, 3, 12):
        for atom in atoms_at(k) + ["0", "7", "20", "+", "-", "*", "^", "(",
                                   ")"]:
            tokens = assert_tokenizers_agree(atom, k)
            assert [t[0] for t in tokens][1:] == ["end"], atom


def test_tokenize_matches_groupwise_oracle_on_random_texts():
    rng = random.Random(20261018)
    spaces = ["", "", " ", "  ", "\t", "\n "]
    pieces = {k: atoms_at(k) + list("+-*^()") + ["0", "3", "17", "250"]
              for k in (2, 3, 12)}
    errors = 0
    for _ in range(1000):
        k = rng.choice((2, 3, 12))
        text = "".join(rng.choice(spaces) + rng.choice(pieces[k])
                       for _ in range(rng.randint(1, 24)))
        got = assert_tokenizers_agree(text + rng.choice(spaces), k)
        errors += isinstance(got, tuple)
    # adjacent atoms without a space merge (x1 then 2 is x12), so both
    # outcomes are covered
    assert 0 < errors < 1000


def test_tokenize_matches_groupwise_oracle_on_bad_input():
    cases = [("x1 ~ y1", 2), ("Dop110", 12), ("Dop110", 2), ("Bop21", 2),
             ("Cop33", 3), ("x0", 2), ("x13", 12), ("XX13", 12),
             ("Dop0_1", 12), ("x1 + y1   ", 2), ("   ", 2), ("", 2),
             ("x1 " * ep.MAX_TOKENS, 2), ("x1 " * (ep.MAX_TOKENS + 1), 2)]
    outcomes = [assert_tokenizers_agree(src, k) for src, k in cases]
    assert [isinstance(o, tuple) for o in outcomes] == [
        True] * 9 + [False] * 4 + [True]
    assert outcomes[-3] == [("end", (), 0)]
    assert len(outcomes[-2]) == ep.MAX_TOKENS + 1


def test_cli_suite_parses_each_text_once(monkeypatch):
    texts = []
    parse = ep.parse

    def counting_parse(src, k=2):
        texts.append(src)
        return parse(src, k)

    monkeypatch.setattr(ep, "parse", counting_parse)
    assert suites.run_suite("cli", 3).exit_status == 0
    # each of the 40 atoms once, the 1,000 printed round-trip texts and the
    # two evaluation examples; a parse per drawn leaf would add 2,565
    assert len(texts) == 40 + 1000 + 2
