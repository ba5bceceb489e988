"""Brute-force references for identities the engine proves by certificate.

The orbit relations prove that every 3x3 minor of the invariant matrix
vanishes modulo Q(w) by a rank-2 factorization of the matrix; the functions
here expand the minors one by one instead.
"""

from itertools import combinations

from quadricops.momentorbit import orbit_matrix, q_poly, x_vector
from quadricops.poly import Poly, normal_form_mod_single


def det3(M, rows, cols) -> Poly:
    (a, b, c) = rows
    (d, e, f) = cols
    return (M[a][d] * (M[b][e] * M[c][f] - M[b][f] * M[c][e])
            - M[a][e] * (M[b][d] * M[c][f] - M[b][f] * M[c][d])
            + M[a][f] * (M[b][d] * M[c][e] - M[b][e] * M[c][d]))


def nonvanishing_minor(k: int, M=None):
    """The first (rows, cols) whose 3x3 minor of the orbit matrix is not zero
    modulo Q(w), or None when every minor vanishes."""
    if M is None:
        M = orbit_matrix(k)
    qw = q_poly(x_vector(k))
    idx = range(len(M))
    for rows in combinations(idx, 3):
        for cols in combinations(idx, 3):
            if not normal_form_mod_single(det3(M, rows, cols), qw)[1].is_zero():
                return rows, cols
    return None
