"""Abelianized Fox Jacobians of IA-automorphisms of the free metabelian group
M_3: Laurent column stabilizers from a source that shares no colstab code.

An endomorphism phi of the free group on x1, x2, x3 is the triple of words
(phi(x1), phi(x2), phi(x3)); a word is a tuple of letters, ``g`` for x_g and
``-g`` for its inverse.  ``jacobian`` maps phi to the 3x3 matrix with entry
(j, i) the Fox derivative d phi(x_j) / d x_i, with each x_g sent to a_g.  Fox's
fundamental formula w - 1 = sum_i (dw/dx_i)(x_i - 1), abelianized, reads
a^w - 1 = sum_i J_i * c_i in the Laurent ring, with c_i = a_i - 1.  An
IA-automorphism fixes every a^w = a_j for w = phi(x_j), so J fixes the column
(c1, c2, c3).

The generators are the six conjugations x_i -> x_p^-1 x_i x_p and the six
commutator multiplications x_i -> x_i [x_p, x_q], with [x, y] = x^-1 y^-1 x y;
``compose`` substitutes words.  Reference: R. H. Fox, "Free differential
calculus I", Ann. of Math. 57 (1953).
"""

from itertools import permutations

from colstab import Mat, RingElement

IDENTITY = ((1,), (2,), (3,))


def free_reduce(word) -> tuple:
    """The word with every adjacent pair x x^-1 cancelled."""
    out = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def invert(word) -> tuple:
    return tuple(-letter for letter in reversed(word))


def compose(phi, psi) -> tuple:
    """phi after psi: each letter of psi(x_j) replaced by its image under phi."""
    return tuple(
        free_reduce(
            x
            for letter in word
            for x in (phi[letter - 1] if letter > 0 else invert(phi[-letter - 1]))
        )
        for word in psi
    )


def _replace(i, word) -> tuple:
    images = list(IDENTITY)
    images[i - 1] = free_reduce(word)
    return tuple(images)


def conjugation(i, p) -> tuple:
    """x_i -> x_p^-1 x_i x_p, the other generators fixed."""
    return _replace(i, (-p, i, p))


def commutator_multiplication(i, p, q) -> tuple:
    """x_i -> x_i [x_p, x_q], the other generators fixed."""
    return _replace(i, (i, -p, -q, p, q))


GENERATORS = {
    **{f"x{i}^x{p}": conjugation(i, p) for i, p in permutations((1, 2, 3), 2)},
    **{
        f"x{i}[x{p},x{q}]": commutator_multiplication(i, p, q)
        for i, p, q in permutations((1, 2, 3))
    },
}


def fox_row(word) -> list:
    """The abelianized Fox derivatives of a word along x1, x2, x3, each as a
    dict from exponent vector to coefficient.

    d(u x_g)/dx_g adds a^u, and d(u x_g^-1)/dx_g adds -a^u * a_g^-1, where a^u
    is the abelianized prefix u."""
    row = [{}, {}, {}]
    prefix = [0, 0, 0]
    for letter in word:
        g = abs(letter) - 1
        if letter < 0:
            prefix[g] -= 1
        key = tuple(prefix)
        row[g][key] = row[g].get(key, 0) + (1 if letter > 0 else -1)
        if letter > 0:
            prefix[g] += 1
    return row


def jacobian(ring, phi):
    """The abelianized Fox Jacobian of phi over a three-variable Laurent ring."""
    return Mat([[RingElement(ring, d) for d in fox_row(word)] for word in phi])
