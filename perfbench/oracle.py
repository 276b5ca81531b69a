"""Independent determinant oracle built on sympy's sparse polynomial rings.

Laurent entries are cleared of negative exponents row by row before the
determinant is taken, and the expected determinant is shifted by the same
monomial, so the comparison stays inside an ordinary polynomial ring.
"""

from __future__ import annotations


def sympy_available() -> bool:
    try:
        import sympy  # noqa: F401
    except ImportError:
        return False
    return True


def det_agrees(mat, det) -> bool:
    """Whether sympy's determinant of ``mat`` equals the ring element ``det``.

    ``mat`` is a square colstab ``Mat`` of ring elements; both arguments are
    read only through their public ``terms``.
    """
    from sympy import QQ, ZZ
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.rings import ring

    nvars = mat.ring.nvars
    domain = QQ if mat.ring.coeff.value == "rat" else ZZ
    poly_ring, *_ = ring([f"a{i + 1}" for i in range(nvars)], domain)
    total_shift = [0] * nvars
    rows = []
    for row in mat.rows:
        row_terms = [x.terms for x in row]
        shift = [0] * nvars
        for terms in row_terms:
            for exps in terms:
                for v, e in enumerate(exps):
                    shift[v] = max(shift[v], -e)
        total_shift = [a + b for a, b in zip(total_shift, shift)]
        rows.append(
            [
                poly_ring.from_dict(
                    {tuple(e + s for e, s in zip(exps, shift)): c for exps, c in terms.items()}
                )
                for terms in row_terms
            ]
        )
    n = len(rows)
    got = DomainMatrix(rows, (n, n), poly_ring.to_domain()).det()
    want = poly_ring.from_dict(
        {tuple(e + s for e, s in zip(exps, total_shift)): c for exps, c in det.terms.items()}
    )
    return got == want
