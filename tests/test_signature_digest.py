"""A lasting byte-identity gate for the signature certificate.

One sha256 is taken over ``str()`` of every basis matrix, the chosen form,
its pivot size, both inertias and the signature that
``invariant_hermitian_form`` returns, and compared with the digest recorded
in ``tests/data/signature_digest.txt``. The points are every (n, d),
3 <= n <= 10 and 3 <= d <= 40, where the cone sphere exists (the last
curvature 2 - n(d-2)/(2d) lies in (0, 1)), each at m = n+1, n+2 and n+3:
no trailing block, the one Schur division, and a 2 x 2 trailing block.

After an intended change of output, regenerate the file with

    PYTHONPATH=src python tests/test_signature_digest.py > tests/data/signature_digest.txt
"""

import hashlib
from fractions import Fraction
from pathlib import Path

from burau_lab.cyclotomic import minus_q_from_d
from burau_lab.monodromy import invariant_hermitian_form, rho_generators, signature

DIGEST_FILE = Path(__file__).parent / "data" / "signature_digest.txt"


def cone_sphere_points() -> list[tuple[int, int]]:
    return [
        (n, d) for n in range(3, 11) for d in range(3, 41)
        if 0 < 2 - n * Fraction(d - 2, 2 * d) < 1
    ]


def signature_digest() -> str:
    h = hashlib.sha256()
    for n, d in cone_sphere_points():
        for m in (n + 1, n + 2, n + 3):
            result = invariant_hermitian_form(rho_generators(n, m, minus_q_from_d(d)))
            form = result.chosen
            parts = [str(b) for b in result.basis] + [
                str(form.matrix),
                str(form.pivot_size),
                str(form.pivot_inertia),
                str(form.schur_inertia),
                str(signature(form)),
            ]
            for part in parts:
                h.update(part.encode())
                h.update(b"\0")
    return h.hexdigest()


def test_signatures_match_the_recorded_digest():
    assert len(cone_sphere_points()) == 83
    assert signature_digest() == DIGEST_FILE.read_text().split()[0]


if __name__ == "__main__":
    print(signature_digest())
