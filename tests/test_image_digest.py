"""A lasting byte-identity gate for the two word engines.

One sha256 is taken over ``str()`` of ``specialized_burau`` for every word
below at six roots, and of ``burau_of_word`` for the words under 60
letters, and compared with the digest recorded in
``tests/data/image_digest.txt``. The words are twist powers, proper
powers, words that widen the packed slots, and 40 seeded normal-closure
products; the roots cover odd and even field orders N.

After an intended change of output, regenerate the file with

    PYTHONPATH=src python tests/test_image_digest.py > tests/data/image_digest.txt
"""

import hashlib
from pathlib import Path

from burau_lab.burau import burau_of_word, specialized_burau
from burau_lab.cyclotomic import minus_q_from_d
from burau_lab.words import BraidWord, parse_word, sample_normal_closure

DIGEST_FILE = Path(__file__).parent / "data" / "image_digest.txt"

# d = 5, 6, 7, 10, 12, 40: field orders N = 10, 3, 14, 5, 12, 80.
ROOT_DS = (5, 6, 7, 10, 12, 40)

FIXED_WORDS = (
    ("T4^60", 4),
    ("s1^70", 3),
    ("T6^81", 6),
    ("(s1 s2)^12", 3),
    ("(s1 s2^-1 s3)^6", 4),
    ("(s2 s1^-1)^10 (s2 s1^-1)^-3", 3),
    ("(s1 s2^-1)^50", 3),
    ("(s1 s2^-1)^300", 3),
    ("(s1 s2^-1)^300", 4),
    ("(s1 s2^-1 s3)^40 s1 s2", 4),
    ("s1 s2^-1 s3", 4),
    ("", 2),
)

# (n, normal generators) of a few kernel-table rows.
CLOSURE_ROWS = (
    (4, ("s1^5", "T4^5")),
    (4, ("s1^7", "T3^14", "T4^7")),
    (5, ("s1^5", "T4^5", "T5^2")),
    (6, ("s1^4", "T5^4", "T6^2")),
    (7, ("s1^3", "T7^6")),
    (10, ("s1^3", "T9^2", "T10^3")),
)


def closure_words() -> list[BraidWord]:
    """40 seeded products of two normal-closure conjugates; every second
    one ends in an extra s1, so it lies outside the closure."""
    words = []
    for seed in range(40):
        n, texts = CLOSURE_ROWS[seed % len(CLOSURE_ROWS)]
        gens = [parse_word(text, n) for text in texts]
        word = sample_normal_closure(n, gens, 2, 20, seed)
        if seed % 2:
            word = word * BraidWord(n, ((1, 1),))
        words.append(word)
    return words


def image_digest() -> str:
    words = [parse_word(text, n) for text, n in FIXED_WORDS] + closure_words()
    h = hashlib.sha256()
    for word in words:
        for d in ROOT_DS:
            h.update(str(specialized_burau(word, minus_q_from_d(d))).encode())
            h.update(b"\0")
        if len(word) < 60:
            h.update(str(burau_of_word(word).matrix).encode())
            h.update(b"\0")
    return h.hexdigest()


def test_word_images_match_the_recorded_digest():
    assert image_digest() == DIGEST_FILE.read_text().split()[0]


if __name__ == "__main__":
    print(image_digest())
