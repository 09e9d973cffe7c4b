"""The `roots` CLI output is frozen.

Two sets of inputs:

* seeded draws in the style of the classify benchmark: planted rational
  roots (some in close clusters, some repeated) times quadratics with no
  real root, over all four root shapes and every degree 2..24;
* polynomials with irrational real roots, among them the Q of a few grid
  cells.  Their isolating intervals stay inexact, so their endpoints are
  whatever the bisection and refinement history left behind.

A faster root engine must print the same bytes.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from hypercycles.cli import main

# (share of the degree in real roots, multiplicities to draw from)
SHAPES = ((1.0, (1,)), (0.5, (1,)), (0.5, (1, 2, 3)), (0.0, (1,)))

# the comments read: inexact isolating intervals / distinct real roots
DRAW_DIGESTS = {
    0: "f379bc20fa394245268bb1b9a16085d5ce5b873ac6ddd032b2f8b48425f1e894",  # degree 2, shape 0, 1/2 inexact
    1: "c1eb80ea9e9c76905d66baf2da4c2c0d6a9e406bcb44b9b2c42149e34c229742",  # degree 7, shape 1, 1/3 inexact
    2: "90762d4a5bfee144cd58ea82b6a3f2aa01fc5e5aa1c1d9e477ac90d163183b58",  # degree 12, shape 2, 1/2 inexact
    3: "ba733528f5c14dc16b7e324fb42983c60dbcd588119338bb4720eb7a4094f70d",  # degree 17, shape 3, 0/1 inexact
    4: "a1cda4ceaa2bd3608bde877e9ce1363b790e1fbb068bdcc290dc35bd5803245b",  # degree 22, shape 0, 11/22 inexact
    5: "4fb8598c3aec2179e1ae363e887fedbea6b4bc039987448892dfb2ec5a4c33a5",  # degree 4, shape 1, 1/2 inexact
    6: "21dc0a51f88ebf3b2df5a3378fa69eb16856befc1255d504c7c73d33621b3bec",  # degree 9, shape 2, 1/1 inexact
    7: "f66488e75cfce3df9d31de54bbd0c4aa0f504fd40c82f7f24b8425e0c13ad741",  # degree 14, shape 3, 1/2 inexact
    8: "9f1c06e61fd43ea9c0f6a0bba60fa9b5a7cc6bb448f942fb678a74986ae734ac",  # degree 19, shape 0, 7/19 inexact
    9: "96f47a34f87b90ac86f142d8511b6f65876b3a6f8c34631927c7c521dbbbca82",  # degree 24, shape 1, 5/12 inexact
    10: "9ec163a02053b4adaa7b19fdad4ccc37dad0743593123a794aaea59444608602",  # degree 6, shape 2, 2/2 inexact
    11: "66d2799320430e2b36f34ee02af0ebca01027f407772b562c01b5660c19edde1",  # degree 11, shape 3, 1/1 inexact
    12: "54fd5f252c2c190f14b9be6ddb2f21e97cd6c06ea3ac41a6e5a94bc2c87f4684",  # degree 16, shape 0, 11/16 inexact
    13: "638761f986fd62e87d5ae0d4fd60a24aeb6c359bdc86510bfc2d63206604c3a0",  # degree 21, shape 1, 2/9 inexact
    14: "b30bcf8590315b7986a88b6a5871f329a0bdb146cead9181232c53cd1346d5f4",  # degree 3, shape 2, 0/1 inexact
    15: "d879ef3e73b02362068d6d004f36ff1c1201bbe6b0a6a0c2fbf9f40bc30b286a",  # degree 8, shape 3, 1/2 inexact
    16: "7fa2cc30553ff3fb31cc5eaa440da4f99785ce29bdb3a92e90d014873a07d62a",  # degree 13, shape 0, 4/13 inexact
    17: "eaf61a78f6aecc38d917bccae2df959dfc590782821bd4c48ba0a2dd1b265695",  # degree 18, shape 1, 4/8 inexact
    18: "a4132702b9dfffd2145063f0dc1819f9b8d7916ae3524c03b22c69237f21fc65",  # degree 23, shape 2, 5/6 inexact
    19: "de4d2af6d4f3f8fba31f77cc6b85f8d8d9344e01c93b2e4f4598d3b3c088f051",  # degree 5, shape 3, 0/1 inexact
    20: "a7fbb2b3b339a410a6dab87cd7ecb54397f3f5906fc090e23d7863f3052a8160",  # degree 10, shape 0, 4/10 inexact
    21: "e5385d3ed5145df36b5ed8ec33712357cf2f1b3774f0c66d5a1c8b4a0ce03bf0",  # degree 15, shape 1, 1/7 inexact
    22: "338af04a3ee8621afeaad0927c0cc331622d66913a9b9024d3dbfac02324a59d",  # degree 20, shape 2, 2/4 inexact
    23: "3136af4be968a34b4a884b157a143d3f854bf7c6b7e02165e147a5c6ab4934e6",  # degree 2, shape 3, 1/2 inexact
    24: "dc5989efefc2492c9a50290b8bc5988d21715f3a9abd1b2a53fbb4139cd5c788",  # degree 7, shape 0, 4/7 inexact
    25: "2e0144e0593ad090d33a3be27b0740948e2b43476b33c6a02c2f3c5decd5eda7",  # degree 12, shape 1, 1/6 inexact
    26: "721e5971af4c744a1e21f0c96266638144e4a95f521752f7489aa24afec026f9",  # degree 17, shape 2, 2/3 inexact
    27: "97427a0849eb157e7ca448abf6af1ad027ad44a863a77e25fa72d5f08a58a1b9",  # degree 22, shape 3, 1/2 inexact
    28: "84d962687d21a443177faae74f3694341963c901eca0ca2d23a8f17677c87fdc",  # degree 4, shape 0, 2/4 inexact
    29: "029f6faa211bbd4cb0056e9f6f5f16392c5113781ea25a6fa89a1c05bb834a85",  # degree 9, shape 1, 1/3 inexact
}

IRRATIONAL = {
    "mixed": "(x^2-2)(x^3-3x+1)(x^2+1)",
    "x5": "x^5 - x - 1",
    "double_sqrt": "(x^2-2)^2 (x^2-3) (3x-1)",
    "cube_root": "x^7 - 2",
    "close_triples": "(x^3-3x+1)(x^3-3x-1)",
    "wide": "x^4 - 1000000x^2 + 1",
    "Q_2_5": '["-486", "81", "405", "90", "-60", "-27", "-3"]',
    "Q_4_6": ('["15/1024", "-245/1024", "1773/1024", "-7487/1024", "1277/64", '
              '"-4707/128", "2967/64", "-2527/64", "87/4", "-7", "1"]'),
    "Q_5_8": ('["15/256", "-65/64", "8087/1024", "-37285/1024", "113449/1024", '
              '"-239839/1024", "22559/64", "-48659/128", "18643/64", "-9887/64", '
              '"215/4", "-11", "1"]'),
    "Q_6_9": ('["0", "0", "0", "-256", "5216", "-28556", "151521/2", "-115690", '
              '"108500", "-63476", "45599/2", "-4852", "591", "-38", "1"]'),
}

IRRATIONAL_DIGESTS = {
    "mixed": "fe05709b7320107920c54d87a4e3782f742594be635c6198e507a928e0ea1579",  # 5/5 inexact
    "x5": "d362ead89c09abd50464848e47ed37070a4cdcd334efb20479a479bc2eee9d94",  # 1/1 inexact
    "double_sqrt": "7bd75a1f4d441c05a46c3b38361b7bc2fd432b764e73c5e9c5f34b90ffbd73bf",  # 5/5 inexact
    "cube_root": "aca359834df20a8acb281aae890b5020bd904df2fae84f679d6937180e0a1afa",  # 1/1 inexact
    "close_triples": "2d90617cf75165d3fb54168300f931c48bba08926b08526dc734e3047ba7e47d",  # 6/6 inexact
    "wide": "9721a3bd21bc7c56c0df8677739d8342f213d2f76c0900edc0c868e0c0306a34",  # 4/4 inexact
    "Q_2_5": "d100a7060996ea0095240c292dedca4573a467cafe131e9fe88aaa8690582311",  # 0/3 inexact
    "Q_4_6": "3057c040a0ac3a21c4b87459a7e670e22eda187a78b0cf95fdbee810b2bb4053",  # 2/5 inexact
    "Q_5_8": "dad5d2beaea973c00688e7b81515e6c4f49f44b3532be856744086823ffedbca",  # 2/6 inexact
    "Q_6_9": "0673cf8275fe1b919849beef1d387486465af601fad6d2814f49b8e32cbf3259",  # 4/7 inexact
}


def _draw(seed: int) -> str:
    """A classify-style polynomial as a JSON coefficient list: degree
    2 + 5*seed mod 23 (seeds 0..22 take every degree 2..24 once), shape
    seed mod 4."""
    rng = random.Random(seed)
    degree = 2 + (5 * seed) % 23
    share, mult_choices = SHAPES[seed % 4]
    target_real = max(round(share * degree), 2 - degree % 2)
    target_real -= (degree - target_real) % 2   # the rest is even
    roots: list[Fraction] = []
    coeffs = [Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))]
    used = 0
    while used < target_real:
        a = Fraction(rng.randint(-20, 20), rng.randint(1, 4))
        group = [a]
        if rng.random() < 0.3:
            group.append(a + Fraction(1, 2 ** rng.randint(3, 8)))
        for r in group:
            if r in roots or used >= target_real:
                continue
            e = min(rng.choice(mult_choices), target_real - used)
            roots.append(r)
            for _ in range(e):
                coeffs = _times(coeffs, [-r, Fraction(1)])
            used += e
    while len(coeffs) + 1 <= degree:
        a = Fraction(rng.randint(-10, 10), rng.randint(1, 3))
        b = Fraction(rng.randint(1, 6), rng.randint(1, 3))
        coeffs = _times(coeffs, [a * a + b * b, -2 * a, Fraction(1)])
    return json.dumps([str(c) for c in coeffs])


def _times(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


def _roots_digest(poly: str, capsys) -> str:
    assert main(["roots", poly]) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(DRAW_DIGESTS))
def test_roots_of_classify_draw_is_frozen(seed, capsys):
    assert _roots_digest(_draw(seed), capsys) == DRAW_DIGESTS[seed]


@pytest.mark.parametrize("name", sorted(IRRATIONAL_DIGESTS))
def test_roots_with_irrational_roots_is_frozen(name, capsys):
    assert _roots_digest(IRRATIONAL[name], capsys) == IRRATIONAL_DIGESTS[name]
