"""The `roots` CLI output is frozen.

Two sets of inputs:

* seeded draws in the style of the classify benchmark: planted rational
  roots (some in close clusters, some repeated) times quadratics with no
  real root, over all four root shapes and every degree 2..24.  Each root
  is rational, so each is reported as an exact point;
* polynomials with irrational real roots, among them the Q of a few grid
  cells.  Each irrational root is reported as its canonical dyadic cell
  (`RealRoot.canonical`), which no refinement history moves.

A faster root engine must print the same bytes.

The `STRIPPED_*` digests pin the same output with only the multiplicity kept
of each isolating interval: the discriminant sequence, the sign lists and
every root count, which no choice of isolating interval may move.
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
    0: "b8c1fda8587878b60b9eaeace189aa15491980fd98a9d96b24a9ae3d47db097e",  # degree 2, shape 0, 0/2 inexact
    1: "3a9374393e0aedda089e64171c0ef333e17886ef0614174f18fca63ed7bc969f",  # degree 7, shape 1, 0/3 inexact
    2: "9cf7b6590e7196cb7a1b616b12257908b3c58e3150fdee9a5db990be73ff4d0c",  # degree 12, shape 2, 0/2 inexact
    3: "ba733528f5c14dc16b7e324fb42983c60dbcd588119338bb4720eb7a4094f70d",  # degree 17, shape 3, 0/1 inexact
    4: "24c4323b5779e7f1331a290fd908a096c1b0f0722192bd2774af8925301e0e2e",  # degree 22, shape 0, 0/22 inexact
    5: "6ea376c943d2c0f0fefe685fb458537ae94da640cad55466c3c8f151d66aa935",  # degree 4, shape 1, 0/2 inexact
    6: "88b7a5f09f9d33df1a32cfec237f41a6e07b6f594f990bae17aae371bc878e9e",  # degree 9, shape 2, 0/1 inexact
    7: "17fd65e134115694141e98f97f5b0b1203d283ea07645da16469309e92f629b1",  # degree 14, shape 3, 0/2 inexact
    8: "f26f6a5a8b97fc2da47f80a2ad1a3f4ef30f486eb6f67c9da854ba6730c19b3a",  # degree 19, shape 0, 0/19 inexact
    9: "82affe50cc4d082348179cdd56f5e4c7ece0ae1f8d39da7a073c8a9f5ded14e0",  # degree 24, shape 1, 0/12 inexact
    10: "aee6dabb020f7167b142e2758a6d8acf0ad2fd0d3cdb173fba16cc00874413c2",  # degree 6, shape 2, 0/2 inexact
    11: "ac7ba1cba4c3734d23989e6430da8e34cfdb683cf3a4f7f7969a8d1b06240d1a",  # degree 11, shape 3, 0/1 inexact
    12: "0c544694cd10f859c92a4efc3f491a95c2a23a8fd99e6df6d4bf44b14248bc6f",  # degree 16, shape 0, 0/16 inexact
    13: "e28b161c1ce5f3a0f6397b074da6db921c3d9d6657b0d2781658adb9126ba294",  # degree 21, shape 1, 0/9 inexact
    14: "b30bcf8590315b7986a88b6a5871f329a0bdb146cead9181232c53cd1346d5f4",  # degree 3, shape 2, 0/1 inexact
    15: "0f726a76876c3a1f8cc2ca5dac84ac2df62f0dc83bb812a34a14eebfc94c5a42",  # degree 8, shape 3, 0/2 inexact
    16: "76a064c5ff29366ff9e6eee4edcc4d2b3027df2b05b86fd6c9d2201f6ccbffb6",  # degree 13, shape 0, 0/13 inexact
    17: "ab3f04949680639a75963c977a0ac801b581f8a354f2ce1926b9187404279bd6",  # degree 18, shape 1, 0/8 inexact
    18: "5206fd21a44558de42d96ff7c118a4be7a55029559f4e923f083206498190d24",  # degree 23, shape 2, 0/6 inexact
    19: "de4d2af6d4f3f8fba31f77cc6b85f8d8d9344e01c93b2e4f4598d3b3c088f051",  # degree 5, shape 3, 0/1 inexact
    20: "51bb9c9eb9ce8420586bf1f0172ab1a563b1f3d712a64cdb9dfc15e692395980",  # degree 10, shape 0, 0/10 inexact
    21: "2fda919500a2c831f95dfd25a5eca3181700caaed3e4e782bb22c3c818d43908",  # degree 15, shape 1, 0/7 inexact
    22: "38fa0f0b7a4d5145d39bbcc933e84c8ba059c5f002f14c1a7cc73a4f0fed99af",  # degree 20, shape 2, 0/4 inexact
    23: "dcbc1c8dd21f14afbc5866b18f7a9f4980520beae389737c0fc4110f394e2698",  # degree 2, shape 3, 0/2 inexact
    24: "ed578d3fe3979797dbda93ff86e6921997da03b22a7485704694e33992762758",  # degree 7, shape 0, 0/7 inexact
    25: "211e102665d15ada8c450260d34db73ac121346c7d47a5c03af3a59f81da508b",  # degree 12, shape 1, 0/6 inexact
    26: "054faed122e9c8830a4cf17c254c7c066b3e129df48a62eb226ca1864da86c8a",  # degree 17, shape 2, 0/3 inexact
    27: "4075330be8eaf7d0497b505e45b5a9408761bead3774608c30f9aeb805bad681",  # degree 22, shape 3, 0/2 inexact
    28: "fb3e3b4d532a741c0968ac37145458379c5691f746b8cb5e4697b2f9de6f1e1a",  # degree 4, shape 0, 0/4 inexact
    29: "cfae39a78cf3eb280a9db02d5930e537a8ef74b40a3347a2bf5d91b767013154",  # degree 9, shape 1, 0/3 inexact
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
    "mixed": "d0c7a8b3c2535012383bb187e56b140125a51053349fa31b715ae46496e01114",  # 5/5 inexact
    "x5": "005a409f8eeba150ad5ab451f9a821a855e786d8ccce28d02c44d33a3cb9fd92",  # 1/1 inexact
    "double_sqrt": "c02ad551160b4ccfe847da8e3d38503b3c8633dd60d18defd7fa4b3dbeaeaaf0",  # 4/5 inexact
    "cube_root": "7418a37b7191072bd3e276de00e3de7dca7275a491a44f5761fb470135dd3c36",  # 1/1 inexact
    "close_triples": "dc4201b7d64f23d54bad28ed6045a1e7aeca3190809354f7249c55e446a56567",  # 6/6 inexact
    "wide": "c3148ab806100c1cd3f2dd34929480675a134f3116a5e09587d5d9e6bd96b556",  # 4/4 inexact
    "Q_2_5": "d100a7060996ea0095240c292dedca4573a467cafe131e9fe88aaa8690582311",  # 0/3 inexact
    "Q_4_6": "be153ab1c8a8f84c1e3e2e8365fa9361395c0f727ff486ddbc7d102cc4db503f",  # 2/5 inexact
    "Q_5_8": "061aa92d67ff2034ab34d990b447bba9bf623aa04d92049f674748c527cb5d82",  # 2/6 inexact
    "Q_6_9": "c1deda6a1f33157f4b2894e72f15541d3568e17e286d77f40a549f78c4d58b82",  # 4/7 inexact
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


def _counts_digest(poly: str, capsys) -> str:
    """sha256 of the `roots` report with lo, hi and exact left out of each
    isolating interval."""
    assert main(["roots", poly]) == 0
    doc = json.loads(capsys.readouterr().out)
    for interval in doc["isolating_intervals"]:
        del interval["lo"], interval["hi"], interval["exact"]
    return hashlib.sha256(json.dumps(doc, indent=2).encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(DRAW_DIGESTS))
def test_roots_of_classify_draw_is_frozen(seed, capsys):
    assert _roots_digest(_draw(seed), capsys) == DRAW_DIGESTS[seed]


@pytest.mark.parametrize("name", sorted(IRRATIONAL_DIGESTS))
def test_roots_with_irrational_roots_is_frozen(name, capsys):
    assert _roots_digest(IRRATIONAL[name], capsys) == IRRATIONAL_DIGESTS[name]


STRIPPED_DRAW_DIGESTS = {
    0: "4d6486dab9a74e6eb1df8663269098bb7410759003ceffcacf98e7f53c53e3f3",
    1: "78373bc44a59688dc150caf1396399d1e3006e5d3f148c06196953328798cd73",
    2: "c581a42360b21670a108c44a4b0649fd79ac113ceb5d4c773fef030f0e3f7e57",
    3: "03182904771700e2f345b77f667ced22a1f8a6ea0ddc6a736a45f40e4dd011d4",
    4: "8ec128b130d2bf6161d68be83e74b6259988b0386484e8bbed1dc895ca464a58",
    5: "3a108c7e30c39b74aa0defd148afeba1bc2ee2a30b14fc985697ed4f984ba023",
    6: "eb0cfdcb94a7c8551fc05649ab0c19f78a06c5989829f628cd3356bf8d319e5b",
    7: "39554eec434cee3ab667017ea972977f50ebc7c89ab50527ae21d6d344ab62f8",
    8: "e6c9d80d0b0d6abeb3b3a05f838bb95d62b48ed9957f13203ceb64ce0b105aca",
    9: "f795ed75aaa02b3f32a970fb8a5f49b5ceec806dd0abaac73201ec26a4a001b6",
    10: "fead5404c6b611548a3c75684669df0553bd7c405eaa13a95688c8142ea90775",
    11: "93d7a1534c48169bbbe4d59ee46a9a397684a815391872179aef01782da7aaee",
    12: "5f7ce76da40600dc9488c478742264f5d88e747a2486470acb9ae4dc1ae3536b",
    13: "c3c6ba8db089e7eaaa4198d8dac3295686936078698c41ede2aaa6e8249ce2e9",
    14: "6dfd08141711690c052b401abe039a23f783211b4eae27c784b382e9b6bd7054",
    15: "92fe1832948ee02220509d2b1dd527f30e3d9638b8dbdc4372d687a93bb82844",
    16: "8a2fc9c9b55cfa356580f6f1891e8b7b5d88e6ec6498bfeb3cf38afa00594d8b",
    17: "8c42550f21cb8524689aba93dbf2195d79696f90e64547fcdbe5496bef6197b4",
    18: "93981f006ed5d98c2abff6bb8d78b9d6203346ce9ea5fb112135327484fd3b8d",
    19: "3bb8f669368c270c10a4b0a048990c77063a85f11dad1f89b5239740d367da82",
    20: "9e02c2ec8d4e291a042803035e9aecaf7948baf8ede6031ec9663a610762429c",
    21: "d7e095dccacc3707ed382cffd260bf1bac97f97e75a5eaf3861380248fe26850",
    22: "6bb8d00d81f92807795dc3bd5e8caa0f07dd131dbb2a6f49560da3e14fcca9de",
    23: "5f8b45721f93c9121bbfbe876069cddbadcf0a5bc70d491b40954bdd5c9bbbe8",
    24: "65b7583c8730ba2ff178134f3cb39952c33f9f8a116cd8c3025585d14a679926",
    25: "4f41a3d3493da71515ee43e6e6788435acf8c2c7f7f7f2fe70cbc6631429714d",
    26: "7206de17fdc55fde27a176ae764568cd7326d180d6df527c06f3c48ccbf71a9e",
    27: "f6cbcc96818e7e48d2ea614ef3ce5986f3e5e0fc08251a603da031a92e38804c",
    28: "73396ef80a35dd9d1006431f421fb461136f4f508ff9fd69d209c036c933f81f",
    29: "53e9032ed8fba0c712f3947af8a9d33b98cc3fc4de5c2f696029580027175f9b",
}

STRIPPED_IRRATIONAL_DIGESTS = {
    "Q_2_5": "3851100aedefbc72a8d3bbaa691e746b8d5fdddb1c4c410a3a5e6db5d439ff9a",
    "Q_4_6": "7479638a5345858caa0821f880b60a85cfeab16dbd2cbefcfd1cdb6cabc33655",
    "Q_5_8": "e3129cce49428563b4ba55bc3dcefccb696d86adef1b755d081caca399bb1f56",
    "Q_6_9": "1a65df29ee99eedb7eb1c4994dcfa088175387906c6d272ba40f05783bec78b3",
    "close_triples": "e460c6880a62b15356202fad2f346732ffeb2dde898ab2e4b148633c92930598",
    "cube_root": "3df99529d997446f2ecd8b6554d69ded7676fa20b9aa2136277a9f6a78569297",
    "double_sqrt": "491ec8252707d0f77293dab5f23b540045c1c900a5a09c10a372b5f9df2e80eb",
    "mixed": "760385b6c11dfa68eca28c2a45c5b402b575fceece148896ce4d96bd99313c18",
    "wide": "4c873eef1962d5aaf9cedc4a1370f66f8e3c31fabec5f134d510bd317c0ed138",
    "x5": "4889fb41b294eca3a436bb3cbee33a038cf01a0f6d285f09d76f6577b6a08be7",
}


@pytest.mark.parametrize("seed", sorted(STRIPPED_DRAW_DIGESTS))
def test_root_counts_of_classify_draw_are_frozen(seed, capsys):
    assert _counts_digest(_draw(seed), capsys) == STRIPPED_DRAW_DIGESTS[seed]


@pytest.mark.parametrize("name", sorted(STRIPPED_IRRATIONAL_DIGESTS))
def test_root_counts_with_irrational_roots_are_frozen(name, capsys):
    assert _counts_digest(IRRATIONAL[name], capsys) == STRIPPED_IRRATIONAL_DIGESTS[name]
