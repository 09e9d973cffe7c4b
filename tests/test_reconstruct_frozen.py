"""The `reconstruct` CLI output is frozen.

Three sets of inputs:

* every grid cell that constructs (m = 2..10, n = m+2..2m+2) with
  n != 2m+1, fed the f and g of that cell's `construct` report: the curve,
  the `verified` flag and the whole schedule with its pivots;
* seeded random curves with rational data of both branches, fed the f and g
  that `derive_system` gives: the same, for curves whose P and Q have
  fractional coefficients;
* seeded random systems of both branches (n < 2m+1 and n > 2m+1) that carry
  no curve: the witness equation and degree, and the schedule up to it.

A faster solver must print the same bytes.
"""

import hashlib
import io
import json
import random
from fractions import Fraction

import pytest

from hypercycles.cli import main
from hypercycles.lienard import HyperellipticCurve, derive_system
from hypercycles.polyx import Poly, coeff_strings

CELL_DIGESTS = {
    (2, 6): "f6e07f470334ea57a337acaa0666478ed819f5bcd2cbfcc5a1bd3d7edf950862",
    (3, 6): "646279996f2f7ba16e4c457b9b7ddbbb0aa51e6d9a16987a11088d1b41245541",
    (3, 8): "cd6003fa94243ce99c366052092658a92d9ba97e0e4658e9a356614035d72f5c",
    (4, 6): "979059c38cef4d7602a56b151fb6d479b77c4925624dbd8bb3f39fd6c051ef00",
    (4, 8): "f40c613aab61b08ddea8b419cb1d6a033f8c92bf8b4cb3c75fcc2e90a4d3b5d4",
    (4, 10): "434cacc3e206d1e065b480d05037dbf6a27f3123f2a7c4c9660aebd595e6b059",
    (5, 7): "032e77afcbdca0f958a86f252e14d791d5a1f772d80e7d488cbc0b10a444f35b",
    (5, 8): "7e8f31f6f99a4fe407f5fd338688aa5e310eb6ab2b9e0afe52ffeb5127bc6756",
    (5, 9): "e9c17c192330968a1f9178ebfb0759c5ac5ccd3d7466b0ebbf5dfa401f37ca5f",
    (5, 10): "667401f20bda05529de189240d8e4aeecf5a96dde5da6421329a95bc086846c6",
    (5, 12): "2c35147ac91301c99da8b07548ca8314f869118eaa56e9e2073d86b2ef94e614",
    (6, 8): "5b66eda45b9dba5240bab054ac93f681f353412b5ef9eac3e8b0136c484fd3f0",
    (6, 9): "c4b30d54b423f1ef24328f76ff156b164612435355d5b1bb5600842277228810",
    (6, 10): "306ccfab42a0e0d99ebd3d5b477982b6be8fbf7951712111c8d2ef6a04182eed",
    (6, 11): "a7ae4250d215b536ee56600955161e1032893705b44f822b850fa1d2009f2efe",
    (6, 12): "7a66d3543c9b5b75dde7365cf53e2e43b94ac12e67ab72d8e70d6029426c5740",
    (6, 14): "fa4d908700cba4255ee3183f744521825cf31f7de2ec2a66acc754772c60f4c2",
    (7, 10): "9a724b52504a693ba23de503dae76ad7c806d6bb22997432e6d31d01829d5e8d",
    (7, 11): "a13cb3fb2f86325db40d4dea426f34d32d646e935716600b84cad74826b39b8c",
    (7, 12): "632bb3f0d04b68a4b17ab3503fece62dea3c182e956bf86c90cb24fce61e941e",
    (7, 13): "43f93b9fdb49fd19fcf026dc1b69d76e24194fb524ca4d2fc86b12ac4790e897",
    (7, 14): "28dc6db5e0f99645b97a1c5d4c8b30a86b542329d5eaba5f27aeddbdf6f17d83",
    (7, 16): "0a86257b8f18321919f6c73a2f4d94fa8b9ce1ac04d9f029360a8bf4360096b9",
    (8, 10): "2caa5db342bdd685735d1257eae985a504ce3dbd40c1983e589ab697beca7617",
    (8, 11): "1c3fe1732fd57833f107083c7cca1a42014f3d7629a0c84a6c7ddf2be6387400",
    (8, 12): "f780e41273819108fea65e5c68eaf640ee86c21e03b62454966e7a0c68246fda",
    (8, 13): "9ca7e27434383410651aa35055b710416b658c630b9dc3e65c88ff2c5ca9fc2c",
    (8, 14): "62e60761900178e5c74a1223e1b117856708c49f5f35f8535d87445069731449",
    (8, 15): "1e6f6057eaa06f5360d62c92ad0b3b15e8b6bab7b9a76adba35a207467cdd1af",
    (8, 16): "0e69ff985f16e72bbfe86758ce2208e23e194cdb4dab8be4fa724a84e24d3581",
    (8, 18): "77993364a099855dad11aa268f1538b7820bb7f32559dda0c117d1d6532b1091",
    (9, 13): "5021217354b0165c9ed6b9731718567bb69ef29b48710dc67f71a76b48f1baf4",
    (9, 14): "29d93e33a5b354882920c1f2394e6d68905176b90c48868976c20d3d76e5e6bb",
    (9, 15): "1ba7d3908134c3e9f0b91d3cffd3513d9886b2e67991b28714b950d1d46bfd4c",
    (9, 16): "f99d33e1061a0fb18b76bf520e7381b3287cace09c564f55fc7905fa97050602",
    (9, 17): "b8d06a72ff31c61d930755648e0c1f46a6011c312ad1fbaa12faaffa353a590d",
    (9, 18): "44da697da28ea3ceb0ba7ab386c11c13b52b0493ae951a0b6a6b5f663122d466",
    (9, 20): "13782a9f4f6c965cfe2d1a7f809f3d4e2e98a72a1d5f05a14f5a359b0be07b6a",
    (10, 13): "69156675378b2cf17f4f931907aeaf8846fbabbed1cc24e758f510fb3e46c35d",
    (10, 14): "883aad6564e8325fda4d6152871bdf4fb5ca2aab7a29145ad53f43059fc6848b",
    (10, 15): "0f084fffe335f5c8495e2de1e8e7ce82f11b528cb8b30bde812c338e75962a58",
    (10, 16): "2c813f2b9c859f1b518e4d8cc23c63c9ee685729b739da30f001a39d63e6d3f6",
    (10, 17): "b8ed37aca99bc41f900735308a583a1f46a8c8066ab60ef29b8df0726df37ace",
    (10, 18): "1555e25fb9a45742fd6dea65995d479f9114127bafaae2f36eeb4856b9a4e4f1",
    (10, 19): "fe4efb5f14b01afa4cb3c41aadc665b6a3e262b245e65c51152799eb21a9efb1",
    (10, 20): "992ed102281eae05f8ffef86dfd4b6c2b1f6326ce057fc77cc6b6c1326f33ed4",
    (10, 22): "3c26a0121f1d16254bd1a53d711142a7595d09e275067859dfc0ee8b697ff552",
}

CURVE_DIGESTS = {
    0: "15a9196defa7dbe844a246a3a2a5e33125faa4278cbdb11989f4c1572616a94b",  # (2,7)
    1: "e6d3c412934a36edb6d6a23609fbaf0088dc819e77c3c87e35bb01ac631ce3e9",  # (1,2)
    2: "a91d3b4c1ca3249440f167eafb51a458403820825a3bb9e9f306dd8a9d2bf711",  # (2,7)
    3: "21907913062e80a54239428898b2f1e570b834cc01314023b87994ed33095011",  # (2,4)
    4: "2ac8ea61fe9464db35c086e0dfacf57e4259cae9000cbabf1802b2d20efab39c",  # (2,6)
    5: "518e8d65f2868191cffc20db13244b7b38de41c4e8149e590a3ba560971c1d68",  # (3,6)
    6: "f909bc735642df535cdf22a2751081363c1a41ebf2f25afb4e41679c14f51ec6",  # (1,6)
    7: "40e84ea271be0af79139c2ca2bca37ced77de588031d90ca5aed0fedafb394a7",  # (1,2)
}

NO_CURVE_DIGESTS = {
    0: "1817017eeaa3dd11f267526db66ac3176f73e096d95691d7222e221735c51eb1",  # f-identity x^10
    1: "f9ff5988cb06c0bcb69ad0f482527105de123362169e45c5e823a3cc2813dbad",  # f-identity x^6
    2: "9fbfc678d52f765423f8e01b3eb5d508e16c79208067227d0230a0b6803fb622",  # f-identity x^0
    4: "ee2e83e7c5303eaaca2964ea2b0f768db337e09604d9f0d797a8d399eb1ea063",  # f-identity x^6
    5: "7c4b0bf8d5e2c326d31a0a7293c0f5da6bf9018bc8545ae763aff14d8e9ee76b",  # f-identity x^13
    6: "a57a0b832dd165534d52df4fd6734fbb52a162c4409427cb8e9ecb1ae2c8c3f7",  # f-identity x^4
    7: "52e72d415042f283e568573a0c1591ea36ab6c2ee7472334eaa358686c17ddbb",  # g-identity x^10
    8: "90a34b9f2dc1809a0be96119f3a27d985e16813e82e09fab4e4fadde806a841d",  # f-identity x^6
    9: "7e6aa743ef43fcbf1bdf133ca00d89bfaf6300f0a17240caaa2b82c4fb4ae03b",  # f-identity x^10
    25: "b60dfbd40983b0ef88015c4cfff904f53b4b2355650bd6c94e030795e7e739b6",  # g-identity x^13
}


def _reconstruct(doc: dict, capsys, monkeypatch) -> str:
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert main(["reconstruct", "--stdin"]) == 0
    return capsys.readouterr().out


def _curve(seed: int) -> HyperellipticCurve:
    """Q = c (x - a_1)^e_1 ... (x - a_k)^e_k and P = (x - a_1)...(x - a_k) T,
    with a_i of denominator 1 or 2 and c and T fractional.  Even seeds draw
    deg Q > 2 deg P, so n > 2m+1; odd seeds draw deg Q = 2 deg P and
    c = lc(T)^2, so the top of P^2 - Q cancels and n < 2m+1."""
    rng = random.Random(seed)
    while True:
        k = rng.randint(2, 3)
        mults = [rng.randint(1, 4) for _ in range(k)]
        q = sum(mults)
        if seed % 2:
            if q % 2 or not 0 <= q // 2 - k <= 2:
                continue
            t = q // 2 - k
        else:
            t_max = (q - 1) // 2 - k
            if t_max < 0:
                continue
            t = rng.randint(0, min(t_max, 2))
        break
    roots = [Fraction(a, rng.randint(1, 2)) for a in rng.sample(range(-5, 6), k)]
    lead = Fraction(rng.choice([-3, -1, 1, 2, 3]), rng.randint(2, 3))
    T = Poly([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(t)] + [lead])
    c = lead * lead if seed % 2 else Fraction(rng.choice([-5, -2, 1, 3]), rng.randint(2, 3))
    Q = Poly.constant(c)
    for a, e in zip(roots, mults):
        Q = Q * Poly([-a, 1]) ** e
    return HyperellipticCurve(P=Poly.from_roots(roots) * T, Q=Q)


def _no_curve_system(seed: int) -> dict:
    """f of degree m and g of degree n with small rational coefficients;
    odd seeds draw n < 2m+1, even seeds n > 2m+1."""
    rng = random.Random(seed)
    m = rng.randint(1, 5)
    n = rng.randint(m + 1, 2 * m) if seed % 2 else rng.randint(2 * m + 2, 2 * m + 4)

    def coeffs(degree: int) -> list[str]:
        return ([str(Fraction(rng.randint(-2, 2), rng.randint(1, 2))) for _ in range(degree)]
                + [str(rng.choice([-2, -1, 1, 2]))])

    return {"f": coeffs(m), "g": coeffs(n)}


@pytest.mark.parametrize("m, n", sorted(CELL_DIGESTS), ids=lambda v: str(v))
def test_reconstruct_of_grid_cell_is_frozen(m, n, capsys, monkeypatch):
    assert main(["construct", "--m", str(m), "--n", str(n)]) == 0
    built = json.loads(capsys.readouterr().out)
    out = _reconstruct({"f": built["f"], "g": built["g"]}, capsys, monkeypatch)
    doc = json.loads(out)
    assert doc["verified"] is True
    assert (doc["P"], doc["Q"]) == (built["P"], built["Q"])
    assert hashlib.sha256(out.encode()).hexdigest() == CELL_DIGESTS[(m, n)]


@pytest.mark.parametrize("seed", sorted(CURVE_DIGESTS))
def test_reconstruct_of_rational_curve_is_frozen(seed, capsys, monkeypatch):
    curve = _curve(seed)
    sys_ = derive_system(curve)
    assert (sys_.n < 2 * sys_.m + 1) == (seed % 2 == 1)
    out = _reconstruct({"f": coeff_strings(sys_.f), "g": coeff_strings(sys_.g)},
                       capsys, monkeypatch)
    doc = json.loads(out)
    assert doc["verified"] is True
    assert (doc["P"], doc["Q"]) == (coeff_strings(curve.P), coeff_strings(curve.Q))
    assert hashlib.sha256(out.encode()).hexdigest() == CURVE_DIGESTS[seed]


@pytest.mark.parametrize("seed", sorted(NO_CURVE_DIGESTS))
def test_reconstruct_witness_is_frozen(seed, capsys, monkeypatch):
    out = _reconstruct(_no_curve_system(seed), capsys, monkeypatch)
    assert json.loads(out)["no_curve"] is True
    assert hashlib.sha256(out.encode()).hexdigest() == NO_CURVE_DIGESTS[seed]
