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

A faster solver that takes the same steps must print the same bytes.  The
digests pin the schedule and the witness of the top-down solve on E(P)
(see `recover`); a solver that takes other steps changes them, and then
the verdict digest of `test_recover_frozen` must hold unedited.
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
    (2, 6): "ea51d4cabaf9f852796b863681a2c26299a573994d13d300baaee247967e222c",
    (3, 6): "e1ced490f6633ba8ca51e271060765768fa39563379bd9074159b3cf6485aa5b",
    (3, 8): "455166dbf2f0fa4622ed0e3f720e86db4f1640ca71d4cd785645cfe74a99f3d3",
    (4, 6): "96b9597b8acd80bc38816752edb194faff81c78500636f13b3af4be98324a9f5",
    (4, 8): "ebcc408782b83de91067e24c22c3421ae6d60f3788f5b46b0dadba3eea81c1aa",
    (4, 10): "89b1052a0165ffc2a5804fba73d9a7259adf9b1207588403970aaf3f0d028c84",
    (5, 7): "b57e654b9c15a01fd18d095b6bcfcf110b38581326bf1ff713a4f5671c4fdf94",
    (5, 8): "6d5cab33bdb6cbbba23cb9b4487053d019880bc886e3897f17fc4e4208c2e42f",
    (5, 9): "a0117d7adda9423763201e06cdb16fef3711bd1bf2811d0215cfcf280b57b076",
    (5, 10): "20b1257f9d5b02d9f5e59846a230a95c37f0b6d3d4423710003bb735847bb06c",
    (5, 12): "ab002dd33a9e7e143a2ed3d3b757814b86187ea42320648b764a6be306d85d85",
    (6, 8): "0fd11d0b491fce6062984917fb26c56886d8faa65f0b50f95fc6f9424683ed16",
    (6, 9): "6c4356d168256302911b76c5838653746b2eb195713e177094eed2ce92fe932e",
    (6, 10): "3932af92ecb6ee610ee21b1a03a03b1b3d09569eb457b5cf675d78b00e331e8e",
    (6, 11): "bd6e6b69c095aa8192edcc659f4574e6cf20ddf833f895efb78e6ba2134e8399",
    (6, 12): "9da41f4edb86af645111532b813a4e6e5c702979f92e831cb364ca69adc94b5e",
    (6, 14): "8e7dd5b3c42dc18347afd03047e05aa2aae079d164335367b0edd7b7780da093",
    (7, 10): "b095da352b81951dc921adcc01927926ca10a0e00c68f8887052092e712cdaab",
    (7, 11): "f6f127807d9bde5a181190feab38a00d096a58ae1f2ba726f3a1084eda6fa94c",
    (7, 12): "aafa823430851d1a7d90963a278adc58338f476c6649a5388bead08474b67246",
    (7, 13): "f058241bbe48e00016199b9461f878201e9369fdbb3af24c6b721b5b097fe323",
    (7, 14): "f15e33e89efa7c2281a73df8dbe4a99e91850304f0b0618bfd3eb791e4d5e9a2",
    (7, 16): "5b9be610351acd54191da8d60411c399979d49a888ecf4c944eb4b989a379bff",
    (8, 10): "38374b87a146bac07f0e9fb0afc4c2f1434f73b5f2e0faf5e8f32c26bb1109ca",
    (8, 11): "0ba757f146b0d90d9da23504ed89768430544d8ed996ae1b8b96b1d5b54bf42f",
    (8, 12): "f747d0004c3a041664febaa404746a0cbf969839315f54af2440dadd66d5edd0",
    (8, 13): "0983725d5e474a8caaebbcf9aae30c25b14aefe1f7764174c4137420f9c2d9ee",
    (8, 14): "f1dcda47275b29996262fea28134ac4b1fc20232db9300548bfb9904d9d71b7f",
    (8, 15): "62f06b90210e0c718fa76f1cf2ee4bfeabcace881ad2a63d44c01cdcb5f2317a",
    (8, 16): "309018d407904834b2001453065f73568c62775103734e6aa0f1927d0efef075",
    (8, 18): "0d2d8781b3e8717274bb1d94c7ea91571b5d07e2642cd728cc4647891b0339a3",
    (9, 13): "8a6c3ce76fc062549528d1932d41d6232c722d69f7580647d4f3e5566b71b422",
    (9, 14): "cb6957b57ded36770b21794afd088386ea111ca06c26dfa4b2417753f302f0db",
    (9, 15): "b49b9d105bd6cd66998b762f3b295d234c40118e0c62521aad9a872f7e9ebd60",
    (9, 16): "c5f8b920d25320d2bd2f5e1f0ceb7bfe342b8eede992408f85f418f284a35925",
    (9, 17): "beb94b0549ddfcf80c5609a1ec2860abd140089c3c741785c4bcf2a9ba83f588",
    (9, 18): "92c17927db091326c6a1092f3e7f7c7c462107d1caadf067cdd2009a3179eccf",
    (9, 20): "28b32f20be2969dd4f409278501cb80037cbc90099de04208bb5ceeaa5877592",
    (10, 13): "9f4e2bffff7b0b749801ac567d9350c6d616dec1c4461f454a77e4cfba1b0b05",
    (10, 14): "eb0226c801cdf5e80c77df590fdc53942e9459844ad3754c2682fc83247d6a55",
    (10, 15): "7afbc30065f54fb1e46b6b6477d8a67f2f8bf1e36e57d0aeb4be67aa95daf624",
    (10, 16): "c78f7ae63cdb3ba69b1664edc8e8e612314cece95e84898516d7661ca2842639",
    (10, 17): "be1e5f15c689bd3f5397c1a58b8c7ce45534c7a6c0d8a51b11b1501b5b541c7f",
    (10, 18): "992e95996749c2f612e83b16d6c7f3390dfdf2021cf5a0f1610a366e3125e5ef",
    (10, 19): "55e396ea9e2de59aa5655a05b5e213cd0f1abe91b2ef71cc7f2b099b4882ffc3",
    (10, 20): "d86b9771080aea7f5db13d5f8efc2d510f68e97ee986f33b56827b1385129b4f",
    (10, 22): "097ee1330fc81e894ae42b6bc06fa1ea63efee44279720ceef6722c40eb92ff7",
}

CURVE_DIGESTS = {
    0: "b342de05da8c8acabace7e4a8bc2531612ec85cc70d31129be5f5a105150058e",  # (2,7)
    1: "bc784741a74dacec5f27ec0a68dea7bc7f732db4d58d85518062e447d53825b4",  # (1,2)
    2: "e77ae7540aee577ead72778687a26b161a97a43d9cab7294413e13c76a60829c",  # (2,7)
    3: "7e777e7946d2c5f84ee09b3767ad8ee6089f0c899f3b90df2ba66d6d0a9cd75b",  # (2,4)
    4: "1fae66e025c05543a612545d9cca85ef835c5f017913571f82dde18972ffd4f5",  # (2,6)
    5: "46db178ed55c6f9fe1d8d1fef2c84772b351496142a29d55c97aebe091f11274",  # (3,6)
    6: "efefe4b7bda20a997eb082a4424b59820508956a45f0286808eae30e6d98fb5d",  # (1,6)
    7: "f6813827de0f6690754fb38a45dd9e97e75167e02d3183855b197771669114e9",  # (1,2)
}

NO_CURVE_DIGESTS = {
    0: "7b2af4df8026d0e624320e13cf61782e70a101af16b9f0e895d053bb1018dfbb",  # f-identity x^13
    1: "7fec77bacb5f57fc8b29cf1b183c240bdc1a8066a4249a91725f35c50cee07b8",  # f-identity x^6
    2: "8f8c8df37a41c40e05a12ac78613e97de9cb6ef7e21ac6320578111f59128759",  # f-identity x^3
    4: "8fafb4c1114e71b5d7d93bd5e6bc63b1fcc74cf9714ddfcd1101fadab04e1fa9",  # f-identity x^7
    5: "c7bef71ca36acc349cb9e58a3046a3832653d5febecfaeda5ec15752f47e0476",  # f-identity x^15
    6: "2636a908ed45c2313651453be6a99397ff32fe5429887097cb83c7ea3a3de3df",  # f-identity x^15
    7: "9510794716fc81f600ccbb28d4ba0a921ec05ef0db71d9a1ffcb20b9c6720c40",  # f-identity x^9
    8: "3809492d07648b95e3ee6c8e2a9a742b5191e9fd234d016b60564ef4426bc4aa",  # f-identity x^7
    9: "8cd995adc9a11af5fa6a4136e297759b08e1d9cc614d7700f4bbedf178cc6ece",  # f-identity x^12
    25: "e3cc2c95feda0300dc3f3cc96ab4b86ea33b828c219b6d3d8f31aea7140b457f",  # f-identity x^12
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
