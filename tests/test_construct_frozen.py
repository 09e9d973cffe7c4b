"""The `construct` CLI output is frozen for every grid cell that constructs
(m = 2..10, n = m+2..2m+2).  Each reported interval is the canonical
isolating interval of its root (`RealRoot.canonical`), so the bytes do not
depend on how far certification refined it.

`STRIPPED_DIGESTS` pin the same output with the `lo` and `hi` of every
reported interval left out: the type, P, Q, f, g, the parameters, every
verdict and `certified_count`, which no choice of isolating interval may
move.

Cells marked "ladder" take the perturbation c of at least one inductive
lemma 7/8 level from the exact windows of `_pick_d_then_b`, directly or
through the base curve of a lift: a different pick rule changes their
digests, and must keep their type, verdicts and certified counts.  The
other cells never reach that code.  `LADDER_VERDICTS` pin what those
cells must keep.
"""

import hashlib
import json

import pytest

from hypercycles.cli import main
from hypercycles.families import construct
from hypercycles.lienard import invariance_check

DIGESTS = {
    (2, 5): "b715db75c2c89e36a69851ec911e380a1a8e44a717db5ff5a0610a9b6fc7f051",
    (2, 6): "c6787fb00ea7b78d301599b6e20b016fe6e2762cf4874d94dce82814c375d24b",
    (3, 6): "8e146412de861c26a9bdb82ffd6b6fa2e1d505e8060eaf58cdeaafc7dc86eb30",
    (3, 7): "b3724d22da11ca9ed5419107b45290d248674e95a4588ac8335fa998d0b18965",
    (3, 8): "95046ffbc7875f990c39873024df44cd4b4a72730c65b19a496c60788089fda5",
    (4, 6): "6e106ebea748b40365b00b416f10afc8f0b9c49c54eff329bfe1cd28d757110d",
    (4, 8): "c78aa4fc0980ebc513d6db3b38a0b11a990b432fe196d2732a608eb15e8cca1d",
    (4, 9): "eefc1a466efc7e391f83f6b7dfe236b4b388e03bef629e21b839933e52211b85",
    (4, 10): "a02a0d1047a11a8b5286be56f09a167aca515f664cd56edf76eb23ab87d63a69",
    (5, 7): "52fcc45e43d8d239b3298e3c572431f7ffdb6d2d9c461a6ac468fae7dbce4771",
    (5, 8): "fd4e4ba881155b7d20410a367e67116cf7507a0ab0cb313f76fbabc6c9809652",
    (5, 9): "4b82f766506cf1f2ae69e78988d5a417c3c1883abb01c312dd0849c4142bbfab",  # ladder
    (5, 10): "813203daae47b1f4b3199f0e36e71c53b281cccca405c2ea9aac3464dae06d3a",
    (5, 11): "69696ee3e6ba32d5064267747055528a32d69b1d08cfaaa58d82e4cc796409e6",
    (5, 12): "e8a844c099a2f8c8fad494c87744977edc33e7539f397dd0245d52a03234e84c",
    (6, 8): "b7afb290fbf5d1f495c80a0719baea044fb08e7a593307df016ebc76e7195687",
    (6, 9): "1d131fe77a31f30b9efd2a06741bc28e886194ec3a0040a42204d16f02cc97df",
    (6, 10): "6333dac0dd4f8cfdafec4e27d0d4eaed6d57d6d478935254de1a562f3a2e339d",
    (6, 11): "3e56b83cb359c7877b754f05756024f7b06621e3d6b6a3e9c571237a3e9315ea",  # ladder
    (6, 12): "2f8f4c1c8c59d43c6f59f6b3d8f4e78a4dc63b5dfa4ac094c8720c711b48d9d6",
    (6, 13): "66ae5e6f93f46c28a8ba82e689bd0672c81ea589dcdea984286ec65700b3b528",
    (6, 14): "1194f3cc0679d20dcbd6fa6e98718f2146e6736f276b60dc8c12c3bb128f673a",
    (7, 10): "1fbe99ab6e428544894c2e8b7c48c1bbceb1aa0c686280437fa24722ffd2de57",
    (7, 11): "d6352ec8bc169cad90a9c4dab4196327dccb8674b9a008febf7d3a2c0a50ad2f",
    (7, 12): "441d14e5e5a20e22f61154f596d2544d231b5062e79b4ba314bf7e8ca843077b",
    (7, 13): "180b56bb9e92646b71878af7c34292de7e71b5c9cfe5b882f0e920c34ea01470",  # ladder
    (7, 14): "00180948bde59543133e0af7abba3b5bb70b2ee79c2bda6e98c7f79e65ffab56",
    (7, 15): "f5161f988b98c7da754c9230290bb4c04ce5723f92b572c35b177718b4ca8740",
    (7, 16): "02674e98cebd01f41172fc28f3de4fb2ef7d734e6fbb34070aefdb67a2778828",
    (8, 10): "7f8dca5893779a8af2c2772045cdfef707c6559b5e25dedb0ce1900c72703b2c",
    (8, 11): "7bd76468e3a668923d6895266c943b6fd20342175092e7857851921573cbe91b",
    (8, 12): "c3518d7bbfd4840b2b46aaa082cdbbf11fd52c1ead85c2373dc1cbfbc6a1eec4",
    (8, 13): "84340e818c50d23295ae213e3a4726dbbe30ff9d3117bc2cc1ff6aae91a3baae",  # ladder
    (8, 14): "4d0bf18096b2f2131f14d33ce3ef5c9b572ef52a22827ffff8799f91ca46b171",  # ladder
    (8, 15): "162dabdeec9d3bdaa797b1a25f06cd3781556017d327bc086716a8595d42b31e",  # ladder
    (8, 16): "5fddf4c332a4d4f3f0d2a198b87301c8e3142d0ed2cce76eef5aad45d07381ba",
    (8, 17): "0cabbb190ba0228471714957f0409024c4c7eaafc6da10dce67dc564730c18e5",
    (8, 18): "3900a9ceaf957b4042e80c502e7c800e4d8a9db0769b6512e8e4364ddbfcc872",
    (9, 13): "8a2ef9e138a69c3545b88fece415c623630890b9879c6f12248266d6f516006d",
    (9, 14): "927713b9fbc25b7e978383fe7e4fa9ab7adc35487bf713a945b940ffe6897444",
    (9, 15): "7b2610770dcdaeb8c911436bfa264ee467cfcd4e9be80463d5c5267e7ea4c60c",  # ladder
    (9, 16): "fdb75176ebe4a794796c75dea6a34f1db1e831621a07c38f252a6036c4a59abd",  # ladder
    (9, 17): "76d00d03a191dc9b4e3009852059f474cbdbacd7161a129bea79bc9bd35bf005",  # ladder
    (9, 18): "465b7e7b594d99c30e97535d0457fdb9fe3fadf330454bcaca799d63c89a6019",
    (9, 19): "76102a77adf95629c1dac55c8fec5c15e3d08ed6db6a10ccd97b5e1384e63cce",
    (9, 20): "90a54c723052ab1e3e89721cb4dfb7bc61cfc7ff773138a9b8435a81d0804110",
    (10, 13): "52628e066769560134e2122f776a4bf1dff5b394d048301a655e4ee90aaa8511",
    (10, 14): "686dcedded963032801fc58512e3048fccea4ad8f45ab88c1bbfcc42504ca4d8",
    (10, 15): "0d07792a5676714453e3016159a0a7a211f8372d9c9e7b3c56591fed604243e3",
    (10, 16): "28fe90076fd8056543a5eef7aaa2da259c1da01adcb057f1e7e172d06d052f3d",
    (10, 17): "d5d3fc14ba9d3a8dc054a69c31d5d555201a2b4be68313f512e61a4251de139e",  # ladder
    (10, 18): "76b1889d4f43d34889eb9da4aa7e109c5b7d29dc41fc5914cc700ee8b7f83933",  # ladder
    (10, 19): "3091fa9b71b13e7c47ca1f9d94175165efd96cb8a66707715d0e33a062745073",  # ladder
    (10, 20): "f5a911204655943fb7655d90bf2fdaf07e5e4425bf2d8a1abda445a564cfa917",
    (10, 21): "8a29ea173ea9117a39888833f611899f07aa1b206cacab8f1246c88a5aa4cda6",
    (10, 22): "b18ca933796b403b2e253582c667141c7f8d887c2459ae7bab1d0632a8891753",
}


@pytest.mark.parametrize("m, n", sorted(DIGESTS), ids=lambda v: str(v))
def test_construct_json_is_frozen(m, n, capsys):
    assert main(["construct", "--m", str(m), "--n", str(n)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[(m, n)]


STRIPPED_DIGESTS = {
    (2, 5): "61b58f67bd69aa07a4f2b80e48c9790aaf5ba7203baf7adf39a6b97f794ff0ae",
    (2, 6): "58b7c8c84b29d41790b38abdbdab6cf31ca95244e20b535efefdeb6091615b3c",
    (3, 6): "cd7354f6c580c809ca133a1b615ccc51d8ea1d7f84a5e0876df5ebe3d69cb18a",
    (3, 7): "882afc4f5ad838ca42f7f774133d3f4a70b7f28298b67c5ab3f170d680c79bfc",
    (3, 8): "d8e28b0416cbd9d229a1cddcdc578c134a6d3fdd2e6d29401fd36561a4c8c8eb",
    (4, 6): "efe6b9c4c76f6263c7fc3866b68dbaf9b9b9c74659738cdc57d529a19372792d",
    (4, 8): "78117645679e8f02bfd83ac73fb800e8c47eed485e14b1f59e9722d63e55aa22",
    (4, 9): "69e09a0ef5a44efbf0ec17fd97b11b462d263a5e3b979e9688a00ced18ee161b",
    (4, 10): "4d890d139b01567524ab71af35ecf1c1360037ff9b6dfbf4aec51e5569c949bc",
    (5, 7): "fbb2b771245c8761258850371ea3dfb58fb18c4a6b214a42e6a473444b3ebf64",
    (5, 8): "c974095b74dec31474c6fb56a4f428bd6b595a252f240cbc966ab635d21c73d3",
    (5, 9): "1e1bc47c5fa0fd69066ff300d3c0323274ddc33e01795e2e31a574488fcf6ce0",  # ladder
    (5, 10): "e33baf20e4c7c8d44610568d91f3c316fb438eaae0d7f28cadbb302f7c7857aa",
    (5, 11): "985a98945ae971144b4bfc926a3079e6449d2dc3e017b63602e9d24b1e25fe7d",
    (5, 12): "23f967c7cdf9c5853c0d1c3252061b2f2188ce1adc3ff560d1b2f061a4982e55",
    (6, 8): "7d692b0ed17608b403fcd378737ce527da4c873582e64039a90b5c0f2b987ebf",
    (6, 9): "e409e0d043a7bc3554316c0e1aeef217d040b2304b62ed9fdcea16c5ff9af485",
    (6, 10): "04a8c195482470fa984583ae5a0946c1d1feb9015823f1838dba24e43b77b971",
    (6, 11): "1a0639557f5410fbf7802ae8df5346cf66de44c79f57949f0e3b375c00913f59",  # ladder
    (6, 12): "4d7e743d70b5862c00532b5150cace55aed633a7b900fc7e985ee4830e2a5b65",
    (6, 13): "987a0b0e86e611166849e528bd7309432b6fd221a492f3440c1dd44fe580e12e",
    (6, 14): "17d83ad75cac3697edc3ca300e6e19570397db348de6fe99df416bf08c079fa4",
    (7, 10): "238ae1a0c73a3fe48580115beb1868562671163d0e67f59ffabcc9e85e4a6750",
    (7, 11): "09b0a170707a21e5f98217ddc0967df22c78503321bf6a4f02ade636b58b5baf",
    (7, 12): "de67b7ddba40760ed9d8d1d394a69c3b2dc5ac2518f72f9df3093362044a788d",
    (7, 13): "379f7ffb081908143fe47266cfedb08a32c627c74f5ad350da87f5106f9d24ee",  # ladder
    (7, 14): "6fb082798ca8c36519a83334eea804583f2f9f93fac469544194f1b57efe2cb5",
    (7, 15): "53f0c63ecf3a9863708d6b7d0e8b1833207e992933e21c685def7e848f9f81e3",
    (7, 16): "4d63b3d5fc5a32f33a4d6108a33953850beff0d4e7927921394b340ccba3c98f",
    (8, 10): "55ef18369e4f655dce0bd93c5b94621b83624381285084ca0085aaddc0ed6fdc",
    (8, 11): "654c6ee800fee20174a31d47f2d70c3f1c666f58da674b99190af3331fe70432",
    (8, 12): "4cb486216818ba724ebf00d2a9ce14e780121a0bf7458061871936380840cb43",
    (8, 13): "5b5463a8871eb1ad7444830bc86a5ff5e12488060452d9d279eda805effa8943",  # ladder
    (8, 14): "2d7bb6be3d578b76173c2df86ffa75097250b2e27d685569e8114d198567825f",  # ladder
    (8, 15): "be537960ce9983dc073b9ef668d067cee2f9046d93631bea8a116c5f49594012",  # ladder
    (8, 16): "9f578fb12cb8017499143b97ca1850065d1d4ff02485059de7d8707962465a70",
    (8, 17): "2886f28d8ec097f495530061b8e0bf6ef166f97752eb06035efe3847610b4dff",
    (8, 18): "670561ea7442c9eb8ae3b9ca8b41f9c289110880536179f0ce61c68f12d907ee",
    (9, 13): "a0604e20dd312570106deb12476402cbbfac2823e8ea1f7988639e7e59e483f8",
    (9, 14): "61105c3ff092e97b91fc2d7331cc0d8ff0682cfb5c59175e3cc7218ddf76d186",
    (9, 15): "77a8db52e4443424aa11efa282e3501e156f7d7a692b3f637eb1fb0f5cad4a27",  # ladder
    (9, 16): "3ba45c432e9fb27879b07650644ede403cac34fd341cf5c6bd9fc798d7c6355f",  # ladder
    (9, 17): "8f773cbb1baaca55e18b54690652a215aa63ba7e0e24f5ce1cdc464962cb646d",  # ladder
    (9, 18): "f6420df82a8df69e90146c4aacfdcbae81ca49e6fc08dd6ba9ae0b82bd58a4aa",
    (9, 19): "46c4b89846e015558395be87de40a8734c66f3565e1946291ca13264604d318a",
    (9, 20): "43e08e159d8381e0dfacec00ba22606ad39b2e2a2f10415242acecdaedf1f865",
    (10, 13): "7c54089e4aaea091ed323271c7104cb8355e3f6ff22a42ce78b69fcab836341d",
    (10, 14): "5a8ad9d3a1e7666128a1a59e6378aeeef78861067e21b3d7b8a84ecfcea5e666",
    (10, 15): "f62a887bc8b72a276dc440f9341a3f2a14a158e497c7b1c8097c82604afef982",
    (10, 16): "e989829015fce7db799aa928f2065e6218df137c1d0000b0b640d0c0bd65b4b2",
    (10, 17): "03350d295e0b7d53db6a02f764336b4f55d5121ec74a08214731963639605bdb",  # ladder
    (10, 18): "5f93ee70918a378e66a229720b3214ab689da39ecd4779a5225dc21eb8cf157d",  # ladder
    (10, 19): "fbdbf826575db7fd3380035afed7dcfd5371fe646bc21c61054ca416e5864e7e",  # ladder
    (10, 20): "0023a76905d0414e17ad11c2f1c91e84c9b9baac53d48d998404eee309515a30",
    (10, 21): "02cab280b9d1988f5976efd9952df72f8a39a3fc26f08ed35d305dd018b3792e",
    (10, 22): "f209bbf7c95e92c2f1f48ee39ad937639ef5c64b97ae92b16902655d91a9c51c",
}


def _without_endpoints(out: str) -> str:
    """sha256 of the report with the lo and hi of each interval left out."""
    doc = json.loads(out)
    for verdict in doc["conditions"]:
        for end in (verdict["s1"], verdict["s2"]):
            del end["lo"], end["hi"]
    return hashlib.sha256(json.dumps(doc, indent=2).encode()).hexdigest()


@pytest.mark.parametrize("m, n", sorted(STRIPPED_DIGESTS), ids=lambda v: str(v))
def test_construct_verdicts_are_frozen(m, n, capsys):
    assert main(["construct", "--m", str(m), "--n", str(n)]) == 0
    out = capsys.readouterr().out
    assert _without_endpoints(out) == STRIPPED_DIGESTS[(m, n)]


# The verdicts of the ladder cells, pinned apart from the bytes: a different
# pick of d and b moves c, P, Q, f and g, and must leave all of these.  Each
# interval's flags read, in order, q_positive_between, p2_minus_q_negative,
# no_common_root_qprime_f, critical_point_unique, gprime_positive_at_alpha
# ("-" when it is None) and certified.
LADDER_VERDICTS = {
    (5, 9): (2, (2, 2, True), "111111 0000-0 111111"),
    (6, 11): (2, (2, 2, True), "111111 0000-0 111111"),
    (7, 13): (3, (3, 3, True), "111111 0000-0 111111 0000-0 111111"),
    (8, 13): (3, (3, 3, True), "111111 0000-0 111111 111111"),
    (8, 14): (3, (3, 3, True), "111111 111111 0000-0 111111"),
    (8, 15): (3, (3, 3, True), "111111 0000-0 111111 0000-0 111111"),
    (9, 15): (3, (3, 4, False), "111111 0000-0 111111 111111"),
    (9, 16): (3, (3, 4, False), "111111 111111 0000-0 111111"),
    (9, 17): (4, (4, 4, True), "111111 0000-0 111111 0000-0 111111 0000-0 111111"),
    (10, 17): (4, (4, 4, True), "111111 0000-0 111111 0000-0 111111 111111"),
    (10, 18): (4, (4, 4, True), "111111 111111 0000-0 111111 0000-0 111111"),
    (10, 19): (4, (4, 4, True), "111111 0000-0 111111 0000-0 111111 0000-0 111111"),
}


def _flags(v) -> str:
    return "".join("-" if x is None else str(int(x)) for x in (
        v.q_positive_between, v.p2_minus_q_negative, v.no_common_root_qprime_f,
        v.critical_point_unique, v.gprime_positive_at_alpha, v.certified))


@pytest.mark.parametrize("m, n", sorted(LADDER_VERDICTS), ids=lambda v: str(v))
def test_ladder_cells_keep_their_verdicts(m, n):
    result = construct(m, n)
    report = result.report
    count, (lower, upper, exact), flags = LADDER_VERDICTS[(m, n)]
    assert report.system.type == (m, n) and report.all_roots_real
    assert report.certified_count == count
    assert (report.bounds.lower, report.bounds.upper, report.bounds.exact) == (lower, upper, exact)
    assert report.bound_consistent
    assert " ".join(_flags(v) for v in report.intervals) == flags
    assert invariance_check(result.system, result.curve)
