"""The `construct` CLI output is frozen for every grid cell that constructs
(m = 2..10, n = m+2..2m+2).

Cells marked "ladder" take the perturbation c of at least one inductive
lemma 7/8 level from the exact windows of `_pick_d_then_b`, directly or
through the base curve of a lift: a different pick rule changes their
digests, and must keep their type, verdicts and certified counts.  The
other cells never reach that code.
"""

import hashlib

import pytest

from hypercycles.cli import main

DIGESTS = {
    (2, 5): "b715db75c2c89e36a69851ec911e380a1a8e44a717db5ff5a0610a9b6fc7f051",
    (2, 6): "c6787fb00ea7b78d301599b6e20b016fe6e2762cf4874d94dce82814c375d24b",
    (3, 6): "8e146412de861c26a9bdb82ffd6b6fa2e1d505e8060eaf58cdeaafc7dc86eb30",
    (3, 7): "b3724d22da11ca9ed5419107b45290d248674e95a4588ac8335fa998d0b18965",
    (3, 8): "95046ffbc7875f990c39873024df44cd4b4a72730c65b19a496c60788089fda5",
    (4, 6): "ce48c627ac6f3cd13ad7dc761f66832749fe4a26549acbc8338bcdb525e6217c",
    (4, 8): "c78aa4fc0980ebc513d6db3b38a0b11a990b432fe196d2732a608eb15e8cca1d",
    (4, 9): "eefc1a466efc7e391f83f6b7dfe236b4b388e03bef629e21b839933e52211b85",
    (4, 10): "a02a0d1047a11a8b5286be56f09a167aca515f664cd56edf76eb23ab87d63a69",
    (5, 7): "fb91e43cdc2bbbbe0d5281c0089f39cdecb2290664475acc91c92d4e1f3ab409",
    (5, 8): "ee23217c062d3258d9347c727a55d5767162eba405d4bf1fdc4672ef1bcbd044",
    (5, 9): "413abd569ae48424deb467eb4a950215ef002964ed266fb7e0604729b756f4af",  # ladder
    (5, 10): "813203daae47b1f4b3199f0e36e71c53b281cccca405c2ea9aac3464dae06d3a",
    (5, 11): "69696ee3e6ba32d5064267747055528a32d69b1d08cfaaa58d82e4cc796409e6",
    (5, 12): "e8a844c099a2f8c8fad494c87744977edc33e7539f397dd0245d52a03234e84c",
    (6, 8): "4655ff1d97b673592bcc28db07e217d29e01d069bc70ece080d80f3a9411a30c",
    (6, 9): "9ca858bb08709ddf82d114fc1542f6ca59aa16367edd95dfff4e0a47b1a83027",
    (6, 10): "59bec14b5d632da6f588bdbe59cdada7f6fc58df75b8f7b1d992bc1928ec3dad",
    (6, 11): "6d36cb67ef48d1c696a937bd64be8a7c812050eda399de3629cf369c9d6a3bf8",  # ladder
    (6, 12): "2f8f4c1c8c59d43c6f59f6b3d8f4e78a4dc63b5dfa4ac094c8720c711b48d9d6",
    (6, 13): "66ae5e6f93f46c28a8ba82e689bd0672c81ea589dcdea984286ec65700b3b528",
    (6, 14): "1194f3cc0679d20dcbd6fa6e98718f2146e6736f276b60dc8c12c3bb128f673a",
    (7, 10): "84e3ebace2850fc6471b6a7572870c272cb11c5e7e046a0676328960770d3cc6",
    (7, 11): "180314983a702327c763526e8c11a9e074b955f6e469ae8eea5fe1f6d1c45ef9",
    (7, 12): "df956b6bb67f9e48a7065b7920f5d931c542822c2218aff48df2864b547ff796",
    (7, 13): "10ec28358967d8bace4efc67ed8a9d80b4110d212e397386ef450721524e32bf",  # ladder
    (7, 14): "00180948bde59543133e0af7abba3b5bb70b2ee79c2bda6e98c7f79e65ffab56",
    (7, 15): "f5161f988b98c7da754c9230290bb4c04ce5723f92b572c35b177718b4ca8740",
    (7, 16): "02674e98cebd01f41172fc28f3de4fb2ef7d734e6fbb34070aefdb67a2778828",
    (8, 10): "5ef5cf9840c025d9eb812fedca1a514c4907f6e6d5ec6f3bac6a91b796e68012",
    (8, 11): "8dc05484ceeb73bd1ebea23fac5fb6dc25a72b4fda3b09356a9179bf931e65ce",
    (8, 12): "652d9c36e9d4d9ca6524d1e50951f656cbde79fa054fbf3d253b4979fc098ed1",
    (8, 13): "3fa699600d48edc508f6ccb7c1d6a713f1b60b4c4c186459b52546186a985540",  # ladder
    (8, 14): "a8af6b9a5591ff717c78a885a7c8d2a37ac5ecd3952f2d5a4d30abb57deb341a",  # ladder
    (8, 15): "be9bcb6e73e4e0f3bc2ef44f3946a1086918ca9db023b55be3e0a3b94f701fd7",  # ladder
    (8, 16): "5fddf4c332a4d4f3f0d2a198b87301c8e3142d0ed2cce76eef5aad45d07381ba",
    (8, 17): "0cabbb190ba0228471714957f0409024c4c7eaafc6da10dce67dc564730c18e5",
    (8, 18): "3900a9ceaf957b4042e80c502e7c800e4d8a9db0769b6512e8e4364ddbfcc872",
    (9, 13): "1f29b478d9cc672b974b1b79376488d74034fd6670ac0c7f5466f7430f3bc930",
    (9, 14): "f1764b037fe56f7b81bb484913d5c710c7e83a93b550f82a06ba7928922e83ea",
    (9, 15): "e20d0c21cc204ae0c0cc8b9d817bee72226a8181b008cc141265377c62b1533b",  # ladder
    (9, 16): "fd599353e9697118b5693d1a4288d5ca4a0549e243b721032557baf5db3f9ab7",  # ladder
    (9, 17): "780fb1776f40f88ab90cd70f1a0f2442aefb5c612c2d2417a89be63bdad61429",  # ladder
    (9, 18): "465b7e7b594d99c30e97535d0457fdb9fe3fadf330454bcaca799d63c89a6019",
    (9, 19): "76102a77adf95629c1dac55c8fec5c15e3d08ed6db6a10ccd97b5e1384e63cce",
    (9, 20): "90a54c723052ab1e3e89721cb4dfb7bc61cfc7ff773138a9b8435a81d0804110",
    (10, 13): "98409f60b0d187754842cf41cda53f09b30deb4eb1e20a768befa5152213c332",
    (10, 14): "cf59d90727b1c25dd132f4dcff8d8882368330b803d95daedc95388fbef74002",
    (10, 15): "64b5511ff90fd806e3b385bbc619b8fa4e282145f33f598fdeed3add58b72e93",
    (10, 16): "861ff277b5cee3778371179d89b1914484f3a09ea882fc09f0e7427f24514d0d",
    (10, 17): "cd407b30ac6b81cd331766c4b5e345ed68530c1075a88b326e3cff747a09516a",  # ladder
    (10, 18): "bef5028233a265a07bf5abaef96d1f010cb95a68493f3b1d72279dde9f437040",  # ladder
    (10, 19): "f461c466bd9af74ee98f187742f829289812c7648b3d22ee9af91a1f36e3c7b0",  # ladder
    (10, 20): "f5a911204655943fb7655d90bf2fdaf07e5e4425bf2d8a1abda445a564cfa917",
    (10, 21): "8a29ea173ea9117a39888833f611899f07aa1b206cacab8f1246c88a5aa4cda6",
    (10, 22): "b18ca933796b403b2e253582c667141c7f8d887c2459ae7bab1d0632a8891753",
}


@pytest.mark.parametrize("m, n", sorted(DIGESTS), ids=lambda v: str(v))
def test_construct_json_is_frozen(m, n, capsys):
    assert main(["construct", "--m", str(m), "--n", str(n)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[(m, n)]
