"""Every registered scale of the four generators, at seeds 1 and 42, hashes
to the digest it had when each column drew through the per-call
``random.Random`` methods: the drawers changed how values are drawn, not
one value.  ``mkeys`` (125 000 rows) and ``sf1000`` take seconds and run
under ``slow``; the rest take ≈ 0.3 s.

``tests/test_parallel_and_golden_diff.py`` runs the same pins under every
other CPython ≥ 3.9 it finds, where a difference in the standard library's
``random`` between versions would surface.
"""

from __future__ import annotations

import pytest
from catalog_digest import GENERATORS, catalog_sha256

#: ``"generator/scale/seed"`` -> sha256 of the catalog (see ``catalog_digest.py``).
PINS = {
    "tpch/tiny/1": "8554df625f796bf486e9de19aae7aec58cb1b6387d5231d753c3b3b049e26e34",
    "tpch/tiny/42": "ed4364e53b800063aee08b2dd97668ec6ee4aa1fabb751696d4595daaa7041e3",
    "tpch/small/1": "c6bfa7f5a8b9752c69de749d940649fe7221432c197a783dc854218060df45c8",
    "tpch/small/42": "25df78ac46aec8fbb37388daeaedc4e2c965a50618246cd1515afa50735be105",
    "tpch/sf50/1": "4c330c28d235c9e3be926e89ca8b759b2763fedfec3ca8d937c681413499bf4b",
    "tpch/sf50/42": "d4615c8a24ddb4f08e83ffd92fb61a2f5ff8c05a8be38709d874de01f1daf77e",
    "tpch/sf100/1": "f524c5e2eae0448d88e17e7de7e61a510f70c24cb240c332e54fa0250673ffbc",
    "tpch/sf100/42": "c0fa3dd20a329527efc972929eb3487d12a7a1a31180083866e587b277f2282d",
    "tpch/sf1000/1": "50224cb15be32cf23f6402d6beba43f33d6e7e644b0112c9bd5fb5752628ba40",
    "tpch/sf1000/42": "0086289edadfd0356170a9b211cb13c8f36a1f94576e04f5f51f25041bdf4a48",
    "tpch/mkeys/1": "860902fc65186ba7c2c07b285a738c14a6cc87beea35932494a8d82246be3180",
    "tpch/mkeys/42": "ece8ec3fabeee783e9052609c12e5be75f7de6bbb874f620097cb23606ed5e05",
    "ssb/tiny/1": "0eb6fc313cca9bb3db007efe51f2972020d44ea20378e3376d92c5bb0402d9d7",
    "ssb/tiny/42": "200d4b553f864f36dbcf1b78390bf34bd1ea6e9aff0d776b965aa76b322127df",
    "ssb/small/1": "e484dd0efe533b42336d5e68741ddab8163d76b392c301a39d5aa652c129156f",
    "ssb/small/42": "c95931e29cf9e7e4f7568386f8532be9d5ef187ce9f82a91303a63f258baf005",
    "ssb/sf50/1": "ecf4415978230af8444dddfca5e70e75d3f8fc6bad8249938b91a8e79ccb1336",
    "ssb/sf50/42": "b0c31d6fc3d45a220c5786789297feb53ca90abd71e573e1e72d1193a397640c",
    "nref/tiny/1": "165cfc7de8220f6e753a5b6095ed46a4d38f5b55be2cab8399df4757762d2b9f",
    "nref/tiny/42": "ff4ec1efa26e4ed7789043beed7bcea565a23ffac2188675d71a3a7816cbe926",
    "nref/small/1": "cfa09b318e001be0c53458b1d18ca42566893b7082c61be05f47e4ce1f68b0c7",
    "nref/small/42": "2aa047f696055d6fdfa3a0425d9231a37d5a8751cce433f4427e25629f9a406f",
    "nref/paper/1": "a679ab46297acde7a50b58583262f9f076091948e26bac4874347939f3141852",
    "nref/paper/42": "a398cf1da911e80b244eaed1f5da61ae22f97555856187582ec4cbc3f16fb6f4",
    "mrbench/tiny/1": "30d61be5453f32bebc8f1179fcb18b7da992114a22390d7e084c76a77e4b6b44",
    "mrbench/tiny/42": "13cc41d9a39445e403b3d22fadc170777570a6fb91a2882279b964d9b0ba804d",
    "mrbench/small/1": "0d81656d40a44b6e4d9b34957a9a3c32cb913709ab40fbabfa46b9c1b7d67b54",
    "mrbench/small/42": "15f3e903bdb28cbad7824e969bad37af046539c6d2aaf9f528e9d809ca13e5c1",
    "mrbench/paper/1": "a36084e43d05fc5ddb8f1cc1000a811ccb4a418575bd7237851c75567cd3ed03",
    "mrbench/paper/42": "b220ccb1c5f9a2b3bdaadb478bb2f0dc4eb4eb5775f1bb82c3f7da928d67de7b",
}

#: The pins tier-1 checks: all but the scales too large for it.
FAST_PINS = {
    key: digest for key, digest in PINS.items() if key.split("/")[1] not in ("mkeys", "sf1000")
}


def test_every_registered_scale_is_pinned():
    assert {key.rsplit("/", 1)[0] for key in PINS} == {
        f"{name}/{scale}" for name, module in GENERATORS.items() for scale in module.SCALES
    }


@pytest.mark.parametrize(
    "key",
    [key if key in FAST_PINS else pytest.param(key, marks=pytest.mark.slow) for key in PINS],
)
def test_catalog_digest_holds(key):
    generator, scale, seed = key.split("/")
    assert catalog_sha256(generator, scale, int(seed)) == PINS[key]
