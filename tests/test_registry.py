"""The named-group registry: label realizations at their declared orders,
the order-by-order label lists, tabulated rows, and the divisibility bounds."""

import copy

import pytest

from mge import construct, is_isomorphic, registry
from mge.enumerator import enumerate_groups
from mge.errors import OutOfRange, UnknownLabel
from mge.groups import ELEMENT, TableGroup, TwistedGroup

TABLE1_COUNTS = (1, 1, 1, 2, 1, 2, 1, 5, 2, 2, 1, 5, 1, 2, 1)

LABEL_ORDERS = {
    "H1": 16, "H2": 32, "H3": 27, "C2xH1": 32, "EX192": 192,
    "S3xS4": 144, "W3": 243, "W5": 3125, "GP6_3": 729, "GP6_5": 15625,
    "B3": 27, "B5": 125,
    "K1": 8, "K2": 12, "K3": 9, "K4": 5, "K5": 7, "K6": 11, "K7": 13,
    "BIG12_SOL": 665280, "BIG12_NONSOL": 665280,
    "BIG15_SOL": 8648640, "BIG15_NONSOL": 8648640,
    "BIGPROD": 66421555200,
}


# sha256 of the int32 table of every registry label that builds densely;
# a change to how products, semidirect products or permutation groups are
# tabulated shows here before it reaches a catalog hash
DENSE_TABLE_HASHES = {
    "A4": "55f9113fc041d1017afc25c630c222d0cdf473902023fb0332b6f36fb3fd94e6",
    "A5": "931b73c5daa041efe10a5bf2d55602a743dcf5aee1293170a8005d94db09e71f",
    "B3": "736a4015af5033576b4fe95d67d7dc4ae5fd82d053588ce75f7261cbef152e94",
    "B5": "6305bb044b2f7b68e72dbb03661cb5985f5749dce20dcb1ff0b14db9458e5083",
    "C1": "df3f619804a92fdb4057192dc43dd748ea778adc52bc498ce80524c014b81119",
    "C10": "f31c163b3a01d3cf371cbc3e5463339fba4bb674c071858335a4301b867ca6f2",
    "C11": "6db28184f73ebd0f2afe97f02b068fd8747e40a889d6167f9eb2f06df3aec705",
    "C12": "95e853c042436f11d7eda0d1883c5880debefaefde06702c2d26b1cecdf395bb",
    "C13": "652c2eefee4417194146e13b8530a274483026684b89c3948969f01c28285889",
    "C14": "17cf25843d4a81e53b3d0c88b69ea2a72699a00456d2f18dd4cb3e59b55bf8e1",
    "C15": "aac407e3527e3f8d03c2c94514e6dfbec35abce99b64d83747908c2c9ea18e7f",
    "C2": "8bd2fa7c6873c97e24da3767da43702d8c85aadb7136ed816c324b1ebc6b26d2",
    "C2xC2": "ae6755f9e0f25932512eebd6b9c03ace2bfaf6ddcfab511694411edcb84a6a1c",
    "C2xC2xC2": "4bd2d302da8afa17e0f827e1ee4c1fa968b89fb3f5dd0dba9621d4ade814e62a",
    "C2xC2xC3": "51549e4be5b67b2a1590c905e8dfe76e18d1f68805a9e8b282d36de2ff52d711",
    "C2xC4": "fbfe04655f7b0ca677b323e5e166d0b55978a3479dd19101dcb3c5e9b0b356c9",
    "C2xH1": "fb5756bffdff105a8bbb2d29dfa7625585edf414c630b4850d076eb10057b80d",
    "C3": "6ced0cf01c15a0cfb730d6f177e211bcc740f4cc329db4643b8362d4ce425730",
    "C3xC3": "accd39f38b03265952825b6e6e5a9b23174089d41c56c1a0d38dc58a89399b83",
    "C3xC9": "a3bbb5c09179764bb92591c795aee9614225c46d0b64d2216b5bf263b869662f",
    "C4": "dda21c0c7eac5e110dd2377b15ccac9197ef8352f9ebc590eec8ad9def58b5eb",
    "C4xC5xC7xD3": "a4af6438ab3a3aa3629f0425723dc95de6580a22d6cd3db7c8d014c58b9da04b",
    "C4xC5xD3": "0e7fbd2c6b6e8d4ac0f21628ea8e6682aeb0f88629ee590751045bbfb38e5e71",
    "C4xD3": "c296a1a4574d70f9cff95fa2bba3796ff1c9f8c2b247328219ed9a1a192ab7af",
    "C5": "f27bc669f5be8e03620c5825c3f76aec293f51d04438c0c024c672514f33fe78",
    "C5xC7xD3xH1": "0ebe1007801ee496a5771af7d911658c56460b5724eea2fa1852e47e267afc2f",
    "C6": "84c95b76c6f1fb478960b43b3dd0626607eb91a6f425c3de1ce336c428441840",
    "C7": "bdcd54e3dba14b50538277fd28788c94220f0914ab60b623c757af03211b5302",
    "C7xD15xH1": "88b5bba5f261bbef36f9ad64953eec7a482bbb9976d72153a4dc55dda3ab9554",
    "C7xS5": "d19a9ef18cded43d971829e0009bc3d31daa4f6dab7e897d6f57c78958dec65a",
    "C8": "c791d253f2d877a6d6dd0f8e0a3feb9ef2f68bcc5cd5a0091741988aad2034ec",
    "C9": "67c1a634009d74b84b751a6759b91d3f68bdee22c5f8887122ac29c8472771a5",
    "D10": "2396846a9eccc5108ad5b09fd8d515f1b036b9927e7a65ae779b1a94d153298f",
    "D14": "cd49f8b9efd4c9908e729e74d46c56ed98af9c9470b996cc7ab86fd1258261fd",
    "D3": "2f0d5d2f4b5b8d73e719de80bc165a87aadd5d1df7956cbb22907417a87b72be",
    "D4": "63d8ec7e38a79d537c1d99811e7ea8ab40ed9027ba4b85379e29d0b9241b2f54",
    "D5": "5bfc0667130db13fb0f6d2eacafbf0714945c1a9335048c5bcec5eb93257180f",
    "D6": "a1ab889b2887be7febe48cb7b9508ba84bf060263b9b79b344c70e9e80fd48e9",
    "D7": "e5859b66f6e7d5f2046fe7094c315f0a9897c023fb721e861b37236984ca00aa",
    "EX192": "2c90289a29ce117079e054b3752cb60718772a6170e19946dfcc11474257079f",
    "GP6_3": "89b2ddcabbc452c633e32007a6437d5bc8cca2941d370f540153dc2e1a796e65",
    "H1": "5dcb8e60a3092164b0263179d4386c07724946babfa4d713aaed42bf0b461843",
    "H2": "acc948aff6fcbaaf690973425dd9a801cd1d1e6ea3b7f65f26a95e83aa1bce5b",
    "H3": "ac125fd63523b457d7a195ea3cb162075f39149a0a9fbce81a4c18ec686b843b",
    "K1": "38c63c126ff6d24a7c8afcf3eabd9cb7cb9ebfce262e7c602ed204e56dfe3af0",
    "K1T": "4823558bb5f4ad6bcf5aca8c27ada8005552f641a67b4b73eb8083f70775fd7e",
    "K2": "9354a078062a69b300ffba18c94a913afa1aef7f39a753777e8e51ae944c3391",
    "K2T": "ee907e6ca247a9a06be5bb8040e317c43efde735172461b8f8697e855965250d",
    "K3": "67c1a634009d74b84b751a6759b91d3f68bdee22c5f8887122ac29c8472771a5",
    "K3T": "0f7afd3201ea5fd73a81ca95b0ed4b0eadbdc47f12f49cb5561c20396522ba6b",
    "K4": "f27bc669f5be8e03620c5825c3f76aec293f51d04438c0c024c672514f33fe78",
    "K4T": "5bfc0667130db13fb0f6d2eacafbf0714945c1a9335048c5bcec5eb93257180f",
    "K5": "bdcd54e3dba14b50538277fd28788c94220f0914ab60b623c757af03211b5302",
    "K5T": "e5859b66f6e7d5f2046fe7094c315f0a9897c023fb721e861b37236984ca00aa",
    "K6": "6db28184f73ebd0f2afe97f02b068fd8747e40a889d6167f9eb2f06df3aec705",
    "K6T": "63cf07572feb0fb81cfebed5e3b49b372bee2469d98b8ffac71fbcb58d237001",
    "K7": "652c2eefee4417194146e13b8530a274483026684b89c3948969f01c28285889",
    "K7T": "268c19a7f5bc01ab7769347855915649142c42761728677f97ff38e85a698b7c",
    "Q2": "38c63c126ff6d24a7c8afcf3eabd9cb7cb9ebfce262e7c602ed204e56dfe3af0",
    "Q3": "a573a88b8513b980e06fe58e24854b58933f74434e91c7c5b20b299ff7feab71",
    "S3xS4": "78b438b88c3a70041287110f6a843893542cb6abe3aa806d94c1babee74eea35",
    "S4": "8e5ae93019d5ff40ff5e248bab4afe470c5d5f5ea2cc34b2fe525127e285b451",
    "S5": "1f2968875db1f451948da5acc21eaf65bd4617e521c696b98a4fe950e1e6099e",
    "W3": "636a97a5c7e2c1eda2971e6fb62b15380f9616064e25c53801db78ff5b716702",
    "W5": "14dccfe6115e198cc972c10b17ec6b3dbe6bd2946763ee9808842def3130e022",
}


def test_every_label_builds_at_declared_order():
    hashes = {}
    for label in registry.available_labels():
        g = registry.resolve(label).build()
        assert registry._named_entry(label)["anchor"]
        if isinstance(g, TableGroup):
            hashes[label] = g.table_hash
    assert hashes == DENSE_TABLE_HASHES


def test_every_dense_label_is_held_in_the_element_dtype():
    for label in registry.available_labels():
        g = registry.resolve(label).build()
        for t in [g] if isinstance(g, TableGroup) else g.components:
            assert t.table.dtype == ELEMENT and t.inv.dtype == ELEMENT, label


@pytest.mark.parametrize("label, order", sorted(LABEL_ORDERS.items()))
def test_key_label_orders(label, order):
    assert construct(f"named({label})").order == order


def test_twist_doubles_each_seed_factor():
    for k in range(1, 8):
        plain = construct(f"named(K{k})")
        twisted = construct(f"named(K{k}T)")
        assert twisted.order == 2 * plain.order


def test_k2_is_the_alternating_seed():
    assert is_isomorphic(construct("named(K2)"), construct("A(4)")) is not None


def test_group_lists_match_enumeration():
    for n in range(1, 16):
        labels = registry.group_labels_of_order(n)
        assert len(labels) == TABLE1_COUNTS[n - 1]
        exprs = registry.groups_of_order(n)
        built = [construct(e) for e in exprs]
        cat = enumerate_groups(n)
        assert len(built) == len(cat)
        # bijective up to isomorphism: distinct classes, all present
        matched = set()
        for g in built:
            hit = cat.find_isomorphic(g)
            assert hit is not None
            assert hit.recipe_text not in matched
            matched.add(hit.recipe_text)


def test_unknown_label():
    with pytest.raises(UnknownLabel):
        registry.resolve("NOPE")
    with pytest.raises(UnknownLabel):
        construct("named(NOPE)")


# --- tabulated rows --------------------------------------------------------


def test_minimal_host_rows():
    assert registry.table2_row(6) == (12, ("D6",))
    assert registry.table2_row(8) == (32, ("C2xH1", "H2"))
    assert registry.table2_row(12) == (144, ("S3xS4",))
    for n in range(1, 16):
        order, labels = registry.table2_row(n)
        assert order % registry.collection_bound(n) == 0
        for label in labels:
            assert construct(f"named({label})").order == order
    with pytest.raises(OutOfRange):
        registry.table2_row(16)


def test_cumulative_bound_rows():
    values = {n: registry.table4_value(n) for n in range(2, 16)}
    assert values == {
        2: 2, 3: 6, 4: 24, 5: 120, 6: 120, 7: 840, 8: 3360,
        9: 30240, 10: 30240, 11: 332640,
        12: 665280, 13: 8648640, 14: 8648640, 15: 8648640,
    }
    for n in range(2, 12):
        assert values[n] == registry.nbound(n)
    for n in range(12, 16):
        assert values[n] == 2 * registry.nbound(n)
    with pytest.raises(OutOfRange):
        registry.table4_value(16)


def test_attaining_group_rows():
    assert registry.table5_row(2) == ("C2",)
    assert registry.table5_row(5) == ("C4xC5xD3", "S5")
    assert registry.table5_row(11) == ("C7xC9xC11xD15xH1", "C9xC11xD105xH1")
    for n in range(1, 12):
        for label in registry.table5_row(n):
            assert construct(f"named({label})").order == registry.nbound(n)
    with pytest.raises(OutOfRange):
        registry.table5_row(12)


def test_each_table_reads_its_range_from_its_rows():
    with pytest.raises(OutOfRange, match=r"^tabulated data covers 1\.\.11, not 12$"):
        registry.table5_row(12)
    with pytest.raises(OutOfRange, match=r"^tabulated data covers 1\.\.15, not 0$"):
        registry.group_labels_of_order(0)


# --- bounds -----------------------------------------------------------------


def test_prime_power_bound():
    assert registry.pbound(2, 3) == 32
    assert [registry.pbound(2, k) for k in (1, 2, 3, 4)] == [2, 8, 32, 128]
    assert registry.pbound(3, 2) == 27
    assert registry.pbound(5, 2) == 125
    with pytest.raises(OutOfRange):
        registry.pbound(4, 2)
    with pytest.raises(OutOfRange):
        registry.pbound(2, 0)


def test_collection_bound():
    got = {n: registry.collection_bound(n) for n in range(1, 16)}
    assert got == {1: 1, 2: 2, 3: 3, 4: 8, 5: 5, 6: 6, 7: 7, 8: 32,
                   9: 27, 10: 10, 11: 11, 12: 24, 13: 13, 14: 14, 15: 15}
    with pytest.raises(OutOfRange):
        registry.collection_bound(0)


def test_cumulative_bound():
    got = {n: registry.nbound(n) for n in range(1, 16)}
    assert got == {1: 1, 2: 2, 3: 6, 4: 24, 5: 120, 6: 120, 7: 840,
                   8: 3360, 9: 30240, 10: 30240, 11: 332640, 12: 332640,
                   13: 4324320, 14: 4324320, 15: 4324320}
    for n in range(2, 16):
        assert got[n] % got[n - 1] == 0
    with pytest.raises(OutOfRange):
        registry.nbound(0)


# --- the twist families ------------------------------------------------------


def test_family_theta_menus():
    required, optional = registry.family_thetas("BIG12_SOL")
    assert required == ("theta1", "theta2", "theta3", "theta4")
    assert optional == ("theta5", "theta6")
    required, optional = registry.family_thetas("BIG15_SOL")
    assert required == ("theta1", "theta2", "theta3", "theta4", "theta5")
    assert optional == ("theta6", "theta7")


@pytest.mark.parametrize("label", ["C4", "BIG12_SOL", "BIGPROD"])
def test_a_wrong_declared_order_raises(label, monkeypatch):
    # one entry of each kind: an expression, an extension family, a product
    data = copy.deepcopy(registry._data())
    entry = data["named"][label]
    built = entry["order"]
    entry["order"] += 1
    monkeypatch.setattr(registry, "_data", lambda: data)
    with pytest.raises(RuntimeError) as err:
        registry.resolve(label).build()
    assert str(err.value) == (
        f"registry entry {label!r} built order {built}, expected {built + 1}"
    )


def test_each_kfactor_is_built_once_per_process(monkeypatch):
    registry._kfactor.cache_clear()
    registry._AMBIENTS.clear()
    built = []
    monkeypatch.setattr(registry, "construct", lambda text: built.append(text) or construct(text))
    a, b = construct("named(BIGPROD)"), construct("named(BIGPROD)")
    data = registry._data()
    texts = [data["kfactors"][c] for c in data["named"]["BIGPROD"]["product"]["components"]]
    assert sorted(built) == sorted(set(texts)) and len(built) == len(a.components)
    assert all(x is y for x, y in zip(a.components, b.components))


@pytest.mark.parametrize("label", ["BIG12_SOL", "BIGPROD", "C5xC7xC9xD3xH1"])
def test_a_named_twisted_ambient_is_built_once_per_process(label):
    # a family, a product and an expression past the table limit
    g = construct(f"named({label})")
    assert isinstance(g, TwistedGroup) and construct(f"named({label})") is g


def test_a_named_dense_host_is_built_on_each_call():
    g = construct("named(C7xD15xH1)")
    assert isinstance(g, TableGroup) and construct("named(C7xD15xH1)") is not g


def test_a_patched_registry_reads_no_ambient_built_for_other_data(monkeypatch):
    g = construct("named(BIG12_SOL)")
    data = copy.deepcopy(registry._data())
    data["kfactors"]["K6"] = "gens(C(11), ff)"
    monkeypatch.setattr(registry, "_data", lambda: data)
    patched = construct("named(BIG12_SOL)")
    assert "ff" in patched.gens and "f" in g.gens and "f" not in patched.gens


def test_family_members_all_build():
    for label in ("BIG12_SOL", "BIG12_NONSOL"):
        _, optional = registry.family_thetas(label)
        subsets = [(), (optional[0],), (optional[1],), tuple(optional)]
        orders = {registry.family_member(label, extra).order for extra in subsets}
        assert orders == {665280}


def test_perfect_seed_orders():
    seeds = registry.perfect_seed_exprs()
    assert set(seeds) == {60, 120, 168}
    for order, exprs in seeds.items():
        for text in exprs:
            assert construct(text).order == order
