"""Golden output bytes of the small bundled scenarios.

Every output file of ``offmenu verify`` is a pure function of (scenario,
seed).  These digests pin the current bytes, so a change that moves a
summation order, an RNG stream or the interning order shows here; a change
that means to move them updates the digests and says why.

The outputs name only the nodes the checks report, so the order in which
the run interned every node is pinned on its own: a digest of the store's
signatures in key order after the run.
"""

from __future__ import annotations

import hashlib
import json

import pytest

import offmenu.cli
from offmenu.cli import main
from offmenu.run import run_scenario
from offmenu.scenario import bundled_scenarios

OUTPUTS = ("carriers.csv", "histograms.csv", "mechanism.csv", "mechanism_tables.json",
           "on_rent.csv", "projections.csv", "quit_frequency.csv", "report.json")

GOLDEN = {
    ("g2-appendix",): (
        "2e0f3302ef876754bce4381fe0b743f3b835ee1a28289e8a91aff8887237a761",
        "c8eee447497019a05a8a7925519de9e760fdc188b3c1869a46df37cbe3dee23b",
        "85d285c5af40c568499cb9b49dbc3d3f35a115082c0cf125b332243b1e6c3dae",
        "3049479123e103e25f5d4147a5249269dcdc16c899a7f1315bc31cdc79c1438f",
        "c0683f4c525607a11de2f2384fe6b9f3646f940996a8291f24e2cee6745e8ed4",
        "144ce664684610bcc461695964476b2abad7c21726117add9d84192b50a4ad59",
        "deedc3103f018e5d3e56a3fc77324fd766c6a762dd1794f899b4df23bf6ba8ff",
        # flow-c3 leaves out the two expected couplings that cancel: its worst
        # margin reads 0.0 instead of the rounding residue -2.2e-16
        "5a5d813f7d3371f5b67238ab8f4716d9f0d9e3909d99dcb164cf1b27bfeb9698",
    ),
    # the reachable walk ends at period T, so period-T nodes intern earlier
    # and the CSVs' history_id values follow; their rows are unchanged
    ("subscription",): (
        "d7d9f8fa7292ee8a1599fb884c180a87c2a04b7016cd2ab7db11c59f90aae230",
        "921717afaad9fe11aadb60fb56a78d56f5b94cabc05cc2244539b6ec0ba73ebe",
        "99c7a65547156e1958e6f578bb6255cfbbbd1a92f1fc6ab993a65f40a44d108d",
        "976049316d4625bc116dceb47dd870d973cb32059aedb287959ca3b6c2b44ab7",
        "3f70a3258c00fa9079e48a93e02a649799ffe7632701f1a5f017ff9dfdbdc433",
        "20bd23f6711916155869f7459a02099d0d57c83e6ade94ca063e158ccde27d19",
        "deedc3103f018e5d3e56a3fc77324fd766c6a762dd1794f899b4df23bf6ba8ff",
        "734c06e2fbfa2e0e1da67ec5302a2ba9344a9c27491d2b453c55ec84e96b3dce",
    ),
    ("double-well",): (
        "de454984b482fef1fad2a95d668501abc8219a792e80af3310513a7f6121635e",
        "cb4f85d65f8fc776f5a7c607606df31382555b7bb2f5d4806c8343c1eef462d8",
        "2d7aed99edda248ef1a849d31f880934b1214ef54eca1a8f5f147f1d0c7af443",
        "35b9779ab021d9576bc7dbf75e278982659c31c48f018922a9707f69bccc1bad",
        "de1c98abbdeaf2b75d0915767db1e1200340f8b25a693493b835e4a1bf907e6b",
        "022cb4f64cabd74bc013a02bf576514497530f9222a1df54e5c4ac6dc70e8b33",
        "e70964926052d8182f8c09d7f07b525108257d02ec60c78c927193ad23f4ef3f",
        "ba29ea4e6a4c2c8a502e02ba716ea5b59d86b6246af0f5b4ce348b096c3f15d6",
    ),
    # a sampled run writes no on_rent.csv: its values are exact
    ("g2-appendix", "--mode", "mc", "--checks", "doic", "--samples", "300"): (
        "2e0f3302ef876754bce4381fe0b743f3b835ee1a28289e8a91aff8887237a761",
        "59eb9f9057e1729c2448cc43a114c6339566fd47448afaa80c1442431cd88a32",
        "85d285c5af40c568499cb9b49dbc3d3f35a115082c0cf125b332243b1e6c3dae",
        "3049479123e103e25f5d4147a5249269dcdc16c899a7f1315bc31cdc79c1438f",
        None,
        "144ce664684610bcc461695964476b2abad7c21726117add9d84192b50a4ad59",
        "deedc3103f018e5d3e56a3fc77324fd766c6a762dd1794f899b4df23bf6ba8ff",
        "36cda3dccf87870f5910f936ca6c9a7d131b5e4c90172db6fcc34b77ae08c387",
    ),
}

# bundled pair-churn cut to horizon 2: the one multi-agent golden, so the one
# whose walks resolve other agents and evaluate two agents' deviations
PAIR_CHURN_T2 = (
    "b40185f190a331743aa871838413141012c54a8e37a595f0c7fa021108e46839",
    "5c5b781768b2d7a01ab0c7211f256f57565ac3f5c5adb62fad58910de34d0ea0",
    "472d18e1466d7192df69db471c9c48461841a3dc5d601a3ed4d9372671eeded7",
    "96fad77306421cf0fa969cfaac7b0d26ba45444bba26ff7a458e6a58295d24d3",
    "7c499186d463a92ff17ceebb00cd168f1a7ba45d296756e90a22efb78d97c4a8",
    "d9c6d93b8b7a0e6f9aedf149a95ae0d74a1b17c89046a167e66096d8d7655e42",
    "af465b10ff0c1064ef0639025e68aa139270eb409697f958e8015e43d31a0113",
    "898ed2e963ef57156d8fceff8fd063ef4a623baf0803286d1bb2a0b683b9f9d2",
)


# sha256 of the store's node signatures in key order, one per line, after the run;
# no walk expands period T, so the store holds no node past it
INTERNING = {
    ("g2-appendix",): "f32ab887b359ca22759794332583dc83a4873de8cdc129f3a505bd8143204569",
    ("subscription",): "d51d2dd48bb8449be7df0c3a0798074b538a612c3e19ffdb4f05af18fdd89c4b",
    ("double-well",): "098d06b22111f99b52a0633c9b17115f8abe7b11524fafd17637ce46aa7533ce",
    ("g2-appendix", "--mode", "mc", "--checks", "doic", "--samples", "300"):
        "ef39ccd5f8729afeed62085b05af00182088e5d866fabeeee362f61e9bf770a4",
}
PAIR_CHURN_T2_INTERNING = "bf9203f330cf65fefbb731b3c28322055c477c0af236673a6164d7db79870657"


def _verify_digests(monkeypatch, scenario: str, out, *args) -> tuple[dict[str, str], str]:
    """Digests of the output files and of the interning order of one CLI run."""
    runs = []

    def recording_run(*a, **kw):
        runs.append(run_scenario(*a, **kw))
        return runs[-1]

    monkeypatch.setattr(offmenu.cli, "run_scenario", recording_run)
    assert main(["verify", scenario, "--out", str(out), *args]) == 0
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    store = runs[0].engine.store
    order = "\n".join(store.node(k).signature() for k in range(len(store)))
    return files, hashlib.sha256(order.encode()).hexdigest()


@pytest.mark.parametrize("args", sorted(GOLDEN), ids=" ".join)
def test_verify_output_bytes_are_golden(tmp_path, monkeypatch, args):
    files, order = _verify_digests(monkeypatch, args[0], tmp_path / "out", *args[1:])
    assert files == {name: d for name, d in zip(OUTPUTS, GOLDEN[args]) if d is not None}
    assert order == INTERNING[args]


def test_pair_churn_horizon_two_output_bytes_are_golden(tmp_path, monkeypatch):
    raw = json.loads(bundled_scenarios()["pair-churn"].read_text())
    path = tmp_path / "pair-churn-t2.json"
    path.write_text(json.dumps({**raw, "horizon": 2}))
    files, order = _verify_digests(monkeypatch, str(path), tmp_path / "out")
    assert files == dict(zip(OUTPUTS, PAIR_CHURN_T2))
    assert order == PAIR_CHURN_T2_INTERNING
