"""Golden output bytes of the small bundled scenarios.

Every output file of ``offmenu verify`` is a pure function of (scenario,
seed).  These digests pin the current bytes, so a change that moves a
summation order, an RNG stream or the interning order shows here; a change
that means to move them updates the digests and says why.
"""

from __future__ import annotations

import hashlib

import pytest

from offmenu.cli import main

OUTPUTS = ("carriers.csv", "histograms.csv", "mechanism.csv", "mechanism_tables.json",
           "on_rent.csv", "projections.csv", "quit_frequency.csv", "report.json")

GOLDEN = {
    ("g2-appendix",): (
        "2e0f3302ef876754bce4381fe0b743f3b835ee1a28289e8a91aff8887237a761",
        "c8eee447497019a05a8a7925519de9e760fdc188b3c1869a46df37cbe3dee23b",
        "85d285c5af40c568499cb9b49dbc3d3f35a115082c0cf125b332243b1e6c3dae",
        "c9a0d038d81b52d99b52c01a44d8bcb7072a7e69a3d22da812740023f9c4435e",
        "c0683f4c525607a11de2f2384fe6b9f3646f940996a8291f24e2cee6745e8ed4",
        "144ce664684610bcc461695964476b2abad7c21726117add9d84192b50a4ad59",
        "deedc3103f018e5d3e56a3fc77324fd766c6a762dd1794f899b4df23bf6ba8ff",
        "fdaf8884320ffd37dc17d3ff2cc23f82432c7a31539a41356a0d1c91cfcda68a",
    ),
    ("subscription",): (
        "4a7617b3a2e4f4d5313741acc7ce49771e4406a4154027b400c7fc6df28331b4",
        "921717afaad9fe11aadb60fb56a78d56f5b94cabc05cc2244539b6ec0ba73ebe",
        "e7eb24486c833aa58ed05a514ccee454eee5973310fba22b2240026653a9d313",
        "292be6e5c70143354a5ec948b4bbf9e4a8bb7bd9bc5785da9b9e84eeff30d7a1",
        "f1e7d1a53956f76ca8031c6eedd90bbac52d93627073bafa55b05bd6b2b4e278",
        "5381c39cc7fafd6fa88dda4e883d6f4e8313c86288a3ee83750a6f8bae3f9dfa",
        "deedc3103f018e5d3e56a3fc77324fd766c6a762dd1794f899b4df23bf6ba8ff",
        "734c06e2fbfa2e0e1da67ec5302a2ba9344a9c27491d2b453c55ec84e96b3dce",
    ),
    ("double-well",): (
        "c618d515c261ac2ee0b314a43ef5fc40fa1704b54d029f811bf3f8492b2a750e",
        "cb4f85d65f8fc776f5a7c607606df31382555b7bb2f5d4806c8343c1eef462d8",
        "2019e1654549360392bd33655816efe3e4a779d9fd24ab4a907ab2cf00a31ab0",
        "1a43def86da2c5368bd730da1d46fe59f0f04bd8e88161d63e73c8c0b296a3cb",
        "f88fb7a364ad466907c1c771361e96ea0d4a277316b0dc06cdc493137401886e",
        "ceb23ac1a97b7f986efd5e7e30492d2e079a4a6f6347546255fd646b31db07fc",
        "e70964926052d8182f8c09d7f07b525108257d02ec60c78c927193ad23f4ef3f",
        "e67a20bf43a5599e985c7f2492fdf9b4d573cf66c8fc8e5fec7f878c6a705d99",
    ),
    ("g2-appendix", "--mode", "mc", "--checks", "doic", "--samples", "300"): (
        "2e0f3302ef876754bce4381fe0b743f3b835ee1a28289e8a91aff8887237a761",
        "59eb9f9057e1729c2448cc43a114c6339566fd47448afaa80c1442431cd88a32",
        "85d285c5af40c568499cb9b49dbc3d3f35a115082c0cf125b332243b1e6c3dae",
        "c9a0d038d81b52d99b52c01a44d8bcb7072a7e69a3d22da812740023f9c4435e",
        "c0683f4c525607a11de2f2384fe6b9f3646f940996a8291f24e2cee6745e8ed4",
        "144ce664684610bcc461695964476b2abad7c21726117add9d84192b50a4ad59",
        "deedc3103f018e5d3e56a3fc77324fd766c6a762dd1794f899b4df23bf6ba8ff",
        "c502adc8176807bc566ee43aefd14e1fe447548d73521b8500e23ae8aed6faca",
    ),
}


@pytest.mark.parametrize("args", sorted(GOLDEN), ids=" ".join)
def test_verify_output_bytes_are_golden(tmp_path, args):
    out = tmp_path / "out"
    assert main(["verify", args[0], "--out", str(out), *args[1:]]) == 0
    assert sorted(p.name for p in out.iterdir()) == list(OUTPUTS)
    got = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest() for name in OUTPUTS)
    assert dict(zip(OUTPUTS, got)) == dict(zip(OUTPUTS, GOLDEN[args]))
