"""Pinned digests of game transcripts, sweep outputs, verify reports and
exact-solver answers.

The byte-identity tests elsewhere compare two runs of the same code; these
compare against fixed sha256 values, so a refactor that changes play, an
output format or a report fails here. The paper-connector games reach every
branch of the tree descent: expand, pivot claim, pending-pivot resolution,
case-2 descent and the depth-1 finish.

A digest may change only with a change of behaviour that is meant and
recorded, never to make a refactor pass.
"""

from __future__ import annotations

import hashlib
import json
import logging

import pytest

from conbreak.cli import main
from conbreak.engine import BREAKER, CONNECTOR, GameState, run_game
from conbreak.graph import gen_gnp
from conbreak.solver import best_move, solve_exact
from conbreak.strategies import make_strategy

from oracles import connected_graph_classes

CONNECTORS = ("random", "greedy-degree", "paper-connector")
BREAKERS = ("random", "greedy-degree", "paper-breaker")
EXPONENTS = (-0.6, -0.4, -0.3)
SEEDS = range(5)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def game_parts(connector_id, breaker_id, n, e, m=2, b=2, start_vertex=0):
    """Each game's JSONL transcript followed by its flags, for seeds 0-4
    on G(n, n^e)."""
    p = n**e
    parts = []
    for seed in SEEDS:
        g = gen_gnp(n, p, seed)
        opts = {"p_hint": p} if connector_id == "paper-connector" else {}
        result = run_game(
            g,
            make_strategy(connector_id, **opts),
            make_strategy(breaker_id),
            m=m,
            b=b,
            start_vertex=start_vertex,
            seed=seed,
        )
        parts.append(result.transcript_jsonl())
        parts.append(",".join(result.flags) + "\n")
    return parts


def game_grid_digest(connector_id: str, breaker_id: str, n: int, e: float) -> str:
    """One digest over seeds 0-4 on G(n, n^e), (2:2) from vertex 0."""
    return sha("".join(game_parts(connector_id, breaker_id, n, e)))


GAME_DIGESTS = {
    "random/random/n=20/e=-0.6":
        "0d8279e74a367fc746ea32897c46228f1d6355aebd283e93c341dbb0d3031bc6",
    "random/random/n=20/e=-0.4":
        "b609d0fc713d5d83d480f4d8a2609e893439e512a0a9468c3206152d26f64231",
    "random/random/n=20/e=-0.3":
        "e190de89018ba56044bbd87bab654ee9b3b3724f6af8759d4913bf1877161d7b",
    "random/greedy-degree/n=20/e=-0.6":
        "4cfdef5cac6537f042843ebee6b1113d52c2eb38e5e43db5c9f2351dc436848e",
    "random/greedy-degree/n=20/e=-0.4":
        "20ddb15b0d61905ea4691f78625d5fe4cc81caab640c06b8edf7ddb6d34dcbe0",
    "random/greedy-degree/n=20/e=-0.3":
        "b1ceae766faab57ff6a10a4250ec05032a5e1e8a9deb800e23dd3cb3683a7748",
    "random/paper-breaker/n=20/e=-0.6":
        "5c0aff40d150a87e18c75fa3fc922fa40b76b890ae874fe31366a4e64bf54319",
    "random/paper-breaker/n=20/e=-0.4":
        "6808136fdbe7afccafb66c83337f05f84610a5271d01184828233ce12e484cc3",
    "random/paper-breaker/n=20/e=-0.3":
        "cf54748dee7843fd334c1f4f6b7c64ff76195ab717510fd54d4ed4778bace05c",
    "greedy-degree/random/n=20/e=-0.6":
        "99aaf10f46027498e385c28e19aa87e44ec0a4e926bfc9ee53ecd02a39889001",
    "greedy-degree/random/n=20/e=-0.4":
        "0790dd68402b48cf94171030f4aee37706c0338f9101e94bacc35f99a76423ae",
    "greedy-degree/random/n=20/e=-0.3":
        "0cee2fc070110560951439870fbc42794e67fb790ed3a5e7dd7c40c92c3ba96c",
    "greedy-degree/greedy-degree/n=20/e=-0.6":
        "db17f2668ab7eba0a6a4e1978b4d96c83afcaf4f6d4eac9f150480a997e17dfd",
    "greedy-degree/greedy-degree/n=20/e=-0.4":
        "15b502b586e41662adfc2f0159e9a50e8cc9164698179a9e88578a541c18e9ff",
    "greedy-degree/greedy-degree/n=20/e=-0.3":
        "5f36b1c5ec950dd392e57d0a049e2b54be8951be4b677dfbe7d342f6708cfc11",
    "greedy-degree/paper-breaker/n=20/e=-0.6":
        "8d68f9c1d5fa91b88d37c806230c1737c0ade1539ae0e21f894b719a7a14e0d3",
    "greedy-degree/paper-breaker/n=20/e=-0.4":
        "66922a66908dc54d32c81ad37e50bd8cec8a3dcbd5723e8378cf08a3ae2b0807",
    "greedy-degree/paper-breaker/n=20/e=-0.3":
        "f25871c53573c6bfea3c3740c339944e0fc6987e7b8a910b5ed59278cb562480",
    "paper-connector/random/n=20/e=-0.6":
        "0759a2791b1f15ce7002a980f207c359a104ed631f1fac94b894735ab5fd1147",
    "paper-connector/random/n=20/e=-0.4":
        "2f8b0d9b86286aee3a0db872f370e76be5ee2c5a08a2f3215dca82295e6a6541",
    "paper-connector/random/n=20/e=-0.3":
        "51a03b8b81793c67580668fa185031baa84b80c9e2e8cf28026f425e5d2e862f",
    "paper-connector/greedy-degree/n=20/e=-0.6":
        "b28722db201a881e56a090acd1903d6699bc1e4f3f679e1c56a0006ffd4fc483",
    "paper-connector/greedy-degree/n=20/e=-0.4":
        "2da2450dc6f86daa831c458e80f269745337706db5bb1f318029043fe17e17bd",
    "paper-connector/greedy-degree/n=20/e=-0.3":
        "f858186e0341ccd4576f4a27709a4400bf6200e09a0e739792214077413c6ca1",
    "paper-connector/paper-breaker/n=20/e=-0.6":
        "5409af7410332e953ca9c38073ce7ef223853a2d036aa30e5cb354cd71aeda99",
    "paper-connector/paper-breaker/n=20/e=-0.4":
        "39cf5ba9c4ff52c31f810d37928106981cfb18ee2903d1399caf537f78a565ca",
    "paper-connector/paper-breaker/n=20/e=-0.3":
        "ef5cabaa7a4148673ebc5f9d132c640dc057d3dcc660ff4317087fc427cc6ee2",
    "random/random/n=60/e=-0.6":
        "16564008047395340c93f6b0aee52d212e3c38cd0b11194fb92121381e505f6d",
    "random/random/n=60/e=-0.4":
        "6372ba58d74a5f1a553f9894954a697b905d50258bd043189e8cfd285a025dbf",
    "random/random/n=60/e=-0.3":
        "544bfb8d2efd59d2e935b79f3a62a84f5fad73c441c771ddde908c4cb34f284e",
    "random/greedy-degree/n=60/e=-0.6":
        "c67459e255f2786d4f516e745e493d81a2bcb1b476b8b3b4d0d16d807d8fdcca",
    "random/greedy-degree/n=60/e=-0.4":
        "50aa653d95eac766f519fb534cbe74ee72026c9ba77155dcb07ca39ef81e7c12",
    "random/greedy-degree/n=60/e=-0.3":
        "f0a30c5e391058d28fb240dca248720099e9785712758e3dc86914b45480d062",
    "random/paper-breaker/n=60/e=-0.6":
        "137bb1956bd160e1ba9edcea30cb7618bd610360e421f59bb564e679be0a5715",
    "random/paper-breaker/n=60/e=-0.4":
        "cfd78f241bb3763f4a8a76a4b041d0bbb754e48790b4ccdc7707f757eaaf87aa",
    "random/paper-breaker/n=60/e=-0.3":
        "63dd1d1b9b5e475e73ef0f77077d7eda5e622bb576b503207bffa071d7df9782",
    "greedy-degree/random/n=60/e=-0.6":
        "cda969c6c2dc0f7e6a0252a99776fc437ae77f129468fd9d44dc4ed0bb33f743",
    "greedy-degree/random/n=60/e=-0.4":
        "4ecb95552741132a1aa98cf89346156ebff36472daef3e5e1f8e3703fc574cb2",
    "greedy-degree/random/n=60/e=-0.3":
        "e533ca4b15b3b971a99dc611b33a5818963d08f880010f6b63ab9386f62991d9",
    "greedy-degree/greedy-degree/n=60/e=-0.6":
        "bf4856edd472364b385dd39dc18fbd3e7465962ca94cb49ad9074b3ae99300d5",
    "greedy-degree/greedy-degree/n=60/e=-0.4":
        "336a66228a73b276148e8f53784884342ee9342df6cb5f2253d1f72fd1bb1005",
    "greedy-degree/greedy-degree/n=60/e=-0.3":
        "fbcc360557eecb017936e1336ff56d5635765c95e3755555aa6867b24b22aed7",
    "greedy-degree/paper-breaker/n=60/e=-0.6":
        "c02c25646eddf1bcb1da7579dd74460bf24989d1cd6a487db7aae4190edca527",
    "greedy-degree/paper-breaker/n=60/e=-0.4":
        "c138758b9039ae818895620ab3202c9eb02785b3402273ce10612a5bc633c879",
    "greedy-degree/paper-breaker/n=60/e=-0.3":
        "3b49dfcc3654605f8dc7c27bae714525a0c3fde4a58f6ef4d6e2f2482e6ed965",
    "paper-connector/random/n=60/e=-0.6":
        "e282420ac9da379d21d558ebbed38430c052cb22b9020a5d08fd7b5928c3ed28",
    "paper-connector/random/n=60/e=-0.4":
        "ffac4f866d404f7e4e7ee1041f74c9b006cc1669e5f2b06da90b50d86931069b",
    "paper-connector/random/n=60/e=-0.3":
        "5a21a9481710e4849aaa6828462b243a6bd4826174cfb1754d0a774261df3c2f",
    "paper-connector/greedy-degree/n=60/e=-0.6":
        "e282420ac9da379d21d558ebbed38430c052cb22b9020a5d08fd7b5928c3ed28",
    "paper-connector/greedy-degree/n=60/e=-0.4":
        "157f6bd4eba1862abd12b8a57bc24d93476b17bb70602c6c9dcbe638668da9e9",
    "paper-connector/greedy-degree/n=60/e=-0.3":
        "dd920f6e95afc86e7266b9d7a27fbe75207a3582730d8d12c6c0ec8b61a86c19",
    "paper-connector/paper-breaker/n=60/e=-0.6":
        "e282420ac9da379d21d558ebbed38430c052cb22b9020a5d08fd7b5928c3ed28",
    "paper-connector/paper-breaker/n=60/e=-0.4":
        "e53c552f5a35589ad877e4eb729b013674d2fde2a329c4a0a3e2790504770126",
    "paper-connector/paper-breaker/n=60/e=-0.3":
        "c42d0bf9b3f6d17c68d8f16f3a10ff080f2892b41cf3d465d4551b79bb06277a",
    "paper-connector/random/n=200/e=-0.6":
        "e282420ac9da379d21d558ebbed38430c052cb22b9020a5d08fd7b5928c3ed28",
    "paper-connector/random/n=200/e=-0.4":
        "7c7d4bb2d03a690b7b418a809ea4d9a3f25ad7e04c1149e6195fbd6d47d79b89",
    "paper-connector/random/n=200/e=-0.3":
        "7f97646a91f3b5e413552866b90cc9bc7dd7d32aa9d1cf5157c209b83b6c0e58",
    "paper-connector/greedy-degree/n=200/e=-0.6":
        "e282420ac9da379d21d558ebbed38430c052cb22b9020a5d08fd7b5928c3ed28",
    "paper-connector/greedy-degree/n=200/e=-0.4":
        "914ca006c41ee78e5df00ffd1ff451e9afcaf5d688f761b077b3222f83e1b102",
    "paper-connector/greedy-degree/n=200/e=-0.3":
        "02663fcb5d36d775a8f19b9d65707708dab55e28f2f7daa37c4381d3063b8539",
    "paper-connector/paper-breaker/n=200/e=-0.6":
        "e282420ac9da379d21d558ebbed38430c052cb22b9020a5d08fd7b5928c3ed28",
    "paper-connector/paper-breaker/n=200/e=-0.4":
        "5ff9e42a76ba24939aa37734916df350a868a619065dd7d79cd5e316e094d1de",
    "paper-connector/paper-breaker/n=200/e=-0.3":
        "64f58b5503063ae95fcd5a35fff1fe5913e980f8a166bed2036bdaea1dbd15e9",
}


def game_cases():
    for n in (20, 60, 200):
        for c in CONNECTORS:
            if n == 200 and c != "paper-connector":
                continue
            for b in BREAKERS:
                for e in EXPONENTS:
                    yield c, b, n, e


@pytest.mark.parametrize("connector_id,breaker_id,n,e", list(game_cases()))
def test_game_transcripts_pinned(connector_id, breaker_id, n, e):
    key = f"{connector_id}/{breaker_id}/n={n}/e={e}"
    assert game_grid_digest(connector_id, breaker_id, n, e) == GAME_DIGESTS[key]


BASELINES = ("random", "greedy-degree")
# (m, b, start vertex): the empty-territory opening and uneven biases
VARIANTS = ((2, 2, None), (1, 3, None), (3, 1, None), (1, 3, 0), (3, 1, 0))

VARIANT_DIGESTS = {
    "random/random/n=20/m=2/b=2/start=None":
        "d5d6c0b7d3003e9dc8938da93642251ff8a87a9abcbcedd265f83db0ca6d3003",
    "random/random/n=20/m=1/b=3/start=None":
        "145c0886c2c2da802c6a987ae1529781d97d3d24b4bc78e1087395a3c8be22ca",
    "random/random/n=20/m=3/b=1/start=None":
        "b050e4616763e69a7475d8b691e1674ac036bc4295a5db5589f679c4621a403e",
    "random/random/n=20/m=1/b=3/start=0":
        "d18cff4289d07b10d76f256a0c1535ee8a9cca94bba4e0ebf27dba896a9b8413",
    "random/random/n=20/m=3/b=1/start=0":
        "ee86851ad44d89882509689fbecf7b9f9db83005c9c6a147d1f789a5ff2a992a",
    "random/greedy-degree/n=20/m=2/b=2/start=None":
        "1734e81124d9ed6368d1c60fae983dd70fb42d54099b1c7469a05bbd13f4e365",
    "random/greedy-degree/n=20/m=1/b=3/start=None":
        "ce9849676b63aec883382627b44becea82ae8a75fb2298a43d5bd0569fa20cc6",
    "random/greedy-degree/n=20/m=3/b=1/start=None":
        "5107b2e7f20f80c129cf64a5c12e93765eedb05eddde6763952a8b67f1753806",
    "random/greedy-degree/n=20/m=1/b=3/start=0":
        "7f55ae1650127b1aac2983e95cb6be58d1c386c213fd3bbb42e50b8e5a3cd212",
    "random/greedy-degree/n=20/m=3/b=1/start=0":
        "3cf280ce134a71279c8967e799c0bfcc4eeddcec7c9f7a3d16cec100187b2be9",
    "greedy-degree/random/n=20/m=2/b=2/start=None":
        "cc8f08e71ad9cf59463856784a9bceba0bf81271964c46fc79b3bf93b3b2f1a3",
    "greedy-degree/random/n=20/m=1/b=3/start=None":
        "814372a16e9685f6e99b724733cd84f1b25dcf9fb68c4b6808bd86a3a52d2af7",
    "greedy-degree/random/n=20/m=3/b=1/start=None":
        "d701f8b3a27b913b4556f7f746cf0cd0b36f623c8242aea9275f207afd726231",
    "greedy-degree/random/n=20/m=1/b=3/start=0":
        "935c408255b057708056cd729eb359c0bf402e80122a8ae14f12b5c34c2df22a",
    "greedy-degree/random/n=20/m=3/b=1/start=0":
        "7d59ffaf34aec97bd7fcb1dd4c0a93394735ac1b568435ea7818124f0bb6c69f",
    "greedy-degree/greedy-degree/n=20/m=2/b=2/start=None":
        "d731a7eb3c7a5df376f0ff2c13a776be3537af59bbe21c5aa222bb73a0dc9945",
    "greedy-degree/greedy-degree/n=20/m=1/b=3/start=None":
        "7ff8bee00b375f9f9215b4b29ebe11da83d64d38bc513efe7d4074c0a185ec34",
    "greedy-degree/greedy-degree/n=20/m=3/b=1/start=None":
        "af1da3f62993f14cd42f7ffa29d45ea52be3e0c22d08b8ee131aeb6384372bfa",
    "greedy-degree/greedy-degree/n=20/m=1/b=3/start=0":
        "3c728531988add1a74801a651ed7d3b443c5623dd614b3486da5a715b54e9576",
    "greedy-degree/greedy-degree/n=20/m=3/b=1/start=0":
        "071ce63d6a0a60d47e3ce79d84e4c30f37538e9152fc9fd9ee56947517076d27",
    "random/random/n=60/m=2/b=2/start=None":
        "08fcf72dadc0e02e446e57981d22ec9d53a3019808e860e07483e5d45dcb7910",
    "random/random/n=60/m=1/b=3/start=None":
        "3067f5de3444319c7c944048f358d2ae9b32d5a1f5ab5b32c054e1b4f19edf5a",
    "random/random/n=60/m=3/b=1/start=None":
        "022a07a1134f2c2c97df2b4939572a9cb59a3da28b0b53d28962943c1262fec7",
    "random/random/n=60/m=1/b=3/start=0":
        "82f3870bd5aabf06f0484b4f257ee494f2f8ed945f9061cfc9301c97bb629370",
    "random/random/n=60/m=3/b=1/start=0":
        "1724fdb663fe59b11be2ffe9159565271f1aa2fa89b28c921f5a85736ddbaea4",
    "random/greedy-degree/n=60/m=2/b=2/start=None":
        "33fb6115254d0af1a27dd7cb452c12a060a481fc355a68c25fad478935a5e9b0",
    "random/greedy-degree/n=60/m=1/b=3/start=None":
        "e01f788cde02bafe20895cb4f3f060bd717d44c0c75a8481655fde7786e0ec46",
    "random/greedy-degree/n=60/m=3/b=1/start=None":
        "dec7c4ae323e21e156e7a13a0aa3e9693179fad065f482355583169d74cae67e",
    "random/greedy-degree/n=60/m=1/b=3/start=0":
        "4ba37e85cc89c59d44cbffc401faf284b601b4a41be315c19f51f7e1d7123513",
    "random/greedy-degree/n=60/m=3/b=1/start=0":
        "11d3ef274969f0cb909684f88925e159bda50b7e06fa3250d4a57911cfbdf7e5",
    "greedy-degree/random/n=60/m=2/b=2/start=None":
        "dacf76b0c2cb9e91517bbf1ca8de0cd57e66c292f46a0095f2195c044531cc94",
    "greedy-degree/random/n=60/m=1/b=3/start=None":
        "a34f75a57c0195ebae49141c812ef0765e2ef254373b8c72df420840fedf3b47",
    "greedy-degree/random/n=60/m=3/b=1/start=None":
        "385f815d2580343a999a2be18d510d0cbce4a9403bc8d8140e966b7d011b5d3f",
    "greedy-degree/random/n=60/m=1/b=3/start=0":
        "ecc1e5ab773bc85268b721dbe679f1073213f74ca9ff839f12aa89c9b96e93bf",
    "greedy-degree/random/n=60/m=3/b=1/start=0":
        "26d994d2642139228689a18cea849a61c0f7f4cc8c360c5592421b5320e850e9",
    "greedy-degree/greedy-degree/n=60/m=2/b=2/start=None":
        "e53fed8b52661c12ce6c71932967db69a62856112eda65b5aea1ecec6cf3e515",
    "greedy-degree/greedy-degree/n=60/m=1/b=3/start=None":
        "6854f2891623150273d80d6b5ad7de2bfef1dcf561e86ee24f3a0e20c56262c8",
    "greedy-degree/greedy-degree/n=60/m=3/b=1/start=None":
        "cce0c9eaff02231c3ac146e5729b77f52c54443ca4268cb8dce5aa981a443707",
    "greedy-degree/greedy-degree/n=60/m=1/b=3/start=0":
        "b411fe30767ff04a34c26f754982893d648df124fe82990b05c024c4383be879",
    "greedy-degree/greedy-degree/n=60/m=3/b=1/start=0":
        "0faeadbf987cb4dc1256f9bb8de342e8ebe8d0e2b11d0fe52639fe7dea02e7e2",
}


def variant_cases():
    for n in (20, 60):
        for c in BASELINES:
            for b in BASELINES:
                for m, bb, start in VARIANTS:
                    yield c, b, n, m, bb, start


@pytest.mark.parametrize("connector_id,breaker_id,n,m,b,start", list(variant_cases()))
def test_baseline_variants_pinned(connector_id, breaker_id, n, m, b, start):
    """The baseline strategies off the (2:2)-from-vertex-0 path: one
    digest over the three densities and seeds 0-4."""
    parts = []
    for e in EXPONENTS:
        parts += game_parts(connector_id, breaker_id, n, e, m, b, start)
    key = f"{connector_id}/{breaker_id}/n={n}/m={m}/b={b}/start={start}"
    assert sha("".join(parts)) == VARIANT_DIGESTS[key]


SWEEP_ARGS = [
    "sweep", "--ns", "30,60", "--eps", "0.1,0.35", "--trials", "4", "--seed", "11",
    "--verify-degree-bound", "--verify-isolation", "--scan",
]

SWEEP_DIGESTS = {
    "out": "f18bcabd923fdae413ad7aee6d2966635e48f04da1078e0ca8971473b7531176",
    "records": "c46b6b6ee015ecbbbe01a337b30581eb5328a972c3b2bc5863656735a1aa8208",
    "stdout": "5f85df4ea392dbc0547c62994ff7b98520369475a00de231311ec86a5334e388",
}


def test_sweep_outputs_pinned(capsys, tmp_path):
    out_csv = tmp_path / "sum.csv"
    records = tmp_path / "rec.jsonl"
    rc = main(SWEEP_ARGS + ["--out", str(out_csv), "--records", str(records)])
    stdout = capsys.readouterr().out
    assert rc == 0
    assert sha(out_csv.read_text()) == SWEEP_DIGESTS["out"]
    assert sha(records.read_text()) == SWEEP_DIGESTS["records"]
    assert sha(stdout) == SWEEP_DIGESTS["stdout"]


VERIFY_ARGS = {
    "b": ["--n", "64", "--p", "0.2", "--seed", "3", "--family", "b", "--x", "5",
          "--m-set", "0,1,2"],
    "d": ["--n", "256", "--p", "0.8", "--seed", "1", "--family", "d", "--x", "0",
          "--k", "2"],
}

VERIFY_DIGESTS = {
    "b": (1, "82e83300ee94ea7ec538a97fcf21ba3eac6cfc25805c0d41a9172c900fe98e54"),
    "d": (0, "0f619f534e2c54e59dc13aab3a4dbad66c6eff04f3962fdaf882605230eda522"),
}


@pytest.mark.parametrize("family", sorted(VERIFY_ARGS))
def test_verify_reports_pinned(capsys, family):
    rc = main(["verify"] + VERIFY_ARGS[family])
    out = capsys.readouterr().out
    assert (rc, sha(out)) == VERIFY_DIGESTS[family]


# paper-connector vs paper-breaker at n=1000, p=n^-0.5: every game's stage-1
# search runs out of its 10^6 expansions, so this pins the capped regime,
# which no game of the grids above reaches
CAPPED_DIGEST = "e282420ac9da379d21d558ebbed38430c052cb22b9020a5d08fd7b5928c3ed28"


def test_capped_search_transcripts_pinned(caplog):
    caplog.set_level(logging.DEBUG, logger="conbreak.connector")
    parts = game_parts("paper-connector", "paper-breaker", 1000, -0.5)
    assert sha("".join(parts)) == CAPPED_DIGEST
    capped = [r for r in caplog.records if "stage-1 tree search capped" in r.getMessage()]
    assert len(capped) >= len(SEEDS)


# minimax against minimax, and the exact solver's answers, on every
# connected board class up to 5 vertices: the first mover, the goal
# (spanning, or reaching the last vertex) and the start vertex vary for
# the solver; the games start from vertex 0 or from no vertex, and
# Breaker's reply to an untouched board pins his opening as well
SOLVER_BIASES = ((1, 1), (1, 2), (2, 1), (2, 2))
SOLVER_DIGEST = "ead144fc818b901804adff096e7c5c1ee12325b0ba3c1c7f150858275d27b235"


def solver_parts():
    parts = []
    for n in range(1, 6):
        for g in connected_graph_classes(n):
            for m, b in SOLVER_BIASES:
                for start in (None, 0):
                    result = run_game(
                        g,
                        make_strategy("minimax"),
                        make_strategy("minimax"),
                        m=m,
                        b=b,
                        start_vertex=start,
                    )
                    parts.append(result.transcript_jsonl())
                    opening = GameState(g, m=m, b=b, start_vertex=start, to_move=BREAKER)
                    parts.append(json.dumps([list(e) for e in best_move(opening).edges]))
                    for first in (CONNECTOR, BREAKER):
                        for goal in ("spanning", ("reach", n - 1)):
                            parts.append(solve_exact(g, m, b, first, goal, start))
                    parts.append("\n")
    return parts


def test_solver_answers_and_minimax_games_pinned():
    assert sha("".join(solver_parts())) == SOLVER_DIGEST
