"""CLI artifacts pinned by SHA-256 digest.

Every artifact the CLI writes on two inputs, the worked-example fixture and
a small seeded synthetic ledger, must keep the exact bytes these digests
were taken from. That includes ``lambda.csv`` and ``lambda_regression.json``:
their least squares are closed forms over ``math.fsum`` sums, so their
floats depend on no linear-algebra library. The fixture is too small to
fill one 720-hour window, so there they pin the header-only table and the
null regression.
"""

import hashlib
import json

import pytest
from click.testing import CliRunner

from fillflow.cli import main
from fillflow.fixtures import EXCHANGE_ADDRESS, write_fixture

SCENARIO = {
    "seed": 23,
    "markets": [
        {"candidate": "Trump", "yesTokenId": "101", "noTokenId": "102",
         "launch": "2024-01-04T23:00:00Z"},
        {"candidate": "Biden", "yesTokenId": "201", "noTokenId": "202",
         "launch": "2024-01-04T23:00:00Z", "resolution": "2024-07-21T17:46:00Z"},
        {"candidate": "Harris", "yesTokenId": "301", "noTokenId": "302",
         "launch": "2024-07-21T17:46:00Z"},
    ],
    "start": "2024-05-01T00:00:00Z",
    "end": "2024-09-01T00:00:00Z",
    "nTransactions": 400,
    "nTraders": 30,
    "arbitrageur": True,
}


def _run(args):
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output


def _prepare(source, base):
    if source == "fixture":
        write_fixture(base / "input")
        return base / "input"
    scenario = base / "scenario.json"
    scenario.write_text(json.dumps(SCENARIO), encoding="utf-8")
    _run(["simulate", "--scenario", str(scenario), "--out", str(base / "simulate")])
    return base / "simulate"


def _artifacts(source, base) -> dict[str, str]:
    inp = _prepare(source, base)
    fills, markets = str(inp / "fills.jsonl"), str(inp / "markets.json")
    doc = json.loads((inp / "markets.json").read_text(encoding="utf-8"))
    del doc["markets"][1]
    partial = base / "partial.json"
    partial.write_text(json.dumps(doc), encoding="utf-8")

    def out(name):
        return ["--out", str(base / name)]

    _run(["ingest", "--input", fills, *out("ingest-jsonl")])
    _run(["ingest", "--input", fills, "--format", "csv", *out("ingest-csv")])
    _run(["decompose", "--input", fills, "--markets", markets, *out("decompose-csv")])
    _run(["decompose", "--input", fills, "--markets", markets, "--format", "json",
          *out("decompose-json")])
    _run(["decompose", "--input", fills, "--markets", str(partial),
          *out("decompose-quarantine")])
    table = str(base / "decompose-csv" / "decomposed.csv")
    _run(["metrics", "--input", table, "--market", "Trump", "--partition", "hour",
          "--dense", *out("metrics-hour")])
    _run(["metrics", "--input", str(base / "decompose-json" / "decomposed.jsonl"),
          "--market", "Trump", "--partition", "month", "--format", "json",
          *out("metrics-month")])
    _run(["deviation", "--input", fills, "--markets", markets, "--market", "Trump",
          *out("deviation")])
    _run(["disagreement", "--input", table, "--from", "2024-03-01", "--to", "2024-09-01",
          "--corr-window-days", "30", *out("disagreement")])
    _run(["lambda", "--input", fills, "--markets", markets, "--market", "Trump",
          *out("lambda")])
    _run(["traders", "--input", fills, "--markets", markets,
          "--exclude-addresses", EXCHANGE_ADDRESS, *out("traders")])
    if source == "simulated":
        _run(["traders", "--input", fills, "--markets", markets,
              "--exclude-addresses", EXCHANGE_ADDRESS, "--per-market", "--quarter", "2024Q3",
              *out("traders-per-market-q3")])
    return {
        path.relative_to(base).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(base.rglob("*"))
        if path.is_file() and path.parent != base and path.parent.name != "input"
    }


GOLDEN = {
    "fixture": {
        "decompose-csv/decomposed.csv":
            "3647853e572892bcdb7c5b549c1999722acd57770e6143603c25bb454e2d1757",
        "decompose-csv/manifest.json":
            "a5d767aa38f4d09b7f768004b78b330771f3e4ef1829e79732f111c0df7f1427",
        "decompose-json/decomposed.jsonl":
            "076a27c4e2050234e26a93a0a2d6f25710e22d35deee87c27a112a9c37e791e3",
        "decompose-json/manifest.json":
            "9af5f512de797feac7ad66e04d6a977c08888cd0521f4fd565331c037d3c070f",
        "decompose-quarantine/decomposed.csv":
            "5792693da579ffff9ab72d598b1e0579c56e779de633ad1042a245efd66b9dbb",
        "decompose-quarantine/manifest.json":
            "b0cc5e035ec04855ba7ca2a6944e12449f3d61c85f41d998d5cbf0c7cdf01226",
        "decompose-quarantine/quarantine.jsonl":
            "85c49e5bddded9b448683756461439f33a93cde3a5137001eaf7832327134c26",
        "deviation/deviation.csv":
            "6ed6c035b53b922fc8c5b9ed2398219a92f01a847141e6e2bd8e7f7fd5ec3acb",
        "deviation/manifest.json":
            "4189a33bd2914e9b22bb79481783f8457816833f53df288ef4b272fb38bb6523",
        "disagreement/correlation.csv":
            "03cb0d432daec544e539e5e284d0e29e31903b6b0c434d1ea7fbde8f95171a50",
        "disagreement/inflows.csv":
            "88676cba7c6b8399cde2df96f2258adff93d8d7e2ed83a650b632c82dc03c2fc",
        "disagreement/manifest.json":
            "e7671a74140d3086983ff06a19732401c95dba455332e79d735394839ce27021",
        "ingest-csv/fills.csv":
            "492c218ba34a072dbe0478773355607298790f2564e42c839cd7a7ec9264e94f",
        "ingest-csv/manifest.json":
            "fb0455eab5a0999c566fcc61ca90b31a21ce95c2b9f36b7f6ee5797d2ce94a9c",
        "ingest-jsonl/fills.jsonl":
            "aa578065f8ff88e6998f3094df92a12be76b94283b9839bee75ba4321107b575",
        "ingest-jsonl/manifest.json":
            "82bef56d4491749b140e3be7fa137fc615490e26e7ec454c77b8f3e8584daf99",
        "lambda/lambda.csv":
            "fcc233c5a8eb317be12e964a10fbbc816161f08412a28da23d4270ea17bcb1eb",
        "lambda/lambda_regression.json":
            "839f3a80d3cb81ed512b07eb6d3b9cae40b149c6712af2da0980dc22c5ec5d8d",
        "lambda/manifest.json":
            "5003166acb605f1c17376e87463b2a4558d9622d5756843e61e0793769db0dec",
        "metrics-hour/manifest.json":
            "b96559bd90153b76e553ed6e1831e628e35580c3e20b0765c2c4c45d277ba44c",
        "metrics-hour/metrics.csv":
            "7ca06fff1218c1d7def15b975530a0e2f3e53a74dd40f323011cf7e29a2112d2",
        "metrics-month/manifest.json":
            "a152ce2dcdcd35aeff9e04719dd5f454712255f892fa8167b3d57d3ec635eddc",
        "metrics-month/metrics.jsonl":
            "fd3e719cd5e8857c5d2101fc3f9bb45f273ad9296342cbcccfbdaa1d999ca152",
        "traders/candidate_overlap.csv":
            "7c269187feb56a8a3f9eedf652b1a585a683cf98aaa6beb5a707ad1a279bc74e",
        "traders/hourly.csv":
            "0a0f513ff908bb9aff7b168028c085865c1f32fdf62010f6053a5545f0ae3364",
        "traders/manifest.json":
            "3ec51a9ce8b70638ad943096ccd5be75916f702a4f445c6fe73757b73484a07a",
        "traders/marginals.csv":
            "d17496a78b456d2dcb1b479cb29fd03a21a386faff12d0024a73763ece5dce18",
        "traders/participation.csv":
            "d07ae09d28a6b712a525b9225db3c253c18706ed300fed2a636e4b3bbc38baef",
        "traders/top_decile.txt":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "simulated": {
        "decompose-csv/decomposed.csv":
            "8edf4788a3c3a53b7200327a17ac59ce09e07db60934aaa967decad0cfa457d4",
        "decompose-csv/manifest.json":
            "8aa0a2957ee7da8b4832d1ded994323b0de2cee3dda1d500fe4e767ad4b630b6",
        "decompose-json/decomposed.jsonl":
            "0cc74292488775fca8fcc431fd06b0935c24d4268ee23249cd5d28bafc462ea5",
        "decompose-json/manifest.json":
            "45c3d7b665ae390d3fcd4684671cca68eb9418f3b4a61764b23ed2dfb42f3ada",
        "decompose-quarantine/decomposed.csv":
            "5439289795ef0d669b6ee0cd641292be95428ae5e36d1aebf08234fd7125499c",
        "decompose-quarantine/manifest.json":
            "d924da794cd9d37fdec90c7ce5ee4eeac6744ad6ade27631356b90086778b52e",
        "decompose-quarantine/quarantine.jsonl":
            "f35160699e63f0269e8b18f9124488b06926c8d5c7ae01d3f70f0897a7b465c2",
        "deviation/deviation.csv":
            "b6d7c8233e454c5626b496c4042775bfc6a54ab27d974e28cf003b20fd1f9408",
        "deviation/manifest.json":
            "92da964128745655195ebb6c2d11e467ef72c5ecc1b4b6799df32e9c202bf022",
        "disagreement/correlation.csv":
            "21c07fd3754eac86260276b0901a4b4c88669e36e5e1b73906ecb141c2049560",
        "disagreement/inflows.csv":
            "d0aef5d335992dc87ac041e99e3db49a4ac301f24b4ee0622968557c0fb27058",
        "disagreement/manifest.json":
            "fea8058ee8501062aac3d44ee0d6d92b0693766e35f934de992c7b1792ef9048",
        "ingest-csv/fills.csv":
            "c83036bc65cc8ddb42d1c4702212fcdb41825bcc709b4d0f5e03ad570fdf77da",
        "ingest-csv/manifest.json":
            "06f38da786ec657e0033be582cb8f6f70508eaaa00ac7fa3568313f461b5a61f",
        "ingest-jsonl/fills.jsonl":
            "755436bd852e17f5946fb7bee31932964609b073405dbe4dd995a6bf7629c2f8",
        "ingest-jsonl/manifest.json":
            "291683962226a99164ca90591db2eee15838ac50025454322a82ce878102de9a",
        "lambda/lambda.csv":
            "8b7199ed9fad937c4e7045054b4a714f6892e674e13b3e0d728e90cea28cd48d",
        "lambda/lambda_regression.json":
            "1e7675e11a50a2bac05816717b4123afbabcd5779de843363eed13db543debff",
        "lambda/manifest.json":
            "643718e3dbaa188ee3c524ad2e4b9149bde8b0d38a9ffe1f41d74e702094fb99",
        "metrics-hour/manifest.json":
            "844a938a4b97b0bebec3f1eb2323b9f20e66c818558498ee7d3f62227e76f73a",
        "metrics-hour/metrics.csv":
            "c024ec3217e3f51947b5cd032a91a576ef21456681f3737b2806e857aa89108a",
        "metrics-month/manifest.json":
            "f584d6a9e73eaa018ff97cb4ecd44cdbe884a828cecaef44f02e486043a0ff7e",
        "metrics-month/metrics.jsonl":
            "3ea8ff66e89d3636c28c7c01c6def3fe97a1230c9794a2e339b0aae9251a7335",
        "simulate/fills.jsonl":
            "755436bd852e17f5946fb7bee31932964609b073405dbe4dd995a6bf7629c2f8",
        "simulate/ground_truth.jsonl":
            "0cc74292488775fca8fcc431fd06b0935c24d4268ee23249cd5d28bafc462ea5",
        "simulate/manifest.json":
            "1be1c95f13f79b3bef6408b8d8fe33c5f75855c59627404497ed0615648fbc45",
        "simulate/markets.json":
            "7e0524b21e119277571978dae686b8ad7202f67c8be323abd9acae35cb6347cf",
        "simulate/simulation.json":
            "0bf29679c4e6e68a3ab0a9f23ee9a0990e0dd005fd275911920afd0e9e67a0c2",
        "traders/candidate_overlap.csv":
            "95df71590eed8223dbe1385567e9dae63e0903fc0e42e929aff7285c34b24055",
        "traders/hourly.csv":
            "634052ed1d149426f10464673b9474e1154f867480366dfc97b5f13b4fb6cb72",
        "traders/manifest.json":
            "1f400fb606555b09c48c885548398e6c38914defaa5a15891cbde068b6a1d3d3",
        "traders/marginals.csv":
            "3cde893086182948f201ca5c4ecce5c65e8ddf43fffaac447eb7532d5528b563",
        "traders/participation.csv":
            "03a15aa56d99b76ececc761b7e2377247ebff36fd5289c8ea2c27d3fcb77e919",
        "traders/top_decile.txt":
            "9c71a0a1d2010eb05e35c905f0d5b5bcfd1b66d406fb6016ab25f543cd92ad12",
        "traders-per-market-q3/candidate_overlap.csv":
            "95df71590eed8223dbe1385567e9dae63e0903fc0e42e929aff7285c34b24055",
        "traders-per-market-q3/hourly.csv":
            "e1391b0b65a174f8e2c88f996a2467f52e8d4aa4113a323c53ebbf113c77f338",
        "traders-per-market-q3/manifest.json":
            "4424c325ce6afd20570487e17b158b8075d330ef79966126720ed1c51baa2bc9",
        "traders-per-market-q3/marginals.csv":
            "39bdaba65b68ea92be35ec4de8490998ac6597d96bd11a497f9ead67fe796421",
        "traders-per-market-q3/participation.csv":
            "81728b909f8d6a445c21d6ff9ef0a364f1ba370c8a223f6fa9a08829815d9965",
        "traders-per-market-q3/top_decile.txt":
            "da366f21dc26d4c802750310250150d2db19d6317e8e76ceea5a808fb3b491a3",
    },
}


@pytest.mark.parametrize("source", sorted(GOLDEN))
def test_cli_artifacts_match_golden_digests(source, tmp_path):
    assert _artifacts(source, tmp_path) == GOLDEN[source]
