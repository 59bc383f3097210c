"""Golden outputs: small ``trustsim simulate`` runs and one ``trustsim ingest``
run, pinned by sha256.

Each simulate case runs the CLI into a fresh directory and hashes the files
that are a pure function of the scenario: the summaries, the series, the
per-item error matrix, the two ledger snapshots and ``trace.jsonl``
(``TRACE_DIGESTS``). ``config.json`` is left out because it echoes the
ratings file's absolute path. Besides one small case per attack, the cases
cover the configurations a change to the round path has to keep: exhausted
budgets, which fill the ``not_polled`` lists (``sybil-starved`` and the two
``desk-*-starved`` cases); a run on an ingested ratings file
(``ratings-whitewashing``); sybil at the acceptance suite's desk scale with
an initial credibility of -0.0, 0.0 and 1.0 (the zero's sign reaches the
trace; 1.0 saturates the fusion); and advisors with 200 records each
(``deep-records``). The ingest case hashes every file it writes:
``items.csv``, ``stats.txt`` and one ``datasets/user_<id>.csv`` per user.

A change meant to keep every output bit must leave these digests as they are.
A change that alters outputs on purpose re-records them and says why; so does
a change to the trace schema, which moves only the trace digests.
"""

import hashlib
import random

import pytest

from trustsim.cli import main

GOLDEN_FILES = (
    "summary.txt",
    "summary.json",
    "series.csv",
    "per_item_mae.csv",
    "credibility.tsv",
    "inquiries.tsv",
)

SMALL = ["--advisors", "8", "--items", "4", "--iterations", "5", "--records-per-advisor", "24"]
#: The scale of the acceptance suite's attack-trend runs.
DESK = ["--advisors", "20", "--items", "10", "--iterations", "10"]

CASES = {
    "none": ["--attack", "none", "--seed", "5", *SMALL],
    "sybil": ["--attack", "sybil", "--seed", "7", "--sybil-count", "3", *SMALL],
    "camouflage": [
        "--attack", "camouflage", "--seed", "11", "--switch-iteration", "3",
        "--attacker-fraction", "0.5", *SMALL,
    ],
    "whitewashing": ["--attack", "whitewashing", "--seed", "7", "--reset-period", "2", *SMALL],
    "sybil-starved": [
        "--attack", "sybil", "--seed", "13", "--initial-budget", "2", "--period-length", "3",
        *SMALL,
    ],
    "ratings-whitewashing": [
        "--attack", "whitewashing", "--seed", "9", "--reset-period", "2", "--k-folds", "5",
        "--advisors", "8", "--items", "5", "--iterations", "4",
    ],
    "desk-sybil-credibility-neg0": ["--attack", "sybil", "--seed", "3",
                                    "--initial-credibility", "-0.0", *DESK],
    "desk-sybil-credibility-0": ["--attack", "sybil", "--seed", "3",
                                 "--initial-credibility", "0.0", *DESK],
    "desk-sybil-credibility-1": ["--attack", "sybil", "--seed", "3",
                                 "--initial-credibility", "1.0", *DESK],
    "desk-camouflage-starved": [
        "--attack", "camouflage", "--seed", "3", "--switch-iteration", "5",
        "--initial-budget", "2", *DESK,
    ],
    "desk-whitewashing-starved": [
        "--attack", "whitewashing", "--seed", "3", "--reset-period", "3",
        "--initial-budget", "2", *DESK,
    ],
    "deep-records": [
        "--attack", "none", "--seed", "3", "--records-per-advisor", "200",
        "--advisors", "6", "--items", "4", "--iterations", "3",
    ],
}

DIGESTS = {
    "none": {
        "summary.txt": "6b66749829c0153722f871a2641049c76412a1e132dfcb67491214a316624276",
        "summary.json": "6a2ec732d1bc6d7da53c873f4adf7ab7bab81398eaca973db6914486d0f9f223",
        "series.csv": "f29ddfc4f289ee305ede652201141e63a2eb9ee73eacb6300306bfc3e5de9b57",
        "per_item_mae.csv": "459dc9c50b56b69270445c238678460a5da1b676f6914aba19861b8caca1ba3e",
        "credibility.tsv": "b1c2b11927f461741439b3b41bb951191b399a6dbef75cfd3e133f461a07d5de",
        "inquiries.tsv": "385c407b67cc360cce2933467d23c39acdc215286eac00e1ceee962e05d589c9",
    },
    "sybil": {
        "summary.txt": "0f80e905040b47a73175a07bbbdc187f43595fc1b49db448e1a074808404febc",
        "summary.json": "eacea577d6e337163c4ac3ebee16098028a0ac98d1d1090045d2d2ef10ffc14d",
        "series.csv": "76682d52156fc9aaabffd5076b16f7276c5e0d4a9578731246b3ea5f9f27fd46",
        "per_item_mae.csv": "5322f2169fad3af6f77c81b87ec4a34b45459aa4d4ba6a3e98b38dcf8c9b7644",
        "credibility.tsv": "d629946aeff395d35f3fc4d5777dcff25e154710b568895e70209e09c98dde29",
        "inquiries.tsv": "c68cd02f57f0fdb4e8faa085ef65b7a7ce0a11fc6b95f798a002929e9522970b",
    },
    "camouflage": {
        "summary.txt": "d3e20424f6bc0b3e6b75ab48f60294c39b8455ae18bc7689012362a2447f96c5",
        "summary.json": "3ab35a4662a43bc36890edd09fc72b49e3d75a49b81c672e24c7bb28162f66c2",
        "series.csv": "1067a8df08d19e0f6979a564f348508b3d94ad5bf22937a8be9595f22b008a49",
        "per_item_mae.csv": "fa258b9b424d0bbaf224b7a7b3e8c61a6ddad1b0661ae80812485f543786c478",
        "credibility.tsv": "646ba87f5825bc8ebbef2fa89863d6b860cf1786d5750b6ec3194c82465dc5b1",
        "inquiries.tsv": "9c25770e46d835f8bcfb6422bab729c9adf97034d34f6f64af85211d9882ad18",
    },
    "whitewashing": {
        "summary.txt": "b8683a8703a15d96c3b6e99acc7ca8ddf78d79d287d86d8c9ff46b599938535c",
        "summary.json": "1f85869dae432bc2795e3b67259900aece3676d48780f5eb54dc5bb1eb2362ff",
        "series.csv": "f2dc9b0bf16dd4adc6f4213fdab96018eb4c82c093e4ab23d4fed42ad7f5b085",
        "per_item_mae.csv": "32cab840cd1c90cc2d1f06df2f19b67d7c5d61fdbe27cfaf5eea3eb4431a6f58",
        "credibility.tsv": "e080d95fc0df6217bf82aa6eed1e953b61082ea000837e45d292d352ba3da1d0",
        "inquiries.tsv": "0a69a76256e9b56a541b0102ae8cfca92357e9d4eed6cab884bba5f6cfcaa89b",
    },
    "sybil-starved": {
        "summary.txt": "03baf90aa6408b704818d2c6568a5a0534d92227d072067f15f0b63d9b8a931e",
        "summary.json": "36dbe5707f0172a2f56c2d0af3c82f3c9337a9f4f60c088d877dcac6f791992b",
        "series.csv": "66220314969a28799069723c42c6b0f4c9c19e30f0fd952c0392cc8109191468",
        "per_item_mae.csv": "9513edfddd3d340ee967924e98da3e24c0821dae7e896f42cf62330ed79f430c",
        "credibility.tsv": "284344ddbbaf1f33813ee543a632bc80758ab5b8ffabe007b7d035923be08d0a",
        "inquiries.tsv": "f95a4b8c9eddb01e64d64a18eeb358a8c1a4606056caac3f59f7f757b9e4fb16",
    },
    "ratings-whitewashing": {
        "summary.txt": "e467f3fb98eaf2a33c22a87d1f0f3e9bf5b813f63fc40530a9f2f67bed673526",
        "summary.json": "57768e87cf69784e0493a07feba1626299abe34c255fc9f5ebbc22d3804b51ac",
        "series.csv": "2de016000fcc88d41dfd6a7a117f9a8acf2a4a97f93411518cde0d873756ce0d",
        "per_item_mae.csv": "236c3d319d3a1a008f24acefe6d80a1319460f6d9ba695fab7cbba89e75ac37b",
        "credibility.tsv": "0b32f660d4e2526323b9a3f93a56dbe252904027f83c449ac0ca972f5923e2bb",
        "inquiries.tsv": "0f8413da5bcc4027138eab23c79111d72aaa81ca8a9202807b49de4a19b6d2a0",
    },
    "desk-sybil-credibility-neg0": {
        "summary.txt": "63bdee55ffbf0e080d97f6307d20a9e4874d92fb1fe92e55b2d010245984836a",
        "summary.json": "780ae67f412999c17c404ecc4b4098816f8fc018ca5f1d52d5c6d569bb03f4f6",
        "series.csv": "0b45478205829080c32220c28c0ae26a30889ee63be81a230a2c6d3348fc89c4",
        "per_item_mae.csv": "2d81e83b1f56f33290066fce6bbb0b7feb55ebbaea041de3c19402e5ecea91bf",
        "credibility.tsv": "d8173d151e01a431e78e0dcd04d20a8746129f32b15a64611800eee2b7b272fb",
        "inquiries.tsv": "d46181fae5319d048e8b3adb5c740b041a04a42b4955fdfe3486f7487432fd92",
    },
    "desk-sybil-credibility-0": {
        "summary.txt": "63bdee55ffbf0e080d97f6307d20a9e4874d92fb1fe92e55b2d010245984836a",
        "summary.json": "780ae67f412999c17c404ecc4b4098816f8fc018ca5f1d52d5c6d569bb03f4f6",
        "series.csv": "0b45478205829080c32220c28c0ae26a30889ee63be81a230a2c6d3348fc89c4",
        "per_item_mae.csv": "2d81e83b1f56f33290066fce6bbb0b7feb55ebbaea041de3c19402e5ecea91bf",
        "credibility.tsv": "bf6b2ee40439881c7e546ba46f9b3459b9392df0c10324418a02689ee5c62928",
        "inquiries.tsv": "d46181fae5319d048e8b3adb5c740b041a04a42b4955fdfe3486f7487432fd92",
    },
    "desk-sybil-credibility-1": {
        "summary.txt": "c658adadd626d53470ae3daa4debfa501e040e57c6c763eafbfbfdb61ab6ec02",
        "summary.json": "1eac478ea5cb0596f11bbf910b6b3f6eae3b1325c23c03c232ed16a9487c16bc",
        "series.csv": "3251f8e258f798eb22ff0d627702441a9122bdfdbd027a9ef56737f35a7d1cff",
        "per_item_mae.csv": "4cd26e6a1e1f2a96a9681bf9d0ff1158bd2ce63fcdec05ea4107ec5b5dd6c4cc",
        "credibility.tsv": "3d30ed953d481e3ef64b3684d8bf971cbb94ef50af6ef8f89b186ad5ac8d74f9",
        "inquiries.tsv": "95ade45a78e9f1b4efc4a2e97b045f805ddbfeec05555555942442be4fe6f35a",
    },
    "desk-camouflage-starved": {
        "summary.txt": "8387a8891524c311db082c107192832e74fba5be4889303c5bef9ee43cef1b9c",
        "summary.json": "f219bd05bb055a9afa790fd17280214a56a6543ca6bd4009fff47285daba24f5",
        "series.csv": "292b185314d6a9d80e38e79e009d7633be173fc95c756242add22aec3b56acc9",
        "per_item_mae.csv": "eeea47a256775610f5bd607de02a2616859d473346b919ba01f37bfb200d298e",
        "credibility.tsv": "2842dcb2699ee1bdfd8981487d31466838120a56ec7e500959a3234a02db2df3",
        "inquiries.tsv": "1d1a271f35651417ab5c55ef321080d487eebe18ae1e902052d1eba649561f19",
    },
    "desk-whitewashing-starved": {
        "summary.txt": "dbc9a56780a81f27c30c56e8b6bfa348e5ee99f1dc7efc0e6214abb5c4a75b57",
        "summary.json": "9f1ddae5f0cc58cc47e542adcea327a08af74c84cc93b2fbc7ad1c90a05d6d85",
        "series.csv": "246723c5da83651d955ddb407723cbafc72b463f448fa433612855b5afa92e67",
        "per_item_mae.csv": "58da1a14fd836b7a5f38966a246b4a5cda0d147551398b665eed53e563016a26",
        "credibility.tsv": "0e5ad10a063845b7ed7e8aba030592b0ed08ff645f740691888d9d54d1380e57",
        "inquiries.tsv": "8c71ce95a00a9d59e8918757038388956562277763165e577717655859350d63",
    },
    "deep-records": {
        "summary.txt": "36a3181feed8a3734dad8cf962d1b46d35d1bc87e049b9f8e973e42251839e6e",
        "summary.json": "7504d4cf89c8e454d00b6a357351f9eb10250cc1f3804693969460d0e1cc0093",
        "series.csv": "18e47303da654472895185c22c1143817639f4f3c135a4bf4de13a8aa8f9cc64",
        "per_item_mae.csv": "05b31c39652982294d9ed40aa8070919ca74f6f706fddf458ad13e48e43906a9",
        "credibility.tsv": "6a646bb70c0da8051a3c63682ff1c25149e4ed955009182be3351213b9edc291",
        "inquiries.tsv": "97566a1d9c2c33fff1706ceb5396d20a67551cf588d996116b3dfa7801e38a20",
    },
}

#: ``trace.jsonl`` of every case; a trace schema change re-records them.
TRACE_DIGESTS = {
    "sybil": "b62d187f3481ea4f62fb6494c536dac6434e2b8e7ac6f15364647f6f0800de9b",
    "sybil-starved": "e8472975754e86f7cee921f2f485b4d50911a2befb1258280d87dd3af5d192fd",
    "ratings-whitewashing": "ce33257d4d32f2d5aca4f26c42bc1cc34f35f569de12171f76cea21f4dea3d3d",
    "none": "0ed88aa89e0ce5ff5a6fdf890789b20c9cde82138144a09a2185b7f0fcdcfebe",
    "camouflage": "983ec11c4d17ad7f94c59c0eb355ceaeb286c7b587d26fe1a2c4afd76635e518",
    "whitewashing": "ce1a81c48efd2ea103235cf4df22ac5634dcce6365756eab5f667b8d1585ff26",
    "desk-sybil-credibility-neg0": "b6e2525d88471a6e85fe53027b29ef9501e87c310098cf04a7d84215fa84a70c",
    "desk-sybil-credibility-0": "588cfd0aae103b50d25b349cd4ccb10789cb85a0523d10790cb47f460e7c5fbc",
    "desk-sybil-credibility-1": "2137fffcdc30797a80a54982b3befd93728d48c3c75350fe0fe445b3d9d93f88",
    "desk-camouflage-starved": "f66a1e9961467d12b630340a183956a52fd76b3fe118236a465de21b5a4b1478",
    "desk-whitewashing-starved": "f23c26be86755ef2f540968c29b31fb7076debb06e05f998588c990e11c77bf5",
    "deep-records": "f25051e94066de6b5930027ea55d6bb76540d514cd3edf6c399750b594d5628d",
}

#: Every file ``trustsim ingest`` writes for ``write_ratings``' file.
INGEST_DIGESTS = {
    "datasets/user_u0.csv": "00c3948357872f7a052e50a318b330bfb1e5a00b6adc95bc29227524ab3b3053",
    "datasets/user_u1.csv": "845520848605cfffca99d43ea9a4f5a4f68ddff9ac1a0892ee236e03bec93659",
    "datasets/user_u10.csv": "8384deddf6d9225357ababfd67f9b7a74154b6e8619386b79115524d6d4aec50",
    "datasets/user_u11.csv": "2a8d772475536f12d574297a894243f6e606858a14bbe1c274c0dd220f340d9c",
    "datasets/user_u12.csv": "3d752e44204b5f514dd59ecc65e19f49e16c8edd93f8f56de7cda5a20b29056e",
    "datasets/user_u13.csv": "4c777753136c1aee47bf307d4ff05cc24572f4b42ed3185700e9fc21d236c97b",
    "datasets/user_u2.csv": "e7f6ace39f8dd85998f3b5ed390efe96929382d1c0b08a996ccf89db5b7040fb",
    "datasets/user_u3.csv": "6c0a6a8d2c02d7eec043dc3e2e8807a6cfc94cde2c2422ade84d1f8819b48ad0",
    "datasets/user_u4.csv": "707148889e7095cc60b789c4019a72f3b38ed78cd989d01584eee8d05fef93dd",
    "datasets/user_u5.csv": "a086c7d317bf1c1145e623cfab63459d5b6af878f9eb61dee18ff248cd1bf4a3",
    "datasets/user_u6.csv": "bdaa1735d66d653f0d69893931a6ba4c84d55ccbb7359f7332de5e707be10c59",
    "datasets/user_u7.csv": "94ef0bb34680bdee412ab5fb44dba30befd8d7d5c6f4a541c2756ddc0a336ea1",
    "datasets/user_u8.csv": "49c1eaf86efe48dd46219e5b8b64a8947cc3a162bab63d6a32583a8396b54c86",
    "datasets/user_u9.csv": "36d2bc4e9d7ce3ef1e68a6aaeb53f0a62157a83d7cf74b71a57203ef867a658c",
    "items.csv": "0000b9adac0529405cbc6f9817ccbcc3eb82d95ff7c6d1126f911d525c2353b7",
    "stats.txt": "9a252df37f61460c04199680026d4d34b370d81687ae4de8bfafe205b8dd59fe",
}


def write_ratings(path, users=14, items=10, seed=5):
    """A seeded ratings file: the first half of the items are mostly liked,
    and some users rate an item twice."""
    rng = random.Random(seed)
    lines = []
    for user in range(users):
        for item in range(items):
            good = item < items // 2
            for _ in range(2 if rng.random() < 0.1 else 1):
                satisfied = good if rng.random() > 0.15 else not good
                rating = rng.choice([4, 5]) if satisfied else rng.choice([1, 2, 3])
                lines.append(f"u{user},i{item},{rating}")
    path.write_text("\n".join(lines) + "\n")


def digests_of(tmp_path, case):
    argv = ["simulate", *CASES[case], "--out", str(tmp_path / "run")]
    if case.startswith("ratings-"):
        ratings = tmp_path / "ratings.txt"
        write_ratings(ratings)
        argv += ["--ratings", str(ratings)]
    assert main(argv) == 0
    return {
        name: hashlib.sha256((tmp_path / "run" / name).read_bytes()).hexdigest()
        for name in GOLDEN_FILES + ("trace.jsonl",)
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_the_recorded_digests(tmp_path, case):
    expected = {**DIGESTS[case], "trace.jsonl": TRACE_DIGESTS[case]}
    assert digests_of(tmp_path, case) == expected


def test_ingest_outputs_match_the_recorded_digests(tmp_path):
    ratings, out = tmp_path / "ratings.txt", tmp_path / "ingested"
    write_ratings(ratings)
    assert main(["ingest", "--ratings", str(ratings), "--out", str(out)]) == 0
    written = {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in out.rglob("*")
        if path.is_file()
    }
    assert written == INGEST_DIGESTS
