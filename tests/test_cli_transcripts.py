"""Golden CLI transcripts: every byte the command line writes, pinned.

Each row of ``TRANSCRIPTS`` is one invocation of ``scvoting.cli.run`` and
the SHA-256 of its transcript: the exit code, stdout, stderr and every
file the invocation writes, with its name.  The inputs are written by the
library into a fresh working directory, and every path is relative, so no
machine-dependent path enters a digest.  A change to any written byte, to
an exit code or to a message fails the row and prints the transcript.

argparse's help text and some of its error wording differ between Python
versions, so ``--help`` is left out; the usage errors pinned here carry
this program's own messages or argparse's long-standing "arguments are
required" and "unrecognized arguments" wording.
"""

import hashlib

import pytest

import scvoting as sv
from scvoting import fixtures
from scvoting.cli import run

UNIFORM = "--model uniform --seed 7 --voters 24 --sizes 4,3,5 --quotas 2,1,2 --p 0.3"
PARTY = "--model party-list --seed 0 --subset C1:1:x,y --subset C2:1:u,v --block 2:x,u --block 1:y"
COVER = sv.SetCoverInstance.of(5, [{0, 1}, {1, 2}, {2, 3, 4}, {0, 4}], budget=2)
# every pair of 8 elements with budget 3: three pairs never cover eight
ALL_PAIRS = sv.SetCoverInstance.of(
    8, [{a, b} for a in range(8) for b in range(a + 1, 8)], budget=3
)


def _inputs() -> dict[str, str]:
    """Name and text of every input file."""
    instances = {
        "deadlock.json": fixtures.no_swjr_instance(),
        "split.json": fixtures.axiom_split_instance(),
        "rivalry.json": fixtures.pav_vs_swjr_instance(),
        "tension.json": fixtures.swpav_vs_iwjr_instance(),
        "misses.json": fixtures.swpav_misses_iwjr_instance(),
        "blocks.json": fixtures.iwpav_vs_weak_instance(),
        "uniform.json": sv.generate_instance(sv.UniformModel(24, (4, 3, 5), (2, 1, 2), 0.3), 7),
        "party.json": sv.generate_instance(sv.PartyListModel(
            (("Left", ("l1", "l2", "l3"), 2), ("Right", ("r1", "r2"), 1)),
            ((4, ("l1", "r1")), (3, ("l2", "l3", "r2")), (2, ("l3",)), (1, ()))), 0),
        "cover-enc.json": sv.encode_set_cover(COVER),
        "pairs.json": sv.encode_set_cover(ALL_PAIRS),
    }
    texts = {name: sv.serialize_instance(inst) for name, inst in instances.items()}
    texts["cover.json"] = sv.serialize_set_cover(COVER)
    texts["broken.json"] = (
        '{"voters": 1, "subsets": [{"name": "C1", "candidates": ["x"], "quota": 2}], '
        '"ballots": [[]]}'
    )
    texts["entry.json"] = '{"voters": 1, "subsets": [5], "ballots": [[]]}'
    texts["not-json.json"] = '{"voters": 1,\n  "subsets": ]}'
    return texts


# argv (split on spaces) -> SHA-256 of the transcript
TRANSCRIPTS = [
    # validate
    ("validate split.json",
     "70b5883f4e99ed518e1a438f1bc3b9219d70d7dcc23e4007462e720ab6f426e7"),
    ("--json validate split.json",
     "2165bada5ea6069e5d4bf54ee919ee9732f7ae2dcc1dac58e41e4e87e6e5315f"),
    ("--quiet validate split.json",
     "e9ca18fee09796cb490fe35f0f4b6aef26ec437f53674bfda759323565a7d2fd"),
    ("validate uniform.json",
     "304dafb7f619d864efbf1a7c004b3aa32c420f6dd18dca0b605261db9260846c"),
    ("--json validate party.json",
     "2165bada5ea6069e5d4bf54ee919ee9732f7ae2dcc1dac58e41e4e87e6e5315f"),
    ("validate cover-enc.json",
     "e44d3f0e6fe4f246cb4187e963c6fddc8deb0945cf75f81f841290b42200a095"),
    ("validate broken.json",
     "89d42def48833224d4e03c38014698d65208263f9bda61bc2752ef93bdc15ce6"),
    ("--json validate broken.json",
     "4eee3641072b75af2f7459bbc214b252cd9c37a03bd832f5967c586c15864bcb"),
    ("--quiet validate broken.json",
     "4cb10024f65960ef4fa2e1412396a520700e89daf4707389747257582aae3b23"),
    ("--json validate entry.json",
     "2399fd86cf574b6f6a1a2d685e3b635c6c069d950a8781447bedef9ffd1c1141"),
    ("validate not-json.json",
     "e626e0d99d03b1f9f4dea0ceb084b637b04747eb320f5dd7a230c272fc52bfd4"),
    ("validate missing.json",
     "8a3944074c9a1594446c53a36d48232ac59f234bd9cc16f66548651905e0333a"),
    ("--json validate missing.json",
     "8a3944074c9a1594446c53a36d48232ac59f234bd9cc16f66548651905e0333a"),
    # check
    ("check --axiom sw-jr --committee a1,b1 deadlock.json",
     "d2ccf943bfd330195854f3e178fb4cb5dc385952b135de3d4203914b9d2b71ab"),
    ("--json check --axiom sw-jr --committee a1,b1 deadlock.json",
     "f1031e0ce9fc76f87c9630f5babb325fecb1bbca1f5688202104c71f38f0172c"),
    ("--quiet check --axiom sw-jr --committee a1,b1 deadlock.json",
     "94638cc0d0d61501154a41485bf530833bd59183ce1d5a44533b1b5f1d74990f"),
    ("check --axiom all --committee c7,a,c split.json",
     "f6e4fd263762db6d8222af6db68b4d91769bcbf20055060a21f765553bb85572"),
    ("--json check --axiom all --committee c7,a,c split.json",
     "38d75cc2db868783f45a76aad2cf425a2fc5f0cd0234d74dcfa5d27fc5f01210"),
    ("check --axiom all --committee c1,b,c split.json",
     "71852310afed1bb4a64f1c468528d4b83f645025efde93fdb1b1e59094845b81"),
    ("--json check --axiom all --committee c1,a,c split.json",
     "3354b2f9415c91ed629e715de91a49948cd69f0f04d43ddf4b985e772fdaec43"),
    ("--quiet check --axiom all --committee c1,a,c split.json",
     "94638cc0d0d61501154a41485bf530833bd59183ce1d5a44533b1b5f1d74990f"),
    ("--json check --axiom all --committee a,b1,c1 rivalry.json",
     "c1f7de1d1992601fab75d5e37acb0e398ee9985e0088702dce63f9789ba1b1af"),
    ("check --axiom all --committee a,a',a'',b'' tension.json",
     "f6e4fd263762db6d8222af6db68b4d91769bcbf20055060a21f765553bb85572"),
    ("--json check --axiom iw-jr --committee x,a,b,y misses.json",
     "94bb5a529bf8e21af280b5d825f65ac1cf0ea6a1a0900b96c2b436a18c3aa62f"),
    ("check --axiom weak-sw-jr --committee a,b,a',b' blocks.json",
     "301f1a608267561c1b74c4595d5fcf39f359fdd57bc8e04dadbfdf64d18741f5"),
    ("--json check --axiom jr --committee l1,l3,r1 party.json",
     "18cef2c14ac514908680445eb5daed44a82f78703efd8b804c5aef92269d8f4e"),
    ("check --axiom all --committee a1,a2,a3,a4,a5,s1,s3 cover-enc.json",
     "f6e4fd263762db6d8222af6db68b4d91769bcbf20055060a21f765553bb85572"),
    ("check --axiom sw-jr --committee zz,b1 deadlock.json",
     "3e7ae61a3afa29a04265550adda9e5fb9b32420320579ae9bba040c0a7c5458d"),
    ("--json check --axiom sw-jr --committee a1,a2 deadlock.json",
     "24ea71df1f5d4732d73a271c045fa7156cb03d2259945e5a49c7e87a5db1eb29"),
    ("check --axiom sw-jr --committee a1,b1 missing.json",
     "8a3944074c9a1594446c53a36d48232ac59f234bd9cc16f66548651905e0333a"),
    # solve
    ("solve --rule greedy split.json",
     "0b7908d44dcbf98affc57454e8b19b3664c74bb89c563ad6ceb3d7997fa4b40f"),
    ("--json solve --rule greedy split.json",
     "47f85be81e69b2691985d8f2f555871aff4c35cb9138ccfcab89bd1616eb344b"),
    ("--quiet solve --rule greedy --trace trace.jsonl split.json",
     "03859b5c9bf8c924714181f9345dcaa06feb16f2b133ffde41e9bff175bc0833"),
    ("--json solve --rule greedy --trace trace.jsonl uniform.json",
     "2e5c5ce22bb22087a796ea2b4200dfe79c0f8ca426ccf0622a73df282e8ad828"),
    ("solve --rule greedy deadlock.json",
     "a2088015ac0da05c44c55d0ee3ac799c7acfda0a9d2e6dd945e5274b25d35da3"),
    ("--json solve --rule greedy cover-enc.json",
     "cd3036d046ee6183d3fd869d9f7ebb255b95461bd2fbcb9ce51f7a961f0ab86b"),
    ("--json solve --rule sw-pav rivalry.json",
     "78c896d7a75c18cad2a0c9030476df5568e25a176f9271e5670f3e76ea69a54a"),
    ("solve --rule iw-pav rivalry.json",
     "b360a6b05f8c11e3215f79a98c5613e0bc2ef7db3910e886de2977113ddcac9e"),
    ("solve --rule sw-pav misses.json",
     "0281d81e9c4a4749f4f5776dd029ebdcf1e51b6da2e6e8112726e7209080d4ac"),
    ("--json solve --rule iw-pav tension.json",
     "f63b1cd862dcdaaa347d612e3648d0d41eac7d03327c170333fea7abe3d2f53f"),
    ("--quiet solve --rule iw-pav blocks.json",
     "e9ca18fee09796cb490fe35f0f4b6aef26ec437f53674bfda759323565a7d2fd"),
    ("solve --rule sw-pav uniform.json",
     "5e1401ec7aa9461d6c8c476681ad733e0f1bbbc48fe9510f970efd5026afe3c8"),
    ("--json solve --rule iw-pav party.json",
     "779d3e24070cf09a9a6f25e2e6b6550e3a4fcc1d9a229e5932cc822939dd986c"),
    ("solve --rule sw-pav --budget 1 rivalry.json",
     "2e16ce0cd190b93e9bbd07d96dbd8d7bfd03d10a72cd7d65938c330a8642fbf3"),
    ("--json solve --rule iw-pav --budget 1 blocks.json",
     "4041e5f9aed86a328efbcffce2c3242f29178d38995cccfc7c30b210674a6867"),
    ("solve --rule greedy broken.json",
     "b712df6ae2130da56c9a5cc92650cb365ffd33ade0f85a5e2879686fd52dc2cb"),
    # score
    ("score --variant sw-pav --committee a,b1,c1 rivalry.json",
     "ab509d972f25447f7f6455349120508dcba6d7a3f974537662c9f1822423f8a8"),
    ("--json score --variant iw-pav --committee a,b,a',b' blocks.json",
     "cce94516d130e306127f6f1fafc1b2ac3f5dcb1390ea4375ae00998668b3cd1b"),
    ("--quiet score --variant sw-pav --committee x,a,d,y misses.json",
     "e9ca18fee09796cb490fe35f0f4b6aef26ec437f53674bfda759323565a7d2fd"),
    ("--json score --variant sw-pav --committee c0,c2,c5,c7,c8 uniform.json",
     "03da877cefab1dfb64ffb3dffc979d2bced7051050e2d6e2bb46e4a2f255b234"),
    ("score --variant iw-pav --committee a1,a2 deadlock.json",
     "24ea71df1f5d4732d73a271c045fa7156cb03d2259945e5a49c7e87a5db1eb29"),
    # exists
    ("exists --axiom sw-jr deadlock.json",
     "8366e389d3aaa43e8f33f3a42330fe54b8f2abb0279df960b83e93b8b79488e9"),
    ("--json exists --axiom sw-jr deadlock.json",
     "6cba157d431d144165bb2196be912d208b013ef21408ac54061a4dc24775906a"),
    ("exists --axiom sw-jr pairs.json",
     "8366e389d3aaa43e8f33f3a42330fe54b8f2abb0279df960b83e93b8b79488e9"),
    ("--json exists --axiom sw-jr pairs.json",
     "6cba157d431d144165bb2196be912d208b013ef21408ac54061a4dc24775906a"),
    ("--quiet exists --axiom sw-jr pairs.json",
     "94638cc0d0d61501154a41485bf530833bd59183ce1d5a44533b1b5f1d74990f"),
    ("--json exists --axiom sw-jr split.json",
     "04e37018b5d82314b6d56dd83478a2232a164abf543e607d818bc1f4ad7d64a8"),
    ("exists --axiom sw-jr cover-enc.json",
     "85f8804e3993c156ed12677a4f9ff6b7f51dba0f588bc46a997c5e56c1742a95"),
    ("--quiet exists --axiom sw-jr cover-enc.json",
     "e9ca18fee09796cb490fe35f0f4b6aef26ec437f53674bfda759323565a7d2fd"),
    ("exists --axiom sw-jr uniform.json",
     "a46b9e90238b6f4c574fe9022f01315834bd7d7f9f588039b892c80ea914e7b9"),
    ("--json exists --axiom sw-jr party.json",
     "46bdd096ee2f72ed7c40378ff20d6130889e6ae06693abc7f0bf7e6d9788c3e1"),
    ("exists --axiom sw-jr --budget 10 pairs.json",
     "491b62253bc9cd472fd8669d4cfc041152bd3e86e322a1312280b99d96002218"),
    # gen
    (f"gen {UNIFORM}",
     "f8d70c74fb8ff4c735ad496292a4e5490538b8425e7c79947028af04084b0583"),
    (f"gen {UNIFORM} -o gen.json",
     "fb8b3975a733671ad3b06d897f109fb6fe1e8ead6cb0879866cf061487ba6c26"),
    (f"--json gen {UNIFORM} -o gen.json",
     "341c29f2099b7525da85b842766b282d2cb3c1cd761fdb712e7773cb2b865e85"),
    (f"--quiet gen {UNIFORM} -o gen.json",
     "341c29f2099b7525da85b842766b282d2cb3c1cd761fdb712e7773cb2b865e85"),
    (f"gen {PARTY}",
     "0ffb85cae14a7e65cec5652eba31ec3ed1840f944c95b565cb77ba856118a66d"),
    (f"--quiet gen {PARTY} -o party-out.json",
     "eb72962c389bc5972bde7cfa2c21c7f4a670d3965a9fccba3603559fb5b6d96b"),
    ("gen --model uniform --seed 1 --voters 0 --sizes 2 --quotas 1 --p 0.5",
     "5beeb4f37fafab34f5bb2b88f50d9f7184d6c6c293bc1cc7740698c27cbe468a"),
    ("gen --model uniform --seed 1",
     "beb054631e8d96810ea105a248a692071e9ccd32d4dabc6a424a1407bcce72c6"),
    ("gen --model party-list --seed 1",
     "5ff41949109daa5ab5d1b7d9c5a1d38d7ace9127cc305f10e8578d1844b6472f"),
    ("gen --model uniform --seed 1 --voters 2 --sizes 1,x --quotas 1,1 --p 0.5",
     "c852144fe22422eaf3d64cca0e11a2c0a353e7a5e56e1868a68db008722995f9"),
    ("gen --model party-list --seed 1 --subset C1:one:x --block 1:x",
     "702c9f0fc3cb325021cc42c3e376384329e22da09d95e3a98066078dda921941"),
    ("gen --model party-list --seed 1 --subset C1:1:x --block x",
     "d7018eb54f60de0f26dee3fa72be184641365b2b49ef6f63852b955199a8a66d"),
    # encode-setcover
    ("encode-setcover cover.json",
     "1388a44729ef8bacef89e593a016028a0128d6331f86ce347b8afec6a63a00d1"),
    ("encode-setcover cover.json -o enc.json",
     "8fe48a0b73a61f295978226d16d3ea0df54ed9693ca3365c4329d39716f768d9"),
    ("--json encode-setcover cover.json -o enc.json",
     "2f603f8b8431309afeaac5fd23e1c58f9b65d148f1e5c11ac1441a15483192a1"),
    ("--quiet encode-setcover cover.json -o enc.json",
     "2f603f8b8431309afeaac5fd23e1c58f9b65d148f1e5c11ac1441a15483192a1"),
    ("--json encode-setcover pairs.json",
     "d52a421e416ed32c72f654a6254409423bf4171fd4b83da3341ccf62b850dc3f"),
    ("encode-setcover missing.json",
     "8a3944074c9a1594446c53a36d48232ac59f234bd9cc16f66548651905e0333a"),
    # usage errors worded by argparse
    ("",
     "9cc34563ce6de414add847687efdbfd796c59ee9b042d3fe1aa0a8fbacd78a69"),
    ("check --committee a1,b1 deadlock.json",
     "7da4097af53cc7ff6c37268d4e4a1dbdab5252a151a9b19ff4b07c202741d9ea"),
    ("validate --nope split.json",
     "2e9ab4bdc30191a0715b050bf89f90c597db3008f8b888a0e3392a2999810524"),
]


def transcript(argv: list[str], capsys, cwd) -> bytes:
    """The exit code, stdout, stderr and written files of one invocation."""
    before = {path.name: path.read_bytes() for path in cwd.iterdir()}
    code = run(argv)
    captured = capsys.readouterr()
    parts = [f"exit {code}\n--- stdout\n{captured.out}--- stderr\n{captured.err}".encode()]
    for path in sorted(cwd.iterdir()):
        data = path.read_bytes()
        if before.get(path.name) != data:
            parts += [f"--- file {path.name}\n".encode(), data]
    return b"".join(parts)


@pytest.mark.parametrize(
    "argv, digest", TRANSCRIPTS, ids=[argv or "no-arguments" for argv, _ in TRANSCRIPTS]
)
def test_cli_transcript_is_golden(tmp_path, monkeypatch, capsys, argv, digest):
    for name, text in _inputs().items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    got = transcript(argv.split(), capsys, tmp_path)
    assert hashlib.sha256(got).hexdigest() == digest, (
        f"scvoting {argv}\n{got.decode('utf-8', 'replace')}"
    )
