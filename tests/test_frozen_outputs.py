"""Frozen output bytes: one small CLI run per theorem id.

Each case runs ``fvrlab.cli.main`` in a temporary directory and pins the
sha256 of its reports (the ``--out`` file, or every stdout line but the
last) and of its summary line (the last stdout line).  Any change to the
sweep front end, the dispatch or the checks that moves a byte of output
shows up here as a digest mismatch.
"""

import hashlib
import json

import pytest

from fvrlab import report
from fvrlab.cli import build_parser, main
from fvrlab.experiments import THEOREMS

F3 = "a=1;R=0,0,0;S=0,0,0;T=0,1,0"
# quadratic T on F_9[x]/(x^2): gate_c_size needs |C| >= 2 * 9 = 18
F9_QUAD = "a=2;R=1,0,3;S=0,5,0;T=1,2,0"

T1_9_CFG = "theorem = T1_9\nring = zpr:p=5,r=2\nmode = random:14:12\nseed = 31337\nd = 2\n"
T2_4_CFG = "theorem = T2_4\nring = zpr:p=3,r=2\nmode = random:7,7:5\nseed = 11\nmax_weight = 5\n"

# id -> (argv, config file text or None, --out file name or None,
#        exit code, sha256 of the reports, sha256 of the summary line)
CASES = {
    "T1_3-single": (
        ["check", "T1_3", "--ring", "zpr:p=3,r=2", "--f", F3,
         "--A", "0,1,3", "--B", "all", "--C", "1,2,4"],
        None, None, 0,
        "4f866e34eb6c0626c2b9bf4f24f6b46f3504ba2561b33558a02c4f698fcee46a",
        "f1ab4e5fe73875762cb386f7baa7cc902dc9f81c54d446e42634809b8d3ca26a",
    ),
    "T1_3-exhaustive": (
        ["check", "T1_3", "--ring", "zpr:p=3,r=1", "--f", F3, "--mode", "exhaustive:1"],
        None, None, 0,
        "7ce4802dba1bfe520c22cd03560d74c4646faafe4d6b54187b706f2e01303372",
        "9a0d49ddbbdb15ff45bc12cff4ff40c1b0d6b90a5658349af7fabc9c02e30546",
    ),
    "T1_3-exhaustive-2": (
        ["check", "T1_3", "--ring", "zpr:p=3,r=1", "--f", F3, "--mode", "exhaustive:2"],
        None, None, 0,
        "98d126b3ab0ba9a87d841b641eb1bcbd0532fe98ee7fe3e3a20c4534fd0b351b",
        "1bf1a0d16833c34399a685cfec6b362ecc3806bd3114e009640c2f959db6b241",
    ),
    "T1_3-random-fqxr-gate-fails": (
        ["check", "T1_3", "--ring", "fqxr:p=3,s=2,r=2", "--f", F9_QUAD,
         "--mode", "random:6,5,17:12", "--seed", "21"],
        None, None, 0,
        "500f4d52cec7a794ba5fde0ab86bdca19613c91cbc16de60cecb48948432a61e",
        "4cbc4f9a029718183a6bef29367b0000dd3b1ad0a6bc1bd055255500ec0af39a",
    ),
    "T1_3-random-fqxr-gate-holds": (
        ["check", "T1_3", "--ring", "fqxr:p=3,s=2,r=2", "--f", F9_QUAD,
         "--mode", "random:2,3,18:12", "--seed", "21"],
        None, None, 0,
        "523da9963ef7d112ec73317f69930135c22b7124bd702e627217c35d150d201c",
        "f31c1c1e8e225786487002287d7de913f70915e165770cfcefe7f46e875f16ea",
    ),
    # 13 blocks of 7281 rows; ties at the minimum ratio pin argmin_sets
    "T1_3-exhaustive-2-z9": (
        ["check", "T1_3", "--ring", "zpr:p=3,r=2", "--f", F3, "--mode", "exhaustive:2",
         "--out", "z9.jsonl"],
        None, "z9.jsonl", 0,
        "fbf50d98a4d83c09144a28f4782146537918b50bace78d3b1ef8fb19099a941c",
        "4ed7be4c871654244a18be4721d4a9c512617aaa53a20d5078b3bef482fa78b1",
    ),
    # blocks of 9 rows on Z_6561, every A past LITERAL_CAP and so a digest
    "T1_3-random-digests": (
        ["check", "T1_3", "--ring", "zpr:p=3,r=8", "--f", F3,
         "--mode", "random:4100,3,2:12", "--seed", "5", "--out", "d.jsonl"],
        None, "d.jsonl", 0,
        "76c42b15c7ab1be6bfa4667b713130a4128737610be1f1388ad12882319f8b27",
        "17f7192beb4e8c913206a6170566cedfd8c11449bba1729b1f8ca960d23d9ba6",
    ),
    "T1_3-random-csv": (
        ["check", "T1_3", "--ring", "fqxr:p=3,s=2,r=2", "--f", F9_QUAD,
         "--mode", "random:2,3,18:40", "--seed", "8", "--out", "t.csv", "--format", "csv"],
        None, "t.csv", 0,
        "a821a7c963a9bde2ad7481ab98489078a7dce349fa75bd0cb1d94370450756c8",
        "1c3d7265ea1d57242707929b810a5645e87516c01b6608d0ae92f409b36a6b70",
    ),
    "T1_5-exhaustive": (
        ["check", "T1_5", "--ring", "zpr:p=3,r=2", "--mode", "exhaustive:1"],
        None, None, 0,
        "27fbc670c4f6dbfb207e13bfe175896825dd4484089502fdbf803d8acdf02372",
        "b3d4512be166b091f2d3170f6051609c4b8ec6dec66aa662fd54ee8b5eae26f4",
    ),
    # one slot past size 1: ranks cross from size 2 into size 3
    "T1_5-exhaustive-3-z27": (
        ["check", "T1_5", "--ring", "zpr:p=3,r=3", "--mode", "exhaustive:3",
         "--out", "z27.jsonl"],
        None, "z27.jsonl", 0,
        "f1a1a0b89fc24d78d3dce83898e21424a3df2ea1080a8af97720a1dbda543fb1",
        "75ac08fa0e5ff57df6222ccedb7cd83859f6ba02ced2b40c9788109dfa251f5b",
    ),
    "T1_6-random-csv": (
        ["check", "T1_6", "--ring", "zpr:p=3,r=2", "--mode", "random:5:20", "--seed", "7",
         "--out", "r.csv", "--format", "csv"],
        None, "r.csv", 0,
        "012d9b92a33737c475cb7a9b9b95cd10324743cbaa22b337716604bf483a1ed2",
        "f39f366525674e33fe998696d28732b9da0ec7f9a4be7c7c90055c905c7d7b85",
    ),
    "T1_7-random": (
        ["check", "T1_7", "--ring", "zpr:p=3,r=2", "--poly1", "1,0,2",
         "--mode", "random:6:10", "--seed", "3"],
        None, None, 0,
        "a23240ee0d78429c14ad5dad5fd41de16144e44272901649468c5ab521643f80",
        "4e99122bb0a761421d47bad38110eacdc7584c570adbaabebfcfb3a9423a329b",
    ),
    "T1_8-random": (
        ["check", "T1_8", "--ring", "fqxr:p=3,s=1,r=2", "--mode", "random:7:10", "--seed", "5"],
        None, None, 0,
        "04e17ef74e8b00cf79fb8985cfe5094c760864e29019b164307dc4bb49f1bd6e",
        "8a800a9653062d3735ae8091addcc8fed6d027089391fc780273637daeb64125",
    ),
    "T1_9-sweep": (
        ["sweep", "scan.cfg"],
        T1_9_CFG, None, 0,
        "d1abf3daa14ed25242ae2044b3143e541dceb9c7be0c3fc4884c2630df094959",
        "4febfbbd590cf8797838ba495deec23b266628171c2b9b5dc146b66b63040a5a",
    ),
    "T1_9-single-digest": (
        ["check", "T1_9", "--ring", "zpr:p=3,r=8", "--A", "all", "--d", "2"],
        None, None, 0,
        "7c056d7414fe96d3ade03cdc509a1261566578a95605de03ee303f2f5a14cb87",
        "08158780b52fc867aa7c2eda7754be07651be80fba1e2bda93271618a512c03d",
    ),
    "T2_2-single-all": (
        ["check", "T2_2", "--ring", "zpr:p=3,r=1", "--points", "all", "--planes", "all"],
        None, None, 0,
        "386d4b560a0a43e99eac49651c14b0471e0eec87237e0ca2671315783188b27c",
        "1fc655d01867bd619f9ba6e8835973dab6d81e8938e4dd0c39fc8d7baee48e72",
    ),
    "T2_2-random": (
        ["check", "T2_2", "--ring", "zpr:p=3,r=2", "--mode", "random:12,9:4", "--seed", "2"],
        None, None, 0,
        "165fa1aa4e19b944d775bbbb7b7788964e8735ccc2b11ce80f66d8e9e3d123b9",
        "064bdd7257690a9a346061356450c008b6217154e10ee766b5d298479492f981",
    ),
    "T2_2-random-digest": (
        ["check", "T2_2", "--ring", "zpr:p=3,r=2", "--mode", "random:70,65:2", "--seed", "4"],
        None, None, 0,
        "7341445f346e4da24c4e506ec760b0b1a9dfaf1624dbd95e8017281aea4088c4",
        "22595b1ab516c0bdb45013b5ccb5010270940419a01dddae5d40904d4bb90c2b",
    ),
    "T2_4-single": (
        ["check", "T2_4", "--ring", "zpr:p=3,r=2", "--points", "6", "--planes", "6",
         "--seed", "9", "--max-weight", "3"],
        None, None, 0,
        "fe841dba38794cdd37905125f0ee8ecfd28617c014d77cfafcf1b285b7f89e3f",
        "60af1ee5f45dc36165ac06d0253290f21bf1295e97c8beb651ce5f25aedf747c",
    ),
    "T2_4-sweep-out": (
        ["sweep", "w.cfg", "--out", "w.jsonl"],
        T2_4_CFG, "w.jsonl", 0,
        "b1a4876872eee66e055d1f5666da8514a5860a7185787192631f5ad6d2fd7eb9",
        "e10ef9ac3fed4d09b10b286aca6767d84cfdd117db9254b503f72e2532d59410",
    ),
    "T7_1-geometry-random": (
        ["geometry", "--ring", "zpr:p=3,r=2", "--mode", "random:4:5", "--seed", "104"],
        None, None, 0,
        "697a5be9a4ed7a2851884faee8fc86a5e40b955e48c98e923cbf6bc85146ab9a",
        "34b8c454875d4115d1ee331a826a88d058d70d0b7a09438ae5b5c6b13eb0f211",
    ),
    "T7_1-geometry-exhaustive": (
        ["geometry", "--ring", "zpr:p=3,r=2", "--mode", "exhaustive:2"],
        None, None, 0,
        "56e35a41207b4f15e7440cd09a8891ebd84b6d66d79c0b84de4e230f790a5250",
        "60c0be0f8843e945a0f6e57388d76274c990dacb2552d76850b5965e10c4402b",
    ),
    "T7_1-geometry-single": (
        ["geometry", "--ring", "zpr:p=3,r=1", "--A", "0,1"],
        None, None, 0,
        "727b9008fd790732534889c366bbd333885b5127c8c10b9ecdfcab6aa0c3097a",
        "ce1f00caeb698dfe7c39122f27af9ffcfbc66960e558354985ddfddbcced4747",
    ),
    "PLUN13-random": (
        ["check", "PLUN13", "--ring", "zpr:p=5,r=1", "--mode", "random:3:8", "--seed", "1"],
        None, None, 0,
        "7789233d3d5f7b0b1921b368305629052b14956d5f1000c43ba1efca339556b9",
        "172508b015decac254044b632de3d90bc3dffee668e074f479629cc4236c0831",
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(case_id, tmp_path, monkeypatch, capsys):
    """(exit code, reports digest, summary digest) of one frozen case."""
    argv, cfg_text, out_name, _, _, _ = CASES[case_id]
    monkeypatch.delenv("FVRLAB_WORKERS", raising=False)
    monkeypatch.chdir(tmp_path)
    if cfg_text is not None:
        (tmp_path / argv[1]).write_text(cfg_text)
    code = main(list(argv))
    lines = capsys.readouterr().out.splitlines(keepends=True)
    summary = json.loads(lines[-1])["summary"]
    assert summary["theorem"] == case_id.split("-")[0]
    body = "".join(lines[:-1]).encode()
    if out_name is not None:
        assert body == b""
        body = (tmp_path / out_name).read_bytes()
    return code, _sha(body), _sha(lines[-1].encode())


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_frozen_cli_bytes(case_id, tmp_path, monkeypatch, capsys):
    _, _, _, code, reports_sha, summary_sha = CASES[case_id]
    assert run_case(case_id, tmp_path, monkeypatch, capsys) == (code, reports_sha, summary_sha)


def _check_choices():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    check = sub.choices["check"]
    return next(a for a in check._actions if a.dest == "theorem").choices


def test_every_theorem_has_a_frozen_run():
    # the CLI offers the registry's theorems, the wire format names the same
    assert sorted(_check_choices()) == sorted(THEOREMS)
    assert report.THEOREMS == tuple(THEOREMS)
    assert set(THEOREMS) == {case_id.split("-")[0] for case_id in CASES}
