"""Literals, ring specs, config files and family files: only ASCII decimal
integer tokens.

Each input either reads as an ASCII-only oracle reads it or is refused with
exit code 2 and a message; ``int()`` alone would also take '1_0', '+1' and
digits of other scripts.
"""

import contextlib
import io
import json
import re
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fvrlab.cli import main
from fvrlab.experiments import CONFIG_KEYS
from fvrlab.ring import parse_ring_spec
from fvrlab.setalg import QuadPolySpec, parse_quadpoly, parse_set_literal

RING = "zpr:p=3,r=2"
# Arabic-Indic, Extended Arabic-Indic, Devanagari, fullwidth and mathematical
# digits, which int() reads as decimals, and a superscript it does not
OTHER_DIGITS = "١۳५０\U0001d7d7²"
ALPHABET = "0123456789,;=-_+ " + OTHER_DIGITS
TOKEN = st.one_of(st.integers(-2, 11).map(str), st.text(ALPHABET, max_size=3))
# mostly a canonical index of Z_9, one time in eight a drawn token, so that
# literals of several tokens are often read and often refused
NEAR = st.tuples(st.integers(0, 8).map(str), TOKEN, st.integers(0, 7)).map(
    lambda t: t[1] if t[2] == 0 else t[0]
)
TRIPLE = st.one_of(
    st.lists(NEAR, min_size=3, max_size=3).map(",".join),
    st.lists(TOKEN, min_size=1, max_size=4).map(",".join),
    st.text(ALPHABET, max_size=8),
)


def run(*argv):
    """(exit code, stdout, stderr) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def ascii_index(token: str):
    """The oracle's token: spaces, an optional '-', ASCII digits; else None."""
    m = re.fullmatch(r" *(-?[0-9]+) *", token)
    return None if m is None else int(m.group(1))


def set_oracle(text: str):
    """The literal a set literal reads as on Z_9, or None for a refusal."""
    indices = [ascii_index(tok) for tok in text.split(",")]
    if None in indices or not all(0 <= i < 9 for i in indices):
        return None
    return ",".join(map(str, sorted(set(indices))))


def poly_oracle(text: str):
    """The canonical literal of a polynomial literal on Z_9, or None."""
    fields = {}
    for part in text.split(";"):
        key, eq, value = part.partition("=")
        if not eq or key.strip() in fields:
            return None
        fields[key.strip()] = value
    if set(fields) != set("aRST"):
        return None
    a = ascii_index(fields["a"])
    triples = [tuple(map(ascii_index, fields[key].split(","))) for key in "RST"]
    if a is None or any(len(t) != 3 or None in t for t in triples):
        return None
    try:
        return QuadPolySpec(parse_ring_spec(RING), a, *triples).literal
    except ValueError:  # out of range, a = 0, T constant or without a unit lead
        return None


def poly1_oracle(text: str):
    coeffs = tuple(map(ascii_index, text.split(",")))
    if len(coeffs) != 3 or None in coeffs or not all(0 <= c < 9 for c in coeffs):
        return None
    return None if coeffs[0] == 0 else ",".join(map(str, coeffs))


def assert_reads_as(expected, key, code, out, err):
    """A refusal is exit 2 with a message; else the report carries expected."""
    if expected is None:
        assert code == 2 and out == "" and err.startswith("error: ") and len(err) > 8
    else:
        assert code in (0, 1) and err == ""
        assert json.loads(out.splitlines()[0])["sets"][key] == expected


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.lists(NEAR, min_size=1, max_size=5).map(",".join),
    st.lists(TOKEN, min_size=1, max_size=5).map(",".join),
    st.text(ALPHABET),
))
@example("--")  # argparse reads --A=-- as an empty list
def test_set_literals_read_as_the_ascii_oracle(text):
    result = run("check", "T1_5", "--ring", RING, f"--A={text}")
    assert_reads_as(set_oracle(text), "A", *result)


@st.composite
def polynomials(draw):
    """The four fields of canonical indices, half the time with one token
    drawn instead, sometimes with a field repeated or unknown."""
    tokens = draw(st.lists(st.integers(0, 8).map(str), min_size=10, max_size=10))
    if draw(st.booleans()):
        tokens[draw(st.integers(0, 9))] = draw(TOKEN)
    r, s, t = (",".join(tokens[k : k + 3]) for k in (1, 4, 7))
    extra = draw(st.sampled_from(["", "", "", ";a=1", ";T=0,1,0", ";x=1"]))
    return f"a={tokens[0]};R={r};S={s};T={t}{extra}"


KEYS = st.sampled_from(["a", "R", "S", "T", " a ", "T ", "b", ""])
FIELDS = st.lists(st.tuples(KEYS, TRIPLE), max_size=6).map(
    lambda fields: ";".join(f"{key}={value}" for key, value in fields)
)


@settings(max_examples=200, deadline=None)
@given(st.one_of(polynomials(), polynomials(), FIELDS, st.text(ALPHABET + "aRST", max_size=20)))
def test_polynomial_literals_read_as_the_ascii_oracle(text):
    result = run("check", "T1_3", "--ring", RING, f"--f={text}",
                 "--A", "0,1,3", "--B", "all", "--C", "1,2,4")
    assert_reads_as(poly_oracle(text), "f", *result)


@settings(max_examples=200, deadline=None)
@given(TRIPLE)
def test_poly1_literals_read_as_the_ascii_oracle(text):
    result = run("check", "T1_7", "--ring", RING, f"--poly1={text}", "--A", "0,1,3")
    assert_reads_as(poly1_oracle(text), "f", *result)


@pytest.mark.parametrize("token", ["1_0", "١", "+1", "²", "1.0", "0x1", "- 1"])
def test_non_canonical_index_tokens_are_refused(token):
    ring = parse_ring_spec(RING)
    with pytest.raises(ValueError, match="malformed set literal"):
        parse_set_literal(ring, f"0,{token}")
    with pytest.raises(ValueError, match="malformed index"):
        parse_quadpoly(ring, f"a={token};R=0,0,0;S=0,0,0;T=0,1,0")
    with pytest.raises(ValueError, match="malformed index"):
        parse_quadpoly(ring, f"a=1;R=0,0,0;S=0,0,0;T=0,1,{token}")
    code, out, err = run("check", "T1_7", "--ring", RING, f"--poly1=1,{token},0", "--A", "0,1")
    assert code == 2 and out == "" and "malformed index" in err


def test_index_tokens_keep_spaces_and_the_range_error():
    ring = parse_ring_spec(RING)
    assert parse_set_literal(ring, " 1 , 2,3 ").indices() == [1, 2, 3]
    assert parse_quadpoly(ring, " a = 1 ; R=0, 0,0;S=0,0,0;T=0,1 ,0").literal == (
        "a=1;R=0,0,0;S=0,0,0;T=0,1,0"
    )
    with pytest.raises(ValueError, match="index -1 out of range"):
        parse_set_literal(ring, "0,-1")
    with pytest.raises(ValueError, match="index -1 out of range"):
        parse_quadpoly(ring, "a=-1;R=0,0,0;S=0,0,0;T=0,1,0")
    # '-0' and leading zeros read as the plain index
    assert parse_set_literal(ring, "-0,007,-00").indices() == [0, 7]
    assert parse_quadpoly(ring, "a=01;R=0,0,-0;S=0,0,0;T=0,1,0").literal == (
        "a=1;R=0,0,0;S=0,0,0;T=0,1,0"
    )


def test_repeated_polynomial_fields_are_refused():
    ring = parse_ring_spec(RING)
    with pytest.raises(ValueError, match="polynomial field 'a' given twice"):
        parse_quadpoly(ring, "a=1;R=0,0,0;S=0,0,0;T=0,1,0;a=2")
    code, out, err = run("check", "T1_3", "--ring", RING,
                         "--f=a=1;R=0,0,0;S=0,0,0;T=0,1,0;T=0,2,0",
                         "--A", "0,1,3", "--B", "all", "--C", "1,2,4")
    assert code == 2 and out == "" and "polynomial field 'T' given twice" in err


F = "a=1;R=0,0,0;S=0,0,0;T=0,1,0"
# each command with {} where one integer token goes; with "2" each one runs
INTEGER_SLOTS = [
    ("check", "T1_3", "--ring", RING, "--f", F, "--mode", "random:3,3,3:{}"),
    ("check", "T1_3", "--ring", RING, "--f", F, "--mode", "random:3,{},3:2"),
    ("check", "T1_5", "--ring", RING, "--mode", "exhaustive:{}"),
    ("check", "T1_5", "--ring", RING, "--mode", "random:3:2", "--seed", "{}"),
    ("check", "T1_9", "--ring", RING, "--mode", "random:3:2", "--d", "{}"),
    ("check", "T2_4", "--ring", "zpr:p=3,r=1", "--mode", "random:3,3:2", "--max-weight", "{}"),
    ("check", "T2_2", "--ring", "zpr:p=3,r=1", "--points", "{}", "--planes", "3"),
    ("check", "T2_2", "--ring", "zpr:p=3,r=1", "--points", "3", "--planes", "{}"),
]


@pytest.mark.parametrize("token", ["1_0", "١", "+2", "²", "2.0", "0x2", "- 2"])
def test_non_canonical_integer_tokens_are_refused(token, tmp_path, monkeypatch):
    for argv in INTEGER_SLOTS:
        code, out, err = run(*(arg.format(token) for arg in argv))
        assert code == 2 and out == "" and ("malformed" in err or "bad mode" in err), argv
        code, out, err = run(*(arg.format("2") for arg in argv))
        assert code in (0, 1) and err == "", argv
    # family files: a triple's index and a weight
    good = tmp_path / "good.txt"
    good.write_text("0,1,2@2\n")
    for i, line in enumerate([f"0,{token},2@2", f"0,1,2@{token}"]):
        bad = tmp_path / f"bad{i}.txt"
        bad.write_text(line + "\n")
        code, out, err = run("incidence", "--ring", "zpr:p=3,r=1", "--weighted",
                             "--points-file", str(bad), "--planes-file", str(good))
        assert code == 2 and out == "" and "line 1: malformed integer" in err
    code, out, err = run("incidence", "--ring", "zpr:p=3,r=1", "--weighted",
                         "--points-file", str(good), "--planes-file", str(good))
    assert code == 0 and err == ""
    monkeypatch.setenv("FVRLAB_WORKERS", token)
    code, out, err = run("check", "T1_5", "--ring", RING, "--mode", "random:3:2")
    assert code == 2 and out == "" and "malformed FVRLAB_WORKERS" in err


# -- ring specs, config files and family files ---------------------------------


def spec_oracle(text: str):
    """The canonical spec a ring spec reads as, or None for a refusal: each
    field a key, '=' and an ASCII decimal with no space inside, the keys of
    its kind once each, p an odd prime, s, r >= 1 and order <= 10**6."""
    kind, sep, rest = text.strip().partition(":")
    fields = {}
    for part in rest.split(","):
        key, eq, val = part.partition("=")
        if not eq or not re.fullmatch("-?[0-9]+", val) or key in fields:
            return None
        fields[key] = int(val)
    keys = {"zpr": {"p", "r"}, "fqxr": {"p", "s", "r"}}.get(kind)
    if not sep or keys is None or set(fields) != keys:
        return None
    p, s, r = fields["p"], fields.get("s", 1), fields["r"]
    if s < 1 or r < 1 or p < 3 or p % 2 == 0 or any(p % f == 0 for f in range(3, isqrt(p) + 1)):
        return None
    order = 1
    for _ in range(s * r):
        order *= p
        if order > 10**6:
            return None
    return f"zpr:p={p},r={r}" if kind == "zpr" else f"fqxr:p={p},s={s},r={r}"


@st.composite
def ring_specs(draw):
    """A spec of small fields, one time in three with one value drawn
    instead, sometimes with a field repeated, missing or unknown."""
    kind = draw(st.sampled_from(["zpr", "fqxr", "zpr", "fqxr", "fq"]))
    values = {"p": draw(st.sampled_from(["3", "5", "7", "9", "2", "03"])),
              "s": draw(st.sampled_from(["1", "2", "3"])),
              "r": draw(st.sampled_from(["1", "2", "4"]))}
    keys = ["p", "s", "r"] if kind == "fqxr" else ["p", "r"]
    keys += draw(st.sampled_from([[]] * 5 + [["r"], ["s"], ["q"]]))
    if draw(st.integers(0, 4)) == 0:
        keys.pop(draw(st.integers(0, len(keys) - 1)))
    fields = [f"{key}={values.get(key, '1')}" for key in keys]
    if fields and draw(st.integers(0, 2)) == 0:
        key = keys[draw(st.integers(0, len(keys) - 1))]
        fields[keys.index(key)] = f"{key}={draw(TOKEN)}"
    return f"{kind}:{','.join(fields)}"


@settings(max_examples=200, deadline=None)
@given(st.one_of(ring_specs(), ring_specs(), st.text(ALPHABET + ":=prsfqxz", max_size=16)))
def test_ring_specs_read_as_the_ascii_oracle(text):
    code, out, err = run("check", "T1_5", f"--ring={text}", "--A", "0,1")
    expected = spec_oracle(text)
    if expected is None:
        assert code == 2 and out == "" and err.startswith("error: ") and len(err) > 8
    else:
        assert code in (0, 1) and err == ""
        lines = [json.loads(line) for line in out.splitlines()]
        assert lines[0]["ring"] == lines[-1]["summary"]["ring"] == expected


@pytest.mark.parametrize("argv, field", [
    (("check", "T1_5", "--ring", "zpr:p=3,r=٢", "--A", "1,2"), "r=٢"),
    (("ring", "info", "zpr:p=--3,r=2"), "p=--3"),
    (("ring", "info", "zpr:p=3,r= 2"), "r= 2"),
])
def test_ring_spec_fields_are_ascii_decimal(argv, field):
    assert run(*argv) == (2, "", f"error: malformed ring spec field {field!r}\n")


def mode_oracle(text: str):
    """The canonical literal of a mode's integer tokens, or None."""
    parts = text.split(":")
    if parts[0] == "exhaustive" and len(parts) == 2:
        k = ascii_index(parts[1])
        return None if k is None else f"exhaustive:{k}"
    if parts[0] == "random" and len(parts) == 3:
        sizes = [ascii_index(tok) for tok in parts[1].split(",")]
        trials = ascii_index(parts[2])
        if None in sizes or trials is None:
            return None
        return f"random:{','.join(map(str, sizes))}:{trials}"
    return None


def config_oracle(text: str):
    """The config file a config file reads as, each integer token written
    canonically, or None for a refusal: a line without '=' or a value, an
    unknown or repeated key, or a token that is not ASCII decimal."""
    fields = {}
    for line in text.split("\n"):
        body = line.strip()
        if not body or body.startswith("#"):
            continue
        key, eq, value = (part.strip() for part in body.partition("="))
        if not eq or not value or key not in CONFIG_KEYS or key in fields:
            return None
        if key == "ring":
            value = spec_oracle(value)
        elif key == "mode":
            value = mode_oracle(value)
        elif key in ("seed", "d", "max_weight", "points", "planes") and value != "all":
            value = ascii_index(value)
        if value is None:
            return None
        fields[key] = value
    return "".join(f"{key} = {value}\n" for key, value in fields.items())


# config lines that run, by theorem
CONFIGS = {
    "T1_5": {"ring": "zpr:p=3,r=2", "mode": "random:3:2", "seed": "5"},
    "T1_9": {"ring": "zpr:p=3,r=2", "mode": "exhaustive:2", "d": "2"},
    "T2_2": {"ring": "zpr:p=3,r=1", "points": "3", "planes": "all", "seed": "7"},
    "T2_4": {"ring": "fqxr:p=3,s=1,r=1", "mode": "random:3,2:2", "max_weight": "3"},
}
SPELLINGS = st.sampled_from(["{}", "{}", " {} ", "\t{}"])
# tokens int() reads and the oracle refuses, half the time; else ones both read
NEAR_MISS = st.sampled_from(["1_0", "١", "+2", "٢", "2.0", "²", "- 2", " 2", "02", "-0"])
FILE_TOKEN = st.one_of(TOKEN, NEAR_MISS)
LINES = st.sampled_from(["", "# comment", "   ", "seed", "seed =", "bogus = 1", "d = 2"])


@st.composite
def config_files(draw):
    """A config that runs, spelled with spaces, comments and blank lines,
    each value one time in three with one integer token drawn instead,
    sometimes with a line repeated, malformed or unknown."""
    theorem = draw(st.sampled_from(sorted(CONFIGS)))
    fields = {"theorem": theorem, **CONFIGS[theorem]}
    for key, value in CONFIGS[theorem].items():
        tokens = re.split("([^0-9]+)", value)
        spots = [i for i, tok in enumerate(tokens) if tok.isdigit()]
        if spots and draw(st.integers(0, 2)) == 0:
            tokens[draw(st.sampled_from(spots))] = draw(FILE_TOKEN)
            fields[key] = "".join(tokens)
    lines = [draw(SPELLINGS).format(f"{key} = {value}") for key, value in fields.items()]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        lines.insert(draw(st.integers(0, len(lines))), draw(LINES))
    return "\n".join(lines) + "\n"


def config_text(theorem, **changes):
    fields = {"theorem": theorem, **CONFIGS[theorem], **changes}
    return "".join(f"{key} = {value}\n" for key, value in fields.items())


@settings(max_examples=200, deadline=None)
@given(config_files())
@example(config_text("T1_5", seed="+2"))
@example(config_text("T1_5", mode="random:٣:2"))
@example(config_text("T1_5", ring="zpr:p=3,r=٢"))
@example(config_text("T1_9", d="1_0"))
@example(config_text("T2_2", points="²"))
@example(config_text("T2_4", max_weight="٣"))
def test_config_files_read_as_the_ascii_oracle(tmp_path_factory, text):
    """A config either runs exactly as its canonical spelling does, byte for
    byte, or is refused; a refused canonical spelling (a range error, an
    unread key) is refused in either spelling."""
    path = tmp_path_factory.mktemp("config") / "sweep.cfg"
    path.write_text(text, encoding="utf-8")
    code, out, err = run("sweep", str(path))
    expected = config_oracle(text)
    if expected is not None:
        path.write_text(expected, encoding="utf-8")
        canonical = run("sweep", str(path))
        if canonical[0] != 2:
            assert (code, out, err) == canonical
            return
    assert code == 2 and out == "" and err.startswith("error: ") and len(err) > 8


def family_oracle(text: str, order: int):
    """The family literal a family file reads as on a ring of this order,
    or None for a refusal."""
    items = []
    for line in text.split("\n"):
        body = line.strip()
        if not body or body.startswith("#"):
            continue
        triple, at, weight = body.partition("@")
        indices = [ascii_index(tok) for tok in triple.strip().split(",")]
        w = ascii_index(weight) if at else 1
        if len(indices) != 3 or None in indices or w is None or w < 1:
            return None
        if not all(0 <= i < order for i in indices):
            return None
        items.append(",".join(map(str, indices)) + (f"@{w}" if w != 1 else ""))
    return ";".join(items) or None


FAMILY_LINE = st.one_of(
    st.tuples(st.lists(NEAR, min_size=3, max_size=3).map(",".join),
              st.sampled_from(["", "", "@2", "@1", "@0"]), SPELLINGS).map(
        lambda t: t[2].format(t[0] + t[1])),
    st.tuples(st.lists(NEAR, min_size=3, max_size=3).map(",".join), FILE_TOKEN).map("@".join),
    st.lists(st.one_of(NEAR, FILE_TOKEN), min_size=3, max_size=3).map(",".join),
    TRIPLE,
    LINES,
)


@settings(max_examples=150, deadline=None)
@given(st.lists(FAMILY_LINE, min_size=1, max_size=5).map("\n".join))
def test_family_files_read_as_the_ascii_oracle(tmp_path_factory, text):
    folder = tmp_path_factory.mktemp("family")
    (folder / "points.txt").write_text(text, encoding="utf-8")
    (folder / "planes.txt").write_text("0,1,2\n", encoding="utf-8")
    result = run("incidence", "--ring", RING, "--weighted",
                 "--points-file", str(folder / "points.txt"),
                 "--planes-file", str(folder / "planes.txt"))
    assert_reads_as(family_oracle(text, 9), "points", *result)
