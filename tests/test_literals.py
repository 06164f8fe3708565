"""Set, polynomial and poly1 literals: only ASCII decimal index tokens.

Each literal either reads as an ASCII-only oracle reads it or is refused
with exit code 2 and a message; ``int()`` alone would also take '1_0',
'+1' and digits of other scripts.
"""

import contextlib
import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvrlab.cli import main
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
