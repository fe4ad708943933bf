"""`parse_libsvm` against the per-token parser it replaced.

`reference_parse_libsvm` below is that parser's loop, kept verbatim as the
reference and used by this module only.  On well-formed text the two must
give byte-identical arrays, dtypes and dim (so content hashes, reference
cache keys and golden traces stay the same); on malformed text they must
raise the same `DataError` text.  Non-finite numbers are the one intended
difference: the reference accepted them, `parse_libsvm` rejects them (see
test_data.py).
"""
import random

import numpy as np
import pytest

from adaptreduce import DataError, Dataset, parse_libsvm
from adaptreduce import data as data_mod


def reference_parse_libsvm(text: str, dim: int | None = None) -> Dataset:
    labels: list[float] = []
    indptr: list[int] = [0]
    indices: list[int] = []
    values: list[float] = []
    max_idx = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            labels.append(float(parts[0]))
        except ValueError:
            raise DataError(f"line {lineno}: bad label {parts[0]!r}")
        prev = -1
        for tok in parts[1:]:
            try:
                k, v = tok.split(":", 1)
                j = int(k) - 1
                val = float(v)
            except ValueError:
                raise DataError(f"line {lineno}: bad feature token {tok!r}")
            if j < 0:
                raise DataError(f"line {lineno}: feature index must be >= 1")
            if j <= prev:
                raise DataError(
                    f"line {lineno}: indices must be strictly increasing "
                    f"(got {j + 1} after {prev + 1})")
            prev = j
            indices.append(j)
            values.append(val)
            max_idx = max(max_idx, j)
        indptr.append(len(indices))
    inferred = max_idx + 1
    if dim is None:
        dim = inferred
    elif dim < inferred:
        raise DataError(f"dim={dim} is smaller than largest index {inferred}")
    return Dataset(
        indptr=np.array(indptr, dtype=np.int64),
        indices=np.array(indices, dtype=np.int64),
        values=np.array(values, dtype=np.float64),
        labels=np.array(labels, dtype=np.float64),
        dim=int(dim),
    )


# ---------------------------------------------------------------------------
# fuzzed well-formed text
# ---------------------------------------------------------------------------

LINE_ENDS = ("\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e",
             "\x85", " ")
TOKEN_SEPS = (" ", " ", " ", "  ", "\t", " \t ")
ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def _with_underscore(digits: str, rng: random.Random) -> str:
    if len(digits) < 2:
        return digits
    cut = rng.randrange(1, len(digits))
    return digits[:cut] + "_" + digits[cut:]


def _index(j: int, rng: random.Random) -> str:
    s = str(j)
    form = rng.random()
    if form < 0.7:
        return s
    if form < 0.77:
        return "+" + s
    if form < 0.84:
        return "00" + s
    if form < 0.92:
        return _with_underscore(s, rng)
    return s.translate(ARABIC_INDIC)


def _number(rng: random.Random) -> str:
    form = rng.random()
    x = rng.gauss(0.0, 2.0)
    if form < 0.6:
        return repr(x)
    return rng.choice((
        str(rng.randrange(-5, 6)), "+" + repr(abs(x)), "-0.0", "0",
        "1e-3", "-2.5E+2", ".5", "5.", "1_0.5", "١", "٣.٥", "+1",
        f"{x:.3g}", repr(x * 1e-300), repr(x * 1e300)))


def _row(rng: random.Random, d: int) -> str:
    kind = rng.random()
    if kind < 0.3:
        cols = list(range(1, d + 1))
    elif kind < 0.85:
        cols = sorted(rng.sample(range(1, d + 1), rng.randrange(1, d + 1)))
    else:
        cols = []
    label = rng.choice(("1", "-1", "+1", "0.5", "١", "1_0", repr(rng.gauss(0, 1))))
    toks = [label] + [f"{_index(j, rng)}:{_number(rng)}" for j in cols]
    line = toks[0]
    for tok in toks[1:]:
        line += rng.choice(TOKEN_SEPS) + tok
    if rng.random() < 0.15:
        line = rng.choice((" ", "\t", "  ")) + line
    if rng.random() < 0.15:
        line += rng.choice((" ", "\t"))
    if rng.random() < 0.15:
        line += rng.choice((" # trailing 3:4", "#x", "  # a:b c:d"))
    return line


def _filler(rng: random.Random) -> str:
    return rng.choice(("", "   ", "\t", "# comment", "# 1 1:2 2:3",
                       "  # indented: comment", "#"))


def fuzzed_text(seed: int, rows: int, d: int) -> str:
    rng = random.Random(seed)
    lines = []
    for _ in range(rows):
        if rng.random() < 0.12:
            lines.append(_filler(rng))
        lines.append(_row(rng, d))
    ends = [rng.choice(LINE_ENDS) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if rng.random() < 0.8 else text.rstrip("\n\r\v\f\x1c")


def arrays(ds: Dataset) -> list:
    return [(a.dtype.str, a.shape, a.tobytes()) for a in
            (ds.indptr, ds.indices, ds.values, ds.labels)] + [ds.dim]


def outcome(parse, text: str, dim=None):
    try:
        ds = parse(text, dim)
    except DataError as err:
        return "error", str(err)
    return "ok", arrays(ds), ds.content_bytes()


FUZZ = ([(seed, 1 + seed % 7, 1 + seed % 9) for seed in range(60)]
        + [(100 + seed, 30 + 10 * seed, 20 + 20 * seed) for seed in range(6)])


@pytest.mark.parametrize("seed,rows,d", FUZZ)
def test_fuzzed_text_parses_byte_identically(seed, rows, d):
    text = fuzzed_text(seed, rows, d)
    want = outcome(reference_parse_libsvm, text)
    assert want[0] == "ok"
    assert outcome(parse_libsvm, text) == want
    dim = want[1][-1] + seed % 4
    assert outcome(parse_libsvm, text, dim) == outcome(
        reference_parse_libsvm, text, dim)


def test_fuzz_covers_several_batches():
    tokens = [fuzzed_text(*case).count(":") for case in FUZZ]
    assert max(tokens) > 4 * data_mod._PARSE_BATCH


@pytest.mark.parametrize("text", [
    "", "\n\n", "# only a comment\n", "1\n", "-1\n\n+1\n", "1 1:1",
    "1 1:1\r\n-1 2:2\r\n", "1\t1:1\t3:2\n", "١ ١:١\n", "1 1_0:2\n",
    "1 1:1\v2 2:2\f3 3:3\x1c4 4:4\n", "+1 1:2 # 3:4 5:6\n",
    "1 5:1 # x:y\n-1\n"])
def test_edge_texts_parse_identically(text):
    want = outcome(reference_parse_libsvm, text)
    assert want[0] == "ok"
    assert outcome(parse_libsvm, text) == want


# ---------------------------------------------------------------------------
# malformed text: same DataError text
# ---------------------------------------------------------------------------

MALFORMED = [
    ("1 1:2:3\n", None), ("1 5:\n", None), ("1 :5\n", None),
    ("1 5 1:2:3\n", None), ("1 1:2:3 5:\n", None), ("1 x:1\n", None),
    ("1 0:1\n", None), ("1 2:1 2:3\n", None), ("1 3:1 2:1\n", None),
    ("1 1:1\n-1 2:1\nabc 1:1\n", None), ("1 5:1\n", 3),
    ("1 1:1 2:x\n", None), ("1 notatoken\n", None), ("1:1 2:2\n", None),
    ("1 1::2\n", None), ("1 :\n", None), ("1 ::\n", None),
    ("1 -3:1\n", None), ("1 1.5:2\n", None), ("1 1:2 2:3 2:4\n", None),
    ("1 2:1 1:2 x:1\n", None), ("1 x:1 0:1\n", None),
    ("1 1:1\n2 2:2 1:1\n3 :\n", None), ("1 1:1\n\n# c\nfoo\n", None),
    ("1 1:1\r\n2 0:1\r\n", None), ("1 1:1\v2 5:1 5:2\n", None),
    ("1 2:1\n1 1:1 1:2\n", 1), ("1 3:1 # 1:2:3\n", 2),
    # one ":" per token on average, re-paired into a valid row if the
    # batch were split on ":" unchecked
    ("1 1 2:3:4\n", None), ("1 2:3:4 5\n", None), ("1 1:2:3\n-1 5\n", None),
]


@pytest.mark.parametrize("text,dim", MALFORMED)
def test_malformed_text_raises_the_reference_error(text, dim):
    want = outcome(reference_parse_libsvm, text, dim)
    assert want[0] == "error"
    assert outcome(parse_libsvm, text, dim) == want


BAD_TOKENS = ("1:2:3", "5:", ":5", "5", "x:1", "0:1", "1:abc", "1::2",
              ":", "-2:1", "1.0:1", "1:1:", "1:1e", "1:--1", "1:nan1")


def corrupted(text: str, rng: random.Random) -> str:
    """`text` with one line spoiled: a bad feature token, a repeated index
    or a bad label."""
    lines = text.splitlines()
    at = rng.choice([i for i, line in enumerate(lines)
                     if ":" in line.split("#", 1)[0]])
    toks = lines[at].split("#", 1)[0].split()
    k = rng.randrange(len(toks))
    if k == 0:
        toks[0] = "abc"
    elif k > 1 and rng.random() < 0.3:
        toks[k] = toks[k - 1]
    else:
        toks[k] = rng.choice(BAD_TOKENS)
    lines[at] = " ".join(toks)
    return "\n".join(lines)


@pytest.mark.parametrize("seed", range(24))
def test_errors_in_large_text_name_the_first_bad_line(seed):
    # one or two lines spoiled in a text several batches long: the first
    # spoiled line is the one named, whichever batch it falls in
    rng = random.Random(seed)
    text = fuzzed_text(500 + seed, 60, 90)
    for _ in range(1 + seed % 2):
        text = corrupted(text, rng)
    want = outcome(reference_parse_libsvm, text)
    assert want[0] == "error"
    assert outcome(parse_libsvm, text) == want
