"""The CLI's box readers against malformed input.

Hypothesis mutates valid MOT rows and gt/det JSON (NaN, +-inf, huge, negative,
non-integer and retyped fields, dropped and extra fields) and runs `eval-mot` or
`eval-det` in-process on them. Every case exits 0, 1 or 2; a nonzero exit
prints exactly one `error:` line, naming the line or entry when a box is
refused, and nothing raises or warns.
"""

import contextlib
import io
import json
import math
import re
import time
import warnings

from hypothesis import given, settings, strategies as st

from motkit.cli import main

MOT_GT = [[1, 1, 10, 20, 30, 40, 1, -1, -1, -1], [1, 2, 100, 80, 20, 50, 1, -1, -1, -1],
          [2, 1, 12, 21, 30, 40, 1, -1, -1, -1], [2, 2, 98, 80, 20, 50, 1, -1, -1, -1]]
MOT_RESULT = [[1, 5, 11, 20, 30, 40, 0.9, -1, -1, -1], [2, 5, 13, 21, 30, 41, 0.8, -1, -1, -1],
              [2, 6, 98, 81, 20, 50, 0.7, -1, -1, -1]]
GT = {"a": [[0, 0, 10, 10, 0], [20, 20, 40, 50, 1]], "b": [[5, 5, 15, 25, 0]]}
DET = {"a": [[0, 0, 10, 10, 0.9, 0], [21, 20, 40, 50, 0.8, 1]], "b": [[5, 5, 15, 24, 0.7, 0]]}

ODD_NUMBERS = [math.nan, math.inf, -math.inf, 1e308, -1e308, 1e200, 10**400, -(10**400), 2**63,
               1e19, -5, -0.5, 0, 2.5, 0.5, "7", None, True, []]
ODD_TEXT = ["nan", "inf", "-inf", "1e308", "-1e308", "1e400", "9" * 40, "-5", "0", "2.5", "", "x",
            " 3 ", "1_0"]
# phrases of BoundingBox's refusals; a reader prefixes each with its line or entry
BOX_REFUSAL = re.compile(r"inverted corners|overflows|score outside|class id must")
LOCATED = re.compile(r"^error: (line \d+|\w+\[\d+\]): ")


@st.composite
def mutated(draw, rows):
    """A copy of `rows` (lists of fields) with 1-3 fields set to odd values,
    dropped, or followed by an extra one."""
    rows = [list(row) for row in rows]
    odd = st.sampled_from(ODD_TEXT if isinstance(rows[0][0], str) else ODD_NUMBERS)
    for _ in range(draw(st.integers(1, 3))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        at = draw(st.integers(0, len(row) - 1))
        kind = draw(st.sampled_from(["set", "set", "set", "drop", "extra"]))
        if kind == "set":
            row[at] = draw(odd)
        elif kind == "drop":
            del row[at]
        else:
            row.append(draw(odd))
    return rows


def mot_text(rows) -> str:
    return "".join(",".join(map(str, row)) + "\n" for row in rows)


def rows_of(doc) -> list:
    return [row for rows in doc.values() for row in rows]


def box_json(doc, rows) -> str:
    """`doc` with its rows, image by image in key order, replaced by `rows`."""
    sizes = [len(v) for v in doc.values()]
    return json.dumps({k: rows[sum(sizes[:i]):sum(sizes[:i + 1])] for i, k in enumerate(doc)})


def case_files():
    """(command, gt text, result text), one of the two files mutated."""
    mot = st.tuples(st.just("eval-mot"),
                    mutated([list(map(str, r)) for r in MOT_GT]).map(mot_text),
                    st.just(mot_text(MOT_RESULT)))
    mot_result = st.tuples(st.just("eval-mot"), st.just(mot_text(MOT_GT)),
                           mutated([list(map(str, r)) for r in MOT_RESULT]).map(mot_text))
    gt = st.tuples(st.just("eval-det"), mutated(rows_of(GT)).map(lambda r: box_json(GT, r)),
                   st.just(json.dumps(DET)))
    det = st.tuples(st.just("eval-det"), st.just(json.dumps(GT)),
                    mutated(rows_of(DET)).map(lambda r: box_json(DET, r)))
    return st.one_of(mot, mot_result, gt, det)


def test_malformed_box_files_exit_cleanly(tmp_path):
    gt_path, result_path = tmp_path / "gt", tmp_path / "result"

    @settings(max_examples=150, deadline=None)
    @given(case_files())
    def case(files):
        command, gt, result = files
        gt_path.write_text(gt)
        result_path.write_text(result)
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main([command, str(gt_path), str(result_path)])
        lines = err.getvalue().splitlines()
        assert code in (0, 1, 2)
        if code == 0:
            assert lines == []
        else:
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
            assert not BOX_REFUSAL.search(lines[0]) or LOCATED.match(lines[0]), lines[0]

    start = time.perf_counter()
    case()
    assert time.perf_counter() - start <= 5.0
