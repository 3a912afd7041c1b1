"""Mutated copies of the shipped models through the CLI: every outcome is a
documented exit code, every figure a report holds is finite, at least 0,
and either 0 or a normal float, and every file that parses prints back to
an equal workflow."""

import contextlib
import io
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from redvote import cli, dsl
from redvote.errors import TINY

from oracles import from_json

MODELS = Path(__file__).resolve().parent.parent / "models"

_TOKEN = re.compile(r'\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|[A-Za-z_]\w*|"[^"\n]*"|->|\S')

#: Each shipped model as its tokens, comments left out.
SHIPPED = {path.name: _TOKEN.findall(re.sub(r"#[^\n]*", "", path.read_text()))
           for path in sorted(MODELS.glob("*.rvm"))}

#: Numbers at and past the edges of a literal's range, and in it.
NUMBERS = ("0", "1", "3", "0.5", "1e-9", "1e-300", "1e-320", "1e-400", "1e300", "1e308", "1e999")

#: An edit and its position, which wraps round the tokens it may edit:
#: a number or an operator swapped for another, or any token deleted,
#: replaced or preceded by an insert, an edge token or one of the model's own.
EDIT = (st.tuples(st.just("number"), st.integers(0, 10**6), st.sampled_from(NUMBERS))
        | st.tuples(st.just("operator"), st.integers(0, 10**6), st.sampled_from("+-*/"))
        | st.tuples(st.sampled_from(("delete", "insert", "replace")), st.integers(0, 10**6),
                    st.sampled_from(NUMBERS + tuple("+-*/();.=")) | st.integers(0, 10**6)))


def mutate(tokens: list[str], edits) -> str:
    tokens = list(tokens)
    for kind, at, new in edits:
        new = tokens[new % len(tokens)] if isinstance(new, int) else new
        if kind in ("number", "operator"):
            slots = [i for i, token in enumerate(tokens)
                     if (token[0].isdigit() if kind == "number" else token in ("+", "-", "*", "/"))]
            if slots:
                tokens[slots[at % len(slots)]] = new
        elif kind == "delete":
            del tokens[at % len(tokens)]
        elif kind == "insert":
            tokens.insert(at % (len(tokens) + 1), new)
        else:
            tokens[at % len(tokens)] = new
    return " ".join(tokens)


def solve(path: Path) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["solve", str(path), "--format", "json", "--threshold", "1e-9"])
    return code, out.getvalue(), err.getvalue()


def numbers(value):
    """Every int and float in a parsed JSON value."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from numbers(item)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutants")


@settings(max_examples=300, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(model=st.sampled_from(sorted(SHIPPED)), edits=st.lists(EDIT, min_size=1, max_size=3))
def test_a_mutant_exits_as_documented_with_only_admissible_figures(workdir, model, edits):
    text = mutate(SHIPPED[model], edits)
    parsed = dsl.parse(text)
    if parsed.ok:
        assert dsl.parse(dsl.print_workflow(parsed.workflow)).workflow == parsed.workflow
    path = workdir / model
    path.write_text(text, encoding="utf-8")
    code, out, err = solve(path)
    assert code in (0, 2, 3, 4, 5), err
    assert "internal error" not in err
    again = solve(path)
    if code not in (0, 5):
        assert (out, again) == ("", (code, "", err))
        return
    report = json.loads(out)
    for value in numbers(report):
        assert math.isfinite(value) and value >= 0.0 and (value == 0.0 or value >= TINY), value
    assert all(p <= 1.0 for outputs in report["instances"].values() for p in outputs.values())
    assert again[0] == code
    assert from_json(again[1]).digest_region() == from_json(out).digest_region()
