"""``normalize`` and ``merge`` on mutated copies of small synthetic tables,
and ``km``, ``label`` and ``project --append-age`` on a mutated clinical file:
every run ends in exit 0, 2 or 3, no exception escapes ``cli.main``, and a
config or data error names the mutated file."""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omicsurv import cli

CELL_TEXT = {"text": b"abc", "nan": b"nan", "inf": b"inf", "empty_cell": b""}
MUTATIONS = ["drop_cell", "duplicate_cell", "ragged_row", "duplicate_id", "non_utf8",
             "truncate", "empty_file", *CELL_TEXT]


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    out = tmp_path_factory.mktemp("cohort")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["synth", "--n-patients", "6", "--n-genes", "4",
                         "--n-informative", "2", "--seed", "3", "--out-dir", str(out)]) == 0
    return {name: (out / name).read_bytes()
            for name in ("microarray.csv", "rnaseq.csv", "clinical.csv")}


def mutate(text: bytes, kind: str, data) -> bytes:
    if kind == "empty_file":
        return b""
    if kind == "truncate":
        return text[:data.draw(st.integers(0, len(text) - 1))]
    if kind == "non_utf8":
        at = data.draw(st.integers(0, len(text)))
        return text[:at] + b"\xff" + text[at:]
    rows = [line.split(b",") for line in text.split(b"\r\n")[:-1]]
    r = data.draw(st.integers(0, len(rows) - 1))
    c = data.draw(st.integers(0, len(rows[r]) - 1))
    if kind == "drop_cell":
        del rows[r][c]
    elif kind == "duplicate_cell":
        rows[r].insert(c, rows[r][c])
    elif kind == "ragged_row":
        rows[r].append(b"1.0")
    elif kind == "duplicate_id":
        rows[max(r, 1)][0] = rows[data.draw(st.integers(1, len(rows) - 1))][0]
    else:
        rows[r][c] = CELL_TEXT[kind]
    return b"".join(b",".join(row) + b"\r\n" for row in rows)


def run_mutated(tmp, tables, data, argv_for, mutable):
    """Write the tables, one of ``mutable`` mutated, run the command on them,
    and check its exit code and message."""
    mutated = data.draw(st.sampled_from(mutable))
    kind = data.draw(st.sampled_from(MUTATIONS))
    paths = {name: tmp / name for name in tables}
    for name, path in paths.items():
        path.write_bytes(mutate(tables[name], kind, data) if name == mutated else tables[name])
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv_for(paths, tmp / "out.csv")])
    assert code in (0, 2, 3), err.getvalue()
    if code:
        assert str(paths[mutated]) in err.getvalue(), (kind, err.getvalue())


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_normalize_mutated_inputs(tmp_path_factory, tables, data):
    run_mutated(tmp_path_factory.mktemp("normalize"), tables, data, lambda paths, out: [
        "normalize", "--target", paths["rnaseq.csv"],
        "--reference", paths["microarray.csv"], "--log2", "--output", out],
        ["microarray.csv", "rnaseq.csv"])


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_merge_mutated_inputs(tmp_path_factory, tables, data):
    run_mutated(tmp_path_factory.mktemp("merge"), tables, data, lambda paths, out: [
        "merge", paths["microarray.csv"], paths["rnaseq.csv"], "--output", out],
        ["microarray.csv", "rnaseq.csv"])


CLINICAL_COMMANDS = {
    "km": lambda paths, out: ["km", "--clinical", paths["clinical.csv"], "--output", out],
    "km_groups": lambda paths, out: ["km", "--clinical", paths["clinical.csv"],
                                     "--group-by", "--output", out],
    "label": lambda paths, out: ["label", "--clinical", paths["clinical.csv"],
                                 "--t", "60", "--output", out],
    "project": lambda paths, out: [
        "project", "--features", paths["microarray.csv"], "--dims", "2",
        "--iterations", "5", "--perplexity", "1", "--append-age",
        "--clinical", paths["clinical.csv"], "--output", out],
}


@pytest.mark.parametrize("command", sorted(CLINICAL_COMMANDS))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_clinical_mutated_inputs(tmp_path_factory, tables, command, data):
    run_mutated(tmp_path_factory.mktemp(command), tables, data,
                CLINICAL_COMMANDS[command], ["clinical.csv"])
