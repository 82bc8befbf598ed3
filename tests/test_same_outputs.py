"""The compare-and-report half of `tools/same_outputs.py`, on two output
trees written here; no git and no `pne` command runs."""

import hashlib
import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py"
_SPEC = importlib.util.spec_from_file_location("same_outputs", _PATH)
same_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_outputs)


def write_tree(root, files):
    for rel, data in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return root


FILES = {
    "grid_cls/grid.csv": b"neighborhood,oa\nball_query,0.500000\nknn,0.250000\n",
    "grid_cls.stdout": b"grid_cls/grid.csv\n",
    "train_cls/model.bin": bytes(range(256)),
}


@pytest.fixture
def trees(tmp_path):
    return write_tree(tmp_path / "parent", FILES), tmp_path / "change"


def test_identical_trees_print_one_digest_per_file(trees):
    parent, change = trees
    write_tree(change, FILES)
    lines, differ = same_outputs.compare(parent, change)
    assert differ == 0
    assert lines == [f"same     {hashlib.sha256(FILES[rel]).hexdigest()}  {rel}"
                     for rel in sorted(FILES)] + ["all 3 files identical"]


def test_a_csv_that_differs_reports_its_first_differing_line(trees):
    parent, change = trees
    write_tree(change, dict(FILES, **{"grid_cls/grid.csv":
                                      b"neighborhood,oa\nball_query,0.500000\nknn,0.250001\n"}))
    lines, differ = same_outputs.compare(parent, change)
    assert differ == 1
    at = lines.index(f"DIFFERS  {hashlib.sha256(FILES['grid_cls/grid.csv']).hexdigest()}"
                     "  grid_cls/grid.csv (parent)")
    assert lines[at + 2:at + 4] == ["         line 3: parent 'knn,0.250000'",
                                    "         line 3: change 'knn,0.250001'"]
    assert lines[-1] == "1 of 3 files differ"


def test_a_binary_file_that_differs_reports_no_line(trees):
    parent, change = trees
    write_tree(change, dict(FILES, **{"train_cls/model.bin": bytes(range(255, -1, -1))}))
    lines, differ = same_outputs.compare(parent, change)
    assert differ == 1
    at = next(i for i, line in enumerate(lines) if line.startswith("DIFFERS"))
    assert lines[at].endswith("train_cls/model.bin (parent)")
    assert lines[at + 1].endswith("train_cls/model.bin (change)")
    assert lines[at + 2:] == ["1 of 3 files differ"]


def test_a_file_on_one_side_only_differs(trees):
    parent, change = trees
    files = {rel: data for rel, data in FILES.items() if rel != "grid_cls.stdout"}
    write_tree(change, dict(files, **{"extra.csv": b"x\n"}))
    lines, differ = same_outputs.compare(parent, change)
    assert differ == 2
    assert "only in change  extra.csv" in lines
    assert "only in parent  grid_cls.stdout" in lines
    assert lines[-1] == "2 of 4 files differ"


@pytest.mark.parametrize("a,b,want", [
    (b"a\nb\n", b"a\nb\n", None),
    (b"a\nb\n", b"a\nc\n", (2, "b", "c")),
    (b"a\n", b"a\nb\n", (2, None, "b")),
    (b"\xff\x00", b"\xfe\x00", None),
])
def test_first_difference(a, b, want):
    assert same_outputs.first_difference(a, b) == want
