"""Every public name in src/gst is reached from the program, the scripts,
the benchmark or the acceptance suite, bar a short list kept on purpose.

A name is a module-level function, class or constant, or a method of a
module-level class, whose identifier does not start with an underscore.
It counts as reached when its identifier appears outside its own
definition in one of those places: as a name, an attribute, an imported
name or alias, a keyword argument or a string constant.  Matching is by
identifier alone, so a name shared with another definition counts as
reached through any use of that identifier.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gst"
READERS = (sorted(SRC.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
           + sorted((ROOT / "bench").glob("*.py"))
           + [ROOT / "tests" / "test_acceptance.py"])

# kept with no reader in the program; each is read by unit tests only
ALLOWED = {
    "circle.CircleMeasure.restrict": "exact mu|E, checked against a "
                                     "hypothesis oracle",
    "circle.measure_to_json": "round-trip tests of measure_from_json",
    "grids.grid_to_json": "round-trip tests of grid_from_json",
    "weights.to_spec": "round-trip tests of the weight spec reader",
    "fixtures.non_majorant_weight": "the negative case of the majorant "
                                    "checks",
    "privalov.H_MAX": "the bound h <= 1/32 that the profile tests assert",
    "privalov.PrivalovDomain.contains": "oracle for the lid of the domain",
    "privalov.PrivalovDomain.boundary_point": "oracle for the lid samples",
}


def public_definitions(path: Path):
    """(qualified name, identifier, node) of each public definition."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name, node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if (isinstance(sub, ast.FunctionDef)
                            and not sub.name.startswith("_")):
                        yield f"{node.name}.{sub.name}", sub.name, sub
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for t in targets:
                if isinstance(t, ast.Name) and not t.id.startswith("_"):
                    yield t.id, t.id, node


def appearances(path: Path):
    """(identifier, line) of every appearance of an identifier."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno
            if node.asname:
                yield node.asname, node.lineno
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def unreached() -> set:
    seen: dict = {}
    for path in READERS:
        for ident, line in appearances(path):
            seen.setdefault(ident, []).append((path, line))
    out = set()
    for path in sorted(SRC.glob("*.py")):
        for qualname, ident, node in public_definitions(path):
            own = range(node.lineno, node.end_lineno + 1)
            if all(p == path and line in own
                   for p, line in seen.get(ident, [])):
                out.add(f"{path.stem}.{qualname}")
    return out


def test_every_public_name_is_reached():
    assert unreached() == set(ALLOWED)


def test_scan_sees_a_planted_name(tmp_path):
    # a definition nothing reads is reported; one read elsewhere is not
    planted = tmp_path / "planted.py"
    planted.write_text("def lonely():\n    return lonely\n\n"
                       "def used():\n    pass\n\nused()\n")
    names = {q for q, _, _ in public_definitions(planted)}
    assert names == {"lonely", "used"}
    seen = [i for i, line in appearances(planted) if line > 2]
    assert "lonely" not in seen and "used" in seen
