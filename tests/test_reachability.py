"""Every public name in src/gst is reached from the program, the scripts,
the benchmark or the acceptance suite, and every option is set by one of
their calls, bar short lists kept on purpose.

A name is a module-level function, class or constant, or a method of a
module-level class, whose identifier does not start with an underscore.
It counts as reached when its identifier appears outside its own
definition in one of those places: as a name, an attribute, an imported
name or alias, a keyword argument or a string constant.  A method counts
as reached only through an attribute or an import, so a local variable
of the same spelling does not reach it.  Matching is by identifier
alone, so a name shared with another definition counts as reached
through any use of that identifier.

An option is a parameter with a default of a module-level function or of
a method of a module-level class (``__init__`` included).  A call sets it
by keyword, by passing enough positional arguments, or with ``*`` or
``**``.  Calls are matched by the callee's identifier (the class name for
``__init__``), again by identifier alone.
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

# options set by unit tests only, or through a call the scan cannot follow
ALLOWED_OPTIONS = {
    "fixtures.divergent_cantor_measure(stages)": "unit tests build a "
                                                 "12-stage copy for speed",
    "inner_outer.carleson_outer(levels)": "the Whitney-depth tests vary it",
    "weights.log_power(lambda_hint)": "set by from_spec through "
                                      "KINDS[kind].make(lambda_hint=)",
    "weights.exp_log(lambda_hint)": "set by from_spec through "
                                    "KINDS[kind].make(lambda_hint=)",
    "weights.exp_recip(lambda_hint)": "set by from_spec through "
                                      "KINDS[kind].make(lambda_hint=)",
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
    """(identifier, line, whether a method is reached by it) of every
    appearance of an identifier; only an attribute or an import reaches
    a method."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno, True
            if node.asname:
                yield node.asname, node.lineno, True
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg, node.lineno, False
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno, False


def unreached(sources, readers) -> set:
    """The public names defined in ``sources`` that no appearance in
    ``readers`` reaches."""
    seen: dict = {}
    for path in readers:
        for ident, line, as_method in appearances(path):
            seen.setdefault(ident, []).append((path, line, as_method))
    out = set()
    for path in sources:
        for qualname, ident, node in public_definitions(path):
            own = range(node.lineno, node.end_lineno + 1)
            method = "." in qualname
            if all((p == path and line in own) or (method and not as_method)
                   for p, line, as_method in seen.get(ident, [])):
                out.add(f"{path.stem}.{qualname}")
    return out


def options(path: Path):
    """(qualified option, callee identifier, parameter, position) of each
    defaulted parameter; the position is None for a keyword-only one."""
    def defaulted(fn, skip):
        a = fn.args
        pos = (a.posonlyargs + a.args)[skip:]
        first = len(pos) - len(a.defaults)
        for i, arg in enumerate(pos[first:], first):
            yield arg.arg, i
        for arg, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                yield arg.arg, None

    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            for name, i in defaulted(node, 0):
                yield f"{node.name}({name})", node.name, name, i
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if not isinstance(sub, ast.FunctionDef):
                    continue
                # the first parameter is self or cls
                callee = node.name if sub.name == "__init__" else sub.name
                for name, i in defaulted(sub, 1):
                    yield f"{node.name}.{sub.name}({name})", callee, name, i


def calls(path: Path):
    """(callee identifier, positional count, keywords, starred) of every
    call whose callee is a name or an attribute."""
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name):
            ident = node.func.id
        elif isinstance(node.func, ast.Attribute):
            ident = node.func.attr
        else:
            continue
        keywords = {k.arg for k in node.keywords}
        starred = (None in keywords
                   or any(isinstance(a, ast.Starred) for a in node.args))
        yield ident, len(node.args), keywords, starred


def unset_options(sources, readers) -> set:
    """The options defined in ``sources`` that no call in ``readers``
    sets."""
    seen: dict = {}
    for path in readers:
        for ident, *call in calls(path):
            seen.setdefault(ident, []).append(call)
    out = set()
    for path in sources:
        for qualname, callee, name, i in options(path):
            if not any(starred or name in keywords
                       or (i is not None and i < n_pos)
                       for n_pos, keywords, starred in seen.get(callee, [])):
                out.add(f"{path.stem}.{qualname}")
    return out


def test_every_public_name_is_reached():
    assert unreached(sorted(SRC.glob("*.py")), READERS) == set(ALLOWED)


def test_scan_sees_a_planted_name(tmp_path):
    # a definition nothing reads is reported; one read elsewhere is not,
    # and a method is reached as an attribute, not by a local variable of
    # the same spelling
    planted = tmp_path / "planted.py"
    planted.write_text("def lonely():\n    return lonely\n\n"
                       "def used():\n    spin = Top()\n    spin.turn()\n\n"
                       "class Top:\n    def spin(self):\n        pass\n\n"
                       "    def turn(self):\n        pass\n\nused()\n")
    names = {q for q, _, _ in public_definitions(planted)}
    assert names == {"lonely", "used", "Top", "Top.spin", "Top.turn"}
    assert unreached([planted], [planted]) == {"planted.lonely",
                                               "planted.Top.spin"}


def test_every_option_is_set():
    assert (unset_options(sorted(SRC.glob("*.py")), READERS)
            == set(ALLOWED_OPTIONS))


def test_scan_sees_a_planted_option(tmp_path):
    # an option no call sets is reported; one set by position, by keyword,
    # with ** or through its class's constructor is not
    planted = tmp_path / "planted.py"
    planted.write_text(
        "def knob(x, tol=1e-6, lam=None, *, depth=3, base=2):\n    pass\n\n"
        "def spread(x, y=0):\n    pass\n\n"
        "class Box:\n    def __init__(self, size=1):\n        pass\n\n"
        "    def grow(self, by=1):\n        pass\n\n"
        "knob(1, 1e-3)\nknob(1, depth=4)\nspread(**{})\n"
        "Box(2).grow()\n")
    assert {q for q, _, _, _ in options(planted)} == {
        "knob(tol)", "knob(lam)", "knob(depth)", "knob(base)", "spread(y)",
        "Box.__init__(size)", "Box.grow(by)"}
    assert unset_options([planted], [planted]) == {
        "planted.knob(lam)", "planted.knob(base)", "planted.Box.grow(by)"}
