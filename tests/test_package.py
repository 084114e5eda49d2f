import ast
from collections import Counter
from pathlib import Path

import lspkit

PACKAGE = Path(lspkit.__file__).parent

# public names that nothing in the package reads, each with its reason
UNREFERENCED = {
    # perfbench's tracer wraps it for its randomsim.draw_isometry metrics;
    # it goes when the tracer reads spans from the package instead
    "randomsim.draw_isometry",
    # no hit test builds a cylinder cut (``sets.cut_hits`` walks the
    # cylinder tree); perfbench's tracer wraps it, through ``measure``'s
    # import, for its sets.cylinder_cut metrics, and tests/set_oracles.py
    # builds its proxy tree on it
    "sets.cylinder_cut",
}


def _reads(node):
    """Names and attribute names read anywhere under ``node``."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) or isinstance(n, ast.Attribute)
    )


def test_every_public_name_is_used_in_the_package():
    # a public function or class that no code in the package reads outside
    # its own body serves only its tests: move it beside them as an oracle
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    unread = set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                if reads[node.name] - _reads(node)[node.name] <= 0:
                    unread.add(f"{module}.{node.name}")
    assert unread == UNREFERENCED


def test_cantor_tree_levels_is_read_outside_the_package_only():
    # CantorTree.levels ([[level]]) serves perfbench's tracer; the package
    # reads the one local level as ``tree.level``
    readers = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "levels"
    ]
    assert readers == []



def _imported(node):
    """Dotted names an import statement may load: the modules, and for
    ``from m import a`` also ``m.a``."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module:
        return [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
    return []


def test_no_module_imports_scipy_optimize():
    # support lines come from the convex hull and plane distances from the
    # dual vertices, so the package solves no linear program; the tests check
    # both against exact oracles, so no test or benchmark file solves one
    root = Path(__file__).resolve().parents[1]
    imports = [
        f"{path.parent.name}/{path.name}:{node.lineno}"
        for path in sorted([*PACKAGE.glob("*.py"), *(root / "tests").glob("*.py"), *(root / "perfbench").glob("*.py")])
        for node in ast.walk(ast.parse(path.read_text()))
        if any(name == "scipy.optimize" or name.startswith("scipy.optimize.") for name in _imported(node))
    ]
    assert imports == []


def test_cantor_reads_its_stage_provider_through_named_members():
    # the grid provider owns its cloud schedule (j_min, next_change) and the
    # builder's grid test is one isinstance: cantor.py probes no provider
    # with hasattr or getattr and restates no power-of-two schedule
    def on_stages(node):
        return any(isinstance(n, ast.Name) and n.id == "stages" or isinstance(n, ast.Attribute) and n.attr == "stages"
                   for n in ast.walk(node))

    found = []
    for node in ast.walk(ast.parse((PACKAGE / "cantor.py").read_text())):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("hasattr", "getattr"):
            if node.args and on_stages(node.args[0]):
                found.append(f"{node.func.id}:{node.lineno}")
        elif isinstance(node, ast.Attribute) and node.attr in ("log2", "bit_length"):
            found.append(f"{node.attr}:{node.lineno}")
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.LShift):
            found.append(f"<<:{node.lineno}")
    assert found == []


def test_every_measure_name_the_tracer_reads_resolves():
    # perfbench/tracer.py wraps and patches names it reads on
    # ``lspkit.measure``; a refactor that drops one of them must fail here,
    # not only in a traced benchmark run
    import lspkit.measure

    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    names = {
        node.attr
        for node in ast.walk(ast.parse(tracer.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "measure"
    }
    assert {"cylinder_cut", "distance_to_set", "sample_on_set", "cKDTree"} <= names
    assert sorted(name for name in names if not hasattr(lspkit.measure, name)) == []
