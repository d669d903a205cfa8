"""Structural rules, checked on the source.

The pair table stays the one place that tells the ten pairs apart: every
per-pair choice in the package reads the pair's rule in branching.PAIRS; a
comparison against a pair-id literal, or a prefix or suffix test on a pair
id, would put a per-pair fact back outside it; so would reading a rule's
rank scale anywhere but in pairs.label_ranks.  The oracle and the
character layer share no code with the LR machinery they are held
against, and decompositions enumerate no candidate labels.  The
package's memos are a fixed, named set, so that a new one is added on
purpose (a benchmark that empties the memos between rounds must know it).
"""

import ast
from pathlib import Path

from branchkit.branching import PAIR_IDS

SRC = Path(__file__).resolve().parent.parent / "src" / "branchkit"


def _strings(node) -> list[str]:
    """The string literals in an expression, looking inside tuples,
    lists and sets."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return [s for elt in node.elts for s in _strings(elt)]
    return []


def _names_a_pair(node) -> bool:
    if isinstance(node, ast.Name):
        return "pair" in node.id
    return isinstance(node, ast.Attribute) and "pair" in node.attr


def pair_id_branches(source: str) -> list[str]:
    """Each comparison against a pair id and each prefix or suffix test on
    one, as 'line: code'."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            ops = (ast.Eq, ast.NotEq, ast.In, ast.NotIn)
            operands = [node.left, *node.comparators]
            hit = any(isinstance(op, ops) for op in node.ops) and any(
                s in PAIR_IDS for o in operands for s in _strings(o))
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("endswith", "startswith")):
            test = getattr(str, node.func.attr)
            args = [s for a in node.args for s in _strings(a)]
            hit = _names_a_pair(node.func.value) or any(
                test(pair, a) for a in args for pair in PAIR_IDS)
        else:
            continue
        if hit:
            found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


def test_the_check_sees_pair_id_branches():
    for code in ('pair == "o-diag"', '"gl-sum" != q.pair',
                 'pair in ("o-sum", "sp-sum")', 'pair not in ["gl-in-o"]',
                 'pair.endswith("diag")', 'q.pair.startswith("gl")',
                 'name.endswith(("-sum", "-x"))'):
        assert pair_id_branches(code), code
    for code in ('args.pair == "all"', 'pair in PAIR_IDS',
                 's.startswith("[")', 'rule.kind == "diag"'):
        assert not pair_id_branches(code), code


def test_no_pair_id_branches_outside_the_table():
    found = [f"{path.name}:{hit}"
             for path in sorted(SRC.glob("*.py"))
             for hit in pair_id_branches(path.read_text(encoding="utf-8"))]
    assert not found, "\n".join(found)


def rank_scale_reads(source: str) -> list[str]:
    """Each read of an attribute named big_scale, as 'line: code'."""
    return [f"{node.lineno}: {ast.unparse(node)}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "big_scale"]


def test_the_check_sees_rank_scale_reads():
    for code in ("big_n = rule.big_scale * n", "f(PAIRS[pair].big_scale)"):
        assert rank_scale_reads(code), code
    for code in ('PairRule("bilinear", big_scale=2)', "big_scale = 2"):
        assert not rank_scale_reads(code), code


def test_only_the_pair_table_reads_the_rank_scale():
    """Each label's rank at the pair's ranks is worked out once, in
    pairs.label_ranks: no other module reads a rule's big_scale."""
    found = [f"{path.name}:{hit}"
             for path in sorted(SRC.glob("*.py")) if path.name != "pairs.py"
             for hit in rank_scale_reads(path.read_text(encoding="utf-8"))]
    assert not found, "\n".join(found)


def test_character_layer_does_not_import_the_formulas():
    """characters reads the pair table, never the Littlewood-Richardson
    formula layer it is held against."""
    tree = ast.parse((SRC / "characters.py").read_text(encoding="utf-8"))
    imported = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    assert not imported & {"branching", "lr"}, imported


def _imports_lr(tree) -> list[str]:
    """Each import of the lr module or of a name from it, as code."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            hit = module == "lr" or module.endswith(".lr") or (
                module in ("", "branchkit")
                and any(a.name == "lr" for a in node.names))
        elif isinstance(node, ast.Import):
            hit = any(a.name.endswith(".lr") for a in node.names)
        else:
            continue
        if hit:
            found.append(ast.unparse(node))
    return found


def test_the_oracle_shares_no_littlewood_richardson_code():
    """The oracle is held against the formulas, so neither it nor the
    character layer under it may reach the LR machinery."""
    for code in ("from .lr import lr_coeff", "from . import lr",
                 "from branchkit.lr import skew_expand", "import branchkit.lr"):
        assert _imports_lr(ast.parse(code)), code
    assert not _imports_lr(ast.parse("from .partitions import GLLabel"))
    for name in ("oracle.py", "characters.py"):
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
        assert not _imports_lr(tree), (name, _imports_lr(tree))


# the per-cell sums, which evaluate one label at a time
PER_CELL_SUMS = {"diagonal_gl_sum", "diagonal_onsp_sum", "direct_sum_gl_sum",
                 "direct_sum_onsp_sum", "polarization_sum", "bilinear_sum"}


def names_reached(source: str, start: str) -> set[str]:
    """Every name read by the module-level function ``start`` or by a
    function of the same module that it reaches through such names."""
    functions = {node.name: node for node in ast.parse(source).body
                 if isinstance(node, ast.FunctionDef)}
    seen, todo = set(), [start]
    while todo:
        for node in ast.walk(functions[todo.pop()]):
            if isinstance(node, ast.Name) and node.id not in seen:
                seen.add(node.id)
                if node.id in functions:
                    todo.append(node.id)
    return seen


def test_the_check_sees_candidate_enumeration():
    source = ("def branch_decompose():\n    return _helper()\n"
              "def _helper():\n    return [bilinear_sum(m) "
              "for m in partitions_of(3)]\n")
    assert {"bilinear_sum", "partitions_of"} <= names_reached(
        source, "branch_decompose")


def test_decompositions_enumerate_no_candidate_labels():
    """branch_decompose expands each rule's sum from the big side: it
    neither enumerates candidate small labels (partitions_of) nor
    evaluates a per-cell sum for each, so its cost follows its output.
    Its even weights and its direct-sum and polarization splits run over
    the even 2δ ⊆ λ alone: it runs no skew expansion only to keep its
    even contents (even_row_sum, even_column_sum)."""
    source = (SRC / "branching.py").read_text(encoding="utf-8")
    reached = names_reached(source, "branch_decompose")
    banned = PER_CELL_SUMS | {"partitions_of", "even_row_sum",
                              "even_column_sum"}
    assert not reached & banned, reached & banned


def test_the_direct_sum_oracle_tries_no_candidate_weights():
    """The direct-sum remainder is read from splits of the big group's
    dominant weights: _sum_decomposition neither enumerates candidate
    factor weights nor expands a weight system."""
    source = (SRC / "oracle.py").read_text(encoding="utf-8")
    reached = names_reached(source, "_sum_decomposition")
    banned = {"dominant_weights", "partitions_of", "full_weight_support"}
    assert not reached & banned, reached & banned


def test_the_embedding_oracle_expands_no_weight_system():
    """An embedding's remainder is read from the few vectors of each big
    dominant weight's orbit that land in the subgroup's dominant chamber:
    the restriction path neither expands the big weight system nor
    restricts or decomposes a whole character."""
    source = (SRC / "oracle.py").read_text(encoding="utf-8")
    reached = names_reached(source, "_restriction_decomposition")
    banned = {"full_weight_support", "restrict_character",
              "decompose_character"}
    assert not reached & banned, reached & banned


def test_the_tensor_oracle_expands_no_weight_system():
    """decompose_tensor folds only the regular Brauer-Klimyk terms, read
    from the smaller factor's dominant weights: it neither expands a
    weight system nor builds a Weyl orbit."""
    source = (SRC / "oracle.py").read_text(encoding="utf-8")
    reached = names_reached(source, "decompose_tensor")
    assert "weight_multiplicities" in reached
    banned = {"full_weight_support", "orbit_vectors"}
    assert not reached & banned, reached & banned


def test_products_read_one_skew_expansion():
    """tensor_expand reads its whole product from one skew expansion of
    the corner-to-corner shape: it neither enumerates candidate
    constituents nor evaluates a coefficient for each."""
    source = (SRC / "lr.py").read_text(encoding="utf-8")
    reached = names_reached(source, "tensor_expand")
    assert "skew_expand" in reached
    assert not reached & {"lr_coeff", "lr_count_direct"}, reached


def raisers_of(source: str, error: str) -> set[str]:
    """The module-level functions that raise ``error``, in their own body
    or in a function nested in it."""
    found = set()
    for fn in ast.parse(source).body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == error:
                found.add(fn.name)
    return found


def test_the_check_sees_raisers():
    source = ("def f():\n    raise E('x')\n"
              "def g():\n    def inner():\n        raise E\n    return inner\n"
              "def h():\n    raise F('y')\n"
              "def k():\n    try:\n        pass\n    except E:\n        raise\n")
    assert raisers_of(source, "E") == {"f", "g"}


def test_the_oracle_checks_labels_only_through_the_family_weights():
    """Each label the oracle reads goes through its family's weight, which
    checks the label's length or safe-regime bound at its rank: only the
    weights, the least-rank guard on the reading group and the direct
    sum's check on its output factors raise OutOfSafeRegime."""
    source = (SRC / "oracle.py").read_text(encoding="utf-8")
    assert raisers_of(source, "OutOfSafeRegime") == {
        "gl_weight", "sp_weight", "so_weight", "_reading_group",
        "_sum_decomposition"}


# the package's memos; perfbench's workloads empty exactly these
MEMOS = {"lr._SKEW_CACHE", "characters._CHAR_CACHE", "characters._FREUD_CACHE",
         "characters._SUPPORT_CACHE", "oracle._ORACLE_CACHE"}
DICT_MUTATORS = {"setdefault", "update", "pop", "popitem", "clear",
                 "__setitem__", "__delitem__"}


def _builds_a_dict(node) -> bool:
    if isinstance(node, (ast.Dict, ast.DictComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("dict", "defaultdict", "OrderedDict",
                                "Counter")
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _builds_a_dict(node.left) or _builds_a_dict(node.right)
    return False


def module_memos(source: str) -> set[str]:
    """Module-level names bound to a dict that a function of the module
    mutates, by item assignment or deletion or a mutating dict method."""
    tree = ast.parse(source)
    dicts = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        if _builds_a_dict(node.value):
            dicts |= {t.id for t in targets if isinstance(t, ast.Name)}
    mutated = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)):
            continue
        for node in ast.walk(fn):
            if (isinstance(node, ast.Subscript)
                    and isinstance(node.ctx, (ast.Store, ast.Del))):
                target = node.value
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in DICT_MUTATORS):
                target = node.func.value
            else:
                continue
            if isinstance(target, ast.Name):
                mutated.add(target.id)
    return dicts & mutated


def test_the_check_sees_module_memos():
    source = ("A: dict = {}\nB = dict()\nC = {k: 1 for k in 'ab'}\n"
              "D = {} | {1: 2}\nE = {}\nF = {}\nG = {}\nH = []\n"
              "def f(k):\n    A[k] = 1\n    B.setdefault(k, 2)\n"
              "    C.clear()\n    del D[k]\n    H.append(k)\n"
              "    return E.get(k)\n"
              "g = lambda k: G.update(k=k)\nF[1] = 2\n")
    assert module_memos(source) == {"A", "B", "C", "D", "G"}


def test_the_memos_are_the_named_five():
    found = {f"{path.stem}.{name}"
             for path in sorted(SRC.glob("*.py"))
             for name in module_memos(path.read_text(encoding="utf-8"))}
    assert found == MEMOS
