"""Source-mutation gate: every formula in ``corpus`` is pinned by a check.

Each arithmetic site of each top-level function in ``cstriple/corpus.py``
is mutated once, the mutant is executed into the module's namespace, and
``verifier.run_all()`` is replayed on it.  A wrong formula that feeds both
sides of an identity, or one that no check reads, survives this replay; a
mutated coefficient of a built polynomial (``helpers.run_mutation_suite``)
cannot show either.  The mutations: ``+`` <-> ``-``, ``*`` -> ``+``,
``**`` -> ``*``, each int constant ``n`` -> ``n + 1``, and a unary minus
dropped.
"""

import __future__
import ast
import copy
from pathlib import Path

from cstriple import corpus, verifier

SOURCE = Path(corpus.__file__)

# (function, source line) -> why a mutant there changes no result.
EQUIVALENT: dict[tuple[str, int], str] = {}

# The number of mutants; it moves with every edit to a formula in corpus,
# and a gate that silently stopped reaching a function would lower it.
MUTANT_COUNT = 249

_BINOP_MUTANTS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Add, ast.Pow: ast.Mult}


class _Mutator(ast.NodeTransformer):
    """Counts the mutation sites in ``sites`` and applies the one numbered
    ``target`` (none for the default -1), recording its line."""

    def __init__(self, target: int = -1):
        self.target = target
        self.sites = 0
        self.line = None

    def _take(self, node: ast.AST) -> bool:
        hit = self.sites == self.target
        if hit:
            self.line = node.lineno
        self.sites += 1
        return hit

    def visit_BinOp(self, node: ast.BinOp) -> ast.AST:
        self.generic_visit(node)
        mutant = _BINOP_MUTANTS.get(type(node.op))
        if mutant is not None and self._take(node):
            node.op = mutant()
        return node

    def visit_UnaryOp(self, node: ast.UnaryOp) -> ast.AST:
        self.generic_visit(node)
        if isinstance(node.op, ast.USub) and self._take(node):
            return node.operand
        return node

    def visit_Constant(self, node: ast.Constant) -> ast.AST:
        if type(node.value) is int and self._take(node):
            return ast.copy_location(ast.Constant(node.value + 1), node)
        return node


def _mutants():
    """Yield (function name, source line, compiled mutant) for every site."""
    tree = ast.parse(SOURCE.read_text(encoding="utf-8"))
    for func in tree.body:
        if not isinstance(func, ast.FunctionDef):
            continue
        counter = _Mutator()
        counter.visit(func)
        for target in range(counter.sites):
            mutator = _Mutator(target)
            module = ast.Module(body=[mutator.visit(copy.deepcopy(func))], type_ignores=[])
            code = compile(
                ast.fix_missing_locations(module),
                str(SOURCE),
                "exec",
                flags=__future__.annotations.compiler_flag,
                dont_inherit=True,
            )
            yield func.name, mutator.line, code


def _refuted(name: str, code) -> bool:
    """Whether any check fails, or the replay raises, with the mutant in place."""
    namespace = vars(corpus)
    original = namespace[name]
    try:
        exec(code, namespace)
        return any(r.status != verifier.STATUS_VERIFIED for r in verifier.run_all())
    except Exception:
        return True
    finally:
        namespace[name] = original


def test_every_corpus_mutant_is_refuted():
    before = dict(vars(corpus))
    count = 0
    survivors = set()
    for name, line, code in _mutants():
        count += 1
        if not _refuted(name, code):
            survivors.add((name, line))
    assert vars(corpus) == before
    assert count == MUTANT_COUNT
    assert survivors == set(EQUIVALENT)
