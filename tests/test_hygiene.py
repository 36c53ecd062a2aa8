"""Source hygiene: every name a module of the package imports is used in it,
every function, class and method it defines is named elsewhere in it, every
parameter, every settable config field and every field of the lottery's
records and of the partition is read, one module owns
switching the cyclic garbage collector, only `make_strategy` reads the
protocol in adversary.py, only netenv.py and sim.py see the environment's
cloud and partition, only sim.py builds a node's capacity meter and no
module keeps a table of meters, and the third-party packages it imports
are its declared dependencies.  No test file writes out a digest: every pin is in
tests/pins.json.

A re-export counts as a use when the module lists the name in `__all__`."""
import ast
import dataclasses
import pathlib
import re
import sys
from collections import Counter, defaultdict

import pytest

import nakasim
from nakasim import lottery, netenv
from nakasim import params as pm
from nakasim import trace as tr

PACKAGE = pathlib.Path(nakasim.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def names_in(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def annotations_of(node: ast.AST) -> list[ast.expr]:
    if isinstance(node, ast.arg):
        return [node.annotation] if node.annotation else []
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.returns] if node.returns else []
    if isinstance(node, ast.AnnAssign):
        return [node.annotation]
    return []


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = names_in(tree)
    for node in ast.walk(tree):
        # a quoted annotation uses the names inside its string
        for ann in annotations_of(node):
            for part in ast.walk(ann):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    used |= names_in(ast.parse(part.value, mode="eval"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import math\n"
              "from typing import Callable as C, Optional\n"
              "from typing import Iterable, Sequence\n"
              "x: Optional[int] = math.pi\n"
              "def f(a: 'Iterable[int]') -> \"list[Sequence]\": pass\n")
    assert unused_imports(source) == ["line 4: C", "line 2: os"]


# Definitions that nothing else in the package names, each kept for a reason.
KEPT_UNREACHED = {
    "pp_tail": "pivot-count tail bound, for checking recurrence at the "
               "proof's operating point",
    "cp_condition": "recurrence condition that picks the proof's operating "
                    "point",
    "choose_k_cp": "recurrence distance k_cp at the proof's operating point",
    "liveness_latency_refined": "latency bound that a measured confirmation "
                                "latency is to be set against",
    "error": "argparse calls `_Parser.error` on a usage error",
}


def dead_names(sources: dict[str, str], kept=frozenset()) -> list[str]:
    """Functions, classes and methods of the modules in `sources` (name ->
    source) that nothing names: not `__all__`, and no use outside their own
    body and the bodies of other dead definitions.  A method is named only
    by an attribute (`x.name`).  Dunder methods and `kept` are exempt."""
    defs = []                   # (definition, module, is a method)
    uses = defaultdict(list)    # name -> [(is an attribute, enclosing defs)]

    def visit(node, module, enclosing, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                is_class = isinstance(child, ast.ClassDef)
                defs.append((child, module, in_class and not is_class))
                visit(child, module, enclosing + (child,), is_class)
                continue
            if isinstance(child, ast.Name):
                uses[child.id].append((False, enclosing))
            elif isinstance(child, ast.Attribute):
                uses[child.attr].append((True, enclosing))
            elif isinstance(child, ast.alias):
                uses[child.asname or child.name].append((False, enclosing))
            visit(child, module, enclosing, in_class)

    for module, source in sources.items():
        tree = ast.parse(source)
        visit(tree, module, (), False)
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__"
                            for t in node.targets)):
                for name in ast.literal_eval(node.value):
                    uses[name].append((False, ()))

    # a use inside a dead definition does not count, so repeat until no
    # more definitions die
    dead: set = set()
    while True:
        now = {d for d, _, is_method in defs
               if not (d.name.startswith("__") and d.name.endswith("__"))
               and d.name not in kept
               and not any((attr or not is_method) and d not in enclosing
                           and dead.isdisjoint(enclosing)
                           for attr, enclosing in uses[d.name])}
        if now == dead:
            return [f"{module}:{d.lineno} {d.name}"
                    for d, module, _ in defs if d in dead]
        dead = now


def package_sources() -> dict[str, str]:
    return {path.name: path.read_text(encoding="utf-8") for path in MODULES}


def test_every_definition_is_named():
    assert dead_names(package_sources(), KEPT_UNREACHED.keys()) == []


@pytest.mark.parametrize("name", sorted(KEPT_UNREACHED))
def test_a_kept_name_is_still_unreached(name):
    """Once a command reaches a kept name, it comes off the list."""
    dead = dead_names(package_sources(), KEPT_UNREACHED.keys() - {name})
    assert any(entry.endswith(f" {name}") for entry in dead)


def test_the_check_sees_dead_names():
    sources = {
        "a.py": ("__all__ = ['exported']\n"
                 "def exported(): return helper()\n"
                 "def helper(): pass\n"
                 "def recursive(n): return recursive(n - 1)\n"
                 "def orphan(): return only_for_orphan()\n"
                 "def only_for_orphan(): pass\n"
                 "def kept(): pass\n"
                 "class C:\n"
                 "    def __init__(self): self.used()\n"
                 "    def used(self): pass\n"
                 "    def unused(self): pass\n"),
        "b.py": "from a import C\nunused = C()\n",
    }
    assert dead_names(sources, {"kept"}) == [
        "a.py:4 recursive", "a.py:5 orphan", "a.py:6 only_for_orphan",
        "a.py:11 unused"]


def unread_parameters(sources: dict[str, str]) -> list[str]:
    """Parameters that their function's body never reads, in the modules of
    `sources` (name -> source).  A read in a nested function counts.
    Methods whose name more than one class defines are exempt, since one
    override may read what another ignores, and so are `_`-prefixed
    parameters."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defined = Counter(child.name for tree in trees.values()
                      for node in ast.walk(tree)
                      if isinstance(node, ast.ClassDef)
                      for child in node.body if isinstance(child, functions))
    out = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, functions) or defined[node.name] > 1:
                continue
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                      *filter(None, (args.vararg, args.kwarg))]
            read = set().union(*map(names_in, node.body))
            out += [f"{module}:{node.lineno} {node.name}({p.arg})"
                    for p in params
                    if not p.arg.startswith("_") and p.arg not in read]
    return out


def test_every_parameter_is_read():
    assert unread_parameters(package_sources()) == []


def test_the_check_sees_unread_parameters():
    sources = {
        "a.py": ("def f(a, b, *args, c, _d, **kw): return a + c\n"
                 "def g(x): return lambda: x\n"
                 "class Base:\n"
                 "    def hook(self, slot): pass\n"
                 "class Child(Base):\n"
                 "    def hook(self, slot): return slot\n"
                 "    def own(self, slot): return self\n"),
    }
    assert unread_parameters(sources) == [
        "a.py:1 f(b)", "a.py:1 f(args)", "a.py:1 f(kw)", "a.py:7 own(slot)"]


# A config field that a config file sets is one that a run reads; a value
# the config computes is declared `init=False` and cannot be set.
CONFIGS = (pm.SimParams, pm.AttackConfig, pm.SaPoSParams, pm.TxGenConfig,
           pm.ScenarioConfig)


def unread_fields(sources: dict[str, str],
                  settable: dict[str, list[str]]) -> list[str]:
    """`Class.field` of every field of `settable` (class name -> field
    names) that no attribute load in the modules of `sources` (name ->
    source) reads, outside its own class's `__post_init__`."""
    readers = defaultdict(set)   # attribute -> classes whose __post_init__
                                 # reads it, None for a read elsewhere
    for source in sources.values():
        tree = ast.parse(source)
        checker = {id(node): cls.name for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef)
                   for fn in cls.body
                   if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"
                   for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                readers[node.attr].add(checker.get(id(node)))
    return [f"{cls}.{name}" for cls, names in settable.items()
            for name in names if not readers[name] - {cls}]


def test_every_settable_config_field_is_read():
    settable = {cls.__name__: [f.name for f in dataclasses.fields(cls) if f.init]
                for cls in CONFIGS}
    assert unread_fields(package_sources(), settable) == []


def test_the_check_sees_unread_fields():
    sources = {
        "a.py": ("class A:\n"
                 "    def __post_init__(self):\n"
                 "        check(self.x, self.y)\n"
                 "class B:\n"
                 "    def __post_init__(self):\n"
                 "        check(self.a.z)\n"),
        "b.py": "use(cfg.y)\ncfg.w = 1\n",
    }
    assert unread_fields(sources, {"A": ["x", "y", "z", "w"]}) == ["A.x", "A.w"]


# A field of a run's records that nothing reads states again what another
# record holds: a block's producer, say, is its header's `bpo.node`.
RECORDS = (lottery.BpoId, lottery.BlockHeader, lottery.Content,
           lottery.EquivocationProof, netenv.Partition)


def record_fields(cls) -> list[str]:
    """The field names of a named tuple or a dataclass."""
    if hasattr(cls, "_fields"):
        return list(cls._fields)
    return [f.name for f in dataclasses.fields(cls)]


def test_every_record_field_is_read():
    settable = {cls.__name__: record_fields(cls) for cls in RECORDS}
    assert unread_fields(package_sources(), settable) == []


# The opportunity rule (PoW refuses a second header per opportunity, PoS
# dedupes identical ones) is chosen by the header store, which is built with
# the run's protocol and mints every header through `extend`.  The rule and
# the mint behind it live in lottery.py: no other module reaches the store's
# `_mint` or its PoS dedup table (an attribute of `self`, such as the
# adversary's own `_mint`, is not the store's).
RULES = {"_mint", "_pos_identity"}


def rule_sites(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(module, line, rule) of every name, import or attribute of a rule,
    other than an attribute of `self`, in the modules of `sources` (name ->
    source) other than lottery.py."""
    out = []
    for module, source in sources.items():
        if module == "lottery.py":
            continue
        for node in ast.walk(ast.parse(source)):
            own = (isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Name)
                   and node.value.id == "self")
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) and not own
                    else node.name if isinstance(node, ast.alias) else None)
            if name in RULES:
                out.append((module, node.lineno, name))
    return sorted(out)


def test_the_opportunity_rule_is_chosen_once_per_producer():
    assert rule_sites(package_sources()) == []


def test_the_check_sees_opportunity_rules():
    sources = {
        "lottery.py": "def _mint(): pass\n_pos_identity = {}\n",
        "a.py": ("from lottery import _mint\n"
                 "table = store._pos_identity\n"
                 "_mint(1)\n"
                 "store.extend(2)\n"
                 "self._mint(3)\n"),
    }
    assert rule_sites(sources) == [("a.py", 1, "_mint"),
                                   ("a.py", 2, "_pos_identity"),
                                   ("a.py", 3, "_mint")]


# No adversary strategy branches on the protocol: `make_strategy` picks the
# strategy class that fits it, and is the one reader of it in adversary.py.
def protocol_reads(source: str) -> list[str]:
    """Lines outside `make_strategy` that read the protocol: a `protocol`
    attribute, or a `PROTOCOL_*` name, attribute or import."""
    tree = ast.parse(source)
    picker = {id(node) for top in tree.body
              if isinstance(top, ast.FunctionDef) and top.name == "make_strategy"
              for node in ast.walk(top)}
    out = []
    for node in ast.walk(tree):
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias) else None)
        if (name is not None and id(node) not in picker
                and (name == "protocol" or name.startswith("PROTOCOL_"))):
            out.append(f"line {node.lineno}: {name}")
    return sorted(out)


def test_only_make_strategy_reads_the_protocol():
    assert protocol_reads((PACKAGE / "adversary.py").read_text("utf-8")) == []


def test_the_check_sees_protocol_reads():
    source = ("from params import PROTOCOL_POS\n"
              "class Tease:\n"
              "    def __init__(self, sim):\n"
              "        self.vs_blanking = self.store.protocol == pm.PROTOCOL_SAPOS\n"
              "def make_strategy(sim):\n"
              "    return sim.store.protocol == pm.PROTOCOL_SAPOS\n")
    assert protocol_reads(source) == ["line 1: PROTOCOL_POS",
                                      "line 4: PROTOCOL_SAPOS",
                                      "line 4: protocol"]


# A node is blind to the partition: it learns what the cloud shows it only
# from the requests it makes and the notices the simulation sends.
def environment_reads(source: str) -> list[str]:
    """Lines that name an environment's content cloud or partition: a
    `cloud` or `partition` attribute, or the `Partition` class."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute)
                and node.attr in ("cloud", "partition")):
            out.append(f"line {node.lineno}: {node.attr}")
        elif "Partition" in (getattr(node, "id", None),
                             getattr(node, "name", None)):
            out.append(f"line {node.lineno}: Partition")
    return sorted(out)


def test_only_the_environment_and_the_simulation_see_the_cloud():
    seeing = {path.name for path in MODULES
              if environment_reads(path.read_text(encoding="utf-8"))}
    assert seeing == {"netenv.py", "sim.py"}


def test_the_check_sees_environment_reads():
    source = ("from .netenv import Environment, Partition\n"
              "cloud = {}\n"
              "memo = self.env.cloud.keys()\n"
              "env.partition.blocks(0, 1, slot)\n"
              "duration = attack.partition_duration\n"
              "x = pm.ATTACK_PARTITION\n")
    assert environment_reads(source) == ["line 1: Partition",
                                         "line 3: cloud",
                                         "line 4: partition"]


# A node's meter is built beside the node and held by it alone: sim.py
# builds one per node, and no module keeps a `meters` table beside them.
def meter_holders(source: str) -> list[str]:
    """Lines that build a capacity meter, a call of `CapacityMeter`, or
    name a `meters` attribute."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and "CapacityMeter" in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None)):
            out.append(f"line {node.lineno}: CapacityMeter()")
        elif isinstance(node, ast.Attribute) and node.attr == "meters":
            out.append(f"line {node.lineno}: meters")
    return sorted(out)


def test_only_the_simulation_builds_meters():
    found = {path.name: meter_holders(path.read_text(encoding="utf-8"))
             for path in MODULES}
    found = {name: lines for name, lines in found.items() if lines}
    assert list(found) == ["sim.py"]
    assert all(line.endswith("CapacityMeter()") for line in found["sim.py"])


def test_the_check_sees_meter_holders():
    source = ("from .netenv import CapacityMeter\n"
              "meter = CapacityMeter(1.0, 10)\n"
              "meter = netenv.CapacityMeter(rate, horizon)\n"
              "self.meters = {}\n"
              "meter = node.meter\n"
              "meters = [meter]\n"
              "env.meters[0].draw(1.0, slot)\n")
    assert meter_holders(source) == ["line 2: CapacityMeter()",
                                     "line 3: CapacityMeter()",
                                     "line 4: meters",
                                     "line 7: meters"]


# trace.collector_paused is the one place that switches the collector or
# moves objects between its generations
GC_SWITCHES = {"enable", "disable", "freeze", "unfreeze"}


def gc_switches(source: str) -> list[str]:
    """Lines that turn the cyclic collector on or off or move its objects
    between generations: `gc.enable`, `gc.disable`, `gc.freeze`,
    `gc.unfreeze`, or any of them imported from `gc`."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in GC_SWITCHES
                and isinstance(node.value, ast.Name) and node.value.id == "gc"):
            out.append(f"line {node.lineno}: gc.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            out += [f"line {node.lineno}: from gc import {alias.name}"
                    for alias in node.names if alias.name in GC_SWITCHES]
    return out


def test_only_the_trace_module_switches_the_collector():
    switching = {path.name for path in MODULES
                 if gc_switches(path.read_text(encoding="utf-8"))}
    assert switching == {"trace.py"}


def test_the_check_sees_collector_switches():
    source = ("import gc\n"
              "from gc import disable as off, collect\n"
              "gc.isenabled()\n"
              "gc.enable()\n"
              "gc.get_freeze_count()\n"
              "gc.freeze()\n")
    assert gc_switches(source) == ["line 2: from gc import disable",
                                   "line 4: gc.enable",
                                   "line 6: gc.freeze"]


def third_party_imports(sources: dict[str, str]) -> set[str]:
    """Top-level names of the packages that the modules of `sources` (name
    -> source) import, leaving out the standard library, relative imports
    and the package itself."""
    out = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                out.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                out.add(node.module.split(".")[0])
    return out - set(sys.stdlib_module_names) - {"nakasim"}


def declared_dependencies() -> set[str]:
    tomllib = pytest.importorskip("tomllib")
    pyproject = PACKAGE.parent.parent / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    return {re.match(r"[A-Za-z0-9_.-]+", spec)[0].lower().replace("-", "_")
            for spec in project["dependencies"]}


def test_the_package_imports_exactly_its_dependencies():
    assert third_party_imports(package_sources()) == declared_dependencies()


def test_the_check_sees_third_party_imports():
    sources = {
        "a.py": ("from __future__ import annotations\n"
                 "import os.path, numpy as np\n"
                 "from . import trace\n"
                 "from nakasim.params import Sim\n"
                 "from orjson import loads\n"
                 "import yaml.loader\n"),
    }
    assert third_party_imports(sources) == {"numpy", "orjson", "yaml"}


# An event of a `trace.LAYOUTS` kind is emitted with its values given
# positionally, so that `Trace.emit` keeps it as a row of values and builds
# no dict for it; a free-form kind (Meta, AdversaryRelease) takes keyword
# data only.
KIND_CONSTANTS = {name: value for name, value in vars(tr).items()
                  if isinstance(value, str) and value in tr.KINDS}


def emit_misuses(sources: dict[str, str]) -> list[str]:
    """`module:line kind: what` of every `.emit(slot, kind, ...)` call in
    the modules of `sources` (name -> source) that gives a laid-out kind by
    keyword or with another number of values than its layout's, a
    free-form kind positionally, or a kind that is not a constant of
    `trace` (`tr.BPO`)."""
    out = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "emit"):
                continue
            where = f"{module}:{node.lineno}"
            arg = node.args[1] if len(node.args) > 1 else None
            kind = (KIND_CONSTANTS.get(arg.attr)
                    if isinstance(arg, ast.Attribute) else None)
            values = node.args[2:]
            if kind is None:
                out.append(f"{where} ?: kind is not a trace constant")
            elif any(isinstance(v, ast.Starred) for v in values):
                out.append(f"{where} {kind}: values unpacked")
            elif kind in tr.LAYOUTS:
                if node.keywords:
                    out.append(f"{where} {kind}: by keyword")
                elif len(values) != len(tr.LAYOUTS[kind]):
                    out.append(f"{where} {kind}: {len(values)} values")
            elif values:
                out.append(f"{where} {kind}: positionally")
    return sorted(out)


def test_laid_out_kinds_are_emitted_positionally():
    assert emit_misuses(package_sources()) == []


def test_the_check_sees_emit_misuses():
    sources = {
        "a.py": ("trace.emit(0, tr.BPO, 1, 0, 0, [])\n"
                 "trace.emit(0, tr.BPO, h=1, a=0, s=0, winners=[])\n"
                 "trace.emit(0, tr.LEAD_SAMPLE, 2, 3)\n"
                 "trace.emit(0, tr.META, seed=1)\n"
                 "trace.emit(0, tr.ADVERSARY_RELEASE, [1])\n"
                 "trace.emit(0, tr.BLANKED, *row)\n"
                 "trace.emit(0, kind, 1)\n"
                 "mailer.send(0, tr.BPO, h=1)\n"),
    }
    assert emit_misuses(sources) == [
        "a.py:2 Bpo: by keyword", "a.py:3 LeadSample: 2 values",
        "a.py:5 AdversaryRelease: positionally",
        "a.py:6 Blanked: values unpacked",
        "a.py:7 ?: kind is not a trace constant"]


# Trace kinds that the analysis does not read, each written for a reason.
UNREAD_KINDS = {
    tr.HEADER_DELIVERED: "when each node got each header; no audit checks "
                         "header delays against delta_h yet",
    tr.CONTENT_UPLOADED: "when content became available; no audit counts "
                         "unavailable requests yet",
    tr.LEAD_SAMPLE: "the adversary's lead; RunMetrics takes its last and "
                    "largest value from the run, not from the trace",
    tr.ADVERSARY_RELEASE: "the adversary's releases; its `content` field "
                          "is a header id, a commitment or None by release",
    tr.EQUIVOCATION_SEEN: "when a node saw an equivocation; the blanking "
                          "audit reads the blanks and proofs instead",
}


def kinds_read(source: str) -> set[str]:
    """The kinds a module reads: those whose constant it names (`tr.BPO`),
    and Meta when it reads a trace's `.meta`."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            if node.attr in KIND_CONSTANTS:
                read.add(KIND_CONSTANTS[node.attr])
            elif node.attr == "meta":
                read.add(tr.META)
    return read


def unexplained_kinds(source: str, unread: dict) -> list[str]:
    """The kinds of `trace.KINDS` that `source` does not read and `unread`
    does not list."""
    return [kind for kind in tr.KINDS
            if kind not in kinds_read(source) and kind not in unread]


def test_every_kind_is_read_by_the_analysis_or_listed():
    source = (PACKAGE / "pivots.py").read_text(encoding="utf-8")
    assert unexplained_kinds(source, UNREAD_KINDS) == []
    # a kind the analysis starts reading comes off the list
    assert not kinds_read(source) & UNREAD_KINDS.keys()


def test_the_check_sees_unread_kinds():
    source = ("meta = run_trace.meta\n"
              "for row in run_trace.of_kind(tr.BPO):\n"
              "    pass\n"
              "print(tr.KINDS, BLANKED)\n")
    listed = {kind: "" for kind in tr.KINDS
              if kind not in (tr.META, tr.BPO, tr.BLANKED, tr.LEAD_SAMPLE)}
    assert unexplained_kinds(source, listed) == [tr.BLANKED, tr.LEAD_SAMPLE]


TEST_FILES =sorted(pathlib.Path(__file__).parent.glob("*.py"))
DIGEST = re.compile(r"[0-9a-fA-F]{64}")     # a sha256 written out in hex


def digest_literals(sources: dict[str, str]) -> list[str]:
    """`file:line` of every line in `sources` that holds 64 hex digits in a
    row."""
    return [f"{name}:{n}" for name, source in sorted(sources.items())
            for n, text in enumerate(source.splitlines(), 1)
            if DIGEST.search(text)]


def test_every_pin_is_in_the_ledger():
    assert digest_literals({path.name: path.read_text(encoding="utf-8")
                            for path in TEST_FILES}) == []


def test_the_check_sees_pinned_digests():
    digest = "0123456789abcdef" * 4
    sources = {
        "a.py": (f'assert h.hexdigest() == (\n    "{digest}")\n'
                 f"# {digest[1:]}\n"
                 f'PIN = "{digest.upper()}0"\n'),
        "b.py": "x = 1\n",
    }
    assert digest_literals(sources) == ["a.py:2", "a.py:4"]
