#!/usr/bin/env python
"""Repo invariant lint: an AST pass over ``src/repro`` run as a CI gate.

Eleven rules, each guarding an invariant the simulator's design depends on
(stdlib-only; no third-party linter required):

* ``mutable-default`` — a dataclass field whose default is a mutable
  literal or a shared call result (anything but ``dataclasses.field``),
  including ``field(default=<mutable>)``.  One instance's mutation leaks
  into every other — the exact defect PR 1 had to hand-audit out of
  ``tesseract/runtime.py`` and ``stacked/hmc.py``.
* ``wall-clock`` — importing ``time``/``random`` or calling
  ``datetime.now``/``utcnow`` inside the simulator.  The pipeline runs on
  a *virtual* clock with seeded NumPy RNGs; wall-clock time or process
  randomness makes runs unreproducible.
* ``frozen-mutation`` — ``self.attr = ...`` inside a method of a
  ``@dataclass(frozen=True)`` class: it raises ``FrozenInstanceError`` at
  runtime, so any such line is an untested path.  The sanctioned
  ``object.__setattr__`` idiom (used in ``__post_init__``) is not flagged.
* ``export-drift`` — an ``__all__`` entry that is not bound at module top
  level (or listed twice): the export list has drifted from the module.
* ``obs-wall-clock`` — importing ``time``/``random``/``datetime`` inside
  ``repro.obs``.  The observability plane stamps spans from the same
  virtual-clock timestamps the scheduler computed; a wall-clock read
  there would silently desynchronise traces from the simulation (and is
  the one place ``datetime`` imports are tempting, for "timestamps").
  Fires *instead of* the generic ``wall-clock`` rule on those files.
* ``cache-aliasing`` — a public method of ``repro.cache`` returning a
  stored buffer (``return something.data`` or ``return something[...]``)
  instead of a copy.  The result cache hands bitmaps to consumers that
  may mutate them in place; an aliased return would corrupt every later
  hit of that entry.  ``.copy()`` calls (and any other call result)
  pass.
* ``plane-aliasing`` — inside ``repro/database/`` and ``repro/storage/``,
  an in-place write through a name bound to an index plane
  (``…bitmaps[…][…]`` / ``planes[…]``) without an intervening
  ``.copy()``: a ``np.<ufunc>.at(plane, …)`` call, a subscript store
  ``plane[…] = …`` / ``plane[…] op= …``, or ``plane op= …``.  Lowered
  source operands are zero-copy views of the planes, so planes are
  copy-on-write — an in-place edit would rewrite the operands of reads
  already lowered into the same batch.
* ``knob-drift`` — inside ``repro/service/``, ``repro/cluster/`` and
  ``repro/api/``, an ``__init__`` parameter or dataclass field that
  re-declares a ``PipelineConfig`` knob (same name, and an annotation
  naming one of the knob's types — ``RetryClient(policy: BackoffPolicy)``
  is a different ``policy``).  The knobs are read off the config module's
  ``@dataclass``; every pipeline knob is declared, defaulted and validated
  there and passed whole, so adding the next one touches one file.  Only
  constructors count: ``BatchExecutor.run(functional=)`` is a per-call
  argument.  ``BatchExecutor.__init__``, the leaf that consumes
  ``pipeline`` / ``sanitize`` / ``verify_*``, carries the only waivers.
* ``obs-readback`` — under ``repro/`` outside ``repro/obs/``, a *read* of
  a recording: ``.value`` on the result of a ``.counter(…)`` /
  ``.gauge(…)`` call, ``.quantile(…)`` / ``.snapshot()`` on a
  ``.histogram(…)`` result, or ``<x>.obs.snapshot()`` /
  ``<x>.metrics.snapshot()`` (``ResultCache.snapshot()`` is the cache's
  own state, not a recording).  Simulation state decides, recordings
  describe: a decision that reads the plane back changes when the plane
  is shared, bound late or switched off — the hybrid hotness store and
  the elastic controller both did.  The object that owns a number keeps
  it and publishes a copy.  ``PimSession.report`` filling
  ``SessionReport.obs`` — a report, not a decision — carries the only
  waiver.
* ``terminal-write`` — under ``repro/``, an assignment to ``.admitted``,
  ``.rejected_reason`` or ``.finish_ns`` outside the tiers' settle methods
  (``ServiceFrontend._settle_rejected`` / ``_settle_completed``,
  ``ClusterFrontend._reject_record`` / ``_gather``, ``HostBackend.offer``).
  Those three attributes make a request envelope terminal, and the settle
  method is also where its counts are taken and its recording published:
  an inline ``record.admitted = False`` is a rejection no counter, span
  or roll-up hears about — the way ``frontend.completed`` and
  ``cluster.rejected`` once drifted from the state they describe.
* ``history-walk`` — inside ``repro/service/``, ``repro/cluster/`` and
  ``repro/api/``, a ``for`` loop or comprehension over ``self.records``
  outside a method named ``result`` (the lifetime roll-up) and the result
  containers — dataclasses such as ``PipelineResult`` / ``ClusterResult``,
  whose ``completed()`` / ``rejected()`` helpers read the snapshot they
  were handed.  A frontend's ``records`` is every envelope ever offered:
  walking it to find out what happened is a poll — late (a shed scatter
  part once left its record "queued" and its sibling running until the
  next ``drain()``) and quadratic under ``submit(...).result()`` per
  request.  An outcome is acted on at the settle door that produces it
  (``ServiceFrontend.on_settled`` → ``ClusterFrontend._part_settled``).

A finding is suppressed by a ``# lint: allow[<rule>]`` comment on its
line.  Run locally with::

    python tools/lint_invariants.py            # lints src/repro
    python tools/lint_invariants.py path ...   # lints specific files/trees

Exit status is 1 when any finding survives, so CI can gate on it.
"""

from __future__ import annotations

import ast
import functools
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

#: Rules this linter knows (the only rule names a waiver may reference).
RULES = (
    "mutable-default",
    "wall-clock",
    "frozen-mutation",
    "export-drift",
    "obs-wall-clock",
    "cache-aliasing",
    "plane-aliasing",
    "knob-drift",
    "obs-readback",
    "terminal-write",
    "history-walk",
)

_WAIVER_RE = re.compile(r"#\s*lint:\s*allow\[([a-z-]+)\]")

#: Stdlib modules whose import means wall-clock/process randomness.
_WALL_CLOCK_MODULES = {"time", "random"}

#: Modules banned inside ``repro.obs``: the tracing plane must only ever
#: see virtual-clock nanoseconds, so even ``datetime`` (allowed elsewhere
#: for formatting) is off-limits there.
_OBS_CLOCK_MODULES = {"time", "random", "datetime"}

#: Where ``PipelineConfig`` is declared (the one module knob-drift skips)
#: and the packages whose constructors may not re-declare its fields —
#: the serving tiers, which are also where history-walk applies.
_CONFIG_MODULE = "repro/service/config.py"
_KNOB_PACKAGES = ("repro/service/", "repro/cluster/", "repro/api/")

#: Where obs-readback applies: the simulator package, minus the plane itself.
_REPRO_RE = re.compile(r"(^|/)repro/")
_OBS_PACKAGE = "repro/obs/"

#: terminal-write: the attributes that make a request envelope terminal,
#: and the settle methods (per module) that alone may assign them.
_TERMINAL_ATTRS = {"admitted", "rejected_reason", "finish_ns"}
_SETTLE_METHODS = {
    "repro/service/frontend.py": {"_settle_rejected", "_settle_completed"},
    "repro/cluster/frontend.py": {"_reject_record", "_gather"},
    "repro/api/backends.py": {"offer"},
}

#: Mutable literal node types a default must never be.
_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)


@dataclass(frozen=True)
class Finding:
    """One lint finding, pointing at a file/line and naming its rule."""

    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def _waivers(source: str) -> Dict[int, Set[str]]:
    """Map line number -> rules waived on that line."""
    waived: Dict[int, Set[str]] = {}
    for number, text in enumerate(source.splitlines(), start=1):
        for match in _WAIVER_RE.finditer(text):
            waived.setdefault(number, set()).add(match.group(1))
    return waived


def _decorator_name(node: ast.expr) -> str:
    """Dotted name of a decorator (without call parentheses)."""
    target = node.func if isinstance(node, ast.Call) else node
    parts: List[str] = []
    while isinstance(target, ast.Attribute):
        parts.append(target.attr)
        target = target.value
    if isinstance(target, ast.Name):
        parts.append(target.id)
    return ".".join(reversed(parts))


def _dataclass_decorator(node: ast.ClassDef) -> Optional[ast.expr]:
    for decorator in node.decorator_list:
        if _decorator_name(decorator) in ("dataclass", "dataclasses.dataclass"):
            return decorator
    return None


def _is_frozen(decorator: ast.expr) -> bool:
    if not isinstance(decorator, ast.Call):
        return False
    for keyword in decorator.keywords:
        if keyword.arg == "frozen":
            return isinstance(keyword.value, ast.Constant) and keyword.value.value is True
    return False


def _terminal_name(node: ast.expr) -> str:
    """``x`` of ``x`` / ``anything.x`` ('' for any other expression)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _called_method(node: ast.expr) -> str:
    """``m`` of a ``<x>.m(...)`` call expression ('' for anything else)."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr
    return ""


def _is_plane_expr(node: ast.expr) -> bool:
    """``…bitmaps[…][…]`` or ``…planes[…]``: an index plane itself, not a copy."""
    if not isinstance(node, ast.Subscript):
        return False
    base = node.value
    if _terminal_name(base) == "planes":
        return True
    return isinstance(base, ast.Subscript) and _terminal_name(base.value) == "bitmaps"


def _is_field_call(node: ast.expr) -> bool:
    return isinstance(node, ast.Call) and _decorator_name(node) in (
        "field",
        "dataclasses.field",
    )


def _type_names(annotation: Optional[ast.expr]) -> Set[str]:
    """Type identifiers an annotation mentions (wrappers aside)."""
    names: Set[str] = set()
    for node in ast.walk(annotation) if annotation is not None else ():
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(re.findall(r"[A-Za-z_]\w*", node.value))
        elif isinstance(node, (ast.Name, ast.Attribute)):
            names.add(_terminal_name(node))
    return names - {"typing", "Optional", "Union", "None"}


def pipeline_knobs(source: str) -> Dict[str, Set[str]]:
    """``field -> type names`` of the ``PipelineConfig`` dataclass in the
    config module's source (the knob-drift pre-pass)."""
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.ClassDef)
            and node.name == "PipelineConfig"
            and _dataclass_decorator(node) is not None
        ):
            return {
                statement.target.id: _type_names(statement.annotation)
                for statement in node.body
                if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name)
            }
    return {}


@functools.lru_cache(maxsize=None)
def _repo_knobs() -> Dict[str, Set[str]]:
    config = Path(__file__).resolve().parent.parent / "src" / _CONFIG_MODULE
    return pipeline_knobs(config.read_text()) if config.exists() else {}


class _ModuleLinter(ast.NodeVisitor):
    """Collects findings for one parsed module."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.findings: List[Finding] = []
        # Frozen-dataclass nesting: methods of a frozen dataclass may not
        # assign to self; a nested non-frozen class resets the context.
        self._frozen_stack: List[bool] = []
        # Dataclass nesting: a result container may walk its own records.
        self._dataclass_stack: List[bool] = []
        # Observability modules get the stricter clock rule (obs-wall-clock
        # fires there instead of the generic wall-clock rule).  The fault
        # plan and elastic controller ride on the same rule: they schedule
        # and decide purely on the virtual clock, so host time in either
        # would silently desynchronize fault replay.
        normalized = path.replace("\\", "/")
        self._in_obs = any(
            fragment in normalized
            for fragment in (
                "repro/obs",
                "repro/cluster/faults",
                "repro/cluster/controller",
            )
        )
        # Cache modules get the aliasing rule on public-method returns.
        self._in_cache = "repro/cache" in normalized
        self._function_stack: List[str] = []
        # Index/storage modules get the copy-on-write plane rule: per
        # function, the names currently bound to an index plane.
        self._in_planes = any(
            fragment in normalized for fragment in ("repro/database", "repro/storage")
        )
        self._plane_aliases: List[Set[str]] = []
        # Service/cluster/api constructors may not re-declare a knob, and
        # nothing there walks the lifetime record list but the roll-up.
        self._in_history_scope = any(fragment in normalized for fragment in _KNOB_PACKAGES)
        self._in_knob_scope = self._in_history_scope and not normalized.endswith(_CONFIG_MODULE)
        # Everything in the simulator but the plane itself may only write
        # recordings, never read them back.
        in_repro = _REPRO_RE.search(normalized) is not None
        self._in_readback_scope = in_repro and _OBS_PACKAGE not in normalized
        # Everything in the simulator settles envelopes through the tiers'
        # doors: the methods of this module (if any) that may write the
        # terminal attributes, None outside the simulator.
        self._settle_methods: Optional[Set[str]] = None
        if in_repro:
            self._settle_methods = next(
                (names for suffix, names in _SETTLE_METHODS.items() if normalized.endswith(suffix)),
                set(),
            )

    def _add(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(
            Finding(path=self.path, line=getattr(node, "lineno", 0), rule=rule, message=message)
        )

    # -- mutable-default + frozen context ------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        decorator = _dataclass_decorator(node)
        if decorator is not None:
            self._check_dataclass_defaults(node)
        if self._in_knob_scope:
            self._check_knob_drift(node, is_dataclass=decorator is not None)
        self._frozen_stack.append(decorator is not None and _is_frozen(decorator))
        self._dataclass_stack.append(decorator is not None)
        self.generic_visit(node)
        self._dataclass_stack.pop()
        self._frozen_stack.pop()

    def _check_knob_drift(self, node: ast.ClassDef, is_dataclass: bool) -> None:
        knobs = _repo_knobs()
        declared: List[Tuple[ast.AST, str, Optional[ast.expr]]] = []
        for statement in node.body:
            if isinstance(statement, ast.FunctionDef) and statement.name == "__init__":
                arguments = statement.args
                for arg in arguments.posonlyargs + arguments.args + arguments.kwonlyargs:
                    declared.append((arg, arg.arg, arg.annotation))
            elif (
                is_dataclass
                and isinstance(statement, ast.AnnAssign)
                and isinstance(statement.target, ast.Name)
            ):
                declared.append((statement, statement.target.id, statement.annotation))
        for where, name, annotation in declared:
            types = knobs.get(name)
            if types is None:
                continue
            if annotation is None or types & _type_names(annotation):
                self._add(
                    where,
                    "knob-drift",
                    f"{node.name} re-declares the PipelineConfig knob {name!r}; take the "
                    f"config whole (knobs are declared only in {_CONFIG_MODULE})",
                )

    def _check_dataclass_defaults(self, node: ast.ClassDef) -> None:
        for statement in node.body:
            if isinstance(statement, ast.AnnAssign) and statement.value is not None:
                self._check_default(statement.value)
            elif isinstance(statement, ast.Assign):
                self._check_default(statement.value)

    def _check_default(self, value: ast.expr) -> None:
        if _is_field_call(value):
            assert isinstance(value, ast.Call)
            for keyword in value.keywords:
                if keyword.arg == "default" and self._is_shared_mutable(keyword.value):
                    self._add(
                        keyword.value,
                        "mutable-default",
                        "field(default=...) holds a mutable value shared by "
                        "every instance; use default_factory",
                    )
            return
        if self._is_shared_mutable(value):
            self._add(
                value,
                "mutable-default",
                "dataclass default is a mutable/shared object (every instance "
                "aliases it); use dataclasses.field(default_factory=...)",
            )

    @staticmethod
    def _is_shared_mutable(value: ast.expr) -> bool:
        if isinstance(value, _MUTABLE_LITERALS):
            return True
        # Any call result bound in the class body is evaluated once and
        # shared by every instance — mutable or not, it is an aliasing
        # hazard (and the immutable cases belong in a plain constant).
        return isinstance(value, ast.Call)

    # -- wall-clock / obs-wall-clock -----------------------------------
    def _clock_import(self, node: ast.AST, root: str, phrase: str) -> None:
        """Flag a clock-tainted import under whichever rule applies here."""
        if self._in_obs:
            if root in _OBS_CLOCK_MODULES:
                self._add(
                    node,
                    "obs-wall-clock",
                    f"{phrase} inside a virtual-clock control module "
                    "(repro.obs, the fault plan, the elastic controller): "
                    "only virtual-clock nanoseconds, never host time",
                )
        elif root in _WALL_CLOCK_MODULES:
            self._add(
                node,
                "wall-clock",
                f"{phrase}: the simulator runs on a virtual "
                "clock with seeded NumPy RNGs",
            )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".")[0]
            self._clock_import(node, root, f"import of {alias.name!r}")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        root = (node.module or "").split(".")[0]
        if node.level == 0:
            self._clock_import(node, root, f"import from {node.module!r}")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        name = _decorator_name(node)
        if name.endswith((".now", ".utcnow")) and "datetime" in name:
            self._add(node, "wall-clock", f"call of {name}: wall-clock reads are unreproducible")
        if (
            self._in_planes
            and name.startswith(("np.", "numpy."))
            and name.endswith(".at")
            and node.args
            and self._aliases_plane(node.args[0])
        ):
            self._plane_finding(node, f"{name}(...)")
        if self._in_readback_scope and isinstance(node.func, ast.Attribute):
            method, receiver = node.func.attr, node.func.value
            if method in ("quantile", "snapshot") and _called_method(receiver) == "histogram":
                self._readback_finding(node, f".histogram(...).{method}()")
            elif method == "snapshot" and _terminal_name(receiver) in ("obs", "metrics"):
                self._readback_finding(node, f"{_terminal_name(receiver)}.snapshot()")
        self.generic_visit(node)

    # -- obs-readback --------------------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            self._in_readback_scope
            and node.attr == "value"
            and isinstance(node.ctx, ast.Load)
            and _called_method(node.value) in ("counter", "gauge")
        ):
            self._readback_finding(node, f".{_called_method(node.value)}(...).value")
        self.generic_visit(node)

    def _readback_finding(self, node: ast.AST, what: str) -> None:
        self._add(
            node,
            "obs-readback",
            f"{what} reads a recording back: simulation state decides, recordings "
            "describe — keep the number on the object that owns it and publish a copy",
        )

    # -- cache-aliasing ------------------------------------------------
    def _visit_function(self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef]) -> None:
        self._function_stack.append(node.name)
        self._plane_aliases.append(set())
        self.generic_visit(node)
        self._plane_aliases.pop()
        self._function_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_Return(self, node: ast.Return) -> None:
        if (
            self._in_cache
            and self._function_stack
            and not self._function_stack[-1].startswith("_")
            and node.value is not None
        ):
            if isinstance(node.value, ast.Subscript) or (
                isinstance(node.value, ast.Attribute) and node.value.attr == "data"
            ):
                self._add(
                    node,
                    "cache-aliasing",
                    "public cache method returns a stored buffer directly; "
                    "return a .copy() so a consumer's in-place mutation "
                    "cannot corrupt later hits",
                )
        self.generic_visit(node)

    # -- plane-aliasing ------------------------------------------------
    def _aliases_plane(self, node: ast.expr) -> bool:
        """Is ``node`` an index plane (directly, or through a bound name)?"""
        if isinstance(node, ast.Name):
            return bool(self._plane_aliases) and node.id in self._plane_aliases[-1]
        return _is_plane_expr(node)

    def _plane_finding(self, node: ast.AST, what: str) -> None:
        self._add(
            node,
            "plane-aliasing",
            f"{what} writes an index plane in place; planes are copy-on-write "
            "(lowered operands alias them) — rebind the plane to a .copy() first",
        )

    def _check_plane_store(
        self, node: ast.AST, targets: Sequence[ast.expr], value: Optional[ast.expr]
    ) -> None:
        """Flag stores through a plane; then track what the names now hold.

        ``value`` is None for an augmented assignment, which mutates a
        bare name's array in place instead of rebinding it.
        """
        if not (self._in_planes and self._plane_aliases):
            return
        aliases = self._plane_aliases[-1]
        for target in targets:
            if isinstance(target, ast.Subscript) and self._aliases_plane(target.value):
                self._plane_finding(node, "subscript store")
            elif isinstance(target, ast.Name):
                if value is None:
                    if target.id in aliases:
                        self._plane_finding(node, "augmented assignment")
                elif self._aliases_plane(value):
                    aliases.add(target.id)
                else:
                    aliases.discard(target.id)  # e.g. rebound to a .copy()

    # -- terminal-write ------------------------------------------------
    def _check_terminal_write(self, node: ast.AST, targets: Sequence[ast.expr]) -> None:
        if self._settle_methods is None:
            return
        if self._function_stack and self._function_stack[-1] in self._settle_methods:
            return
        for target in targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                self._check_terminal_write(node, target.elts)
            elif isinstance(target, ast.Attribute) and target.attr in _TERMINAL_ATTRS:
                self._add(
                    node,
                    "terminal-write",
                    f"assignment to .{target.attr} outside a settle method: an envelope "
                    "goes terminal through its tier's one door, where the counts are "
                    "taken and the recording is published",
                )

    # -- history-walk --------------------------------------------------
    def _check_history_walk(self, node: Union[ast.For, ast.comprehension]) -> None:
        walked = node.iter
        if (
            self._in_history_scope
            and isinstance(walked, ast.Attribute)
            and walked.attr == "records"
            and _terminal_name(walked.value) == "self"
            and self._function_stack[-1:] != ["result"]
            and self._dataclass_stack[-1:] != [True]
        ):
            self._add(
                walked,
                "history-walk",
                "iteration over self.records outside result(): re-reading every "
                "envelope ever offered to find out what happened is a poll — act on "
                "an outcome at the settle door that produces it",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_history_walk(node)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_history_walk(node)
        self.generic_visit(node)

    # -- frozen-mutation -----------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        self._check_self_assign(node, node.targets)
        self._check_plane_store(node, node.targets, node.value)
        self._check_terminal_write(node, node.targets)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_self_assign(node, [node.target])
            self._check_plane_store(node, [node.target], node.value)
            self._check_terminal_write(node, [node.target])
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_self_assign(node, [node.target])
        self._check_plane_store(node, [node.target], None)
        self._check_terminal_write(node, [node.target])
        self.generic_visit(node)

    def _check_self_assign(self, node: ast.AST, targets: Sequence[ast.expr]) -> None:
        if not (self._frozen_stack and self._frozen_stack[-1]):
            return
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                self._add(
                    node,
                    "frozen-mutation",
                    f"assignment to self.{target.attr} inside a frozen dataclass "
                    "raises FrozenInstanceError at runtime",
                )


def _check_export_drift(path: str, tree: ast.Module, findings: List[Finding]) -> None:
    """``__all__`` names must each be bound once at module top level."""
    exported: Optional[ast.expr] = None
    bound: Set[str] = set()
    for statement in tree.body:
        if isinstance(statement, (ast.Import, ast.ImportFrom)):
            for alias in statement.names:
                bound.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(statement.name)
        elif isinstance(statement, ast.Assign):
            for target in statement.targets:
                if isinstance(target, ast.Name):
                    bound.add(target.id)
                    if target.id == "__all__":
                        exported = statement.value
        elif isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
            bound.add(statement.target.id)
    if exported is None or not isinstance(exported, (ast.List, ast.Tuple)):
        return
    seen: Set[str] = set()
    for element in exported.elts:
        if not (isinstance(element, ast.Constant) and isinstance(element.value, str)):
            continue
        name = element.value
        if name in seen:
            findings.append(
                Finding(path, element.lineno, "export-drift", f"__all__ lists {name!r} twice")
            )
        seen.add(name)
        if name not in bound:
            findings.append(
                Finding(
                    path,
                    element.lineno,
                    "export-drift",
                    f"__all__ exports {name!r} but the module never binds it "
                    "at top level",
                )
            )


def lint_source(source: str, path: str) -> List[Finding]:
    """Lint one module's source text; returns surviving findings."""
    tree = ast.parse(source, filename=path)
    linter = _ModuleLinter(path)
    linter.visit(tree)
    findings = linter.findings
    _check_export_drift(path, tree, findings)
    waived = _waivers(source)
    return [f for f in findings if f.rule not in waived.get(f.line, set())]


def collect_findings(paths: Iterable[Path]) -> List[Finding]:
    """Lint files/trees; directories are walked for ``*.py``."""
    findings: List[Finding] = []
    for path in paths:
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for file in files:
            findings.extend(lint_source(file.read_text(), str(file)))
    return findings


def main(argv: Sequence[str]) -> int:
    targets = [Path(arg) for arg in argv] or [Path("src/repro")]
    missing = [t for t in targets if not t.exists()]
    if missing:
        print(f"lint_invariants: no such path: {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    findings = collect_findings(targets)
    for finding in findings:
        print(finding)
    if findings:
        print(f"lint_invariants: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"lint_invariants: clean ({', '.join(map(str, targets))})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
