"""Inputs, items and correctness gates of the four workloads.

Inputs come only from the harness's own generators, seeded by ``--seed``;
seqident sees nothing but the generated diagrams, models and files.  Each
workload's pool is stratified by the input properties that decide which
layer does the work (stages, state counts, strategy counts), so two seeds
differ in structure and numbers but not in how much work a pass holds.

Every item builds fresh diagram, strategy and model objects from plain
declarations, so no ``cached_property`` cache of one item serves another.

A workload's ``tail_percentile`` is fixed: the highest percentile that had at
least ten item runs beyond it in a 25-second run on a 2-vCPU x86-64 host.
Were it chosen per run, a faster version would be judged at a higher
percentile.

A workload has:
  ``setup(rng, workdir, tiny)`` -> pool of items (``tiny`` keeps a few cheap ones)
  ``warm_items``                -> how many leading pool items set-up runs to warm up
  ``run(item, tracer)``         -> the timed work of one item
  ``digest(out)``               -> a comparable summary of the outputs
  ``check(item, out)``          -> (problems, facts); facts are input properties
"""

from __future__ import annotations

import itertools
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import seqident as sq
from seqident.diagram import REGIME
from seqident.stability import IdentifiabilityVerdict

_RANK = {"hidden": 0, "covariate": 1, "action": 2, "outcome": 3}
TOL = 1e-9


@dataclass(frozen=True)
class Decl:
    """Declarations of one staged diagram."""

    n_stages: int
    variables: tuple[tuple[str, str, int], ...]  # canonical order
    edges: tuple[tuple[str, str], ...]

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(v[0] for v in self.variables)

    def build(self) -> sq.StagedDiagram:
        return sq.staged_diagram(self.n_stages, self.variables, self.edges)


def _decl(
    rng, n: int, extras, p_edge: float, max_parents: int | None = None, confounded: bool = True
) -> Decl:
    """Actions A1..An, outcome Y, the given extra variables, random forward
    edges and the edge An -> Y.  Without ``confounded`` no hidden variable is
    a parent of an action."""
    variables = list(extras) + [(f"A{i}", "action", i) for i in range(1, n + 1)]
    variables.append(("Y", "outcome", n + 1))
    variables.sort(key=lambda v: (v[2], _RANK[v[1]]))
    labels = [v[0] for v in variables]
    kinds = {v[0]: v[1] for v in variables}
    edges = []
    for j, child in enumerate(labels):
        parents = [
            p
            for p in labels[:j]
            if rng.random() < p_edge
            and (confounded or kinds[child] != "action" or kinds[p] != "hidden")
        ]
        if max_parents is not None and len(parents) > max_parents:
            keep = sorted(rng.choice(len(parents), max_parents, replace=False))
            parents = [parents[i] for i in keep]
        if child == "Y" and f"A{n}" not in parents:
            parents.append(f"A{n}")
        edges.extend((p, child) for p in parents)
    return Decl(n, tuple(variables), tuple(edges))


def _history(decl: Decl, i: int) -> list[str]:
    """Observed labels the full-history spec lets action i consult."""
    return [
        lab
        for lab, kind, stage in decl.variables
        if (kind == "action" and stage < i) or (kind == "covariate" and stage <= i)
    ]


def _rows(rng, shape) -> np.ndarray:
    raw = rng.uniform(0.05, 1.0, size=shape)
    return raw / raw.sum(axis=-1, keepdims=True)


def _cpts(rng, d: sq.StagedDiagram, states: dict[str, int]) -> dict[str, np.ndarray]:
    """Interior CPTs, so positivity holds everywhere."""
    return {
        v: _rows(rng, tuple(states[p] for p in d.parents[v]) + (states[v],)) for v in d.labels
    }


def _deterministic_kernels(rng, decl: Decl, states: dict[str, int]) -> dict[str, np.ndarray]:
    """A random deterministic full-history strategy, as indicator tables."""
    out = {}
    for i in range(1, decl.n_stages + 1):
        a = f"A{i}"
        pshape = tuple(states[p] for p in _history(decl, i))
        out[a] = np.eye(states[a])[rng.integers(states[a], size=pshape)]
    return out


def _cells(states: dict[str, int]) -> int:
    return math.prod(states.values())


# ---------------------------------------------------------------- identify


def _moral_adjacency(g: sq.Dag, seed) -> dict[str, set[str]]:
    """Ancestral moral graph of seed, built independently of seqident.graph."""
    parents: dict[str, list[str]] = {lab: [] for lab in g.labels}
    for a, b in g.edge_labels():
        parents[b].append(a)
    keep: set[str] = set()
    todo = list(seed)
    while todo:
        n = todo.pop()
        if n not in keep:
            keep.add(n)
            todo.extend(parents[n])
    adj: dict[str, set[str]] = {n: set() for n in keep}
    for child in keep:
        ps = parents[child]
        for p in ps:
            adj[p].add(child)
            adj[child].add(p)
        for a, b in itertools.combinations(ps, 2):
            adj[a].add(b)
            adj[b].add(a)
    return adj


def _separation_queries(d: sq.StagedDiagram, spec) -> dict:
    """(check, stage) -> (graph, x, y, z), posed as each graphical check poses it."""
    n, y = d.n_stages, d.outcome_label
    aug = sq.augment_with_regime(d)
    q = {}
    for i in range(1, n + 2):
        past = d.actions_before(i) + d.covariates_before(i)
        hidden_now = d.hidden_labels(i) if i <= n else ()
        hidden_past = tuple(h for j in range(1, i) for h in d.hidden_labels(j))
        q["simple-stability", i] = (aug, d.covariate_block(i), (REGIME,), past)
        q["extended-stability", i] = (
            aug,
            hidden_now + d.covariate_block(i),
            (REGIME,),
            past + hidden_past,
        )
    for i in range(1, n + 1):
        hist = d.actions_before(i + 1) + d.covariates_through(i)
        q["general-criterion", i] = (sq.build_check_graph(d, spec, i), (y,), (REGIME,), hist)
        q["pearl-robins", i] = (
            sq.build_pearl_robins_graph(d.dag, d, spec, i),
            (y,),
            (d.action_label(i),),
            d.actions_before(i) + d.covariates_through(i),
        )
    return q


def _witness_problem(query, witness) -> str | None:
    """None iff the witness runs from y to x along ancestral-moral-graph edges
    and never touches the conditioning set."""
    g, x, y, z = query
    if witness[0] not in y or witness[-1] not in x:
        return "witness endpoints are not in the query sets"
    if set(witness) & set(z):
        return "witness touches the conditioning set"
    adj = _moral_adjacency(g, set(x) | set(y) | set(z))
    for a, b in zip(witness, witness[1:]):
        if b not in adj.get(a, ()):
            return f"witness step {a} - {b} is not a moral-graph edge"
    return None


class Identify:
    """Random staged diagrams through every graphical check and the verdict."""

    name = "identify"
    warm_items = 10
    tail_percentile = 99.0
    pool_size = 250

    def setup(self, rng, workdir: Path, tiny: bool) -> list:
        pool = []
        for k in range(5 if tiny else self.pool_size):
            n = 1 + k % 5  # stages stratified over 1..5
            extras = []
            for i in range(1, n + 1):
                if rng.random() < 0.5:
                    extras.append((f"U{i}", "hidden", i))
                if rng.random() < 0.6:
                    extras.append((f"L{i}", "covariate", i))
            while len(extras) > 8:
                extras.pop(int(rng.integers(len(extras))))
            decl = _decl(rng, n, extras, p_edge=0.5)
            restricted = {
                f"A{i}": [v for v in _history(decl, i) if rng.random() < 0.5]
                for i in range(1, n + 1)
            }
            pool.append((decl, restricted))
        return pool

    def run(self, item, tracer):
        decl, restricted = item
        d = decl.build()
        out = []
        for spec in (sq.full_history_spec(d), sq.parent_spec(d, restricted)):
            dn = sq.normalize_parents(d, spec)
            assumptions = sq.check_assumptions(dn, spec)
            reports = (
                sq.check_simple_stability(dn),
                sq.check_extended_stability(dn),
                sq.check_general(dn, spec),
                sq.check_pearl_robins(dn, spec),
                assumptions,
            )
            out.append((dn, spec, reports, sq.decide_identifiability(dn, spec)))
        return out

    def digest(self, out):
        return tuple((reports, decision.verdict) for _, _, reports, decision in out)

    def check(self, item, out):
        problems = []
        facts = {"nodes": len(item[0].variables), "stages": item[0].n_stages}
        facts["has_hidden"] = any(kind == "hidden" for _, kind, _ in item[0].variables)
        for k, (dn, spec, reports, decision) in enumerate(out):
            tag = ("full", "restricted")[k]
            simple, _, general, _, assumptions = reports
            if simple.passed:
                want = IdentifiabilityVerdict.IDENTIFIED_SIMPLE
            elif general.passed:
                want = IdentifiabilityVerdict.IDENTIFIED_GENERAL
            else:
                want = IdentifiabilityVerdict.NOT_GUARANTEED
            if decision.verdict is not want:
                problems.append(f"{tag}: verdict {decision.verdict.value}, reports say {want.value}")
            if decision.simple != simple or decision.assumptions != assumptions or (
                decision.general is not None and decision.general != general
            ):
                problems.append(f"{tag}: decision reports differ from the standalone reports")
            if k == 0 and not assumptions.passed:
                problems.append("full: regularity assumptions fail on a normalised diagram")
            facts[f"verdict_{tag}"] = decision.verdict.value
            queries = _separation_queries(dn, spec)
            for report in reports[:4]:
                for e in report.entries:
                    if e.verdict is None:
                        continue
                    if e.passed != e.verdict.separated:
                        problems.append(f"{tag} {report.check} i={e.index}: pass flag disagrees")
                    if e.verdict.witness is not None:
                        bad = _witness_problem(queries[report.check, e.index], e.verdict.witness)
                        if bad:
                            problems.append(f"{tag} {report.check} i={e.index}: {bad}")
        return problems, facts


# ---------------------------------------------------------------- evaluate


class Evaluate:
    """Hidden-heavy models through dense joints, all three evaluations and the
    numeric splice check."""

    name = "evaluate"
    warm_items = 1
    tail_percentile = 90.0
    # (stages, ternary variables): a hidden variable, a covariate and an
    # action per stage plus the outcome, so 10 or 13 variables and 5k to 1.6M
    # cells.  Every other slot lets hidden variables drive actions; the
    # others are the ones where the g-recursion gate usually applies.
    slots = tuple((3, t) for t in range(4, 11)) + tuple((4, t) for t in range(1, 14))

    def setup(self, rng, workdir: Path, tiny: bool) -> list:
        pool = []
        for j, (n, ternary) in enumerate(self.slots[:1] if tiny else self.slots):
            extras = []
            for i in range(1, n + 1):
                extras += [(f"U{i}", "hidden", i), (f"L{i}", "covariate", i)]
            confounded = j % 2 == 1
            decl = _decl(rng, n, extras, p_edge=0.4, max_parents=4, confounded=confounded)
            # ternary variables in a fixed order (hidden, covariates, actions,
            # outcome) so a slot's table shapes do not depend on the seed
            by_kind = sorted(decl.variables, key=lambda v: (_RANK[v[1]], v[2]))
            three = {lab for lab, _, _ in by_kind[:ternary]}
            states = {lab: 3 if lab in three else 2 for lab in decl.labels}
            cpts = _cpts(rng, decl.build(), states)
            kernels = _deterministic_kernels(rng, decl, states)
            loss = rng.uniform(0.0, 1.0, size=states["Y"])
            pool.append((decl, states, cpts, kernels, loss))
        return pool

    def run(self, item, tracer):
        decl, states, cpts, kernels, loss = item
        d = decl.build()
        m = sq.DiscreteModel(states=dict(states), cpts=dict(cpts))
        s = sq.make_stochastic(d, states, sq.full_history_spec(d), kernels)
        k = sq.loss_function(loss, d.outcome_label)
        issues = sq.validate_model(m, d)
        oc = sq.observational_conditionals(m, d)
        positivity = sq.check_positivity(m, d, s)
        g = sq.evaluate_g_recursion(oc, s, k).value
        o = sq.evaluate_oracle(m, d, s, k).value
        dec = sq.evaluate_decomposition(m, d, s, k).value
        splice = sq.check_theorem1_numeric(m, d, s)
        return d, issues, positivity.passed, g, o, dec, splice.passed

    def digest(self, out):
        return out[1:]

    def check(self, item, out):
        d, issues, positivity, g, o, dec, splice = out
        simple = sq.check_simple_stability(d).passed
        problems = [f"model issue {i.code} at {i.var}" for i in issues]
        if not positivity:
            problems.append("positivity fails on an interior model")
        if abs(dec - o) > TOL:
            problems.append(f"decomposition {dec!r} != oracle {o!r}")
        if simple and abs(g - o) > TOL:
            problems.append(f"identified, but g-recursion {g!r} != oracle {o!r}")
        facts = {
            "cells": _cells(item[1]),
            "stages": d.n_stages,
            "identified": simple,
            "splice_agrees": splice,
        }
        return problems, facts


# ---------------------------------------------------------------- optimize


def _strategy_count(states: dict[str, int], mapping: dict[str, list[str]]) -> int:
    return math.prod(states[a] ** math.prod(states[p] for p in ps) for a, ps in mapping.items())


class Optimize:
    """Backward induction on the full-history spec and brute force over a
    restricted spec, on fully observed models."""

    name = "optimize"
    warm_items = 1
    tail_percentile = 90.0
    # (stages, states per variable, target strategy count of the restricted spec);
    # each target is reachable for its (stages, states), so every seed's pass
    # enumerates the same number of strategies
    slots = (
        (2, 2, 64),
        (2, 3, 81),
        (3, 2, 64),
        (3, 3, 243),
        (3, 2, 256),
        (2, 2, 512),
        (2, 3, 729),
        (3, 2, 1024),
        (3, 3, 2187),
        (3, 2, 4096),
    )
    exact_gate_cap = 4096

    def setup(self, rng, workdir: Path, tiny: bool) -> list:
        pool = []
        for n, k, target in self.slots[:2] if tiny else self.slots:
            extras = [(f"L{i}", "covariate", i) for i in range(1, n + 1)]
            decl = _decl(rng, n, extras, p_edge=0.5)
            states = {lab: k for lab in decl.labels}
            full = [_history(decl, i) for i in range(1, n + 1)]
            best, best_gap = [], None
            for choice in itertools.product(
                *[[list(c) for r in range(len(h) + 1) for c in itertools.combinations(h, r)] for h in full]
            ):
                if list(choice) == full:
                    continue
                mapping = {f"A{i}": ps for i, ps in enumerate(choice, start=1)}
                gap = abs(math.log(_strategy_count(states, mapping) / target))
                if best_gap is None or gap < best_gap - 1e-12:
                    best, best_gap = [mapping], gap
                elif abs(gap - best_gap) <= 1e-12:
                    best.append(mapping)
            restricted = best[int(rng.integers(len(best)))]
            cpts = _cpts(rng, decl.build(), states)
            loss = rng.uniform(0.0, 1.0, size=k)
            pool.append((decl, states, cpts, restricted, loss))
        return pool

    def run(self, item, tracer):
        decl, states, cpts, restricted, loss = item
        d = decl.build()
        m = sq.DiscreteModel(states=dict(states), cpts=dict(cpts))
        k = sq.loss_function(loss, d.outcome_label)
        full = sq.full_history_spec(d)
        oc = sq.observational_conditionals(m, d)
        dp = sq.optimize_backward(oc, d, k, full)
        bf = sq.optimize_bruteforce(oc, d, k, sq.parent_spec(d, restricted))
        return d, oc, k, full, dp, bf

    def digest(self, out):
        dp, bf = out[4], out[5]
        choices = tuple((a, c.tobytes()) for a, c in sorted(dp.choices.items()))
        return dp.value, choices, bf.value, len(bf.argmax)

    def check(self, item, out):
        d, oc, k, full, dp, bf = out
        problems = []
        if not bf.value <= dp.value:
            problems.append(f"restricted optimum {bf.value!r} above full-history {dp.value!r}")
        decl, states = item[0], item[1]
        full_mapping = {f"A{i}": _history(decl, i) for i in range(1, decl.n_stages + 1)}
        exact = d.n_stages == 2 and _strategy_count(states, full_mapping) <= self.exact_gate_cap
        if exact:
            bf_full = sq.optimize_bruteforce(oc, d, k, full)
            if bf_full.value != dp.value:
                problems.append(f"brute force {bf_full.value!r} != backward {dp.value!r}")
            if not any(sq.strategies_equal(dp.strategy, s) for s in bf_full.argmax):
                problems.append("backward strategy not in the brute-force argmax set")
        facts = {
            "strategies": _strategy_count(states, item[3]),
            "stages": d.n_stages,
            "states": states["Y"],
            "exact_gate": exact,
        }
        return problems, facts


# ---------------------------------------------------------------- cli

_COMMANDS = (
    ("validate",),
    ("check", "--all"),
    ("report", "--format", "json", "--strategy", "s"),
    ("evaluate", "--strategy", "s"),
    ("optimize",),
)
_ENTRY = "import sys; from seqident.cli import main; sys.exit(main())"
_CHILD = Path(__file__).resolve().parent / "cli_child.py"


@dataclass
class _Reference:
    """In-process values the CLI output must reproduce."""

    checks: list[bool]
    verdict: str
    splice: bool
    value: float
    opt_value: float
    choices: dict[str, np.ndarray]


def _reference(pf) -> _Reference:
    d, m, k = pf.diagram, pf.model, pf.loss
    s = pf.strategy("s")
    spec = sq.full_history_spec(d)
    checks = [
        sq.check_simple_stability(d),
        sq.check_extended_stability(d),
        sq.check_general(d, spec),
        sq.check_pearl_robins(d, spec),
        sq.check_assumptions(d, spec),
    ]
    oc = sq.observational_conditionals(m, d)
    dp = sq.optimize_backward(oc, d, k, spec)
    return _Reference(
        checks=[r.passed for r in checks],
        verdict=sq.decide_identifiability(d, spec).verdict.value,
        splice=sq.check_theorem1_numeric(m, d, s).passed,
        value=sq.evaluate_g_recursion(oc, s, k).value,
        opt_value=dp.value,
        choices=dp.choices,
    )


def _float_after(line: str, prefix: str) -> float:
    if not line.startswith(prefix):
        raise ValueError(f"expected {prefix!r}, got {line[:60]!r}")
    return float(line[len(prefix):])


def _cli_problems(command: str, code: int, out: str, ref: _Reference) -> list[str]:
    lines = out.splitlines()
    verdict_code = 1 if ref.verdict == "NotGuaranteed" else 0
    want_code = verdict_code if command in ("check", "report") else 0
    problems = [] if code == want_code else [f"exit code {code}, expected {want_code}"]
    if command == "validate":
        if lines != ["ok"]:
            problems.append("validate did not print ok")
    elif command == "check":
        flags = [ln.endswith("PASS") for ln in lines if ln.startswith("[")]
        if flags != ref.checks:
            problems.append(f"check flags {flags} != {ref.checks}")
        if lines[-1] != f"verdict: {ref.verdict}":
            problems.append(f"check printed {lines[-1]!r}")
    elif command == "report":
        doc = json.loads(out)
        flags = [r["overall"] for r in doc["reports"]]
        if flags != ref.checks + [ref.splice]:
            problems.append(f"report flags {flags}")
        if doc["verdict"] != ref.verdict or doc["value"] != ref.value:
            problems.append("report verdict or value differs")
        table = doc["strategy_table"]
        if table["value"] != ref.opt_value or any(
            np.asarray(table["choices"][a]).tolist() != c.tolist() for a, c in ref.choices.items()
        ):
            problems.append("report strategy table differs")
    elif command == "evaluate":
        if _float_after(lines[0], "value ") != ref.value or len(lines) != 1:
            problems.append("evaluate value differs")
    else:
        if _float_after(lines[0], "value ") != ref.opt_value:
            problems.append("optimize value differs")
        printed = [int(ln.rsplit(" = ", 1)[1]) for ln in lines[1:]]
        want = [int(c) for a in sorted(ref.choices) for c in ref.choices[a].ravel()]
        if printed != want:
            problems.append("optimize strategy table differs")
    return problems


class Cli:
    """Whole ``seqident`` processes on generated model files."""

    name = "cli"
    warm_items = 1
    tail_percentile = 80.0
    # (stages, states per variable): strategy tables of 30, 42 and 2460 rows
    slots = ((2, 3), (3, 2), (4, 3))

    def __init__(self) -> None:
        self.parsed: dict[Path, object] = {}
        self.refs: dict[Path, _Reference] = {}
        self.env = dict(os.environ, PYTHONPATH=str(Path(sq.__file__).resolve().parent.parent))

    def setup(self, rng, workdir: Path, tiny: bool) -> list:
        pool = []
        for j, (n, k) in enumerate(self.slots[:1] if tiny else self.slots):
            extras = [("U1", "hidden", 1)] + [(f"L{i}", "covariate", i) for i in range(1, n + 1)]
            decl = _decl(rng, n, extras, p_edge=0.5, max_parents=4)
            d = decl.build()
            states = {lab: k for lab in decl.labels}
            spec = sq.full_history_spec(d)
            s = sq.make_stochastic(d, states, spec, _deterministic_kernels(rng, decl, states), "s")
            pf = sq.ParsedModelFile(
                diagram=d,
                model=sq.DiscreteModel(states=states, cpts=_cpts(rng, d, states)),
                strategies=(s,),
                loss=sq.loss_function(rng.uniform(0.0, 1.0, size=k), "Y"),
                strategy_specs={"s": spec},
            )
            text = sq.serialize_model_file(pf)
            back = sq.parse_model_file(text)
            problem = _round_trip_problem(pf, back, text)
            if problem:
                raise RuntimeError(f"model file {j} does not round-trip: {problem}")
            path = workdir / f"model{j}.sid"
            path.write_text(text)
            self.parsed[path] = back
            pool.extend((path, cmd) for cmd in _COMMANDS)
        return pool

    def run(self, item, tracer):
        path, cmd = item
        argv = [cmd[0], str(path), *cmd[1:]]
        if tracer is None:
            proc = subprocess.run(
                [sys.executable, "-c", _ENTRY, *argv],
                env=self.env, capture_output=True, text=True, timeout=120, check=False,
            )
            return proc.returncode, proc.stdout, proc.stderr
        spans = path.with_suffix(f".{cmd[0]}.trace.json")
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(_CHILD), str(spans), *argv],
            env=self.env, capture_output=True, text=True, timeout=120, check=False,
        )
        process_s = time.perf_counter() - t0
        child = json.loads(spans.read_text())
        spans.unlink()
        tracer.absorb(child)
        tracer.cli_processes.append(
            {"import_s": child["import_s"], "main_self_s": child["main_self_s"], "process_s": process_s}
        )
        return proc.returncode, proc.stdout, proc.stderr

    def digest(self, out):
        return out

    def check(self, item, out):
        path, cmd = item
        code, stdout, stderr = out
        if path not in self.refs:
            self.refs[path] = _reference(self.parsed[path])
        try:
            problems = _cli_problems(cmd[0], code, stdout, self.refs[path])
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        if stderr:
            problems.append(f"stderr: {stderr.strip()[:200]}")
        pf = self.parsed[path]
        facts = {
            "command": cmd[0],
            "lines": path.read_text().count("\n"),
            "cells": _cells(pf.model.states),
            "stages": pf.diagram.n_stages,
        }
        return [f"{cmd[0]}: {p}" for p in problems], facts


def _round_trip_problem(pf, back, text: str) -> str | None:
    if back.diagram != pf.diagram:
        return "diagram"
    if back.model.states != pf.model.states or any(
        not np.array_equal(back.model.cpts[v], pf.model.cpts[v]) for v in pf.model.states
    ):
        return "model"
    if not sq.strategies_equal(back.strategy("s"), pf.strategies[0]):
        return "strategy"
    if not np.array_equal(back.loss.values, pf.loss.values):
        return "loss"
    if sq.serialize_model_file(back) != text:
        return "serialized text"
    return None


WORKLOADS = {w.name: w for w in (Identify, Evaluate, Optimize, Cli)}
