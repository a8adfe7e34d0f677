"""Layered fusion networks of granular agents.

An agent owns a small discrete table (its universe), a nonempty set of
target rows inside it, and judges closeness by the exponential containment
with uniform per-feature weights.  Consumers sit above producers; a
consumer's features are the disjoint concatenation of its producers', its
rows are fusions of producer rows, and fusions of producer targets are
again targets.

Propagation folds a vector of input rows up the tree.  At each agent the
accumulated row is classified to the nearest target; the degrees obtained
at the producers bound the consumer's degree from below through the
Lukasiewicz t-norm, and the trace records how every fusion fared against
both that guaranteed bound and the stricter (not guaranteed) max-of-parts
reading.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
import shlex
from dataclasses import dataclass, field
from functools import cached_property, reduce
from pathlib import Path
from typing import Sequence

from .bits import MemberView, member_bits
from .dataset import CartesianRows, InformationSystem
from .errors import MereomlError, NetworkError, read_text
from .granulation import Granule
from .inclusion import FeatureWeights, exp_row_degree, t_lukasiewicz
from .logic import And, Formula

_BOUND_TOL = 1e-9


@dataclass(frozen=True)
class Agent:
    """One node of a fusion network.

    Input agents have no producers.  Consumers keep, for every row of their
    universe, the tuple of producer object ids it was fused from
    (``selectors``); over a full product universe that is the
    :class:`CartesianRows` of the producers' object ids.
    """

    name: str
    system: InformationSystem
    targets: tuple[int, ...]
    producers: tuple["Agent", ...] = ()
    selectors: tuple[tuple[int, ...], ...] | CartesianRows | None = None

    def __post_init__(self):
        if not self.targets:
            raise NetworkError(f"agent {self.name!r} has no targets")
        for t in self.targets:
            if not 0 <= t < len(self.system.rows):
                raise NetworkError(f"agent {self.name!r}: target {t} outside universe")
        if self.producers and self.selectors is None:
            raise NetworkError(f"consumer {self.name!r} lacks selectors")
        if self.selectors is not None and len(self.selectors) != len(self.system.rows):
            raise NetworkError(f"agent {self.name!r}: one selector per row required")

    @cached_property
    def feature_weights(self) -> FeatureWeights:
        return FeatureWeights.uniform(self.system.features)

    def __repr__(self):
        return f"Agent({self.name!r}, |U|={len(self.system.rows)}, targets={self.targets})"


def consumer_from(
    name: str,
    producers: Sequence[Agent],
    selectors: Sequence[tuple[int, ...]] | None = None,
) -> Agent:
    """Build the consumer of the given producers.

    Its universe is the Cartesian product of the producer universes, and a
    product row fusing only producer targets is a target.  Without
    selectors the whole product is the universe.  It stays implicit: rows
    and selectors are :class:`CartesianRows` that decode a row from its
    mixed-radix index on demand, and the targets are computed as such
    indices.  An explicit selector list (tuples of producer object ids)
    narrows the universe to those rows: each selector is one product index,
    and an id outside its producer raises :class:`NetworkError`.
    """
    if not producers:
        raise NetworkError("a consumer needs at least one producer")
    features: list[str] = []
    for p in producers:
        for f in p.system.features:
            if f in features:
                raise NetworkError(f"feature {f!r} owned by two producers of {name!r}")
            features.append(f)
    sizes = [len(p.system.rows) for p in producers]
    strides = [math.prod(sizes[k + 1:]) for k in range(len(sizes))]
    universe = CartesianRows(p.system.rows for p in producers)
    fused_targets = itertools.product(*(sorted(set(p.targets)) for p in producers))
    targets = tuple(sum(map(operator.mul, sel, strides)) for sel in fused_targets)
    if selectors is None:
        rows, selectors = universe, CartesianRows(tuple((i,) for i in range(n)) for n in sizes)
    else:
        indices = []
        for sel in selectors:
            if len(sel) != len(producers):
                raise NetworkError(f"selector {sel} has wrong arity for {name!r}")
            if not all(0 <= i < n for i, n in zip(sel, sizes)):
                raise NetworkError(f"selector {sel} of {name!r} is outside its producers")
            indices.append(sum(map(operator.mul, sel, strides)))
        rows = tuple(map(universe.__getitem__, indices))
        fused = set(targets)
        targets = tuple(i for i, k in enumerate(indices) if k in fused)
        selectors = tuple(map(tuple, selectors))
    return Agent(name, InformationSystem(tuple(features), rows), targets, tuple(producers), selectors)


@dataclass(frozen=True)
class Network:
    """Agents arranged in layers; producer links form a tree over layers.

    Every non-input agent's producers lie in the layer below, no producer
    feeds two consumers, and no producer is left dangling.  The top layer
    is a single output agent.
    """

    layers: tuple[tuple[Agent, ...], ...]

    def __post_init__(self):
        if not self.layers or not all(self.layers):
            raise NetworkError("a network needs nonempty layers")
        for a in self.layers[0]:
            if a.producers:
                raise NetworkError(f"input agent {a.name!r} must not have producers")
        _check_disjoint_features(self.layers[0])
        for below, layer in zip(self.layers, self.layers[1:]):
            fed: list[str] = []
            for a in layer:
                if not a.producers:
                    raise NetworkError(f"agent {a.name!r} above layer 0 needs producers")
                for p in a.producers:
                    if p not in below:
                        raise NetworkError(
                            f"agent {a.name!r} consumes {p.name!r} outside the previous layer"
                        )
                    if p.name in fed:
                        raise NetworkError(f"producer {p.name!r} feeds two consumers")
                    fed.append(p.name)
            if len(fed) != len(below):
                dangling = [p.name for p in below if p.name not in fed]
                raise NetworkError(f"producers {dangling} feed no consumer")
            _check_disjoint_features(layer)
        if len(self.layers[-1]) != 1:
            raise NetworkError("the output layer must hold exactly one agent")

    @property
    def output(self) -> Agent:
        return self.layers[-1][0]


def _check_disjoint_features(agents: Sequence[Agent]) -> None:
    seen: dict[str, str] = {}
    for a in agents:
        for f in a.system.features:
            if f in seen:
                raise NetworkError(
                    f"feature {f!r} shared by sibling agents {seen[f]!r} and {a.name!r}"
                )
            seen[f] = a.name


def fuse_entities(consumer: Agent, parts: Sequence[Sequence[str]]) -> tuple[str, ...]:
    """Concatenate one value row per producer into a consumer row."""
    if not consumer.producers:
        raise NetworkError(f"{consumer.name!r} is an input agent; nothing to fuse")
    if len(parts) != len(consumer.producers):
        raise NetworkError(
            f"{len(parts)} parts for {len(consumer.producers)} producers of {consumer.name!r}"
        )
    fused: tuple[str, ...] = ()
    for p, part in zip(consumer.producers, parts):
        if len(part) != len(p.system.features):
            raise NetworkError(
                f"part for {p.name!r} has {len(part)} values, expected {len(p.system.features)}"
            )
        fused += tuple(part)
    return fused


def fuse_degrees(r_b: float, r_c: float) -> float:
    """The guaranteed lower bound on a fused degree: max(0, r_b + r_c - 1)."""
    return t_lukasiewicz(r_b, r_c)


def fuse_granules(g_b: Granule, g_c: Granule, consumer: Agent) -> Granule:
    """Cartesian fusion of two producer granules inside the consumer universe."""
    if len(consumer.producers) != 2 or consumer.selectors is None:
        raise NetworkError(f"{consumer.name!r} does not fuse exactly two producers")
    bits = member_bits({
        i
        for i, (xb, xc) in enumerate(consumer.selectors)
        if xb in g_b.members and xc in g_c.members
    })
    centers = [
        i
        for i, sel in enumerate(consumer.selectors)
        if sel == (g_b.center, g_c.center)
    ]
    if not centers:
        raise NetworkError("fused center row missing from the consumer universe")
    return Granule(centers[0], fuse_degrees(g_b.radius, g_c.radius), MemberView(bits))


def fuse_formulas(phi_b: Formula, phi_c: Formula) -> Formula:
    return And(phi_b, phi_c)


def classify_to_target(agent: Agent, entity: Sequence[str]) -> tuple[int, float]:
    """Nearest target by exponential degree; ties go to the earliest target."""
    if len(entity) != len(agent.system.features):
        raise NetworkError(
            f"entity has {len(entity)} values, agent {agent.name!r} expects "
            f"{len(agent.system.features)}"
        )
    best_t, best_d = agent.targets[0], -1.0
    for t in agent.targets:
        d = exp_row_degree(entity, agent.system.rows[t], agent.feature_weights)
        if d > best_d:
            best_t, best_d = t, d
    return best_t, best_d


@dataclass(frozen=True)
class TraceStep:
    """One agent's verdict during propagation.

    ``lukasiewicz_bound`` and ``meets_max_bound`` are absent on input
    agents; on consumers they compare the achieved degree with the folded
    producer degrees.
    """

    layer: int
    agent: str
    entity: tuple[str, ...]
    target: int
    degree: float
    lukasiewicz_bound: float | None = None
    meets_max_bound: bool | None = None


@dataclass(frozen=True)
class DegreeTrace:
    steps: tuple[TraceStep, ...]
    final_target: int
    final_degree: float


def propagate(network: Network, inputs: Sequence[Sequence[str]]) -> DegreeTrace:
    """Fold input rows up the network, classifying at every agent.

    ``inputs`` holds one value row per layer-0 agent, in layer order.  Each
    consumer receives the concatenation of what its producers received, and
    its achieved degree must reach the Lukasiewicz fold of the producer
    degrees; falling below it means the universe construction is broken.
    """
    if len(inputs) != len(network.layers[0]):
        raise NetworkError(
            f"{len(inputs)} inputs for {len(network.layers[0])} input agents"
        )
    entities: dict[str, tuple[str, ...]] = {}
    degrees: dict[str, float] = {}
    steps: list[TraceStep] = []
    for li, layer in enumerate(network.layers):
        for ai, a in enumerate(layer):
            if li == 0:
                entity = tuple(inputs[ai])
                bound = None
                meets_max = None
            else:
                entity = fuse_entities(a, [entities[p.name] for p in a.producers])
                parts = [degrees[p.name] for p in a.producers]
                bound = reduce(fuse_degrees, parts)
            target, degree = classify_to_target(a, entity)
            if li > 0:
                if degree < bound - _BOUND_TOL:
                    raise NetworkError(
                        f"agent {a.name!r} fused degree {degree} below its "
                        f"guaranteed bound {bound}"
                    )
                meets_max = degree >= max(parts) - _BOUND_TOL
            entities[a.name] = entity
            degrees[a.name] = degree
            steps.append(
                TraceStep(li, a.name, entity, target, degree, bound, meets_max)
            )
    last = steps[-1]
    return DegreeTrace(tuple(steps), last.target, last.degree)


#: a quote, an escape, a comment, or whitespace other than space and tab:
#: a line holding none of them splits on whitespace as shlex would split it
_SHELL_SYNTAX = re.compile(r"['\"\\#]|[^\S \t]")


def _words(raw: str) -> list[str]:
    """The words shlex makes of a net line, comments dropped."""
    if _SHELL_SYNTAX.search(raw):
        # an unclosed quote is a malformed line too
        return shlex.split(raw, comments=True)
    return raw.split()


@dataclass
class _AgentBlock:
    """An agent's lines in a net file; ``producers`` only for an auto agent."""

    line: int
    name: str
    producers: list[str] | None
    features: tuple[str, ...] | None = None
    rows: list[tuple[str, ...]] = field(default_factory=list)
    targets: list[int] = field(default_factory=list)

    def build(self, by_name: dict[str, Agent]) -> Agent:
        """The block's agent, added to ``by_name``; an error names the block's line."""
        try:
            if self.producers is not None:
                if unknown := [n for n in self.producers if n not in by_name]:
                    raise NetworkError(f"unknown producer {unknown[0]!r}")
                agent = consumer_from(self.name, [by_name[n] for n in self.producers])
            elif self.features is None:
                raise NetworkError(f"agent {self.name!r} has no features line")
            else:
                system = InformationSystem(self.features, tuple(self.rows))
                agent = Agent(self.name, system, tuple(self.targets))
        except MereomlError as e:
            raise NetworkError(f"line {self.line}: {e}") from None
        by_name[self.name] = agent
        return agent


def load_network(path: str | Path) -> Network:
    """Read a network from a line-oriented description file.

    Format, one directive per line ('#' starts a comment):

        layer                      begin a new layer
        agent NAME                 begin an explicit agent
        features F1 F2 ...         its feature names (once)
        object V1 V2 ...           one universe row (repeat)
        target N                   mark row N as a target (repeat)
        agent NAME auto [P1 ...]   consumer fused from named producers
                                   (default: all agents of the previous layer)

    Agent names are unique, and a line has exactly the words shown.  All
    lines are read before any agent is built: a malformed line or a repeated
    name is reported first, an agent that cannot be built at its ``agent`` line.
    Auto consumers take the full Cartesian product universe, held
    implicitly (see :func:`consumer_from`): loading never builds its rows,
    which are decoded on demand.
    """
    layers: list[list[_AgentBlock]] = []
    # the line of each agent name, which keys producers, feeds and traces
    defined: dict[str, int] = {}
    for lineno, raw in enumerate(read_text(path).splitlines(), 1):
        try:
            words = _words(raw)
            if not words:
                continue
            directive, args = words[0], words[1:]
            arity = {"layer": 0, "target": 1, "agent": len(args) if args[1:2] == ["auto"] else 1}
            if len(args) != arity.get(directive, len(args)):
                raise ValueError
            if directive == "layer":
                layers.append([])
            elif directive == "agent":
                if not layers:
                    raise NetworkError("agent before any layer line")
                name = args[0]
                if name in defined:
                    raise NetworkError(f"agent {name!r} already defined at line {defined[name]}")
                defined[name] = lineno
                producers = None
                if len(args) >= 2 and args[1] == "auto":
                    if len(layers) < 2:
                        raise NetworkError("auto agent needs a previous layer")
                    producers = args[2:] or [b.name for b in layers[-2]]
                layers[-1].append(_AgentBlock(lineno, name, producers))
            elif directive in ("features", "object", "target"):
                block = layers[-1][-1] if layers and layers[-1] else None
                if block is None or block.producers is not None:
                    raise NetworkError(f"{directive!r} outside an explicit agent block")
                if directive == "features":
                    if block.features is not None:
                        raise NetworkError(f"agent {block.name!r} has a second features line")
                    block.features = tuple(args)
                elif directive == "object":
                    block.rows.append(tuple(args))
                else:
                    block.targets.append(int(args[0]))
            else:
                raise NetworkError(f"unknown directive {directive!r}")
        except ValueError:
            raise NetworkError(f"malformed line {lineno}: {raw.strip()!r}") from None
        except NetworkError as e:
            raise NetworkError(f"line {lineno}: {e}") from None
    by_name: dict[str, Agent] = {}
    return Network(tuple(tuple(b.build(by_name) for b in blocks) for blocks in layers))
